"""Fuzz ``hlcolor check`` with generated structure files: whatever the file
holds, the command exits 0, 1 or 2 and never raises.

Ring moduli stay at most 12, quotient rings at most 16 elements and group
orders at most 4, so no example builds a large structure.
"""

import contextlib
import io
import os
import tempfile

import pytest

from hlcolor.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

KINDS = (
    "quandle", "biquandle", "group table", "group zn", "mcq", "mcb", "gfamily-q", "gfamily-b",
    "alexander", "gfamily-alexander-q", "gfamily-alexander-b", "zkm-family",
)

ELEMENTS = st.one_of(
    st.integers(-2, 12).map(str),
    st.lists(st.integers(-1, 5), max_size=3).map(lambda cs: "[" + ",".join(map(str, cs)) + "]"),
    st.sampled_from(["t", "t^2", "1+t", "2*t^3", "x-1", "abc", ""]),
)


@st.composite
def rings(draw) -> str:
    m = draw(st.integers(-1, 12))
    if m <= 4 and draw(st.booleans()):
        poly = draw(st.lists(st.integers(-1, 4), min_size=1, max_size=2))
        poly.append(draw(st.sampled_from([1, 1, 0, 2])))
        return f"ring m={m} poly={','.join(map(str, poly))}"
    return f"ring m={m}"


@st.composite
def tables(draw, n: int, dash: bool = False) -> list[str]:
    cell = st.integers(-1, n).map(str)
    if dash:
        cell = st.one_of(cell, st.just("-"))
    return [" ".join(draw(st.lists(cell, min_size=n, max_size=n))) for _ in range(n)]


@st.composite
def structure_lines(draw, kind: str) -> list[str]:
    n = draw(st.integers(0, 4))
    gn = draw(st.integers(0, 4))
    if kind == "quandle":
        return [f"quandle n={n}", *draw(tables(n))]
    if kind == "biquandle":
        return [f"biquandle n={n}", "under:", *draw(tables(n)), "over:", *draw(tables(n))]
    if kind == "group table":
        return [f"group table n={n}", *draw(tables(n))]
    if kind == "group zn":
        return [f"group zn n={draw(st.integers(-1, 4))}"]
    if kind in ("mcq", "mcb"):
        labels = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
        lines = [f"{kind} n={n}", "partition: " + " ".join(map(str, labels)),
                 "prod:", *draw(tables(n, dash=True))]
        for name in ("star",) if kind == "mcq" else ("under", "over"):
            lines += [f"{name}:", *draw(tables(n))]
        return lines
    if kind == "gfamily-q":
        lines = [f"gfamily-q n={n} gn={gn}"]
        for g in range(gn):
            lines += [f"op {g}:", *draw(tables(n))]
        return lines
    if kind == "gfamily-b":
        lines = [f"gfamily-b n={n} gn={gn}"]
        for name in ("under", "over"):
            for g in range(gn):
                lines += [f"{name} {g}:", *draw(tables(n))]
        return lines
    ring = draw(rings())
    if kind == "alexander":
        s = f" s={draw(ELEMENTS)}" if draw(st.booleans()) else ""
        return [f"alexander ring={ring} t={draw(ELEMENTS)}{s}"]
    order = draw(st.integers(-1, 4))
    if kind == "gfamily-alexander-q":
        return [f"gfamily-alexander-q ring={ring} n={order} u={draw(ELEMENTS)}"]
    if kind == "gfamily-alexander-b":
        return [f"gfamily-alexander-b ring={ring} n={order} t={draw(ELEMENTS)} s={draw(ELEMENTS)}"]
    return [f"zkm-family from=inner.txt k={draw(st.integers(-1, 2))}"]


@st.composite
def structure_files(draw) -> tuple[str, str]:
    """A structure file, possibly with lines missing, and the quandle or small
    biquandle a zkm-family file may name."""
    lines = draw(structure_lines(draw(st.sampled_from(KINDS))))
    if len(lines) > 1 and draw(st.booleans()):
        del lines[draw(st.integers(1, len(lines) - 1)):]
    # biquandle types grow with n^2, so the inner file stays at two elements
    small_biquandle = ["biquandle n=2", "under:", "0 0", "1 1", "over:", "0 0", "1 1"]
    inner = draw(st.one_of(structure_lines("quandle"), st.just(small_biquandle)))
    return "\n".join(lines) + "\n", "\n".join(inner) + "\n"


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(structure_files())
def test_check_exits_0_1_or_2_on_any_structure_file(files):
    text, inner = files
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "structure.txt")
        for name, body in ((path, text), (os.path.join(tmp, "inner.txt"), inner)):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(body)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", path])
    assert code in (0, 1, 2)
