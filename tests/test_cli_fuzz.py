"""Fuzz the CLI: ``hlcolor check`` with generated structure files (whose
parsed objects must also serialize stably), ``hlcolor build`` of every kind
on those files and the corpus structures, ``hlcolor move`` with generated
diagram files, move names, directions, site ids, variants and
``--transport`` coloring files, ``hlcolor color --flow`` and ``hlcolor
flows`` with generated flow files, group files and orders, ``hlcolor color``
without ``--flow`` with generated structure and diagram files, and ``hlcolor
verify`` with corpus structures on corpus and mutated diagrams.  Whatever the
input, the command exits 0, 1, 2 or 3 and never raises.

Ring moduli stay at most 12, quotient rings at most 16 elements and group
orders at most 4, so no example builds a large structure; diagrams are small
corpus diagrams, possibly cut or extended, or a few random records.
"""

import contextlib
import io
import os
import tempfile

import pytest

from hlcolor.cli import main
from hlcolor.coloring import Coloring, coloring_vars, enumerate_colorings, enumerate_flows
from hlcolor.diagram import arcs_of, parse_diagram
from hlcolor.gfamily import GFamilyB, GFamilyQ, associated_mcb, associated_mcq
from hlcolor.groups import FiniteGroup, cyclic_group
from hlcolor.mcqb import MCB, MCQ, conjugation_mcq, quandle_lift_mcb
from hlcolor.moves import find_sites
from hlcolor.structio import (
    _TABLE_KINDS,
    parse_structure,
    parse_structure_file,
    serialize_coloring,
    serialize_flow,
    serialize_structure,
)

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
def tables(draw, n: int, dash: bool = False, in_range: bool = False) -> list[str]:
    cell = (st.integers(0, n - 1) if in_range else st.integers(-1, n)).map(str)
    if dash:
        cell = st.one_of(cell, st.just("-"))
    return [" ".join(draw(st.lists(cell, min_size=n, max_size=n))) for _ in range(n)]


@st.composite
def singleton_block_lines(draw, kind: str) -> list[str]:
    """An MCQ or MCB of one-element blocks, so that it parses, whose other
    tables take any values in range(n): their columns need not be permutations."""
    n = draw(st.integers(1, 4))
    prod = [" ".join(str(i) if i == j else "-" for j in range(n)) for i in range(n)]
    lines = [f"{kind} n={n}", "partition: " + " ".join(map(str, range(n))), "prod:", *prod]
    for name in ("star",) if kind == "mcq" else ("under", "over"):
        lines += [f"{name}:", *draw(tables(n, in_range=True))]
    return lines


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


# what hlcolor build's assoc, conj and lift targets make of any object of their kind
DERIVED = {GFamilyQ: associated_mcq, GFamilyB: associated_mcb, FiniteGroup: conjugation_mcq,
           MCQ: quandle_lift_mcb}


def test_serialize_parse_serialize_is_byte_identical_on_every_table_kind():
    """Each structure file of the check fuzz that parses, and what build
    derives from it, serializes to a text that parses back to that text; the
    texts cover every explicit-table kind."""
    kinds = set()

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(structure_files())
    def roundtrip(files):
        text, inner = files
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "inner.txt"), "w", encoding="utf-8") as fh:
                fh.write(inner)
            try:
                obj = parse_structure(text, base_dir=tmp)
            except ValueError:
                return
        while obj is not None:
            once = serialize_structure(obj)
            assert serialize_structure(parse_structure(once)) == once
            kinds.add(once.split(" n=", 1)[0])
            obj = DERIVED[type(obj)](obj) if type(obj) in DERIVED else None

    roundtrip()
    assert kinds == set(_TABLE_KINDS)


# -- move: diagrams, move arguments and transport files ------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SMALL_DIAGRAMS = ("trefoil", "theta", "loop", "kinked-unknot", "clasp", "union-loop-loop")
MOVE_NAMES = ("R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6", "R7", "r1a", "")
VARIANTS = ("", "under", "over", "+-", "-+", "merge", "split", "sideways")
# lift-s3-conj-mcb and s3-conj-mcq have S3 blocks, on which a transport can fail.
# Of the 300 examples of the arguments-and-transport test, 26 pass one of them
# to --structure (hypothesis 6.155, derandomized) and none reaches a failing
# transport; the error table test in tests/test_cli.py runs that case.
STRUCTURES = ("assoc-z3-z2-mcb", "s3-conj-mcq", "lift-s3-conj-mcb", "z3-z2-family", "dihedral3",
              "z8")
IDS = ("s1", "s2", "s3", "s4", "s5", "s6", "l0", "a", "r1a#1", "")
RECORDS = ("semiarc", "loop", "x+", "x-", "v<", "v>", "x0")


def _corpus_text(name: str) -> str:
    with open(os.path.join(CORPUS, "diagrams", f"{name}.txt"), encoding="utf-8") as fh:
        return fh.read()


@st.composite
def diagram_texts(draw) -> str:
    """A small corpus diagram with lines dropped or added, or a few random
    records."""
    lines = []
    if draw(st.booleans()):
        lines = _corpus_text(draw(st.sampled_from(SMALL_DIAGRAMS))).splitlines()
        if draw(st.booleans()):
            del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        args = draw(st.lists(st.sampled_from(IDS[:-1]), max_size=5))
        lines.append(" ".join([draw(st.sampled_from(RECORDS)), *args]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "  ", "x+"])))
    return "\n".join(lines) + "\n"


def _structure(name: str):
    """The corpus structure as ``move --structure`` reads it: a family stands
    for its associated MCB or MCQ."""
    x = parse_structure_file(os.path.join(CORPUS, "structures", f"{name}.txt"))
    if isinstance(x, GFamilyB):
        return associated_mcb(x)
    return associated_mcq(x) if isinstance(x, GFamilyQ) else x


@st.composite
def coloring_texts(draw, d, x) -> str:
    """A coloring of d by x (all zeros on the semi-arcs when x colors no
    diagram), possibly with one line changed, or random lines."""
    if not draw(st.booleans()):
        if isinstance(x, (MCB, MCQ)):
            colorings = enumerate_colorings(d, x, want_list=True).colorings
        else:
            colorings = [Coloring(x, dict.fromkeys(coloring_vars(d, False), 0))]
        if colorings:
            lines = serialize_coloring(draw(st.sampled_from(colorings))).splitlines()
            if len(lines) > 1 and draw(st.booleans()):
                i = draw(st.integers(1, len(lines) - 1))
                lines[i] = draw(st.sampled_from(["", "assign s1 -1", "assign s1 99", "assign a 0",
                                                 lines[i].rsplit(" ", 1)[0] + " 1"]))
            return "\n".join(lines) + "\n"
    lines = [draw(st.sampled_from(["coloring", "coloring", "colouring", ""]))]
    for _ in range(draw(st.integers(0, 8))):
        key = draw(st.sampled_from(IDS[:-1]))
        value = draw(st.sampled_from(["0", "1", "2", "5", "-1", "99", "x"]))
        lines.append(draw(st.sampled_from([f"assign {key} {value}", f"assign {key}"])))
    return "\n".join(lines) + "\n"


@st.composite
def move_calls(draw) -> tuple[str, str | None, list[str]]:
    """(diagram text, coloring text or None, the arguments after the diagram)
    on a corpus diagram; the site is often one that find_sites reports, so
    that the move and the transport run."""
    text = _corpus_text(draw(st.sampled_from(SMALL_DIAGRAMS)))
    d = parse_diagram(text)
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3))
    variant = draw(st.sampled_from(VARIANTS))
    sites = [site for move in MOVE_NAMES[:10] for direction in ("apply", "undo")
             for site in find_sites(d, move, direction)]
    if draw(st.integers(0, 3)) < 3:
        site = draw(st.sampled_from(sites))
        move, direction, ids = site.move, site.direction, list(site.ids)
        variant = draw(st.sampled_from([site.variant, site.variant, ""]))
    else:
        move = draw(st.sampled_from(MOVE_NAMES))
        direction = draw(st.sampled_from(["apply", "undo", "back"]))
    args = ["--move", move, "--direction", direction, "--site", ",".join(ids)]
    if variant:
        args += ["--variant", variant]
    coloring = None
    if not draw(st.booleans()):
        structure = draw(st.sampled_from(STRUCTURES))
        coloring = draw(coloring_texts(d, _structure(structure)))
        if draw(st.integers(0, 4)) < 4:
            args += ["--structure", os.path.join(CORPUS, "structures", f"{structure}.txt")]
    return text, coloring, args


def _run(argv: list[str], files: dict[str, str]) -> tuple[int, str]:
    """hlcolor on argv, with "{tmp}" in it naming a temporary directory that
    holds each files[name]; (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.replace("{tmp}", tmp) for a in argv])
    return code, err.getvalue()


def _run_move(text: str, coloring: str | None, args: list[str]) -> tuple[int, str]:
    """hlcolor move on the diagram text, with --transport when coloring is
    given; (exit code, stderr)."""
    argv = ["move", "{tmp}/diagram.txt", *args, "-o", "{tmp}/out.txt"]
    files = {"diagram.txt": text}
    if coloring is not None:
        files["coloring.txt"] = coloring
        argv += ["--transport", "{tmp}/coloring.txt", "--transport-out", "{tmp}/moved.txt"]
    return _run(argv, files)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(diagram_texts(), st.sampled_from(["s1", "l0", "a"]))
def test_move_exits_0_to_3_on_any_diagram_file(text, site):
    code, err = _run_move(text, None, ["--move", "R1a", f"--site={site}"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(move_calls())
def test_move_exits_0_to_3_on_any_arguments_and_transport_file(call):
    code, err = _run_move(*call)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# -- color --flow and flows: flow files, group files and orders ------------------------

# corpus families and the orders of their groups
FAMILIES = {"z3-z2-family": 2, "dihedral-z2-family": 2, "z5-z4-family": 4, "gr16-z3-family": 3}
GROUP_FILES = ("group zn n=2", "group zn n=3", "group zn n=0", "group table n=2\n0 1\n1 0",
               "group table n=2\n0 1", "group zn", "quandle n=1\n0", "")


@st.composite
def flow_texts(draw, d, order: int) -> str:
    """A flow file for d: a flow of d, mostly in Z_order, with lines dropped,
    added, changed or cut short, under a zn= or group= header or a broken one."""
    n = draw(st.sampled_from([order, order, order, 1, 2, 3, 4]))
    flows = enumerate_flows(d, cyclic_group(n))
    if flows and draw(st.booleans()):
        lines = serialize_flow(draw(st.sampled_from(flows))).splitlines()
    else:
        arcs = sorted(set(arcs_of(d).values()))
        lines = [f"flow zn={n}"] + [f"assign {a} {draw(st.integers(0, n - 1))}" for a in arcs]
    if not draw(st.integers(0, 2)):
        lines[0] = draw(st.sampled_from([
            f"flow zn={draw(st.integers(-1, 9))}", "flow group=group.txt", "flow group=none.txt",
            "flow", "flow zn=x", "flow zn=2 group=group.txt", "flo zn=2", "", "flow n=2",
        ]))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(lines)))
        edit = draw(st.sampled_from(["drop", "add", "value", "cut"]))
        if edit == "drop" and i < len(lines):
            del lines[i]
        elif edit == "add":
            key = draw(st.sampled_from(IDS[:-1]))
            lines.insert(i, f"assign {key} {draw(st.integers(-1, 9))}")
        elif edit == "value" and i < len(lines):
            value = draw(st.sampled_from(["-1", "4", "9", "x", "1.5", ""]))
            lines[i] = lines[i].rsplit(" ", 1)[0] + " " + value
        elif edit == "cut" and i < len(lines):
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


@st.composite
def color_flow_calls(draw) -> tuple[str, str, list[str]]:
    """(flow text, group file text, the arguments of color) on a corpus
    family and diagram."""
    name = draw(st.sampled_from(SMALL_DIAGRAMS))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    flow = draw(flow_texts(parse_diagram(_corpus_text(name)), FAMILIES[family]))
    args = [os.path.join(CORPUS, "structures", f"{family}.txt"),
            os.path.join(CORPUS, "diagrams", f"{name}.txt")]
    args += draw(st.sampled_from([[], ["--dim"], ["--list"], ["--dim", "--list"],
                                  ["--budget", "3"], ["--per-flow"]]))
    return flow, draw(st.sampled_from(GROUP_FILES)), args


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(color_flow_calls())
def test_color_flow_exits_0_to_3_on_any_flow_file(call):
    flow, group, args = call
    code, err = _run(["color", *args, "--flow", "{tmp}/flow.txt"],
                     {"flow.txt": flow, "group.txt": group + "\n"})
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(diagram_texts(), st.sampled_from(GROUP_FILES),
                  st.lists(st.sampled_from([["--zn", "-1"], ["--zn", "0"], ["--zn", "3"],
                                            ["--zn", "x"], ["--group", "{tmp}/group.txt"],
                                            ["--group", "{tmp}/none.txt"], ["--list"]]),
                           max_size=3))
def test_flows_exits_0_to_3_on_any_order_or_group_file(text, group, options):
    code, err = _run(["flows", "{tmp}/diagram.txt", *(a for o in options for a in o)],
                     {"diagram.txt": text, "group.txt": group + "\n"})
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# -- verify: MCBs and B-families against corpus and mutated diagrams -----------------

# every kind verify takes (an MCB, a G-family of biquandles, Alexander or not) and
# some it refuses (a quandle, a biquandle, an MCQ, a family of quandles, a group)
VERIFY_STRUCTURES = (
    "assoc-z3-z2-mcb", "lift-dihedral-mcb", "lift-s3-conj-mcb", "assoc-z5-z4-mcb",
    "z3-z2-family", "z5-z4-family", "gr16-z3-family", "dihedral-z2-family",
    "alex-z5-s2-t3", "s3-conj-mcq", "dihedral3", "s3",
)
CORPUS_DIAGRAMS = sorted(f[:-4] for f in os.listdir(os.path.join(CORPUS, "diagrams")))


@st.composite
def verify_calls(draw) -> tuple[str, list[str]]:
    """(diagram text, the arguments of verify after the two files): an
    unchanged corpus diagram or a mutated small one, with or without
    --per-flow (which reaches the linear path for Alexander families) and
    --budget."""
    if draw(st.integers(0, 2)):
        text = _corpus_text(draw(st.sampled_from(CORPUS_DIAGRAMS)))
    else:
        text = draw(diagram_texts())
    structure = draw(st.sampled_from(VERIFY_STRUCTURES))
    args = [os.path.join(CORPUS, "structures", f"{structure}.txt")]
    if draw(st.booleans()):
        args.append("--per-flow")
    if draw(st.booleans()):
        args += ["--budget", draw(st.sampled_from(["0", "1", "5", "40", "1000", "-1", "x"]))]
    return text, args


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(verify_calls())
def test_verify_exits_0_to_3_on_any_diagram_structure_and_budget(call):
    text, args = call
    code, err = _run(["--format", "machine", "verify", args[0], "{tmp}/diagram.txt", *args[1:]],
                     {"diagram.txt": text})
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# -- color: structure and diagram files, --count, --list and --budget ----------------

# every kind color takes (an MCB, an MCQ, a family of either, with Alexander and
# 72-element ones that count on the row executor) and some it refuses
COLOR_STRUCTURES = (
    "assoc-z3-z2-mcb", "lift-s3-conj-mcb", "s3-conj-mcq", "assoc-dihedral-z2-mcq",
    "z3-z2-family", "dihedral-z2-family", "z5-z4-family", "gr16-z3-family", "gf9-z8-family",
    "alex-z5-s2-t3", "dihedral3", "s3",
)


# the generated kinds that color takes once they parse
COLOR_KINDS = ("mcq", "mcb", "gfamily-q", "gfamily-b", "gfamily-alexander-q",
               "gfamily-alexander-b", "zkm-family")


@st.composite
def alexander_families(draw) -> list[str]:
    """An Alexander G-family over Z_m, m <= 9, of a group of order at most 6;
    it parses for about two in five draws, and its associated structure of up
    to 54 elements counts on the row executor from 16 elements on."""
    m, n = draw(st.integers(2, 9)), draw(st.integers(1, 6))
    unit = st.integers(0, m - 1)
    if draw(st.booleans()):
        return [f"gfamily-alexander-q ring=ring m={m} n={n} u={draw(unit)}"]
    return [f"gfamily-alexander-b ring=ring m={m} n={n} t={draw(unit)} s={draw(unit)}"]


@st.composite
def color_calls(draw) -> tuple[dict[str, str], list[str]]:
    """(files, the arguments of color): a generated or corpus structure file
    on a small corpus diagram or a generated diagram file, with --count or
    --list, with or without --budget."""
    diagram = st.one_of(st.sampled_from(SMALL_DIAGRAMS).map(_corpus_text), diagram_texts())
    files = {"diagram.txt": draw(diagram)}
    if draw(st.booleans()):
        lines = draw(st.one_of(alexander_families(),
                               st.sampled_from(COLOR_KINDS).flatmap(structure_lines),
                               st.sampled_from(("mcq", "mcb")).flatmap(singleton_block_lines)))
        files["structure.txt"] = "\n".join(lines) + "\n"
        files["inner.txt"] = "\n".join(draw(structure_lines("quandle"))) + "\n"
        structure = "{tmp}/structure.txt"
    else:
        name = draw(st.sampled_from(COLOR_STRUCTURES))
        structure = os.path.join(CORPUS, "structures", f"{name}.txt")
    args = ["color", structure, "{tmp}/diagram.txt", draw(st.sampled_from(["--count", "--list"]))]
    if draw(st.booleans()):
        args += ["--budget", draw(st.sampled_from(["0", "1", "5", "40", "1000", "-1", "x"]))]
    return files, args


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(color_calls())
def test_color_exits_0_to_3_on_any_structure_diagram_and_budget(call):
    files, args = call
    code, err = _run(["--format", "machine", *args], files)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# -- build: every kind on generated and corpus structure files -----------------------

BUILD_KINDS = ("assoc", "zkm", "conj", "lift", "tables")
CORPUS_STRUCTURES = sorted(f[:-4] for f in os.listdir(os.path.join(CORPUS, "structures")))


@st.composite
def build_calls(draw) -> tuple[dict[str, str], list[str]]:
    """(files, the arguments of build): any kind on a file of the check
    strategy, with the inner file a zkm-family file may name, or on a corpus
    structure file, with or without --k (-2 to 4) and -o."""
    files = {}
    if draw(st.booleans()):
        files["structure.txt"], files["inner.txt"] = draw(structure_files())
        source = "{tmp}/structure.txt"
    else:
        source = os.path.join(CORPUS, "structures", f"{draw(st.sampled_from(CORPUS_STRUCTURES))}.txt")
    args = ["build", draw(st.sampled_from(BUILD_KINDS)), source]
    if draw(st.integers(0, 3)):
        args += ["--k", str(draw(st.integers(-2, 4)))]
    if draw(st.booleans()):
        args += ["-o", "{tmp}/out.txt"]
    return files, args


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(build_calls())
def test_build_exits_0_to_3_on_any_structure_file_and_k(call):
    files, args = call
    code, err = _run(args, files)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
