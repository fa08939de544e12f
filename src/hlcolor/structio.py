"""Line-oriented file formats for structures, flows and colorings.

Every format starts with a header line whose first token names the kind.
``#`` starts a comment.  Ring literals are ``ring m=<int> poly=<c0,...,1>``
(poly omitted for Z_m); elements are compact ``[c0,c1,...]`` or polynomial
expressions.  Tables are rows of whitespace-separated integers; partial
product tables use ``-`` for undefined (cross-block) entries.
"""

from __future__ import annotations

import os

import numpy as np

from hlcolor.algebra import (
    Biquandle,
    Quandle,
    alexander_biquandle,
    alexander_quandle,
)
from hlcolor.gfamily import (
    GFamilyB,
    GFamilyQ,
    gfamily_alexander_b,
    gfamily_alexander_q,
    zkm_family_from_biquandle,
    zkm_family_from_quandle,
)
from hlcolor.groups import FiniteGroup, cyclic_group
from hlcolor.mcqb import MCB, MCQ
from hlcolor.rings import FiniteRing, parse_element, parse_ring_literal


class StructParseError(ValueError):
    """Parse failure; the message carries a line number."""


def _clean_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _int(text: str, line: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise StructParseError(f"line {line}: bad {what} {text!r}") from None


def _fields(tokens: list[str], line: int) -> dict[str, str]:
    """Parse key=value tokens; a ring= value swallows following ring tokens."""
    out: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if "=" not in tok:
            raise StructParseError(f"line {line}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key == "ring":
            parts = [val]
            while i + 1 < len(tokens) and tokens[i + 1].split("=", 1)[0] in ("m", "poly"):
                parts.append(tokens[i + 1])
                i += 1
            out[key] = " ".join(parts)
        else:
            out[key] = val
        i += 1
    return out


def _read_table(lines, pos, n, line_hint, allow_dash=False):
    rows = []
    for r in range(n):
        if pos >= len(lines):
            raise StructParseError(f"line {line_hint}: expected {n} table rows, got {r}")
        lineno, text = lines[pos]
        entries = text.split()
        if len(entries) != n:
            raise StructParseError(f"line {lineno}: expected {n} entries, got {len(entries)}")
        row = []
        for col, e in enumerate(entries, start=1):
            if e == "-" and allow_dash:
                row.append(-1)
            else:
                try:
                    row.append(int(e))
                except ValueError:
                    raise StructParseError(
                        f"line {lineno}, column {col}: bad table entry {e!r}"
                    ) from None
        rows.append(row)
        pos += 1
    return rows, pos


def _expect_label(lines, pos, label):
    if pos >= len(lines) or lines[pos][1].rstrip(":") != label.rstrip(":"):
        at = lines[pos][0] if pos < len(lines) else "eof"
        raise StructParseError(f"line {at}: expected {label!r} section")
    return pos + 1


def _parse_ring_field(fields: dict[str, str], line: int) -> FiniteRing:
    if "ring" not in fields:
        raise StructParseError(f"line {line}: missing ring= field")
    return parse_ring_literal(fields["ring"])


def parse_structure(text: str, base_dir: str = ".") -> object:
    """Parse a structure file body into the corresponding object."""
    lines = _clean_lines(text)
    if not lines:
        raise StructParseError("line 1: empty structure file")
    lineno, header = lines[0]
    tokens = header.split()
    kind = tokens[0]
    fields = _fields([t for t in tokens[1:] if "=" in t], lineno)
    pos = 1
    try:
        return _parse_structure_body(lines, lineno, tokens, kind, fields, pos, base_dir)
    except KeyError as exc:
        raise StructParseError(f"line {lineno}: missing field {exc}") from None


def _parse_structure_body(lines, lineno, tokens, kind, fields, pos, base_dir):

    if kind == "quandle":
        n = int(fields["n"])
        rows, pos = _read_table(lines, pos, n, lineno)
        return Quandle(rows)
    if kind == "biquandle":
        n = int(fields["n"])
        pos = _expect_label(lines, pos, "under:")
        under, pos = _read_table(lines, pos, n, lineno)
        pos = _expect_label(lines, pos, "over:")
        over, pos = _read_table(lines, pos, n, lineno)
        return Biquandle(under, over)
    if kind == "alexander":
        ring = _parse_ring_field(fields, lineno)
        t = parse_element(ring, fields["t"])
        if "s" in fields:
            return alexander_biquandle(ring, parse_element(ring, fields["s"]), t)
        return alexander_quandle(ring, t)
    if kind == "group":
        sub = tokens[1] if len(tokens) > 1 and "=" not in tokens[1] else None
        fields = _fields([t for t in tokens[1:] if "=" in t], lineno)
        n = int(fields["n"])
        if sub == "zn":
            return cyclic_group(n)
        if sub == "table":
            rows, pos = _read_table(lines, pos, n, lineno)
            return FiniteGroup(rows)
        raise StructParseError(f"line {lineno}: group kind must be 'zn' or 'table'")
    if kind in ("mcq", "mcb"):
        n = int(fields["n"])
        if pos >= len(lines) or not lines[pos][1].startswith("partition:"):
            raise StructParseError(f"line {lineno}: expected 'partition:' line")
        plineno, ptext = lines[pos]
        part = [int(x) for x in ptext.split()[1:]]
        if len(part) != n:
            raise StructParseError(f"line {plineno}: partition needs {n} labels")
        pos += 1
        pos = _expect_label(lines, pos, "prod:")
        prod, pos = _read_table(lines, pos, n, lineno, allow_dash=True)
        if kind == "mcq":
            pos = _expect_label(lines, pos, "star:")
            star, pos = _read_table(lines, pos, n, lineno)
            return MCQ(part, prod, star)
        pos = _expect_label(lines, pos, "under:")
        under, pos = _read_table(lines, pos, n, lineno)
        pos = _expect_label(lines, pos, "over:")
        over, pos = _read_table(lines, pos, n, lineno)
        return MCB(part, prod, under, over)
    if kind == "gfamily-alexander-q":
        ring = _parse_ring_field(fields, lineno)
        return gfamily_alexander_q(ring, int(fields["n"]), parse_element(ring, fields["u"]))
    if kind == "gfamily-alexander-b":
        ring = _parse_ring_field(fields, lineno)
        return gfamily_alexander_b(
            ring, int(fields["n"]),
            parse_element(ring, fields["t"]), parse_element(ring, fields["s"]),
        )
    if kind == "zkm-family":
        path = os.path.join(base_dir, fields["from"])
        inner = parse_structure_file(path)
        k = int(fields.get("k", "1"))
        if isinstance(inner, Quandle):
            return zkm_family_from_quandle(inner, k)
        if isinstance(inner, Biquandle):
            return zkm_family_from_biquandle(inner, k)
        raise StructParseError(f"line {lineno}: zkm-family needs a quandle or biquandle file")
    if kind in ("gfamily-q", "gfamily-b"):
        n = int(fields["n"])
        gn = int(fields["gn"])
        group = cyclic_group(gn)
        if kind == "gfamily-q":
            ops = []
            for g in range(gn):
                pos = _expect_label(lines, pos, f"op {g}:")
                rows, pos = _read_table(lines, pos, n, lineno)
                ops.append(rows)
            return GFamilyQ(group, ops)
        under_ops, over_ops = [], []
        for g in range(gn):
            pos = _expect_label(lines, pos, f"under {g}:")
            rows, pos = _read_table(lines, pos, n, lineno)
            under_ops.append(rows)
        for g in range(gn):
            pos = _expect_label(lines, pos, f"over {g}:")
            rows, pos = _read_table(lines, pos, n, lineno)
            over_ops.append(rows)
        return GFamilyB(group, under_ops, over_ops)
    raise StructParseError(f"line {lineno}: unknown structure kind {kind!r}")


def parse_structure_file(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        return parse_structure(fh.read(), base_dir=os.path.dirname(path) or ".")


def _table_lines(table) -> list[str]:
    return [" ".join(str(int(v)) for v in row) for row in np.asarray(table)]


def _prod_lines(prod) -> list[str]:
    out = []
    for row in np.asarray(prod):
        out.append(" ".join("-" if v < 0 else str(int(v)) for v in row))
    return out


def serialize_structure(obj) -> str:
    """Serialize to the canonical explicit-table file form."""
    if isinstance(obj, Quandle):
        lines = [f"quandle n={obj.n}"] + _table_lines(obj.table)
    elif isinstance(obj, Biquandle):
        lines = [f"biquandle n={obj.n}", "under:"] + _table_lines(obj.under)
        lines += ["over:"] + _table_lines(obj.over)
    elif isinstance(obj, FiniteGroup):
        lines = [f"group table n={obj.n}"] + _table_lines(obj.cayley)
    elif isinstance(obj, MCQ):
        lines = [f"mcq n={obj.n}"]
        lines += ["partition: " + " ".join(str(int(b)) for b in obj.block_of)]
        lines += ["prod:"] + _prod_lines(obj.prod)
        lines += ["star:"] + _table_lines(obj.star)
    elif isinstance(obj, MCB):
        lines = [f"mcb n={obj.n}"]
        lines += ["partition: " + " ".join(str(int(b)) for b in obj.block_of)]
        lines += ["prod:"] + _prod_lines(obj.prod)
        lines += ["under:"] + _table_lines(obj.under)
        lines += ["over:"] + _table_lines(obj.over)
    elif isinstance(obj, GFamilyQ):
        lines = [f"gfamily-q n={obj.n} gn={obj.group.n}"]
        for g in range(obj.group.n):
            lines += [f"op {g}:"] + _table_lines(obj.ops[g])
    elif isinstance(obj, GFamilyB):
        lines = [f"gfamily-b n={obj.n} gn={obj.group.n}"]
        for g in range(obj.group.n):
            lines += [f"under {g}:"] + _table_lines(obj.under_ops[g])
        for g in range(obj.group.n):
            lines += [f"over {g}:"] + _table_lines(obj.over_ops[g])
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"


# -- flows and colorings ------------------------------------------------------


def parse_flow(text: str, base_dir: str = "."):
    """``flow zn=<int>`` or ``flow group=<path>`` header, then ``assign <arc> <g>``."""
    from hlcolor.coloring import Flow

    lines = _clean_lines(text)
    if not lines or not lines[0][1].startswith("flow"):
        raise StructParseError("line 1: expected flow header")
    lineno, header = lines[0]
    fields = _fields(header.split()[1:], lineno)
    if "zn" in fields:
        n = _int(fields["zn"], lineno, "zn=")
        if n < 1:
            raise StructParseError(f"line {lineno}: zn= must be at least 1, got {n}")
        group = cyclic_group(n)
    elif "group" in fields:
        group = parse_structure_file(os.path.join(base_dir, fields["group"]))
    else:
        raise StructParseError(f"line {lineno}: flow needs zn= or group=")
    assignment = {}
    for lno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "assign":
            raise StructParseError(f"line {lno}: expected 'assign <arc> <element>'")
        assignment[parts[1]] = _int(parts[2], lno, "element")
    return Flow.from_dict(group, assignment)


def serialize_flow(flow) -> str:
    lines = [f"flow zn={flow.group.n}"]
    for arc, g in flow.assignment:
        lines.append(f"assign {arc} {g}")
    return "\n".join(lines) + "\n"


def parse_coloring_assignment(text: str) -> dict[str, int]:
    """``coloring`` header then ``assign <semi-arc-or-arc> <element index>``."""
    lines = _clean_lines(text)
    if not lines or lines[0][1].split()[0] != "coloring":
        raise StructParseError("line 1: expected coloring header")
    out: dict[str, int] = {}
    for lno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "assign":
            raise StructParseError(f"line {lno}: expected 'assign <id> <element>'")
        out[parts[1]] = _int(parts[2], lno, "element")
    return out


def serialize_coloring(coloring) -> str:
    lines = ["coloring"]
    for key in sorted(coloring.assignment):
        lines.append(f"assign {key} {coloring.assignment[key]}")
    return "\n".join(lines) + "\n"
