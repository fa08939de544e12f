"""Line-oriented file formats for structures, flows and colorings.

Every format starts with a header line whose first token names the kind.
``#`` starts a comment as in diagram files (``diagram._strip_comment``).
Ring literals are ``ring m=<int> poly=<c0,...,1>`` (poly omitted for Z_m);
elements are compact ``[c0,c1,...]`` or polynomial expressions.  Tables are rows of
integers; partial product tables use ``-`` for undefined (cross-block) entries.
"""

from __future__ import annotations

import os

import numpy as np

from hlcolor.algebra import (
    Biquandle,
    Quandle,
    alexander_biquandle,
    alexander_quandle,
    biquandle_check,
    quandle_check,
)
from hlcolor.diagram import _strip_comment
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
        line = _strip_comment(raw).strip()
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


# The explicit-table kinds: header words -> (class, sections in constructor
# order), each section a (label, attribute) pair.  A section is the
# ``partition:`` line, the ``prod:`` table (``-`` where the product is
# undefined), a table under its label ("" for none), or a label with ``{g}``:
# one table per element g of the family's Z_gn, whose group the constructor
# takes first.  The serializer reads the named attributes.
_TABLE_KINDS = {
    "quandle": (Quandle, [("", "table")]),
    "biquandle": (Biquandle, [("under:", "under"), ("over:", "over")]),
    "group table": (FiniteGroup, [("", "cayley")]),
    "mcq": (MCQ, [("partition:", "block_of"), ("prod:", "prod"), ("star:", "star")]),
    "mcb": (MCB, [("partition:", "block_of"), ("prod:", "prod"), ("under:", "under"),
                  ("over:", "over")]),
    "gfamily-q": (GFamilyQ, [("op {g}:", "ops")]),
    "gfamily-b": (GFamilyB, [("under {g}:", "under_ops"), ("over {g}:", "over_ops")]),
}


def parse_structure(text: str, base_dir: str = ".") -> object:
    """Parse a structure file body into the corresponding object."""
    lines = _clean_lines(text)
    if not lines:
        raise StructParseError("line 1: empty structure file")
    lineno, header = lines[0]
    tokens = header.split()
    fields = _fields([t for t in tokens[1:] if "=" in t], lineno)
    table_kind = _TABLE_KINDS.get(" ".join(tokens[:2])) or _TABLE_KINDS.get(tokens[0])
    try:
        if table_kind:
            return _parse_tables(lines, lineno, fields, *table_kind)
        return _parse_parameters(tokens, fields, lineno, base_dir)
    except KeyError as exc:
        raise StructParseError(f"line {lineno}: missing field {exc}") from None


def _parse_tables(lines, lineno, fields, cls, sections):
    n = int(fields["n"])
    family = "{g}" in sections[0][0]
    args = [cyclic_group(int(fields["gn"]))] if family else []
    pos = 1
    for label, _ in sections:
        if label == "partition:":
            if pos >= len(lines) or not lines[pos][1].startswith("partition:"):
                raise StructParseError(f"line {lineno}: expected 'partition:' line")
            plineno, ptext = lines[pos]
            part = [int(x) for x in ptext.split()[1:]]
            if len(part) != n:
                raise StructParseError(f"line {plineno}: partition needs {n} labels")
            args.append(part)
            pos += 1
            continue
        stack = []
        for text in [label.format(g=g) for g in range(args[0].n)] if family else [label]:
            if text:
                pos = _expect_label(lines, pos, text)
            rows, pos = _read_table(lines, pos, n, lineno, allow_dash=label == "prod:")
            stack.append(rows)
        args.append(stack if family else stack[0])
    return cls(*args)


def _parse_parameters(tokens, fields, lineno, base_dir):
    """The kinds whose header parameters name a constructor's arguments."""
    kind = tokens[0]
    if kind == "alexander":
        ring = _parse_ring_field(fields, lineno)
        t = parse_element(ring, fields["t"])
        if "s" in fields:
            return alexander_biquandle(ring, parse_element(ring, fields["s"]), t)
        return alexander_quandle(ring, t)
    if kind == "group":
        n = int(fields["n"])
        if tokens[1:2] == ["zn"]:
            return cyclic_group(n)
        raise StructParseError(f"line {lineno}: group kind must be 'zn' or 'table'")
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
        check = {Quandle: quandle_check, Biquandle: biquandle_check}.get(type(inner))
        if check is None:
            raise StructParseError(f"line {lineno}: zkm-family needs a quandle or biquandle file")
        if not check(inner).ok:
            raise StructParseError(f"line {lineno}: zkm-family source fails its axioms")
        make = zkm_family_from_quandle if check is quandle_check else zkm_family_from_biquandle
        return make(inner, k)
    raise StructParseError(f"line {lineno}: unknown structure kind {kind!r}")


def parse_structure_file(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        return parse_structure(fh.read(), base_dir=os.path.dirname(path) or ".")


def _table_lines(table) -> list[str]:
    """The rows of a table; ``-`` marks an undefined (negative) product entry."""
    return [" ".join("-" if v < 0 else str(v) for v in row) for row in np.asarray(table).tolist()]


def serialize_structure(obj) -> str:
    """Serialize to the canonical explicit-table file form."""
    for words, (cls, sections) in _TABLE_KINDS.items():
        if isinstance(obj, cls):
            break
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    family = "{g}" in sections[0][0]
    lines = [f"{words} n={obj.n}" + (f" gn={obj.group.n}" if family else "")]
    for label, attr in sections:
        value = getattr(obj, attr)
        if label == "partition:":
            lines.append("partition: " + " ".join(str(int(b)) for b in value))
        elif family:
            for g, table in enumerate(value):
                lines += [label.format(g=g)] + _table_lines(table)
        else:
            lines += [label] * bool(label) + _table_lines(value)
    return "\n".join(lines) + "\n"


# -- flows and colorings ------------------------------------------------------


def _assignments(lines, what: str) -> dict[str, int]:
    """The ``assign <what> <element>`` lines of a flow or coloring file."""
    out: dict[str, int] = {}
    for lno, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "assign":
            raise StructParseError(f"line {lno}: expected 'assign <{what}> <element>'")
        out[parts[1]] = _int(parts[2], lno, "element")
    return out


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
        if not isinstance(group, FiniteGroup):
            raise StructParseError(f"line {lineno}: the group= file must contain a group")
    else:
        raise StructParseError(f"line {lineno}: flow needs zn= or group=")
    return Flow.from_dict(group, _assignments(lines[1:], "arc"))


def parse_flow_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_flow(fh.read(), base_dir=os.path.dirname(path) or ".")


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
    return _assignments(lines[1:], "id")


def serialize_coloring(coloring) -> str:
    lines = ["coloring"]
    for key in sorted(coloring.assignment):
        lines.append(f"assign {key} {coloring.assignment[key]}")
    return "\n".join(lines) + "\n"
