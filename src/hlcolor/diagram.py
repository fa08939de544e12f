"""Combinatorial diagrams of Y-oriented spatial trivalent graphs.

A diagram is a set of semi-arc identifiers wired through signed crossings
and oriented trivalent vertices, plus crossing-free loops.  Each non-loop
semi-arc starts at exactly one slot (a crossing out-slot, a merge's e3, or a
split's e1/e2) and ends at exactly one slot (a crossing in-slot, a merge's
e1/e2, or a split's e3).  Open (braid-shaped) diagrams relax this to "at
most one" on each side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class DiagramError(ValueError):
    """Syntax or validation error; the message names the offending item."""


def _strip_comment(line: str) -> str:
    """Drop a comment: a ``#`` at line start or preceded by whitespace.

    A ``#`` inside a token is id text (move-generated ids look like r2a#1).
    Every file format reads comments this way.
    """
    idx = line.find("#")
    while idx > 0 and not line[idx - 1].isspace():
        idx = line.find("#", idx + 1)
    return line if idx < 0 else line[:idx]


@dataclass(frozen=True)
class Crossing:
    sign: int
    over_in: str
    over_out: str
    under_in: str
    under_out: str

    def slots(self) -> tuple[str, str, str, str]:
        return (self.over_in, self.over_out, self.under_in, self.under_out)


@dataclass(frozen=True)
class Vertex:
    kind: str  # "merge": e1, e2 incoming, e3 outgoing; "split": e1, e2 outgoing, e3 incoming
    e1: str
    e2: str
    e3: str

    def slots(self) -> tuple[str, str, str]:
        return (self.e1, self.e2, self.e3)


class Diagram:
    def __init__(self, crossings=(), vertices=(), loops=(), declared=()):
        self.crossings: tuple[Crossing, ...] = tuple(crossings)
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.loops: tuple[str, ...] = tuple(sorted(set(loops)))
        mentioned = set(declared)
        for c in self.crossings:
            mentioned.update(c.slots())
        for v in self.vertices:
            mentioned.update(v.slots())
        self.semiarcs: tuple[str, ...] = tuple(sorted(mentioned))

    # -- structure maps -----------------------------------------------------

    def start_slots(self) -> dict[str, list[str]]:
        """semi-arc -> descriptions of slots where it starts (is produced)."""
        out: dict[str, list[str]] = {s: [] for s in self.semiarcs}
        for i, c in enumerate(self.crossings):
            out[c.over_out].append(f"crossing {i} over_out")
            out[c.under_out].append(f"crossing {i} under_out")
        for i, v in enumerate(self.vertices):
            if v.kind == "merge":
                out[v.e3].append(f"vertex {i} e3")
            else:
                out[v.e1].append(f"vertex {i} e1")
                out[v.e2].append(f"vertex {i} e2")
        return out

    def end_slots(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {s: [] for s in self.semiarcs}
        for i, c in enumerate(self.crossings):
            out[c.over_in].append(f"crossing {i} over_in")
            out[c.under_in].append(f"crossing {i} under_in")
        for i, v in enumerate(self.vertices):
            if v.kind == "merge":
                out[v.e1].append(f"vertex {i} e1")
                out[v.e2].append(f"vertex {i} e2")
            else:
                out[v.e3].append(f"vertex {i} e3")
        return out

    def validate(self, allow_open: bool = False) -> None:
        """Raise DiagramError on a malformed diagram; a diagram keeps the
        allow_open of the strictest check it passed and does not repeat it."""
        passed = getattr(self, "_validated", None)
        if passed is not None and (allow_open or not passed):
            return
        for lp in self.loops:
            if lp in self.semiarcs:
                raise DiagramError(f"loop id {lp!r} also appears in a record")
        starts, ends = self.start_slots(), self.end_slots()
        for s in self.semiarcs:
            if len(starts[s]) > 1:
                raise DiagramError(f"semi-arc {s!r} starts twice: {starts[s]}")
            if len(ends[s]) > 1:
                raise DiagramError(f"semi-arc {s!r} ends twice: {ends[s]}")
            if not allow_open:
                if not starts[s]:
                    raise DiagramError(f"semi-arc {s!r} has no start slot")
                if not ends[s]:
                    raise DiagramError(f"semi-arc {s!r} has no end slot")
        for v in self.vertices:
            if v.kind not in ("merge", "split"):
                raise DiagramError(f"unknown vertex kind {v.kind!r}")
        for c in self.crossings:
            if c.sign not in (1, -1):
                raise DiagramError(f"crossing sign must be +1/-1, got {c.sign}")
        self._validated = allow_open

    def is_closed(self) -> bool:
        starts, ends = self.start_slots(), self.end_slots()
        return all(starts[s] and ends[s] for s in self.semiarcs)

    def top_boundary(self) -> list[str]:
        """Semi-arcs consumed but never produced (inputs of an open diagram)."""
        starts, ends = self.start_slots(), self.end_slots()
        return sorted(s for s in self.semiarcs if ends[s] and not starts[s])

    def bottom_boundary(self) -> list[str]:
        starts, ends = self.start_slots(), self.end_slots()
        return sorted(s for s in self.semiarcs if starts[s] and not ends[s])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Diagram)
            and self.crossings == other.crossings
            and self.vertices == other.vertices
            and self.loops == other.loops
            and self.semiarcs == other.semiarcs
        )

    def __repr__(self) -> str:
        return (
            f"Diagram({len(self.semiarcs)} semi-arcs, {len(self.crossings)} crossings, "
            f"{len(self.vertices)} vertices, {len(self.loops)} loops)"
        )


# -- parsing / serialization -------------------------------------------------


def parse_diagram(text: str, allow_open: bool = False) -> Diagram:
    """Parse the line-oriented diagram grammar; validates before returning."""
    crossings: list[Crossing] = []
    vertices: list[Vertex] = []
    loops: list[str] = []
    declared: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "semiarc":
                if not args:
                    raise DiagramError("semiarc needs at least one id")
                declared.extend(args)
            elif kind == "loop":
                if len(args) != 1:
                    raise DiagramError("loop takes exactly one id")
                loops.append(args[0])
            elif kind in ("x+", "x-"):
                if len(args) != 4:
                    raise DiagramError(f"{kind} takes 4 semi-arc ids")
                crossings.append(Crossing(1 if kind == "x+" else -1, *args))
            elif kind in ("v<", "v>"):
                if len(args) != 3:
                    raise DiagramError(f"{kind} takes 3 semi-arc ids")
                vertices.append(Vertex("merge" if kind == "v<" else "split", *args))
            else:
                raise DiagramError(f"unknown record {kind!r}")
        except DiagramError as exc:
            raise DiagramError(f"line {lineno}, column 1: {exc}") from None
    d = Diagram(crossings, vertices, loops, declared)
    d.validate(allow_open=allow_open)
    return d


def serialize_diagram(d: Diagram) -> str:
    """Canonical form: sorted ids first, then records in declaration order."""
    lines = [f"semiarc {s}" for s in d.semiarcs]
    lines += [f"loop {l}" for l in d.loops]
    for c in d.crossings:
        kind = "x+" if c.sign > 0 else "x-"
        lines.append(f"{kind} {c.over_in} {c.over_out} {c.under_in} {c.under_out}")
    for v in d.vertices:
        kind = "v<" if v.kind == "merge" else "v>"
        lines.append(f"{kind} {v.e1} {v.e2} {v.e3}")
    return "\n".join(lines) + "\n"


# -- arcs ---------------------------------------------------------------------


def arcs_of(d: Diagram) -> dict[str, str]:
    """Map each semi-arc (and loop) to its arc representative.

    Two semi-arcs share an arc iff connected by over-strand passes; the
    representative is the lexicographically least member.  The map is
    computed once per diagram and kept on it, so callers must not mutate
    the result.
    """
    arcs = getattr(d, "_arcs", None)
    if arcs is None:
        arcs = d._arcs = _arc_map(d)
    return arcs


def _arc_map(d: Diagram) -> dict[str, str]:
    parent: dict[str, str] = {s: s for s in d.semiarcs}
    parent.update({l: l for l in d.loops})

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo

    for c in d.crossings:
        union(c.over_in, c.over_out)
    return {s: find(s) for s in parent}


def arc_classes(d: Diagram) -> dict[str, list[str]]:
    part = arcs_of(d)
    out: dict[str, list[str]] = {}
    for s, rep in part.items():
        out.setdefault(rep, []).append(s)
    for v in out.values():
        v.sort()
    return out


# -- transforms ----------------------------------------------------------------


def reverse(d: Diagram) -> Diagram:
    """Reverse all (semi-)arc orientations: swap in/out slots, merge <-> split.

    The left/right order of the two same-role edges at a vertex flips when
    the flow direction does, so e1 and e2 are exchanged as well.
    """
    crossings = [
        Crossing(c.sign, c.over_out, c.over_in, c.under_out, c.under_in)
        for c in d.crossings
    ]
    vertices = [
        Vertex("split" if v.kind == "merge" else "merge", v.e2, v.e1, v.e3)
        for v in d.vertices
    ]
    return Diagram(crossings, vertices, d.loops, d.semiarcs)


def mirror(d: Diagram) -> Diagram:
    """Reflect across a vertical line: flip crossing signs, swap e1/e2 at vertices."""
    crossings = [replace(c, sign=-c.sign) for c in d.crossings]
    vertices = [Vertex(v.kind, v.e2, v.e1, v.e3) for v in d.vertices]
    return Diagram(crossings, vertices, d.loops, d.semiarcs)


def reverse_mirror(d: Diagram) -> Diagram:
    """Compose reverse and mirror; same semi-arc ids."""
    return reverse(mirror(d))


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Concatenate two diagrams, renaming ids of the second on collision."""
    used = set(d1.semiarcs) | set(d1.loops)
    clash = (set(d2.semiarcs) | set(d2.loops)) & used

    def rename(s: str) -> str:
        if s not in clash:
            return s
        candidate = s + "'"
        while candidate in used:
            candidate += "'"
        return candidate

    mapping = {s: rename(s) for s in list(d2.semiarcs) + list(d2.loops)}
    crossings = list(d1.crossings) + [
        Crossing(c.sign, *(mapping[s] for s in c.slots())) for c in d2.crossings
    ]
    vertices = list(d1.vertices) + [
        Vertex(v.kind, *(mapping[s] for s in v.slots())) for v in d2.vertices
    ]
    loops = list(d1.loops) + [mapping[l] for l in d2.loops]
    declared = list(d1.semiarcs) + [mapping[s] for s in d2.semiarcs]
    return Diagram(crossings, vertices, loops, declared)


def relabel(d: Diagram, mapping: dict[str, str]) -> Diagram:
    """Apply a semi-arc renaming (ids not in the mapping stay put)."""

    def m(s: str) -> str:
        return mapping.get(s, s)

    return Diagram(
        [Crossing(c.sign, *(m(s) for s in c.slots())) for c in d.crossings],
        [Vertex(v.kind, *(m(s) for s in v.slots())) for v in d.vertices],
        [m(l) for l in d.loops],
        [m(s) for s in d.semiarcs],
    )


def diagrams_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """True iff d2 is d1 up to a semi-arc renaming (records in any order)."""
    if (
        len(d1.semiarcs) != len(d2.semiarcs)
        or len(d1.crossings) != len(d2.crossings)
        or len(d1.vertices) != len(d2.vertices)
        or len(d1.loops) != len(d2.loops)
    ):
        return False

    records1 = [("x", c.sign, c.slots()) for c in d1.crossings] + [
        ("v", v.kind, v.slots()) for v in d1.vertices
    ]
    records2 = [("x", c.sign, c.slots()) for c in d2.crossings] + [
        ("v", v.kind, v.slots()) for v in d2.vertices
    ]

    def backtrack(i: int, mapping: dict[str, str], used2: list[bool]) -> bool:
        if i == len(records1):
            return True
        kind, tag, slots = records1[i]
        for j, (kind2, tag2, slots2) in enumerate(records2):
            if used2[j] or kind != kind2 or tag != tag2:
                continue
            new = dict(mapping)
            ok = True
            for a, b in zip(slots, slots2):
                if new.get(a, b) != b or any(v == b and k != a for k, v in new.items()):
                    ok = False
                    break
                new[a] = b
            if not ok:
                continue
            used2[j] = True
            if backtrack(i + 1, new, used2):
                return True
            used2[j] = False
        return False

    return backtrack(0, {}, [False] * len(records2))


# -- braid-style construction --------------------------------------------------


def _build_braid_records(n_strands: int, word):
    tops = [f"t{j}" for j in range(n_strands)]
    positions = list(tops)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"s{counter}"

    crossings: list[Crossing] = []
    vertices: list[Vertex] = []
    for token in word:
        op, i = token[0], token[1]
        if op == "x":
            sign = token[2]
            if i + 1 >= len(positions):
                raise DiagramError(f"crossing position {i} out of range")
            over_out, under_out = fresh(), fresh()
            if sign > 0:
                # braid generator: strand at position i passes over position i+1
                over_in, under_in = positions[i], positions[i + 1]
                positions[i], positions[i + 1] = under_out, over_out
            else:
                # inverse generator: strand at position i passes under position i+1
                over_in, under_in = positions[i + 1], positions[i]
                positions[i], positions[i + 1] = over_out, under_out
            crossings.append(Crossing(sign, over_in, over_out, under_in, under_out))
        elif op == "m":
            if i + 1 >= len(positions):
                raise DiagramError(f"merge position {i} out of range")
            out = fresh()
            vertices.append(Vertex("merge", positions[i], positions[i + 1], out))
            positions[i : i + 2] = [out]
        elif op == "s":
            if i >= len(positions):
                raise DiagramError(f"split position {i} out of range")
            left, right = fresh(), fresh()
            vertices.append(Vertex("split", left, right, positions[i]))
            positions[i : i + 1] = [left, right]
        else:
            raise DiagramError(f"unknown braid token {token!r}")
    return crossings, vertices, tops, positions


def build_braid(n_strands: int, word) -> Diagram:
    """Build a (trivalent) braid diagram from a word of tokens.

    Tokens: ``("x", i, +1)`` is the braid generator (position i passes over
    position i+1), ``("x", i, -1)`` its inverse; ``("m", i)`` merges positions
    i, i+1; ``("s", i)`` splits position i.  Positions are 0-based.  The
    bottom ends are joined back to the matching top ends; build_braid_open
    leaves them open.
    """
    crossings, vertices, tops, positions = _build_braid_records(n_strands, word)
    if len(positions) != n_strands:
        raise DiagramError(
            f"cannot close: {len(positions)} bottom strands vs {n_strands} top strands"
        )
    mapping: dict[str, str] = {}
    loops = []
    for j, (top, bottom) in enumerate(zip(tops, positions)):
        if top == bottom:
            loops.append(f"l{j}")
        else:
            mapping[top] = bottom
    d = relabel(Diagram(crossings, vertices, loops), mapping)
    d.validate()
    return d


def build_braid_open(n_strands: int, word):
    """Open braid; returns (diagram, top ids, bottom ids) in position order."""
    crossings, vertices, tops, positions = _build_braid_records(n_strands, word)
    d = Diagram(crossings, vertices, declared=tops + positions)
    d.validate(allow_open=True)
    return d, tops, positions


# -- stock diagrams -------------------------------------------------------------


def loop_diagram(name: str = "l0") -> Diagram:
    return Diagram(loops=[name])


def trefoil() -> Diagram:
    return build_braid(2, [("x", 0, 1)] * 3)


def figure_eight() -> Diagram:
    return build_braid(3, [("x", 0, 1), ("x", 1, -1), ("x", 0, 1), ("x", 1, -1)])


def theta_curve() -> Diagram:
    return build_braid(1, [("s", 0), ("m", 0)])


def handcuff_clasp() -> Diagram:
    """A 2-vertex 2-crossing diagram of a genus-2 handlebody-knot."""
    return build_braid(1, [("s", 0), ("x", 0, 1), ("x", 0, 1), ("m", 0)])
