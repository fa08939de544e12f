"""Reidemeister move engine: local rewrites R1-R6 on diagrams.

Every move is a local pattern rewrite with deterministic fresh-id allocation
(``<move>#<n>``).  Site conventions:

  R1a/R1b apply (s,)        kink a semi-arc or loop; variant "under"/"over"
                            picks which pass comes first (R1a positive sign,
                            R1b negative)
  R1a/R1b undo (mid,)       mid is the kink's middle semi-arc
  R2a apply (s, u)          slide s over a parallel strand u; variant "+-"
                            or "-+" gives the first crossing's sign
  R2b apply (s, u)          antiparallel variant
  R2a/R2b undo (m_over,)    m_over is the over strand's middle semi-arc
  R3 apply/undo (a, b, c)   the three in-ids of the braid-relation pattern
  R4a apply (e, s)          slide strand s (under the vertex edge e crosses
                            it at the site crossing) past the vertex; R4b
                            the over version; e, s are the crossing's in-ids
  R4a/R4b undo (sm,)        sm is the strand's middle semi-arc; variant
                            "merge"/"split" picks the vertex when ambiguous
  R5a/R5b apply/undo (e3,)  twist/untwist the vertex with third edge e3
                            (R5a positive twist crossing, R5b negative);
                            variant "merge"/"split" disambiguates shared e3
  R6 apply/undo (m,)        reassociate the two vertices joined by m

Rewrites preserve flow and coloring counts for every structure; colorings
transport uniquely across each rewrite (``transport_coloring``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from hlcolor.diagram import Crossing, Diagram, DiagramError, Vertex, arcs_of


class SiteMismatchError(ValueError):
    """The requested move pattern is not present at the given site."""


@dataclass(frozen=True)
class MoveSite:
    move: str
    direction: str  # "apply" | "undo"
    ids: tuple[str, ...]
    variant: str = ""


@dataclass
class MoveResult:
    diagram: Diagram
    inverse: MoveSite
    fresh: tuple[str, ...]
    removed: tuple[str, ...]


_MOVES = ("R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6")


class _Editor:
    """Mutable record view of a diagram with slot-level edit helpers."""

    def __init__(self, d: Diagram, prefix: str):
        self.crossings = list(d.crossings)
        self.vertices = list(d.vertices)
        self.loops = list(d.loops)
        used = set(d.semiarcs) | set(d.loops)
        pat = re.compile(re.escape(prefix) + r"#(\d+)$")
        top = 0
        for s in used:
            m = pat.match(s)
            if m:
                top = max(top, int(m.group(1)))
        self._prefix = prefix
        self._counter = top
        self.fresh_ids: list[str] = []

    def fresh(self) -> str:
        self._counter += 1
        name = f"{self._prefix}#{self._counter}"
        self.fresh_ids.append(name)
        return name

    def end_consumer(self, s: str):
        """(kind, index, slot) of the record consuming s, or None."""
        for i, c in enumerate(self.crossings):
            if c.over_in == s:
                return ("x", i, "over_in")
            if c.under_in == s:
                return ("x", i, "under_in")
        for i, v in enumerate(self.vertices):
            if v.kind == "merge":
                if v.e1 == s:
                    return ("v", i, "e1")
                if v.e2 == s:
                    return ("v", i, "e2")
            elif v.e3 == s:
                return ("v", i, "e3")
        return None

    def _set_slot(self, loc, value: str) -> None:
        kind, i, slot = loc
        if kind == "x":
            c = self.crossings[i]
            self.crossings[i] = Crossing(**{**c.__dict__, slot: value})
        else:
            v = self.vertices[i]
            self.vertices[i] = Vertex(**{**v.__dict__, slot: value})

    def reroute_end(self, old: str, new: str) -> None:
        """The record consuming `old` now consumes `new` (no-op if boundary)."""
        loc = self.end_consumer(old)
        if loc is not None:
            self._set_slot(loc, new)

    def splice(self, head: str, tail: str) -> str:
        """Join the strand head -> ... -> tail into one semi-arc after the
        interior records are gone; returns the surviving id, head.  A strand
        that closes up (head == tail) becomes the loop head."""
        if head == tail:
            self.loops.append(head)
            return head
        self.reroute_end(tail, head)
        return head

    def remove_crossing(self, c: Crossing) -> None:
        self.crossings.remove(c)

    def remove_vertex(self, v: Vertex) -> None:
        self.vertices.remove(v)

    def build(self, _removed=()) -> Diagram:
        d = Diagram(self.crossings, self.vertices, self.loops)
        d.validate(allow_open=True)
        return d


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SiteMismatchError(msg)


def _sign_of(move: str) -> int:
    return 1 if move.endswith("a") else -1


# -- R1 ---------------------------------------------------------------------


def _r1_apply(d: Diagram, site: MoveSite) -> MoveResult:
    (s,) = site.ids
    sign = _sign_of(site.move)
    variant = site.variant or "under"
    _require(variant in ("under", "over"), f"unknown R1 variant {site.variant!r}")
    ed = _Editor(d, site.move.lower())
    if s in ed.loops:
        # the loop keeps its id as the kink's outer semi-arc
        ed.loops.remove(s)
        f1 = ed.fresh()
        if variant == "under":
            ed.crossings.append(Crossing(sign, f1, s, s, f1))
        else:
            ed.crossings.append(Crossing(sign, s, f1, f1, s))
        return MoveResult(
            ed.build([]),
            MoveSite(site.move, "undo", (f1,), variant),
            (f1,),
            (),
        )
    _require(s in d.semiarcs, f"no semi-arc or loop {s!r}")
    f1, f2 = ed.fresh(), ed.fresh()
    ed.reroute_end(s, f2)
    if variant == "under":
        # s runs under first: under: s -> f1; over: f1 -> f2
        ed.crossings.append(Crossing(sign, f1, f2, s, f1))
    else:
        ed.crossings.append(Crossing(sign, s, f1, f1, f2))
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "undo", (f1,), variant),
        (f1, f2),
        (),
    )


def _r1_undo(d: Diagram, site: MoveSite) -> MoveResult:
    (mid,) = site.ids
    sign = _sign_of(site.move)
    hit = None
    for c in d.crossings:
        if c.sign != sign:
            continue
        if c.under_out == mid and c.over_in == mid:
            hit, variant = c, "under"
            head, tail = c.under_in, c.over_out
            break
        if c.over_out == mid and c.under_in == mid:
            hit, variant = c, "over"
            head, tail = c.over_in, c.under_out
            break
    _require(hit is not None, f"no {site.move} kink with middle {mid!r}")
    ed = _Editor(d, site.move.lower())
    ed.remove_crossing(hit)
    joined = ed.splice(head, tail)
    return MoveResult(
        ed.build([mid]),
        MoveSite(site.move, "apply", (joined,), variant),
        tuple(ed.fresh_ids),
        (mid, tail) if head != tail else (mid,),
    )


# -- R2 ---------------------------------------------------------------------


def _r2_apply(d: Diagram, site: MoveSite) -> MoveResult:
    s, u = site.ids
    _require(s != u, "R2 needs two distinct semi-arcs")
    _require(s in d.semiarcs and u in d.semiarcs, f"unknown semi-arcs {site.ids}")
    variant = site.variant or "+-"
    _require(variant in ("+-", "-+"), f"unknown R2 variant {site.variant!r}")
    sign1 = 1 if variant == "+-" else -1
    ed = _Editor(d, site.move.lower())
    if site.move == "R2a":
        f1, f2, f3, f4 = (ed.fresh() for _ in range(4))
        ed.reroute_end(s, f3)
        ed.reroute_end(u, f4)
        ed.crossings.append(Crossing(sign1, s, f1, u, f2))
        ed.crossings.append(Crossing(-sign1, f1, f3, f2, f4))
        mid = f1
    else:
        m1, m2, so, uo = (ed.fresh() for _ in range(4))
        ed.reroute_end(s, so)
        ed.reroute_end(u, uo)
        ed.crossings.append(Crossing(sign1, s, m1, m2, uo))
        ed.crossings.append(Crossing(-sign1, m1, so, u, m2))
        mid = m1
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "undo", (mid,), variant),
        tuple(ed.fresh_ids),
        (),
    )


def _r2_undo(d: Diagram, site: MoveSite) -> MoveResult:
    (mid,) = site.ids
    x1 = next((c for c in d.crossings if c.over_out == mid), None)
    x2 = next((c for c in d.crossings if c.over_in == mid), None)
    _require(x1 is not None and x2 is not None, f"no over strand through {mid!r}")
    _require(x1.sign == -x2.sign, "R2 pair must have opposite signs")
    ed = _Editor(d, site.move.lower())
    if site.move == "R2a":
        _require(
            x1.under_out == x2.under_in,
            "R2a pattern needs the under strand to run x1 -> x2",
        )
        s, u = x1.over_in, x1.under_in
        ed.remove_crossing(x1)
        ed.remove_crossing(x2)
        over_id = ed.splice(x1.over_in, x2.over_out)
        under_id = ed.splice(x1.under_in, x2.under_out)
    else:
        _require(
            x2.under_out == x1.under_in,
            "R2b pattern needs the under strand to run x2 -> x1",
        )
        s, u = x1.over_in, x2.under_in
        ed.remove_crossing(x1)
        ed.remove_crossing(x2)
        over_id = ed.splice(x1.over_in, x2.over_out)
        under_id = ed.splice(x2.under_in, x1.under_out)
    variant = "+-" if x1.sign > 0 else "-+"
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "apply", (over_id, under_id), variant),
        tuple(ed.fresh_ids),
        (mid,),
    )


# -- R3 ---------------------------------------------------------------------


def _find_crossing(d, over_in=None, under_in=None, sign=1):
    for c in d.crossings:
        if c.sign != sign:
            continue
        if over_in is not None and c.over_in != over_in:
            continue
        if under_in is not None and c.under_in != under_in:
            continue
        return c
    return None


def _r3_apply(d: Diagram, site: MoveSite) -> MoveResult:
    a, b, c = site.ids
    x1 = _find_crossing(d, over_in=a, under_in=b)
    _require(x1 is not None, f"no positive crossing (over {a}, under {b})")
    x2 = _find_crossing(d, over_in=x1.over_out, under_in=c)
    _require(x2 is not None, f"no positive crossing (over {x1.over_out}, under {c})")
    x3 = _find_crossing(d, over_in=x1.under_out, under_in=x2.under_out)
    _require(x3 is not None, "no third crossing completing the braid pattern")
    dd, ff, hh, ii = x1.over_out, x2.over_out, x3.over_out, x3.under_out
    ed = _Editor(d, "r3")
    for x in (x1, x2, x3):
        ed.remove_crossing(x)
    d2, e2, f2 = ed.fresh(), ed.fresh(), ed.fresh()
    ed.crossings.append(Crossing(1, b, d2, c, e2))
    ed.crossings.append(Crossing(1, a, f2, e2, ii))
    ed.crossings.append(Crossing(1, f2, ff, d2, hh))
    return MoveResult(
        ed.build([]),
        MoveSite("R3", "undo", (a, b, c)),
        tuple(ed.fresh_ids),
        (dd, x1.under_out, x2.under_out),
    )


def _r3_undo(d: Diagram, site: MoveSite) -> MoveResult:
    a, b, c = site.ids
    x1 = _find_crossing(d, over_in=b, under_in=c)
    _require(x1 is not None, f"no positive crossing (over {b}, under {c})")
    x2 = _find_crossing(d, over_in=a, under_in=x1.under_out)
    _require(x2 is not None, "no second crossing in the braid pattern")
    x3 = _find_crossing(d, over_in=x2.over_out, under_in=x1.over_out)
    _require(x3 is not None, "no third crossing in the braid pattern")
    ii, ff, hh = x2.under_out, x3.over_out, x3.under_out
    ed = _Editor(d, "r3")
    for x in (x1, x2, x3):
        ed.remove_crossing(x)
    dd, ee, gg = ed.fresh(), ed.fresh(), ed.fresh()
    ed.crossings.append(Crossing(1, a, dd, b, ee))
    ed.crossings.append(Crossing(1, dd, ff, c, gg))
    ed.crossings.append(Crossing(1, ee, hh, gg, ii))
    return MoveResult(
        ed.build([]),
        MoveSite("R3", "apply", (a, b, c)),
        tuple(ed.fresh_ids),
        (x1.over_out, x1.under_out, x2.over_out),
    )


# -- R4 ---------------------------------------------------------------------


def _vertex_producing(d, s):
    for v in d.vertices:
        if v.kind == "merge" and v.e3 == s:
            return v
    return None


def _vertex_consuming_e3(d, s):
    for v in d.vertices:
        if v.kind == "split" and v.e3 == s:
            return v
    return None


def _r4_leg_order(sign: int, under_version: bool) -> tuple[str, str]:
    """Which leg (by vertex slot) the strand crosses first, then second."""
    if under_version:
        return ("e2", "e1") if sign > 0 else ("e1", "e2")
    return ("e1", "e2") if sign > 0 else ("e2", "e1")


def _r4_apply(d: Diagram, site: MoveSite) -> MoveResult:
    e, s = site.ids
    under_version = site.move == "R4a"
    if under_version:
        x = next((c for c in d.crossings if c.over_in == e and c.under_in == s), None)
    else:
        x = next((c for c in d.crossings if c.under_in == e and c.over_in == s), None)
    _require(x is not None, f"no crossing with edge {e!r} and strand {s!r}")
    sign = x.sign
    e_out = x.over_out if under_version else x.under_out
    s_out = x.under_out if under_version else x.over_out
    merge_v = _vertex_producing(d, e)
    split_v = _vertex_consuming_e3(d, e_out)
    _require(
        merge_v is not None or split_v is not None,
        f"edge {e!r} is not adjacent to a vertex on the required side",
    )
    ed = _Editor(d, site.move.lower())
    ed.remove_crossing(x)
    first_slot, second_slot = _r4_leg_order(sign, under_version)
    pv, qv, sm = ed.fresh(), ed.fresh(), ed.fresh()
    legs_v = {"e1": pv, "e2": qv}
    if merge_v is not None:
        ed.remove_vertex(merge_v)
        legs_in = {"e1": merge_v.e1, "e2": merge_v.e2}
        if under_version:
            ed.crossings.append(Crossing(sign, legs_in[first_slot], legs_v[first_slot], s, sm))
            ed.crossings.append(Crossing(sign, legs_in[second_slot], legs_v[second_slot], sm, s_out))
        else:
            ed.crossings.append(Crossing(sign, s, sm, legs_in[first_slot], legs_v[first_slot]))
            ed.crossings.append(Crossing(sign, sm, s_out, legs_in[second_slot], legs_v[second_slot]))
        ed.vertices.append(Vertex("merge", pv, qv, e_out))
        removed = (e,)
        kind = "merge"
    else:
        ed.remove_vertex(split_v)
        legs_out = {"e1": split_v.e1, "e2": split_v.e2}
        if under_version:
            ed.crossings.append(Crossing(sign, legs_v[first_slot], legs_out[first_slot], s, sm))
            ed.crossings.append(Crossing(sign, legs_v[second_slot], legs_out[second_slot], sm, s_out))
        else:
            ed.crossings.append(Crossing(sign, s, sm, legs_v[first_slot], legs_out[first_slot]))
            ed.crossings.append(Crossing(sign, sm, s_out, legs_v[second_slot], legs_out[second_slot]))
        ed.vertices.append(Vertex("split", pv, qv, e))
        removed = (e_out,)
        kind = "split"
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "undo", (sm,), kind),
        tuple(ed.fresh_ids),
        removed,
    )


def _r4_undo(d: Diagram, site: MoveSite) -> MoveResult:
    (sm,) = site.ids
    under_version = site.move == "R4a"
    if under_version:
        x1 = next((c for c in d.crossings if c.under_out == sm), None)
        x2 = next((c for c in d.crossings if c.under_in == sm), None)
    else:
        x1 = next((c for c in d.crossings if c.over_out == sm), None)
        x2 = next((c for c in d.crossings if c.over_in == sm), None)
    _require(x1 is not None and x2 is not None, f"no strand middle {sm!r}")
    _require(x1.sign == x2.sign, "R4 pattern needs equal signs")
    sign = x1.sign
    s_in = x1.under_in if under_version else x1.over_in
    s_out = x2.under_out if under_version else x2.over_out
    leg1_v = x1.over_out if under_version else x1.under_out
    leg2_v = x2.over_out if under_version else x2.under_out
    leg1_in = x1.over_in if under_version else x1.under_in
    leg2_in = x2.over_in if under_version else x2.under_in
    first_slot, second_slot = _r4_leg_order(sign, under_version)
    want = site.variant or None
    merge_v = next(
        (
            v
            for v in d.vertices
            if v.kind == "merge"
            and getattr(v, first_slot) == leg1_v
            and getattr(v, second_slot) == leg2_v
        ),
        None,
    )
    split_v = next(
        (
            v
            for v in d.vertices
            if v.kind == "split"
            and getattr(v, first_slot) == leg1_in
            and getattr(v, second_slot) == leg2_in
        ),
        None,
    )
    if want == "merge":
        split_v = None
    elif want == "split":
        merge_v = None
    elif merge_v is not None and split_v is not None:
        raise SiteMismatchError(
            f"both vertex kinds match at {sm!r}; set the variant to merge/split"
        )
    _require(
        merge_v is not None or split_v is not None,
        "strand middle is not across a vertex's legs",
    )
    ed = _Editor(d, site.move.lower())
    ed.remove_crossing(x1)
    ed.remove_crossing(x2)
    r0 = ed.fresh()
    if merge_v is not None:
        ed.remove_vertex(merge_v)
        slots = {first_slot: leg1_in, second_slot: leg2_in}
        ed.vertices.append(Vertex("merge", slots["e1"], slots["e2"], r0))
        if under_version:
            ed.crossings.append(Crossing(sign, r0, merge_v.e3, s_in, s_out))
        else:
            ed.crossings.append(Crossing(sign, s_in, s_out, r0, merge_v.e3))
        edge_in = r0
        removed = (leg1_v, leg2_v, sm)
    else:
        ed.remove_vertex(split_v)
        slots = {first_slot: leg1_v, second_slot: leg2_v}
        ed.vertices.append(Vertex("split", slots["e1"], slots["e2"], r0))
        if under_version:
            ed.crossings.append(Crossing(sign, split_v.e3, r0, s_in, s_out))
        else:
            ed.crossings.append(Crossing(sign, s_in, s_out, split_v.e3, r0))
        edge_in = split_v.e3
        removed = (leg1_in, leg2_in, sm)
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "apply", (edge_in, s_in)),
        tuple(ed.fresh_ids),
        removed,
    )


# -- R5 ---------------------------------------------------------------------


def _vertex_by_e3(d: Diagram, e3: str, kind: str | None):
    hits = [v for v in d.vertices if v.e3 == e3 and (kind is None or v.kind == kind)]
    if len(hits) > 1:
        raise SiteMismatchError(
            f"two vertices share third edge {e3!r}; set the variant to merge/split"
        )
    return hits[0] if hits else None


def _r5_apply(d: Diagram, site: MoveSite) -> MoveResult:
    (e3,) = site.ids
    sign = _sign_of(site.move)
    v = _vertex_by_e3(d, e3, site.variant or None)
    _require(v is not None, f"no vertex with third edge {e3!r}")
    ed = _Editor(d, site.move.lower())
    ed.remove_vertex(v)
    pv, qv = ed.fresh(), ed.fresh()
    if v.kind == "merge":
        # positive twist: e1 passes over e2 before the vertex; slots swap
        if sign > 0:
            ed.crossings.append(Crossing(sign, v.e1, pv, v.e2, qv))
        else:
            ed.crossings.append(Crossing(sign, v.e2, qv, v.e1, pv))
        ed.vertices.append(Vertex("merge", qv, pv, e3))
    else:
        if sign > 0:
            ed.crossings.append(Crossing(sign, qv, v.e2, pv, v.e1))
        else:
            ed.crossings.append(Crossing(sign, pv, v.e1, qv, v.e2))
        ed.vertices.append(Vertex("split", qv, pv, e3))
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "undo", (e3,), v.kind),
        tuple(ed.fresh_ids),
        (),
    )


def _r5_undo(d: Diagram, site: MoveSite) -> MoveResult:
    (e3,) = site.ids
    sign = _sign_of(site.move)
    v = _vertex_by_e3(d, e3, site.variant or None)
    _require(v is not None, f"no vertex with third edge {e3!r}")
    ed = _Editor(d, site.move.lower())
    if v.kind == "merge":
        x = next(
            (
                c
                for c in d.crossings
                if c.sign == sign
                and ((sign > 0 and c.over_out == v.e2 and c.under_out == v.e1)
                     or (sign < 0 and c.over_out == v.e1 and c.under_out == v.e2))
            ),
            None,
        )
        _require(x is not None, f"vertex at {e3!r} is not {site.move}-twisted")
        ed.remove_vertex(v)
        ed.remove_crossing(x)
        p_in = x.over_in if sign > 0 else x.under_in
        q_in = x.under_in if sign > 0 else x.over_in
        ed.vertices.append(Vertex("merge", p_in, q_in, e3))
        removed = (v.e1, v.e2)
    else:
        x = next(
            (
                c
                for c in d.crossings
                if c.sign == sign
                and ((sign > 0 and c.over_in == v.e1 and c.under_in == v.e2)
                     or (sign < 0 and c.over_in == v.e2 and c.under_in == v.e1))
            ),
            None,
        )
        _require(x is not None, f"vertex at {e3!r} is not {site.move}-twisted")
        ed.remove_vertex(v)
        ed.remove_crossing(x)
        p_out = x.under_out if sign > 0 else x.over_out
        q_out = x.over_out if sign > 0 else x.under_out
        ed.vertices.append(Vertex("split", p_out, q_out, e3))
        removed = (v.e1, v.e2)
    return MoveResult(
        ed.build([]),
        MoveSite(site.move, "apply", (e3,), v.kind),
        tuple(ed.fresh_ids),
        removed,
    )


# -- R6 (IH move) -------------------------------------------------------------


def _r6_apply(d: Diagram, site: MoveSite) -> MoveResult:
    (m,) = site.ids
    ed = _Editor(d, "r6")
    # merge-merge: (a b) c -> a (b c)
    v2 = next((v for v in d.vertices if v.kind == "merge" and v.e1 == m), None)
    v1 = next((v for v in d.vertices if v.kind == "merge" and v.e3 == m), None)
    if v1 is not None and v2 is not None and v1 is not v2:
        a, b, c, out = v1.e1, v1.e2, v2.e2, v2.e3
        ed.remove_vertex(v1)
        ed.remove_vertex(v2)
        m2 = ed.fresh()
        ed.vertices.append(Vertex("merge", b, c, m2))
        ed.vertices.append(Vertex("merge", a, m2, out))
        return MoveResult(
            ed.build([]), MoveSite("R6", "undo", (m2,)), tuple(ed.fresh_ids), (m,)
        )
    # split-split: with middle produced at e2 of the upper split
    v1 = next((v for v in d.vertices if v.kind == "split" and v.e2 == m), None)
    v2 = next((v for v in d.vertices if v.kind == "split" and v.e3 == m), None)
    if v1 is not None and v2 is not None and v1 is not v2:
        a, inp, b, c = v1.e1, v1.e3, v2.e1, v2.e2
        ed.remove_vertex(v1)
        ed.remove_vertex(v2)
        m2 = ed.fresh()
        ed.vertices.append(Vertex("split", m2, c, inp))
        ed.vertices.append(Vertex("split", a, b, m2))
        return MoveResult(
            ed.build([]), MoveSite("R6", "undo", (m2,)), tuple(ed.fresh_ids), (m,)
        )
    # mixed: merge into split -> split then merge
    v1 = next((v for v in d.vertices if v.kind == "merge" and v.e3 == m), None)
    v2 = next((v for v in d.vertices if v.kind == "split" and v.e3 == m), None)
    if v1 is not None and v2 is not None:
        a, b, c, dd = v1.e1, v1.e2, v2.e1, v2.e2
        ed.remove_vertex(v1)
        ed.remove_vertex(v2)
        m2 = ed.fresh()
        ed.vertices.append(Vertex("split", c, m2, a))
        ed.vertices.append(Vertex("merge", m2, b, dd))
        return MoveResult(
            ed.build([]), MoveSite("R6", "undo", (m2,)), tuple(ed.fresh_ids), (m,)
        )
    raise SiteMismatchError(f"no reassociable vertex pair across {m!r}")


def _r6_undo(d: Diagram, site: MoveSite) -> MoveResult:
    (m,) = site.ids
    ed = _Editor(d, "r6")
    # undo merge-merge: a (b c) -> (a b) c
    v2 = next((v for v in d.vertices if v.kind == "merge" and v.e2 == m), None)
    v1 = next((v for v in d.vertices if v.kind == "merge" and v.e3 == m), None)
    if v1 is not None and v2 is not None and v1 is not v2:
        b, c, a, out = v1.e1, v1.e2, v2.e1, v2.e3
        ed.remove_vertex(v1)
        ed.remove_vertex(v2)
        m2 = ed.fresh()
        ed.vertices.append(Vertex("merge", a, b, m2))
        ed.vertices.append(Vertex("merge", m2, c, out))
        return MoveResult(
            ed.build([]), MoveSite("R6", "apply", (m2,)), tuple(ed.fresh_ids), (m,)
        )
    # undo split-split
    v1 = next((v for v in d.vertices if v.kind == "split" and v.e1 == m), None)
    v2 = next((v for v in d.vertices if v.kind == "split" and v.e3 == m), None)
    if v1 is not None and v2 is not None and v1 is not v2:
        c, inp, a, b = v1.e2, v1.e3, v2.e1, v2.e2
        ed.remove_vertex(v1)
        ed.remove_vertex(v2)
        m2 = ed.fresh()
        ed.vertices.append(Vertex("split", a, m2, inp))
        ed.vertices.append(Vertex("split", b, c, m2))
        return MoveResult(
            ed.build([]), MoveSite("R6", "apply", (m2,)), tuple(ed.fresh_ids), (m,)
        )
    # undo mixed: split(c, m, a) + merge(m, b, d) -> merge(a, b, m') + split(c, d, m')
    v1 = next((v for v in d.vertices if v.kind == "split" and v.e2 == m), None)
    v2 = next((v for v in d.vertices if v.kind == "merge" and v.e1 == m), None)
    if v1 is not None and v2 is not None:
        c, a, b, dd = v1.e1, v1.e3, v2.e2, v2.e3
        ed.remove_vertex(v1)
        ed.remove_vertex(v2)
        m2 = ed.fresh()
        ed.vertices.append(Vertex("merge", a, b, m2))
        ed.vertices.append(Vertex("split", c, dd, m2))
        return MoveResult(
            ed.build([]), MoveSite("R6", "apply", (m2,)), tuple(ed.fresh_ids), (m,)
        )
    raise SiteMismatchError(f"no reassociated vertex pair across {m!r}")


# -- dispatch -----------------------------------------------------------------


def apply_move(d: Diagram, site: MoveSite) -> MoveResult:
    """Rewrite the diagram at the given move site; raises SiteMismatchError."""
    if site.move not in _MOVES:
        raise SiteMismatchError(f"unknown move {site.move!r}")
    key = (site.move[:2], site.direction)
    handlers = {
        ("R1", "apply"): _r1_apply,
        ("R1", "undo"): _r1_undo,
        ("R2", "apply"): _r2_apply,
        ("R2", "undo"): _r2_undo,
        ("R3", "apply"): _r3_apply,
        ("R3", "undo"): _r3_undo,
        ("R4", "apply"): _r4_apply,
        ("R4", "undo"): _r4_undo,
        ("R5", "apply"): _r5_apply,
        ("R5", "undo"): _r5_undo,
        ("R6", "apply"): _r6_apply,
        ("R6", "undo"): _r6_undo,
    }
    if key not in handlers:
        raise SiteMismatchError(f"bad direction {site.direction!r}")
    return handlers[key](d, site)


def find_sites(d: Diagram, move: str, direction: str) -> list[MoveSite]:
    """Enumerate every site where the move applies, in deterministic order."""
    candidates: list[MoveSite] = []
    ids = sorted(set(d.semiarcs) | set(d.loops))
    if move in ("R1a", "R1b"):
        if direction == "apply":
            for s in ids:
                for variant in ("under", "over"):
                    candidates.append(MoveSite(move, "apply", (s,), variant))
        else:
            for s in sorted(d.semiarcs):
                candidates.append(MoveSite(move, "undo", (s,)))
    elif move in ("R2a", "R2b"):
        if direction == "apply":
            for s in sorted(d.semiarcs):
                for u in sorted(d.semiarcs):
                    if s != u:
                        for variant in ("+-", "-+"):
                            candidates.append(MoveSite(move, "apply", (s, u), variant))
        else:
            for s in sorted(d.semiarcs):
                candidates.append(MoveSite(move, "undo", (s,)))
    elif move == "R3":
        for x1 in d.crossings:
            if x1.sign != 1:
                continue
            if direction == "apply":
                candidates.append(
                    MoveSite(move, direction, (x1.over_in, x1.under_in, "?"))
                )
            else:
                candidates.append(
                    MoveSite(move, direction, ("?", x1.over_in, x1.under_in))
                )
    elif move in ("R4a", "R4b"):
        if direction == "apply":
            for c in d.crossings:
                e, s = (c.over_in, c.under_in) if move == "R4a" else (c.under_in, c.over_in)
                candidates.append(MoveSite(move, "apply", (e, s)))
        else:
            for s in sorted(d.semiarcs):
                for kind in ("merge", "split"):
                    candidates.append(MoveSite(move, "undo", (s,), kind))
    elif move in ("R5a", "R5b"):
        for v in d.vertices:
            candidates.append(MoveSite(move, direction, (v.e3,), v.kind))
    elif move == "R6":
        for s in sorted(d.semiarcs):
            candidates.append(MoveSite(move, direction, (s,)))
    sites = []
    for cand in candidates:
        if cand.move == "R3":
            sites.extend(_r3_sites(d, cand, direction))
            continue
        try:
            apply_move(d, cand)
        except (SiteMismatchError, DiagramError):
            continue
        sites.append(cand)
    return sites


def _r3_sites(d: Diagram, cand: MoveSite, direction: str) -> list[MoveSite]:
    out = []
    scan = cand.ids.index("?")
    for c in sorted(d.semiarcs):
        ids = list(cand.ids)
        ids[scan] = c
        site = MoveSite("R3", direction, tuple(ids))
        try:
            apply_move(d, site)
        except (SiteMismatchError, DiagramError):
            continue
        out.append(site)
    return out


# -- coloring transport ---------------------------------------------------------


def transport_coloring(d: Diagram, d2: Diagram, c, x) -> "Coloring":
    """The unique coloring of d2 agreeing with c away from the rewrite site.

    d2 must be the result of a move on d; failure to find exactly one
    extension indicates a wiring bug and raises RuntimeError.
    """
    from hlcolor.coloring import Coloring, _network, _Search
    from hlcolor.mcqb import MCQ

    if isinstance(x, MCQ):
        old_arcs = arcs_of(d)
        new_arcs = arcs_of(d2)
        common = set(old_arcs) & set(new_arcs)
        fixed: dict[str, int] = {}
        for s in common:
            val = c.assignment[old_arcs[s]]
            prev = fixed.get(new_arcs[s])
            if prev is not None and prev != val:
                raise RuntimeError("inconsistent arc transport; wiring bug")
            fixed[new_arcs[s]] = val
    else:
        keep = set(d2.semiarcs) | set(d2.loops)
        fixed = {s: v for s, v in c.assignment.items() if s in keep}
    search = _Search(_network(d2, x), fixed)
    assignment = search.unique()
    if assignment is None:
        raise RuntimeError(
            f"transport expected a unique extension, found {search.count()}; wiring bug"
        )
    return Coloring(x, assignment)
