"""The local coloring rules checked straight from a structure's tables.

This module is the oracle the search engine is tested against, so it shares
none of the engine's encoding: no rule tables, no support masks, no
equation lists.  It states the rules as the README does.
"""

from __future__ import annotations

from hlcolor.diagram import Diagram, arcs_of
from hlcolor.groups import FiniteGroup
from hlcolor.mcqb import MCB, MCQ


def local_rules_hold(d: Diagram, x: MCB | MCQ, assignment: dict[str, int]) -> bool:
    """True iff the assignment (semi-arcs for an MCB, arcs for an MCQ) is a coloring.

    Crossing (oi/oo over in/out, ui/uo under in/out; a negative crossing
    swaps in and out on both strands):  MCB under[ui, oo] = uo and
    over[oo, ui] = oi;  MCQ star[ui, over] = uo.  Vertex (e1, e2, e3):
    MCB e1 = b over e2 and e3 = b . e2 for some b in e2's block;  MCQ
    e3 = e1 . e2 inside one block.
    """
    if isinstance(x, MCQ):
        arcs = arcs_of(d)
        return semiarc_rules_hold(d, x, {s: assignment[arcs[s]] for s in arcs})
    return semiarc_rules_hold(d, x, assignment)


def semiarc_rules_hold(d: Diagram, x: MCB | MCQ, color: dict[str, int]) -> bool:
    """local_rules_hold with the colors given per semi-arc for both kinds of x."""
    mcq = isinstance(x, MCQ)
    for c in d.crossings:
        oi, oo, ui, uo = color[c.over_in], color[c.over_out], color[c.under_in], color[c.under_out]
        if c.sign < 0:
            oi, oo, ui, uo = oo, oi, uo, ui
        if mcq:
            if x.star[ui, oi] != uo:
                return False
        elif x.under[ui, oo] != uo or x.over[oo, ui] != oi:
            return False
    for v in d.vertices:
        e1, e2, e3 = color[v.e1], color[v.e2], color[v.e3]
        if mcq:
            if x.block_of[e1] != x.block_of[e2] or x.prod[e1, e2] != e3:
                return False
        elif not any(
            x.over[b, e2] == e1 and x.prod[b, e2] == e3 for b in x.blocks[x.block_of[e2]]
        ):
            return False
    return True


def flow_rules_hold(d: Diagram, g: FiniteGroup, assignment: dict[str, int]) -> bool:
    """True iff the assignment of group elements to arcs is a G-flow.

    Crossing: the under arc is conjugated by the over arc, g.conj(ui, over)
    = uo, with in and out swapped at a negative crossing.  Vertex (e1, e2,
    e3): e1 . e2 = e3.
    """
    arcs = arcs_of(d)
    color = {s: assignment[arcs[s]] for s in arcs}
    for c in d.crossings:
        ui, uo = color[c.under_in], color[c.under_out]
        if c.sign < 0:
            ui, uo = uo, ui
        if g.conj(ui, color[c.over_in]) != uo:
            return False
    return all(g.mul(color[v.e1], color[v.e2]) == color[v.e3] for v in d.vertices)
