"""The linear path on generated braids and generated Alexander families.

``linear_colorings`` compiles the rows of one (diagram, family) once and runs
the program on each flow.  Here its count, dimension and basis are checked
against ``solve_linear`` on the full dense system of the rules, written out
below with the ring's own tuple arithmetic, and its count against the
colorings that ``colorings_by_flow`` counts on the associated structure.
Diagrams are one-strand closures of ``tests/test_braids.py``'s braid words;
families are B-families, Q-families and Q_G images over Z_m (m <= 9) and
GF(9), some with t^h - s^h zero for an h != 0 and some with it a nonzero
non-unit, so that the compiled schedule may pivot on neither.
"""

from math import lcm

import pytest

from hlcolor import coloring
from hlcolor.coloring import colorings_by_flow, enumerate_flows, linear_colorings
from hlcolor.diagram import arcs_of, build_braid, parse_diagram
from hlcolor.gfamily import GFamilyQ, gfamily_alexander_b, gfamily_alexander_q, qg_map
from hlcolor.rings import ring_make, solve_linear
from hlcolor.structio import parse_structure_file
from tests.conftest import corpus_path
from tests.test_braids import braid_words

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Z_m for every m <= 9 and GF(9) = Z_3[t]/(t^2+t+2), those with non-units first
RINGS = [ring_make(m) for m in (9, 8, 6, 4)] + [ring_make(3, [2, 1, 1])] + [
    ring_make(m) for m in (7, 5, 3, 2)]
MAX_ORDER = 8  # of the family's group
FLOWS_PER_EXAMPLE = 6


@st.composite
def alexander_families(draw):
    """A B-family, a Q-family or a Q_G image over one of RINGS, of a cyclic
    group whose order is a multiple of the units' orders, at most MAX_ORDER."""
    ring = draw(st.sampled_from(RINGS))
    units = [u for u in ring.elements() if ring.is_unit(u)]
    t, s = draw(st.sampled_from(units)), draw(st.sampled_from(units))
    order = lcm(ring.unit_order(t), ring.unit_order(s))
    n = order * draw(st.integers(1, max(1, MAX_ORDER // order)))
    kind = draw(st.sampled_from(["B", "Q", "Q_G"]))
    if kind == "Q":
        return gfamily_alexander_q(ring, n, t)
    b = gfamily_alexander_b(ring, n, t, s)
    return b if kind == "B" else qg_map(b)


def _dense_system(d, f, flow) -> list[list]:
    """One dense row per rule, over sorted semi-arcs (a B-family) or sorted
    arcs (a Q-family, read with s = 1): at a crossing, uo = t^h ui +
    (s^h - t^h) oo with h the flow on the over arc and oi = s^g oo with g the
    flow on ui; at a vertex, e1 = s^g e2 with g the flow on e2, and e3 = e2."""
    ring = f.alexander[1]
    on_arcs = isinstance(f, GFamilyQ)
    t, s = (f.alexander[2], ring.one) if on_arcs else f.alexander[2:4]
    arcs, h = arcs_of(d), flow.as_dict()
    names = sorted(set(arcs.values()) if on_arcs else arcs)
    column = {k: names.index(arcs[k] if on_arcs else k) for k in arcs}
    rows = []

    def row(*terms):
        r = [ring.zero] * len(names)
        for var, coef in terms:
            r[column[var]] = ring.add(r[column[var]], coef)
        rows.append(r)

    for c in d.crossings:
        oi, oo, ui, uo = (c.over_in, c.over_out, c.under_in, c.under_out)
        if c.sign < 0:
            oi, oo, ui, uo = oo, oi, uo, ui
        th, sh = ring.pow(t, h[arcs[oi]]), ring.pow(s, h[arcs[oi]])
        row((uo, ring.one), (ui, ring.neg(th)), (oo, ring.sub(th, sh)))
        row((oi, ring.one), (oo, ring.neg(ring.pow(s, h[arcs[ui]]))))
    for v in d.vertices:
        row((v.e1, ring.one), (v.e2, ring.neg(ring.pow(s, h[arcs[v.e2]]))))
        row((v.e3, ring.one), (v.e2, ring.neg(ring.one)))
    return rows or [[ring.zero] * len(names)]


def _differences(f) -> set[str]:
    """What t^h - s^h is for some h != 0: "zero", "non-unit", both or neither."""
    ring = f.alexander[1]
    t, s = (f.alexander[2], ring.one) if isinstance(f, GFamilyQ) else f.alexander[2:4]
    out = set()
    for h in range(1, f.group.n):
        diff = ring.sub(ring.pow(t, h), ring.pow(s, h))
        if diff == ring.zero:
            out.add("zero")
        elif not ring.is_unit(diff):
            out.add("non-unit")
    return out


def test_the_compiled_linear_path_matches_the_dense_solve_and_the_search():
    seen = dict.fromkeys(("t^h = s^h, h != 0", "t^h - s^h a non-unit", "field", "not a field",
                          "Q-family", "dimension > 0"), 0)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(braid_words(max_strands=1), alexander_families())
    def check(braid, f):
        d = build_braid(*braid)
        ring = f.alexander[1]
        flows = enumerate_flows(d, f.group)
        step = max(1, len(flows) // FLOWS_PER_EXAMPLE)
        for flow in flows[::step][:FLOWS_PER_EXAMPLE]:
            rows = _dense_system(d, f, flow)
            want = solve_linear(ring, rows, [ring.zero] * len(rows))
            rep = linear_colorings(d, f, flow)
            assert rep.count == want.cardinality, (braid, f.alexander, flow)
            module = None if want.dimension is None else (want.dimension, want.basis)
            assert rep.module_info == module, (braid, f.alexander, flow)
            assert rep.count == colorings_by_flow(d, f, flow).count, (braid, f.alexander, flow)
            seen["dimension > 0"] += bool(want.dimension)
        diffs = _differences(f)
        seen["t^h = s^h, h != 0"] += "zero" in diffs
        seen["t^h - s^h a non-unit"] += "non-unit" in diffs
        seen["field" if ring.is_field else "not a field"] += 1
        seen["Q-family"] += isinstance(f, GFamilyQ)

    check()
    assert min(seen.values()) >= 10, seen


def test_every_flow_of_one_diagram_and_family_runs_one_compiled_program(monkeypatch):
    """All 512 flows of stem-clasp with the GF(9) family, and of its Q_G
    image, run two programs; a second pass and the flows' own order compile
    nothing, and a freshly parsed diagram compiles its own."""
    compiled = []

    def counting(ncols, rows):
        compiled.append(ncols)
        return compile_homogeneous(ncols, rows)

    compile_homogeneous = coloring.compile_homogeneous
    monkeypatch.setattr(coloring, "compile_homogeneous", counting)
    fam = parse_structure_file(corpus_path("structures", "gf9-z8-family.txt"))
    qfam = qg_map(fam)
    with open(corpus_path("diagrams", "stem-clasp.txt"), encoding="utf-8") as fh:
        text = fh.read()
    d = parse_diagram(text)
    flows = enumerate_flows(d, fam.group)
    assert len(flows) == 512
    first = [linear_colorings(d, f, flow).count for flow in flows for f in (fam, qfam)]
    assert len(compiled) == 2
    again = [linear_colorings(d, f, flow).count for flow in flows for f in (fam, qfam)]
    assert again == first and len(compiled) == 2
    linear_colorings(parse_diagram(text), fam, flows[0])
    assert len(compiled) == 3
