import itertools
import math
import random

import numpy as np
import pytest

from hlcolor.algebra import dihedral_quandle
from hlcolor.coloring import (
    Flow,
    FlowInvalidError,
    NotBraidShapedError,
    braid_boundary_determinism,
    brute_force_colorings,
    coloring_vars,
    colorings_by_flow,
    enumerate_colorings,
    enumerate_colorings_mcb,
    enumerate_colorings_mcq,
    enumerate_flows,
    linear_colorings,
    per_flow_counts,
    verify_correspondence,
)
from hlcolor.diagram import (
    arcs_of,
    build_braid,
    build_braid_open,
    disjoint_union,
    handcuff_clasp,
    loop_diagram,
    parse_diagram,
    serialize_diagram,
    theta_curve,
    trefoil,
)
from hlcolor.gfamily import (
    GFamilyB,
    GFamilyQ,
    associated_mcb,
    associated_mcq,
    gfamily_alexander_q,
    qg_map,
    zkm_family_from_quandle,
)
from hlcolor.groups import cyclic_group, symmetric_group
from hlcolor.mcqb import MCB, MCQ, conjugation_mcq, q_functor_mcb
from hlcolor.oracle import flow_rules_hold, local_rules_hold
from hlcolor.rings import SizeBoundExceededError, ring_make


@pytest.fixture(scope="module")
def dihedral_family():
    return zkm_family_from_quandle(dihedral_quandle(3), 1)


@pytest.fixture(scope="module")
def mcq6(dihedral_family):
    return associated_mcq(dihedral_family)


@pytest.fixture(scope="module")
def mcb6(corpus_structures):
    return associated_mcb(corpus_structures["z3-z2-family"])


# -- flows ---------------------------------------------------------------------


def test_flows_loop():
    assert len(enumerate_flows(loop_diagram(), cyclic_group(2))) == 2


def test_flows_theta():
    flows = enumerate_flows(theta_curve(), cyclic_group(2))
    assert len(flows) == 4  # two free arcs, third forced


def test_flows_trefoil():
    assert len(enumerate_flows(trefoil(), cyclic_group(2))) == 2


def test_flows_brute_force_oracle():
    g = symmetric_group(3)
    for d in (theta_curve(), trefoil()):
        vars_ = coloring_vars(d, True)
        want = 0
        for combo in itertools.product(range(g.n), repeat=len(vars_)):
            if flow_rules_hold(d, g, dict(zip(vars_, combo))):
                want += 1
        assert len(enumerate_flows(d, g)) == want


# -- counting examples from the module contracts --------------------------------


def test_trefoil_mcq6_count_is_twelve(mcq6):
    assert enumerate_colorings_mcq(trefoil(), mcq6).count == 12


def test_theta_mcq6_count_is_twelve(mcq6):
    assert enumerate_colorings_mcq(theta_curve(), mcq6).count == 12


def test_loop_counts_equal_carrier(mcq6, mcb6):
    assert enumerate_colorings_mcq(loop_diagram(), mcq6).count == 6
    assert enumerate_colorings_mcb(loop_diagram(), mcb6).count == 6


def test_backtracking_equals_bruteforce(mcq6, mcb6):
    cases = [
        (loop_diagram(), mcq6),
        (theta_curve(), mcq6),
        (trefoil(), mcq6),
        (theta_curve(), mcb6),
        (trefoil(), mcb6),
        (handcuff_clasp(), mcb6),
        (trefoil(), conjugation_mcq(symmetric_group(3))),
    ]
    for d, x in cases:
        assert enumerate_colorings(d, x).count == brute_force_colorings(d, x)


def test_bruteforce_bound():
    x = conjugation_mcq(symmetric_group(3))
    with pytest.raises(SizeBoundExceededError):
        brute_force_colorings(build_braid(3, [("x", 0, 1)] * 4), x, bound=1000)


def test_enumeration_budget():
    x = conjugation_mcq(symmetric_group(3))
    with pytest.raises(SizeBoundExceededError):
        enumerate_colorings(trefoil(), x, budget=3)


def test_multiplicativity_over_disjoint_union(mcq6, mcb6):
    for x in (mcq6, mcb6):
        n_tr = enumerate_colorings(trefoil(), x).count
        n_th = enumerate_colorings(theta_curve(), x).count
        du = disjoint_union(trefoil(), theta_curve())
        assert enumerate_colorings(du, x).count == n_tr * n_th
    assert enumerate_colorings(disjoint_union(loop_diagram(), loop_diagram()), mcq6).count == 36


def _restricted_brute_force(d, x, domains) -> list[tuple]:
    """The colorings inside the given value lists, by the oracle's local rules."""
    vars_ = coloring_vars(d, isinstance(x, MCQ))
    return [
        combo for combo in itertools.product(*(domains[v] for v in vars_))
        if local_rules_hold(d, x, dict(zip(vars_, combo)))
    ]


@pytest.mark.parametrize("name", ["mcb6", "mcq6", "assoc-z3-z2-mcb"])
def test_domains_and_fixed_match_brute_force(name, request, corpus_structures, corpus_diagrams):
    x = request.getfixturevalue(name) if name in ("mcb6", "mcq6") else corpus_structures[name]
    rng = random.Random(name)
    checked = 0
    for d in corpus_diagrams.values():
        vars_ = coloring_vars(d, isinstance(x, MCQ))
        colorings = enumerate_colorings(d, x, want_list=True).colorings
        for _ in range(6):
            # each domain keeps the values of one true coloring, so most
            # restricted sets are not empty
            base = rng.choice(colorings).assignment
            domains = {v: sorted({base[v], *rng.sample(range(x.n), rng.randint(0, 2))})
                       for v in vars_}
            fixed = {v: base[v] for v in rng.sample(vars_, rng.randint(0, len(vars_) // 2))}
            space = {v: [fixed[v]] if v in fixed else domains[v] for v in vars_}
            if math.prod(len(vals) for vals in space.values()) > 20000:
                continue
            want = _restricted_brute_force(d, x, space)
            rep = enumerate_colorings(d, x, want_list=True, domains=domains, fixed=fixed)
            assert [c.restrict(vars_) for c in rep.colorings] == want
            assert enumerate_colorings(d, x, domains=domains, fixed=fixed).count == len(want)
            checked += 1
    assert checked >= 30


def test_union_with_an_uncolorable_component_is_empty(mcq6):
    # the trefoil (primed arcs, searched second) has no coloring inside these
    # domains, and no domain holds a single value, so only the depth-first plan sees it
    d = disjoint_union(theta_curve(), trefoil())
    domains = {"s1'": [0, 2], "s2'": [2, 4], "s4": [4, 0]}
    assert _restricted_brute_force(trefoil(), mcq6, {
        "s1": [0, 2], "s2": [2, 4], "s4": [0, 4]}) == []
    assert enumerate_colorings(d, mcq6, domains=domains).count == 0
    rep = enumerate_colorings(d, mcq6, want_list=True, domains=domains)
    assert rep.count == 0 and rep.colorings == []


def test_listing_is_lexicographic_in_sorted_variable_order(
    corpus_mcbs, corpus_mcqs, corpus_diagrams
):
    structures = [x for x in (*corpus_mcbs.values(), *corpus_mcqs.values()) if x.n <= 24]
    structures += [q_functor_mcb(x) for x in structures if isinstance(x, MCB)]
    for x in structures:
        for d in corpus_diagrams.values():
            rep = enumerate_colorings(d, x, want_list=True)
            rows = [tuple(v for _, v in sorted(c.assignment.items())) for c in rep.colorings]
            assert rows == sorted(set(rows))
            assert rep.count == len(rows) == enumerate_colorings(d, x).count


def test_budget_counts_nodes_over_all_components(mcq6):
    n1 = enumerate_colorings(theta_curve(), mcq6).nodes
    n2 = enumerate_colorings(trefoil(), mcq6).nodes
    du = disjoint_union(theta_curve(), trefoil())
    rep = enumerate_colorings(du, mcq6)
    assert rep.nodes == n1 + n2
    assert enumerate_colorings(du, mcq6, budget=rep.nodes).count == rep.count
    # both components take at least one node, so the first one completes
    # within this budget and the second one exceeds it
    with pytest.raises(SizeBoundExceededError):
        enumerate_colorings(du, mcq6, budget=rep.nodes - 1)


def test_gf9_mcb_node_counts_stay_under_50000(corpus_structures, corpus_diagrams):
    # counts on the 72-element MCB take the row executor, whose nodes are the
    # rows each level keeps; the search without forward checking took
    # 751,752 nodes on fig8 and 3,032,712 on stem-clasp
    x = associated_mcb(corpus_structures["gf9-z8-family"])
    for name in ("fig8", "stem-clasp", "stem-clasp-slid-under", "union-trefoil-theta"):
        assert enumerate_colorings_mcb(corpus_diagrams[name], x).nodes <= 50_000, name


# -- flow filtering --------------------------------------------------------------


def test_per_flow_decomposition(mcq6, dihedral_family):
    d = trefoil()
    total = enumerate_colorings_mcq(d, mcq6).count
    table = per_flow_counts(d, dihedral_family)
    assert sum(table.values()) == total == 12
    counts = sorted(table.values())
    assert counts == [3, 9]


def _fibre_domains(d, f, flow) -> dict:
    """Each variable's fibre in the associated structure of f: the elements
    i * |G| + g, g its flow value."""
    on_arcs = isinstance(f, GFamilyQ)
    arcs, fd, ng = arcs_of(d), flow.as_dict(), f.group.n
    return {v: [i * ng + fd[v if on_arcs else arcs[v]] for i in range(f.n)]
            for v in coloring_vars(d, on_arcs)}


def test_per_flow_runs_match_the_fibre_domains_everywhere(corpus_structures, corpus_diagrams,
                                                          monkeypatch):
    """Every corpus family and its Q_G image, on every diagram and flow: the
    per-flow count and listing equal enumerate_colorings on the associated
    structure with each variable's fibre as its domain, and on the
    depth-first executor the fibre run tries no more values than that run.
    Families of at most 6 elements also match the restricted brute force
    wherever its space has at most 2,500 assignments."""
    from hlcolor import coloring

    families = []
    for name, f in sorted(corpus_structures.items()):
        if isinstance(f, GFamilyB):
            families += [(name, f), (f"QG({name})", qg_map(f))]
        elif isinstance(f, GFamilyQ):
            families.append((name, f))
    calls = brute = 0
    for fname, f in families:
        x = associated_mcq(f) if isinstance(f, GFamilyQ) else associated_mcb(f)
        for dname, d in sorted(corpus_diagrams.items()):
            vars_ = coloring_vars(d, isinstance(f, GFamilyQ))
            for flow in enumerate_flows(d, f.group):
                where = (fname, dname, flow.assignment)
                domains = _fibre_domains(d, f, flow)
                assert (colorings_by_flow(d, f, flow).count
                        == enumerate_colorings(d, x, domains=domains).count), where
                got = colorings_by_flow(d, f, flow, want_list=True).colorings
                want = enumerate_colorings(d, x, want_list=True, domains=domains).colorings
                assert [c.assignment for c in got] == [c.assignment for c in want], where
                with monkeypatch.context() as m:
                    m.setattr(coloring, "_PLAN_MIN_DOMAIN", 10**9)  # every count depth-first
                    assert (colorings_by_flow(d, f, flow).nodes
                            <= enumerate_colorings(d, x, domains=domains).nodes), where
                if f.n <= 6 and f.n ** len(vars_) <= 2_500:
                    assert ([c.restrict(vars_) for c in got]
                            == _restricted_brute_force(d, x, domains)), where
                    brute += 1
                calls += 1
    assert len(families) == 9 and calls == 5824 and brute == 246, (calls, brute)


def test_colorings_by_flow_theta(corpus_structures):
    fam = corpus_structures["gf9-z8-family"]
    zero = Flow.from_dict(fam.group, {a: 0 for a in ("s1", "s2", "s3")})
    rep = colorings_by_flow(theta_curve(), fam, zero)
    assert rep.count == 9


def test_flow_invalid(dihedral_family):
    bad = Flow.from_dict(dihedral_family.group, {"nope": 0})
    with pytest.raises(FlowInvalidError):
        colorings_by_flow(trefoil(), dihedral_family, bad)


@pytest.mark.parametrize("group, values", [
    (8, {"s1": 1, "s2": 2, "s4": 3}),  # breaks the crossing relation
    (8, {"s1": 99, "s2": 99, "s4": 99}),  # out of range
    (4, {"s1": 2, "s2": 2, "s4": 2}),  # a Z_4 flow for the Z_8 family
    (8, {"s1": 0, "s2": 0, "s4": 0, "zz": 5}),  # a name that is no semi-arc
    (8, {"s1": 0, "s2": 0, "s4": 0, "s3": 7}),  # s3 lies on arc s2
])
def test_invalid_flow_rejected_by_both_paths(corpus_structures, group, values):
    fam = corpus_structures["gf9-z8-family"]
    flow = Flow.from_dict(cyclic_group(group), values)
    with pytest.raises(FlowInvalidError):
        colorings_by_flow(trefoil(), fam, flow)
    with pytest.raises(FlowInvalidError):
        linear_colorings(trefoil(), fam, flow)


def test_scalar_action_closes_on_flow_filtered_sets(corpus_structures):
    fam = corpus_structures["z5-z4-family"]
    ring = ring_make(5)
    d = trefoil()
    ng = fam.group.n
    for flow in enumerate_flows(d, fam.group):
        cols = colorings_by_flow(d, fam, flow, want_list=True).colorings
        keyset = {tuple(sorted(c.assignment.items())) for c in cols}
        base = cols[0]
        for other in cols[:4]:
            for r in range(5):
                combo = {}
                for k in base.assignment:
                    x1, g1 = divmod(base.assignment[k], ng)
                    x2, _ = divmod(other.assignment[k], ng)
                    val = (x1 + x2 * r) % 5
                    combo[k] = val * ng + g1
                assert tuple(sorted(combo.items())) in keyset


# -- linear path ------------------------------------------------------------------


def test_linear_agrees_with_backtracking_everywhere(corpus_structures):
    fams = [corpus_structures["z5-z4-family"], corpus_structures["z3-z2-family"]]
    fams.append(qg_map(corpus_structures["z5-z4-family"]))
    diagrams = [loop_diagram(), theta_curve(), trefoil(), handcuff_clasp()]
    for fam in fams:
        for d in diagrams:
            for flow in enumerate_flows(d, fam.group):
                assert (
                    linear_colorings(d, fam, flow).count
                    == colorings_by_flow(d, fam, flow).count
                )


def test_linear_loop_gf9(corpus_structures):
    fam = corpus_structures["gf9-z8-family"]
    flow = Flow.from_dict(fam.group, {"l0": 3})
    rep = linear_colorings(loop_diagram(), fam, flow)
    assert rep.count == 9 and rep.module_info[0] == 1


def test_linear_dihedral_trefoil_dimensions():
    r3 = ring_make(3)
    fam = gfamily_alexander_q(r3, 2, r3.element(2))
    d = trefoil()
    dims = {}
    for flow in enumerate_flows(d, fam.group):
        rep = linear_colorings(d, fam, flow)
        dims[max(dict(flow.assignment).values())] = (rep.count, rep.module_info[0])
    assert dims[0] == (3, 1)  # trivial flow
    assert dims[1] == (9, 2)  # all-ones flow: classical Fox colorings


def test_linear_requires_alexander(dihedral_family, mcq6):
    d = loop_diagram()
    flow = Flow.from_dict(dihedral_family.group, {"l0": 0})
    fam = zkm_family_from_quandle(dihedral_quandle(3), 1)
    with pytest.raises(ValueError):
        linear_colorings(d, fam, flow)


# -- the correspondence -----------------------------------------------------------


def test_verify_correspondence_small(mcb6, corpus_structures):
    rep = verify_correspondence(trefoil(), mcb6, family=corpus_structures["z3-z2-family"])
    assert rep.equal and rep.per_flow_equal
    assert rep.count_mcb == rep.count_mcq
    assert rep.dims_equal is True  # Z_3 is a field, so dimensions are compared too


def test_verify_correspondence_dims_gf9(corpus_structures):
    from hlcolor.gfamily import associated_mcb

    fam = corpus_structures["gf9-z8-family"]
    rep = verify_correspondence(theta_curve(), associated_mcb(fam), family=fam)
    assert rep.equal and rep.per_flow_equal and rep.dims_equal


def test_reverse_mirror_transfer(mcb6):
    from hlcolor.diagram import reverse_mirror
    from hlcolor.oracle import local_rules_hold

    for d in (trefoil(), theta_curve(), handcuff_clasp()):
        rm = reverse_mirror(d)
        cols = enumerate_colorings_mcb(d, mcb6, want_list=True).colorings
        for c in cols:
            assert local_rules_hold(rm, mcb6, c.assignment)
        assert enumerate_colorings_mcb(rm, mcb6).count == len(cols)


# -- braid determinism --------------------------------------------------------------


def test_braid_determinism_single_crossing(mcq6, mcb6):
    d, tops, bottoms = build_braid_open(2, [("x", 0, 1)])
    assert braid_boundary_determinism(d, mcb6)
    assert braid_boundary_determinism(d, mcq6)


def test_braid_determinism_trivalent_gf9(corpus_structures):
    # three crossings and a merge vertex on two inbound strands
    x = associated_mcb(corpus_structures["gf9-z8-family"])
    word = [("x", 0, 1), ("x", 0, 1), ("x", 0, 1), ("m", 0)]
    d, tops, bottoms = build_braid_open(2, word)
    assert len(d.crossings) == 3 and sum(v.kind == "merge" for v in d.vertices) == 1
    assert braid_boundary_determinism(d, x)


def test_split_braids_are_not_top_determined(corpus_structures):
    # a split vertex forks freely downward, so injectivity genuinely fails
    x = associated_mcb(corpus_structures["z5-z4-family"])
    d, tops, bottoms = build_braid_open(1, [("s", 0)])
    assert not braid_boundary_determinism(d, x)


def test_braid_determinism_three_strands(corpus_structures):
    x = associated_mcb(corpus_structures["z5-z4-family"])
    d, tops, bottoms = build_braid_open(3, [("x", 0, 1), ("x", 1, 1), ("x", 0, 1), ("m", 1)])
    assert braid_boundary_determinism(d, x)


def test_braid_determinism_rejects_closed(mcb6):
    with pytest.raises(NotBraidShapedError):
        braid_boundary_determinism(trefoil(), mcb6)


def test_linear_z9_braid_with_18_semiarcs_matches_backtracking():
    # a one-strand handlebody braid whose Z_9 systems are only solved in
    # time when the elimination keeps every entry reduced mod 9
    z9 = ring_make(9)
    from hlcolor.gfamily import gfamily_alexander_b

    fam = gfamily_alexander_b(z9, 6, z9.element([2]), z9.element([4]))
    word = [("s", 0), ("s", 1), ("x", 0, 1), ("x", 1, -1), ("x", 0, -1), ("x", 1, 1),
            ("x", 0, 1), ("x", 1, -1), ("m", 1), ("m", 0)]
    d = build_braid(1, word)
    assert len(d.semiarcs) == 18
    flows = enumerate_flows(d, fam.group)
    for flow in flows[:: len(flows) // 12]:
        assert linear_colorings(d, fam, flow).count == colorings_by_flow(d, fam, flow).count


def test_linear_over_nonfield_quotients_matches_backtracking(corpus_structures, corpus_diagrams):
    # rings that are neither fields nor Z_m: solved over Z_m through the
    # regular representation, on every corpus diagram and flow
    from hlcolor.gfamily import gfamily_alexander_b

    z2 = ring_make(2, [0, 0, 1])  # Z_2[t]/(t^2), units 1 and 1+t
    gr16 = corpus_structures["gr16-z3-family"]
    ring, t, _ = gr16.alexander[1:]
    fams = [gr16, gfamily_alexander_b(ring, 3, t, ring.one),
            gfamily_alexander_b(z2, 2, z2.element([1, 1]), z2.one)]
    fams += [qg_map(f) for f in fams]
    for fam in fams:
        assert not fam.alexander[1].is_field
        for d in corpus_diagrams.values():
            for flow in enumerate_flows(d, fam.group):
                assert (
                    linear_colorings(d, fam, flow).count
                    == colorings_by_flow(d, fam, flow).count
                )


def test_network_is_built_once_per_diagram_and_structure(mcb6, corpus_structures, monkeypatch):
    """Counts, listings and transports on one (diagram, MCB) pair compile its
    constraints once; another MCB object of the same size on the same diagram
    gets its own network and its own count."""
    from hlcolor import coloring
    from hlcolor.moves import apply_move, find_sites, transport_coloring

    built = []
    compile_ = coloring._mcb_constraints
    monkeypatch.setattr(
        coloring, "_mcb_constraints", lambda d, x: built.append((d, x)) or compile_(d, x)
    )
    d = trefoil()
    d2 = apply_move(d, find_sites(d, "R2a", "apply")[0]).diagram
    cols = enumerate_colorings_mcb(d, mcb6, want_list=True).colorings
    for _ in range(3):
        assert enumerate_colorings_mcb(d, mcb6).count == len(cols) == 6
        assert enumerate_colorings_mcb(d, mcb6, want_list=True).colorings == cols
    for col in cols * 2:
        moved = transport_coloring(d, d2, col, mcb6)
        assert transport_coloring(d2, d, moved, mcb6).assignment == col.assignment
    assert [(dd is d, dd is d2, x is mcb6) for dd, x in built] == [
        (True, False, True), (False, True, True)
    ]
    other = corpus_structures["lift-s3-conj-mcb"]
    assert other.n == mcb6.n
    assert enumerate_colorings_mcb(d, other).count == brute_force_colorings(d, other) == 12
    assert enumerate_colorings_mcb(d, mcb6).count == 6
    assert len(built) == 3 and built[2][0] is d and built[2][1] is other


# -- the two counting paths ------------------------------------------------------


def _count_on(path, monkeypatch, d, x, **kw):
    """enumerate_colorings with every count sent down one path: "plan" is the
    row executor, "search" the depth-first executor."""
    from hlcolor import coloring

    monkeypatch.setattr(coloring, "_PLAN_MIN_DOMAIN", 1 if path == "plan" else 10**9)
    return enumerate_colorings(d, x, **kw)


def _corpus_targets(corpus_structures):
    """Each corpus MCB and MCQ, each family's associated MCB or MCQ, and each
    MCB's functor image Q(X)."""
    out = {}
    for name, obj in corpus_structures.items():
        if isinstance(obj, GFamilyB):
            obj = associated_mcb(obj)
        elif isinstance(obj, GFamilyQ):
            obj = associated_mcq(obj)
        if isinstance(obj, MCB):
            out[name] = obj
            out[f"Q({name})"] = q_functor_mcb(obj)
        elif isinstance(obj, MCQ):
            out[name] = obj
    return out


def test_plan_and_search_agree_on_every_corpus_pair(corpus_structures, corpus_diagrams,
                                                     monkeypatch):
    targets = _corpus_targets(corpus_structures)
    assert {"gf9-z8-family", "Q(gr16-z3-family)", "dihedral-z2-family", "s3-conj-mcq"} <= set(
        targets)
    oracle = 0
    for name, x in targets.items():
        for dname, d in corpus_diagrams.items():
            plan = _count_on("plan", monkeypatch, d, x).count
            assert plan == _count_on("search", monkeypatch, d, x).count, (name, dname)
            try:
                assert plan == brute_force_colorings(d, x, bound=5_000), (name, dname)
                oracle += 1
            except SizeBoundExceededError:
                pass
    assert oracle >= 80  # of the 228 pairs


def test_plan_and_search_agree_inside_a_flow(corpus_structures, corpus_diagrams, monkeypatch):
    from hlcolor import coloring

    checked = 0
    for name, fam in corpus_structures.items():
        if not isinstance(fam, (GFamilyB, GFamilyQ)):
            continue
        for dname, d in corpus_diagrams.items():
            for flow in enumerate_flows(d, fam.group):
                counts = []
                for threshold in (1, 10**9):
                    monkeypatch.setattr(coloring, "_PLAN_MIN_DOMAIN", threshold)
                    counts.append(colorings_by_flow(d, fam, flow).count)
                assert counts[0] == counts[1], (name, dname, flow)
                checked += 1
    assert checked == 2940


def test_the_plan_counts_components_on_their_own(corpus_structures, monkeypatch):
    from hlcolor import coloring

    x = associated_mcb(corpus_structures["gf9-z8-family"])
    du = disjoint_union(trefoil(), theta_curve())
    rep = _count_on("plan", monkeypatch, du, x)
    assert rep.count == (
        _count_on("plan", monkeypatch, trefoil(), x).count
        * _count_on("plan", monkeypatch, theta_curve(), x).count
    ) == _count_on("search", monkeypatch, du, x).count
    assert len(coloring._network(du, x).plans[None].parts) == 2


def test_plan_budget_counts_surviving_rows(corpus_structures, corpus_diagrams):
    x = associated_mcb(corpus_structures["gf9-z8-family"])
    d = corpus_diagrams["fig8"]
    rep = enumerate_colorings_mcb(d, x)
    assert enumerate_colorings_mcb(d, x, budget=rep.nodes).count == rep.count == 360
    with pytest.raises(SizeBoundExceededError):
        enumerate_colorings_mcb(d, x, budget=rep.nodes - 1)


def test_plan_runs_in_slices_with_the_same_count_and_nodes(corpus_structures, corpus_diagrams,
                                                            monkeypatch):
    from hlcolor import plan

    x = associated_mcb(corpus_structures["gf9-z8-family"])
    d = corpus_diagrams["union-trefoil-theta"]
    whole = enumerate_colorings_mcb(d, x)
    monkeypatch.setattr(plan, "_BLOCK_ROWS", 50)
    sliced = enumerate_colorings_mcb(d, x)
    assert (sliced.count, sliced.nodes) == (whole.count, whole.nodes) == (124_416, whole.nodes)


def test_counts_take_the_plan_only_for_large_domains(corpus_structures, corpus_diagrams,
                                                     monkeypatch):
    """The plan counts when the widest domain reaches _PLAN_MIN_DOMAIN; listings,
    small structures and the per-flow counts of a 9-element family keep the
    depth-first plan."""
    from hlcolor import coloring, plan

    planned = []
    count = plan.count
    monkeypatch.setattr(coloring, "_plan_count", lambda *args: planned.append(1) or count(*args))
    fam = corpus_structures["gf9-z8-family"]
    x = associated_mcb(fam)
    d = corpus_diagrams["trefoil"]
    enumerate_colorings_mcb(d, x)
    assert planned == [1]
    enumerate_colorings_mcb(d, x, want_list=True)
    enumerate_colorings_mcb(d, associated_mcb(corpus_structures["z3-z2-family"]))
    colorings_by_flow(d, fam, enumerate_flows(d, fam.group)[0])
    assert planned == [1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_counts_do_not_depend_on_the_variable_order(seed, corpus_structures, corpus_diagrams,
                                                          monkeypatch):
    """Random branch orders give the same count on both executors as the
    compiler's own order: a lookup that finds no entry drops its row before a
    check of the same level reads it."""
    from hlcolor import plan

    pairs = []
    for name in ("gf9-z8-family", "z5-z4-family"):
        x = associated_mcb(corpus_structures[name])
        for qx in (x, q_functor_mcb(x)):
            for dname, d in corpus_diagrams.items():
                if dname.startswith("stem-clasp"):
                    continue  # a poor order takes seconds on the 8-crossing diagrams
                pairs.append((name, qx, dname, d, enumerate_colorings(d, qx).count))
    rng = random.Random(seed)
    monkeypatch.setattr(plan._Placer, "branch_var", lambda placer, left: rng.choice(left))
    for name, qx, dname, d, want in pairs:
        d = parse_diagram(serialize_diagram(d))  # no plan compiled yet
        assert (_count_on("plan", monkeypatch, d, qx).count
                == _count_on("search", monkeypatch, d, qx).count == want), (name, dname, seed)


def test_a_plan_count_builds_no_depth_first_candidate_lists(corpus_diagrams):
    from hlcolor.coloring import _rule_tables
    from hlcolor.structio import parse_structure_file
    from tests.conftest import corpus_path

    # a structure object of its own, whose tables no other test has searched
    x = associated_mcb(parse_structure_file(corpus_path("structures", "gf9-z8-family.txt")))
    tables = _rule_tables(x).values()
    d = parse_diagram(serialize_diagram(corpus_diagrams["fig8"]))
    assert enumerate_colorings_mcb(d, x).count == 360
    assert not any(t._candidate_lists for t in tables)
    assert enumerate_colorings_mcb(d, x, want_list=True).count == 360
    assert any(t._candidate_lists for t in tables)
    # a one-element group knows every variable before any search
    assert len(enumerate_flows(theta_curve(), cyclic_group(1))) == 1


def test_arc_map_is_computed_once_per_diagram(corpus_structures, monkeypatch):
    """Flows, per-flow counts, the linear path and MCQ transports on two
    diagrams compute each diagram's arc map once."""
    from hlcolor import diagram
    from hlcolor.gfamily import associated_mcq, qg_map
    from hlcolor.moves import apply_move, find_sites, transport_coloring

    computed = []
    arc_map = diagram._arc_map
    monkeypatch.setattr(diagram, "_arc_map", lambda d: computed.append(d) or arc_map(d))
    d = trefoil()
    d2 = apply_move(d, find_sites(d, "R2a", "apply")[0]).diagram
    bfam = corpus_structures["z3-z2-family"]
    qfam = qg_map(bfam)
    x = associated_mcq(qfam)
    for dd in (d, d2):
        for fam in (qfam, bfam):
            for flow, n in per_flow_counts(dd, fam).items():
                assert linear_colorings(dd, fam, flow).count == n
    for col in enumerate_colorings_mcq(d, x, want_list=True).colorings:
        transport_coloring(d, d2, col, x)
    assert len(computed) == 2 and computed[0] is d and computed[1] is d2
