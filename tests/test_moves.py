import hashlib
import itertools
import os

import numpy as np
import pytest

from hlcolor.coloring import Coloring, _network, enumerate_colorings, enumerate_flows
from hlcolor.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    arcs_of,
    build_braid,
    build_braid_open,
    diagrams_isomorphic,
    disjoint_union,
    handcuff_clasp,
    loop_diagram,
    parse_diagram,
    serialize_diagram,
    theta_curve,
    trefoil,
)
from hlcolor.groups import cyclic_group
from hlcolor.mcqb import MCQ, q_functor_mcb
from hlcolor.moves import (
    MoveSite,
    SiteMismatchError,
    apply_move,
    find_sites,
    transport_coloring,
)
from hlcolor.oracle import local_rules_hold
from hlcolor.plan import depth_first

ALL_MOVES = ["R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6"]
SITES_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "moves-corpus-sites.txt")


def site_digest(d, move, direction):
    """(site count, sha256) over every site of find_sites and its rewrite:
    the site, the rewritten diagram, the fresh ids and the inverse site's ids."""
    sites = find_sites(d, move, direction)
    h = hashlib.sha256()
    for site in sites:
        res = apply_move(d, site)
        h.update(repr((site.move, site.direction, site.ids, site.variant,
                       serialize_diagram(res.diagram), res.fresh, res.inverse.ids)).encode())
    return len(sites), h.hexdigest()


def site_digest_lines(diagrams):
    return [f"{name} {move} {direction} {' '.join(map(str, site_digest(d, move, direction)))}"
            for name, d in sorted(diagrams.items())
            for move in ALL_MOVES
            for direction in ("apply", "undo")]


@pytest.fixture(scope="module")
def x6(corpus_structures):
    from hlcolor.gfamily import associated_mcb

    return associated_mcb(corpus_structures["z3-z2-family"])


def test_r1_apply_then_undo_roundtrip():
    tr = trefoil()
    res = apply_move(tr, MoveSite("R1a", "apply", (tr.semiarcs[0],), "under"))
    assert len(res.diagram.crossings) == 4
    back = apply_move(res.diagram, res.inverse)
    assert diagrams_isomorphic(back.diagram, tr)


def test_r1_on_loop_and_back():
    lp = loop_diagram()
    res = apply_move(lp, MoveSite("R1b", "apply", ("l0",), "over"))
    assert len(res.diagram.crossings) == 1 and not res.diagram.loops
    back = apply_move(res.diagram, res.inverse)
    assert diagrams_isomorphic(back.diagram, lp)


def test_r2_apply_creates_opposite_signs():
    tr = trefoil()
    s, u = tr.semiarcs[0], tr.semiarcs[1]
    res = apply_move(tr, MoveSite("R2a", "apply", (s, u), "+-"))
    assert len(res.diagram.crossings) == 5
    new_signs = sorted(c.sign for c in res.diagram.crossings)[:2]
    assert len(res.diagram.semiarcs) == 10
    back = apply_move(res.diagram, res.inverse)
    assert diagrams_isomorphic(back.diagram, tr)


def test_r3_sites_on_three_braid_trefoil():
    from hlcolor.diagram import build_braid

    tr3 = build_braid(3, [("x", 0, 1), ("x", 1, 1), ("x", 0, 1)])
    sites = find_sites(tr3, "R3", "apply")
    assert sites, "the braid-relation pattern must be found"
    res = apply_move(tr3, sites[0])
    assert len(res.diagram.crossings) == 3
    assert find_sites(res.diagram, "R3", "undo")
    back = apply_move(res.diagram, res.inverse)
    assert diagrams_isomorphic(back.diagram, tr3)


def test_r4_and_r5_and_r6_on_stem_theta():
    from hlcolor.diagram import build_braid

    stem = build_braid(2, [("s", 0), ("m", 0), ("x", 0, 1), ("x", 0, 1)])
    for move in ("R4a", "R4b"):
        sites = find_sites(stem, move, "apply")
        assert sites
        res = apply_move(stem, sites[0])
        assert find_sites(res.diagram, move, "undo")
        back = apply_move(res.diagram, res.inverse)
        assert diagrams_isomorphic(back.diagram, stem)
    th = theta_curve()
    for move in ("R5a", "R5b"):
        sites = find_sites(th, move, "apply")
        assert len(sites) == 2  # one per vertex
        for site in sites:
            res = apply_move(th, site)
            back = apply_move(res.diagram, res.inverse)
            assert diagrams_isomorphic(back.diagram, th)
    r6sites = find_sites(th, "R6", "apply") + find_sites(th, "R6", "undo")
    assert r6sites
    for site in r6sites:
        res = apply_move(th, site)
        back = apply_move(res.diagram, res.inverse)
        assert diagrams_isomorphic(back.diagram, th)


def test_site_mismatch_errors():
    tr = trefoil()
    with pytest.raises(SiteMismatchError):
        apply_move(tr, MoveSite("R1a", "apply", ("nope",)))
    with pytest.raises(SiteMismatchError):
        apply_move(tr, MoveSite("R5a", "apply", (tr.semiarcs[0],)))
    with pytest.raises(SiteMismatchError):
        apply_move(tr, MoveSite("R1a", "undo", (tr.semiarcs[0],)))
    with pytest.raises(SiteMismatchError):
        apply_move(tr, MoveSite("R9", "apply", (tr.semiarcs[0],)))


@pytest.mark.parametrize("site", [MoveSite("R1a", "apply", ("s1", "s2")),
                                  MoveSite("R2a", "apply", ("s1",))])
def test_wrong_number_of_site_ids_is_a_site_mismatch(site):
    with pytest.raises(SiteMismatchError, match="site id"):
        apply_move(trefoil(), site)


def test_r3_needs_three_distinct_crossings():
    # after the kink, the braid pattern read from s2, r1a#2 meets its first
    # crossing again where it looks for the third
    d = apply_move(build_braid(2, [("x", 0, 1)]), MoveSite("R1a", "apply", ("s1",), "over")).diagram
    assert serialize_diagram(d).endswith("x+ s2 s1 r1a#2 s2\nx+ s1 r1a#1 r1a#1 r1a#2\n")
    assert find_sites(d, "R3", "apply") == find_sites(d, "R3", "undo") == []
    with pytest.raises(SiteMismatchError):
        apply_move(d, MoveSite("R3", "apply", ("s2", "r1a#2", "r1a#1")))


def test_sites_and_rewrites_match_the_pinned_digests(corpus_diagrams):
    with open(SITES_GOLDEN, encoding="utf-8") as fh:
        pinned = [line for line in fh.read().splitlines() if not line.startswith("#")]
    assert site_digest_lines(corpus_diagrams) == pinned


@pytest.mark.parametrize("move, ids, variant", [
    ("R1a", ("s1",), "under"), ("R1b", ("s1",), "under"),
    ("R2a", ("s1", "s2"), "+-"), ("R2b", ("s1", "s2"), "+-"),
])
def test_r1_and_r2_apply_default_to_the_first_picture(move, ids, variant):
    tr = trefoil()
    res = apply_move(tr, MoveSite(move, "apply", ids))
    assert res.diagram == apply_move(tr, MoveSite(move, "apply", ids, variant)).diagram
    assert res.inverse.variant == variant


def test_r4_apply_without_a_variant_takes_the_merge_vertex(corpus_diagrams):
    d = corpus_diagrams["stem-clasp-slid-over"]
    res = apply_move(d, MoveSite("R4a", "apply", ("s3", "s6")))
    split = apply_move(d, MoveSite("R4a", "apply", ("s3", "s6"), "split"))
    assert res.inverse.variant == "merge" and split.inverse.variant == "split"
    assert res.diagram == apply_move(d, MoveSite("R4a", "apply", ("s3", "s6"), "merge")).diagram
    assert not diagrams_isomorphic(res.diagram, split.diagram)


def test_r5_asks_for_the_variant_when_both_vertex_kinds_match(corpus_diagrams):
    d = corpus_diagrams["clasp"]
    with pytest.raises(SiteMismatchError, match="set the variant"):
        apply_move(d, MoveSite("R5a", "apply", ("s7",)))
    res = apply_move(d, MoveSite("R5a", "apply", ("s7",), "merge"))
    assert res.inverse == MoveSite("R5a", "undo", ("s7",), "merge")
    assert diagrams_isomorphic(apply_move(res.diagram, res.inverse).diagram, d)


def test_fresh_ids_are_deterministic():
    tr = trefoil()
    site = MoveSite("R1a", "apply", (tr.semiarcs[0],), "under")
    a = apply_move(tr, site)
    b = apply_move(tr, site)
    assert a.fresh == b.fresh
    assert serialize_of(a) == serialize_of(b)
    c = apply_move(a.diagram, MoveSite("R1a", "apply", (tr.semiarcs[1],), "under"))
    assert set(c.fresh).isdisjoint(a.fresh)


def serialize_of(res):
    from hlcolor.diagram import serialize_diagram

    return serialize_diagram(res.diagram)


def test_move_invariance_full_sweep(x6):
    """Every implemented variant at every applicable site preserves counts."""
    g2 = cyclic_group(2)
    qx6 = q_functor_mcb(x6)
    diagrams = {
        "trefoil": trefoil(),
        "theta": theta_curve(),
        "clasp": handcuff_clasp(),
        "loop": loop_diagram(),
    }
    checked = 0
    for dname, d in diagrams.items():
        base_mcb = enumerate_colorings(d, x6).count
        base_mcq = enumerate_colorings(d, qx6).count
        base_flows = len(enumerate_flows(d, g2))
        for move in ALL_MOVES:
            for direction in ("apply", "undo"):
                for site in find_sites(d, move, direction):
                    d2 = apply_move(d, site).diagram
                    assert enumerate_colorings(d2, x6).count == base_mcb, (dname, site)
                    assert enumerate_colorings(d2, qx6).count == base_mcq, (dname, site)
                    assert len(enumerate_flows(d2, g2)) == base_flows, (dname, site)
                    checked += 1
    assert checked > 300


def test_transport_is_unique_bijection_and_involutive(x6):
    d = handcuff_clasp()
    cols = enumerate_colorings(d, x6, want_list=True).colorings
    for move in ALL_MOVES:
        for direction in ("apply", "undo"):
            for site in find_sites(d, move, direction):
                res = apply_move(d, site)
                images = set()
                for c in cols:
                    c2 = transport_coloring(d, res.diagram, c, x6)
                    back = transport_coloring(res.diagram, d, c2, x6)
                    assert back.assignment == c.assignment
                    images.add(tuple(sorted(c2.assignment.items())))
                assert len(images) == len(cols)


def test_transport_mcq_arcs(x6):
    d = trefoil()
    qx6 = q_functor_mcb(x6)
    cols = enumerate_colorings(d, qx6, want_list=True).colorings
    site = find_sites(d, "R2a", "apply")[0]
    res = apply_move(d, site)
    for c in cols:
        c2 = transport_coloring(d, res.diagram, c, qx6)
        back = transport_coloring(res.diagram, d, c2, qx6)
        assert back.assignment == c.assignment


# -- transport across moves that create or remove a free loop --------------------


def _assert_transport_round_trips(d, x, site):
    d2 = apply_move(d, site).diagram
    cols = enumerate_colorings(d, x, want_list=True).colorings
    for col in cols:
        moved = transport_coloring(d, d2, col, x)
        assert transport_coloring(d2, d, moved, x).assignment == col.assignment, site
    assert cols


@pytest.mark.parametrize("move", ["R1a", "R1b"])
@pytest.mark.parametrize("variant", ["under", "over"])
def test_transport_across_r1_on_a_loop(x6, move, variant):
    lp = loop_diagram()
    site = MoveSite(move, "apply", ("l0",), variant)
    res = apply_move(lp, site)
    assert res.fresh == (res.inverse.ids[0],)  # the loop id survives as the outer semi-arc
    assert "l0" in res.diagram.semiarcs
    _assert_transport_round_trips(lp, x6, site)
    back = apply_move(res.diagram, res.inverse).diagram
    assert back.loops == ("l0",)


def test_transport_across_kinked_unknot_r1a_undo(x6, corpus_diagrams):
    d = corpus_diagrams["kinked-unknot"]
    sites = find_sites(d, "R1a", "undo")
    assert sites
    for site in sites:
        assert apply_move(d, site).diagram.loops  # the undo leaves a free loop
        _assert_transport_round_trips(d, x6, site)


def test_transport_across_r2_undo_leaving_a_free_loop(x6):
    d = build_braid(2, [("x", 0, 1), ("x", 0, -1)])
    sites = find_sites(d, "R2a", "undo") + find_sites(d, "R2b", "undo")
    assert sites
    for site in sites:
        res = apply_move(d, site)
        assert res.diagram.loops
        # the inverse slides the freed loop back over the other strand
        assert diagrams_isomorphic(apply_move(res.diagram, res.inverse).diagram, d), site
        _assert_transport_round_trips(d, x6, site)


@pytest.mark.parametrize("name, slide, undo", [
    ("stem-clasp-slid-over", MoveSite("R4a", "apply", ("s3", "s6")),
     MoveSite("R4b", "undo", ("r4b#3",), "split")),
    ("stem-clasp-slid-under", MoveSite("R4b", "apply", ("s4", "s5")),
     MoveSite("R4a", "undo", ("r4a#3",), "split")),
])
def test_r4_undo_at_a_split_vertex_inverts(corpus_diagrams, name, slide, undo):
    """The inverse of an R4 undo names the vertex kind, so R4 apply does not
    fall back on the merge vertex that the crossing also meets."""
    d = apply_move(corpus_diagrams[name], slide).diagram
    res = apply_move(d, undo)
    assert res.inverse.variant == "split"
    assert diagrams_isomorphic(apply_move(res.diagram, res.inverse).diagram, d)


def test_r2_undo_of_a_strand_that_runs_on_into_the_other_is_no_site():
    # one component: a over a -> m -> e, the kink e -> b, then b under a; the
    # over strand's exit e is the under strand's entry, so undoing would leave
    # one strand, which no R2 apply site can name
    d = parse_diagram("x- a m b a\nx+ m e e b\n")
    for move in ("R2a", "R2b"):
        assert find_sites(d, move, "undo") == []
        with pytest.raises(SiteMismatchError):
            apply_move(d, MoveSite(move, "undo", ("m",)))


def test_a_rewritten_diagram_is_validated_once(x6, monkeypatch):
    """apply_move and the networks of X, Q(X) and the Z_2 flows on its result
    check the new diagram once; a closed check after open ones checks again."""
    from hlcolor import diagram

    checked = []
    start_slots = diagram.Diagram.start_slots
    monkeypatch.setattr(diagram.Diagram, "start_slots",
                        lambda d: checked.append(d) or start_slots(d))
    d = trefoil()
    d2 = apply_move(d, find_sites(d, "R2a", "apply")[0]).diagram
    for _ in range(2):
        enumerate_colorings(d2, x6)
        enumerate_colorings(d2, q_functor_mcb(x6))
        enumerate_flows(d2, cyclic_group(2))
    assert sum(dd is d2 for dd in checked) == 1
    d2.validate()
    d2.validate(allow_open=True)
    d2.validate()
    assert sum(dd is d2 for dd in checked) == 2
    bad = Diagram([Crossing(2, "a", "b", "c", "d")])
    for _ in range(2):
        with pytest.raises(DiagramError):
            bad.validate(allow_open=True)


def test_a_diagram_indexes_its_records_once(monkeypatch):
    """Every find_sites call on a diagram and an apply_move at each of its
    sites read one record index, built on the first call and kept on it."""
    from hlcolor import moves

    built = []
    init = moves._Records.__init__
    monkeypatch.setattr(moves._Records, "__init__", lambda view, d: built.append(d) or init(view, d))
    d = handcuff_clasp()
    sites = [site for move in ALL_MOVES for direction in ("apply", "undo")
             for site in find_sites(d, move, direction)]
    assert len(sites) > 100
    for site in sites:
        apply_move(d, site)
    assert len(built) == 1 and built[0] is d


# -- the transport contract ------------------------------------------------------


def test_transport_rejects_a_non_coloring(x6):
    """Both ways across R2a: the undo keeps every semi-arc of its target, so
    nothing is left to search and the fixed values alone must be checked."""
    d = trefoil()
    d2 = apply_move(d, find_sites(d, "R2a", "apply")[0]).diagram
    for src, dst in ((d, d2), (d2, d)):
        col = enumerate_colorings(src, x6, want_list=True).colorings[0]
        s = min(set(src.semiarcs) & set(dst.semiarcs))
        broken = Coloring(x6, {**col.assignment, s: (col.assignment[s] + 1) % x6.n})
        with pytest.raises(RuntimeError, match="found 0; wiring bug"):
            transport_coloring(src, dst, broken, x6)


def test_transport_rejects_a_non_unique_extension(x6):
    d = trefoil()
    d2 = disjoint_union(d, loop_diagram())  # the free loop takes any of the 6 colors
    col = enumerate_colorings(d, x6, want_list=True).colorings[0]
    with pytest.raises(RuntimeError, match="found 6; wiring bug"):
        transport_coloring(d, d2, col, x6)


@pytest.mark.parametrize("move, settled", [("R1a", False), ("R1b", False), ("R2b", False),
                                           ("R2a", True)])
def test_transport_round_trips_whether_or_not_propagation_settles_it(x6, move, settled):
    """Lookups from the kept values settle every new semi-arc across R2a, but
    not across R1a, R1b or R2b, where the depth-first plan has to branch."""
    d = trefoil()
    cols = enumerate_colorings(d, x6, want_list=True).colorings
    open_ = 0
    for site in find_sites(d, move, "apply"):
        d2 = apply_move(d, site).diagram
        net = _network(d2, x6)
        for col in cols:
            fixed = {s: v for s, v in col.assignment.items() if s in net.index}
            open_ += bool(depth_first(net, fixed).plan.parts)
        _assert_transport_round_trips(d, x6, site)
    assert (open_ == 0) == settled


def test_a_transport_compiles_one_kept_variable_plan(x6, monkeypatch):
    """16 transports across one R1a-apply site, where the kink's semi-arc is
    left to branch on, compile one plan, for the kept variables, and run it."""
    from hlcolor import plan

    built = []

    class CountingPlacer(plan._Placer):
        def __init__(self, net, fixed, *args):
            built.append(fixed)
            super().__init__(net, fixed, *args)

    d = trefoil()
    cols = enumerate_colorings(d, x6, want_list=True).colorings
    d2 = apply_move(d, MoveSite("R1a", "apply", ("s1",), "over")).diagram
    net = _network(d2, x6)
    monkeypatch.setattr(plan, "_Placer", CountingPlacer)
    for col in (cols * 16)[:16]:
        moved = transport_coloring(d, d2, col, x6)
        assert local_rules_hold(d2, x6, moved.assignment)
    kept = frozenset(net.index[s] for s in cols[0].assignment if s in net.index)
    assert built == [kept]
    (entry,) = net.transports.values()
    assert entry[0] is net.plans[kept] and entry[0].parts


def test_a_move_keeps_the_unused_semiarcs_of_an_open_diagram(x6):
    d = build_braid_open(3, [("x", 0, 1)])[0]
    assert "t2" in d.semiarcs  # the third strand is on no record
    res = apply_move(d, MoveSite("R1a", "apply", ("s1",)))
    assert "t2" in res.diagram.semiarcs
    assert diagrams_isomorphic(apply_move(res.diagram, res.inverse).diagram, d)
    for col in enumerate_colorings(d, x6, want_list=True).colorings:
        moved = transport_coloring(d, res.diagram, col, x6)
        assert moved.assignment["t2"] == col.assignment["t2"]
    # every other site too, the free strand's own kinks included
    for move in ALL_MOVES:
        for direction in ("apply", "undo"):
            for site in find_sites(d, move, direction):
                res = apply_move(d, site)
                back = apply_move(res.diagram, res.inverse).diagram
                assert diagrams_isomorphic(back, d), site


# -- the compiled transport against brute force ---------------------------------------


def _kept(d, d2, x) -> list[tuple[str, str]]:
    """(variable of d2, variable of d) for every value a transport keeps."""
    if isinstance(x, MCQ):
        old_arcs, new_arcs = arcs_of(d), arcs_of(d2)
        return sorted({(new_arcs[s], old_arcs[s]) for s in set(old_arcs) & set(new_arcs)})
    return [(s, s) for s in sorted((set(d.semiarcs) | set(d.loops)) & (set(d2.semiarcs) | set(d2.loops)))]


def _extension_counts(d2, x, kept: list[str], rows: list[dict]) -> np.ndarray:
    """For each row of values of the kept variables of d2, how many
    assignments of d2's other variables make it a coloring of d2.

    Brute force over every assignment of the new variables at once, on the
    records that hold one; the rules are the oracle's (oracle.semiarc_rules_hold)
    stated over numpy arrays, one axis for the rows and one for the assignments.
    """
    var_of = arcs_of(d2) if isinstance(x, MCQ) else {s: s for s in d2.semiarcs + d2.loops}
    new = sorted(set(var_of.values()) - set(kept))
    grid = np.array(list(itertools.product(range(x.n), repeat=len(new)))).T  # (new, assignments)

    def color(s):
        v = var_of[s]
        return grid[new.index(v)][None, :] if v in new else np.array([[r[v]] for r in rows])

    ok = np.ones((len(rows), grid.shape[1]), dtype=bool)
    for c in d2.crossings:
        if all(var_of[s] not in new for s in c.slots()):
            continue
        oi, oo, ui, uo = map(color, c.slots())
        if c.sign < 0:
            oi, oo, ui, uo = oo, oi, uo, ui
        if isinstance(x, MCQ):
            ok &= x.star[ui, oi] == uo
        else:
            ok &= (x.under[ui, oo] == uo) & (x.over[oo, ui] == oi)
    for v in d2.vertices:
        if all(var_of[s] not in new for s in v.slots()):
            continue
        e1, e2, e3 = map(color, v.slots())
        if isinstance(x, MCQ):
            ok &= (x.block_of[e1] == x.block_of[e2]) & (x.prod[e1, e2] == e3)
        else:
            ok &= np.any([(x.block_of[b] == x.block_of[e2]) & (x.over[b, e2] == e1)
                          & (x.prod[b, e2] == e3) for b in range(x.n)], axis=0)
    return ok.sum(axis=1)


def test_compiled_transport_is_the_unique_extension_on_every_corpus_site(x6, corpus_diagrams):
    """Every corpus diagram, move, direction and site, for every x6 coloring
    and every Q(x6) coloring: the transport is a coloring by the oracle, keeps
    every kept value, and brute force finds no second extension of the kept
    values; the way back round-trips.  Only a transport that makes a kink or a
    bigon (R1a/R1b/R2b apply, and the way back across their undo) leaves a
    variable to the parts of the kept-variable plan."""
    qx6 = q_functor_mcb(x6)
    searched, transports = set(), 0
    for name, d in sorted(corpus_diagrams.items()):
        cols = [(x, enumerate_colorings(d, x, want_list=True).colorings) for x in (x6, qx6)]
        for move in ALL_MOVES:
            for direction in ("apply", "undo"):
                for site in find_sites(d, move, direction):
                    d2 = apply_move(d, site).diagram
                    for x, xcols in cols:
                        kept = _kept(d, d2, x)
                        rows = [{new: col.assignment[old] for new, old in kept} for col in xcols]
                        assert (_extension_counts(d2, x, [v for v, _ in kept], rows) == 1).all(), (name, site)
                        for col, row in zip(xcols, rows):
                            moved = transport_coloring(d, d2, col, x)
                            assert local_rules_hold(d2, x, moved.assignment), (name, site)
                            assert row.items() <= moved.assignment.items(), (name, site)
                            back = transport_coloring(d2, d, moved, x)
                            assert back.assignment == col.assignment, (name, site)
                            transports += 1
                            if x is x6:
                                for way, (src, dst) in (("forth", (col, d2)), ("back", (moved, d))):
                                    plan = _network(dst, x).transports[frozenset(src.assignment)][0]
                                    if plan.parts:
                                        searched.add((move, direction, way))
    assert transports > 100_000
    kinks = {("R1a", "apply", "forth"), ("R1b", "apply", "forth"), ("R2b", "apply", "forth")}
    assert kinks <= searched
    assert searched <= kinks | {(m, "undo", "back") for m in ("R1a", "R1b", "R2b")}
