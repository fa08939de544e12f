"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact (integer counts, table equality, divisibility); nothing is deferred
to calibration.
"""

import random
from math import lcm

import numpy as np
import pytest

from hlcolor.algebra import (
    Biquandle,
    Quandle,
    alexander_biquandle,
    biquandle_check,
    q_functor_biquandle,
    quandle_check,
    type_of,
)
from hlcolor.coloring import (
    brute_force_colorings,
    colorings_by_flow,
    enumerate_colorings,
    enumerate_colorings_mcb,
    enumerate_colorings_mcq,
    enumerate_flows,
    linear_colorings,
    per_flow_counts,
)
from hlcolor.diagram import reverse_mirror
from hlcolor.gfamily import (
    GFamilyB,
    GFamilyQ,
    associated_mcb,
    gfb_check,
    gfq_check,
    qg_map,
    verify_qg_compat,
    zkm_family_from_biquandle,
)
from hlcolor.groups import FiniteGroup, cyclic_group, group_check
from hlcolor.mcqb import MCB, MCQ, mcb_check, mcq_check, q_functor_mcb
from hlcolor.moves import apply_move, find_sites, transport_coloring
from hlcolor.oracle import local_rules_hold
from hlcolor.rings import ring_make


def _announce(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def families(corpus_structures):
    fams = {
        name: obj
        for name, obj in corpus_structures.items()
        if isinstance(obj, GFamilyB)
    }
    from hlcolor.algebra import dihedral_quandle, quandle_lift

    fams["lift-dihedral-family"] = zkm_family_from_biquandle(
        quandle_lift(dihedral_quandle(3)), 1
    )
    return fams


def test_criterion_1_functor_well_definedness(corpus_mcbs):
    assert len(corpus_mcbs) >= 5
    assert any(x.n == 72 for x in corpus_mcbs.values())
    for name, x in corpus_mcbs.items():
        assert mcb_check(x).ok, name
        report = mcq_check(q_functor_mcb(x))
        assert report.ok and not report.violations, name
    _announce(1, "functor-well-definedness", f"{len(corpus_mcbs)} MCBs incl. 72-element")


def test_criterion_2_qg_well_definedness_and_compat(families):
    for name, fam in families.items():
        assert gfb_check(fam).ok, name
        qfam = qg_map(fam)
        report = gfq_check(qfam)
        assert report.ok and not report.violations, name
        assert verify_qg_compat(fam), name
    _announce(2, "qg-map-well-definedness-and-compatibility", f"{len(families)} families")


def test_criterion_3_main_theorem_counts(corpus_mcbs, corpus_diagrams, families):
    pairs = 0
    for dname, d in corpus_diagrams.items():
        for xname, x in corpus_mcbs.items():
            nb = enumerate_colorings_mcb(d, x).count
            nq = enumerate_colorings_mcq(d, q_functor_mcb(x)).count
            assert nb == nq, (dname, xname, nb, nq)
            pairs += 1
    # per-flow counts match for associated MCBs
    flow_checks = 0
    core = ["loop", "theta", "trefoil", "fig8", "clasp", "twisted-theta", "stem-clasp"]
    for fname, fam in families.items():
        qfam = qg_map(fam)
        for dname in core:
            d = corpus_diagrams[dname]
            left = per_flow_counts(d, fam)
            right = per_flow_counts(d, qfam)
            assert left == right, (fname, dname)
            flow_checks += len(left)
    _announce(3, "mcb-mcq-count-correspondence",
              f"{pairs} diagram/structure pairs, {flow_checks} per-flow comparisons")


def test_criterion_4_module_dimensions(corpus_structures, corpus_diagrams):
    fam = corpus_structures["gf9-z8-family"]
    qfam = qg_map(fam)
    checks = 0
    for dname, d in corpus_diagrams.items():
        for flow in enumerate_flows(d, fam.group):
            left = linear_colorings(d, fam, flow)
            right = linear_colorings(d, qfam, flow)
            assert left.count == right.count, (dname, flow)
            assert left.module_info[0] == right.module_info[0], (dname, flow)
            checks += 1
    _announce(4, "alexander-module-isomorphism", f"{checks} flowed-diagram dimensions")


def test_criterion_5_type_arithmetic():
    z81 = ring_make(3, [2, 0, 0, 0, 1])
    t = z81.element([0, 1])
    x = alexander_biquandle(z81, z81.neg(t), t)
    assert type_of(x) == 4
    assert type_of(q_functor_biquandle(x)) == 2
    gf9 = ring_make(3, [2, 1, 1])
    t9 = gf9.element([0, 1])
    assert type_of(q_functor_biquandle(alexander_biquandle(gf9, t9, t9))) == 1
    pool = [
        ring_make(3, [2, 1, 1]),
        ring_make(3, [2, 0, 0, 0, 1]),
        ring_make(5, [2, 0, 1]),
        ring_make(2, [1, 1, 1]),
        ring_make(7),
        ring_make(9),
        ring_make(12),
        ring_make(16),
        ring_make(81),
        ring_make(2, [1, 1, 0, 1]),
    ]
    rng = random.Random(2024)
    cases = 0
    while cases < 50:
        ring = rng.choice(pool)
        units = [a for a in ring.elements() if ring.is_unit(a)]
        s, t = rng.choice(units), rng.choice(units)
        b = alexander_biquandle(ring, s, t)
        tb = type_of(b)
        tq = type_of(q_functor_biquandle(b))
        assert tb % tq == 0, (ring, s, t, tb, tq)
        assert tb == lcm(ring.unit_order(s), ring.unit_order(t))
        cases += 1
    _announce(5, "type-divisibility", "fixed analogs plus 50 random Alexander biquandles")


ALL_MOVES = ["R1a", "R1b", "R2a", "R2b", "R3", "R4a", "R4b", "R5a", "R5b", "R6"]


def test_criterion_6_move_invariance(corpus_structures, corpus_diagrams):
    x = associated_mcb(corpus_structures["z3-z2-family"])
    qx = q_functor_mcb(x)
    g2 = cyclic_group(2)
    site_checks = 0
    for dname, d in corpus_diagrams.items():
        base = (
            enumerate_colorings_mcb(d, x).count,
            enumerate_colorings_mcq(d, qx).count,
            len(enumerate_flows(d, g2)),
        )
        for move in ALL_MOVES:
            for direction in ("apply", "undo"):
                for site in find_sites(d, move, direction):
                    d2 = apply_move(d, site).diagram
                    now = (
                        enumerate_colorings_mcb(d2, x).count,
                        enumerate_colorings_mcq(d2, qx).count,
                        len(enumerate_flows(d2, g2)),
                    )
                    assert now == base, (dname, site)
                    site_checks += 1
    # transported colorings form a bijection and invert exactly
    transported = 0
    for dname in ("trefoil", "theta", "clasp", "stem-clasp", "twisted-theta"):
        d = corpus_diagrams[dname]
        for struct in (x, qx):
            cols = enumerate_colorings(d, struct, want_list=True).colorings
            for move in ALL_MOVES:
                for direction in ("apply", "undo"):
                    for site in find_sites(d, move, direction):
                        res = apply_move(d, site)
                        images = set()
                        for c in cols:
                            c2 = transport_coloring(d, res.diagram, c, struct)
                            back = transport_coloring(res.diagram, d, c2, struct)
                            assert back.assignment == c.assignment
                            images.add(tuple(sorted(c2.assignment.items())))
                        assert len(images) == len(cols)
                        transported += 1
    _announce(6, "move-invariance",
              f"{site_checks} (site, count) checks, {transported} transported sites")


def test_criterion_7_oracle_equivalence(corpus_mcbs, corpus_mcqs, corpus_diagrams,
                                        corpus_structures, families):
    structures = dict(corpus_mcbs)
    structures.update(corpus_mcqs)
    instances = 0
    for dname, d in corpus_diagrams.items():
        for xname, x in structures.items():
            from hlcolor.coloring import coloring_vars

            vars_ = coloring_vars(d, isinstance(x, MCQ))
            if x.n ** len(vars_) > 10**6:
                continue
            assert enumerate_colorings(d, x).count == brute_force_colorings(d, x), (
                dname, xname,
            )
            instances += 1
    # linear path equals backtracking on every Alexander corpus instance
    linear_checks = 0
    fams = [f for f in families.values() if getattr(f, "alexander", None)]
    fams += [qg_map(f) for f in fams]
    fams.append(corpus_structures["dihedral-z2-family"])
    core = ["loop", "theta", "trefoil", "clasp", "twisted-theta", "kinked-unknot"]
    for fam in fams:
        if getattr(fam, "alexander", None) is None:
            continue
        for dname in core:
            d = corpus_diagrams[dname]
            for flow in enumerate_flows(d, fam.group):
                assert (
                    linear_colorings(d, fam, flow).count
                    == colorings_by_flow(d, fam, flow).count
                )
                linear_checks += 1
    _announce(7, "oracle-equivalence",
              f"{instances} brute-force instances, {linear_checks} linear/backtracking flows")


def test_criterion_8_reverse_mirror_bijection(corpus_mcbs, corpus_diagrams):
    pairs = 0
    for dname, d in corpus_diagrams.items():
        rm = reverse_mirror(d)
        for xname, x in corpus_mcbs.items():
            cols = enumerate_colorings_mcb(d, x, want_list=True).colorings
            for col in cols:
                assert local_rules_hold(rm, x, col.assignment), (dname, xname)
            assert len(cols) == enumerate_colorings_mcb(rm, x).count, (dname, xname)
            pairs += 1
    _announce(8, "reverse-mirror-transfer", f"{pairs} (MCB, diagram) pairs")


# -- criterion 9: mutation sensitivity with witness replay ---------------------


def _replay_quandle(q: Quandle, axiom: str, w: tuple) -> bool:
    t = q.table
    if axiom == "idempotence":
        return t[w[0], w[0]] != w[0]
    if axiom == "right-bijectivity":
        a1, a2, b = w
        return a1 != a2 and t[a1, b] == t[a2, b]
    if axiom == "self-distributivity":
        x, y, z = w
        return t[t[x, y], z] != t[t[x, z], t[y, z]]
    raise AssertionError(f"unknown quandle axiom {axiom}")


def _replay_biquandle(b: Biquandle, axiom: str, w: tuple) -> bool:
    u, o = b.under, b.over
    if axiom == "diagonal":
        return u[w[0], w[0]] != o[w[0], w[0]]
    if axiom in ("under-bijectivity", "over-bijectivity"):
        tbl = u if axiom.startswith("under") else o
        return len(np.unique(tbl[:, w[0]])) != b.n
    if axiom == "pair-map-bijectivity":
        x1, y1, x2, y2 = w
        return (o[y1, x1], u[x1, y1]) == (o[y2, x2], u[x2, y2]) and (x1, y1) != (x2, y2)
    lawmap = {
        "exchange-uu": lambda x, y, z: u[u[x, y], u[z, y]] != u[u[x, z], o[y, z]],
        "exchange-uo": lambda x, y, z: o[u[x, y], u[z, y]] != u[o[x, z], o[y, z]],
        "exchange-oo": lambda x, y, z: o[o[x, y], o[z, y]] != o[o[x, z], u[y, z]],
    }
    return lawmap[axiom](*w)


def _replay_mc(x, axiom: str, w: tuple) -> bool:
    p = x.prod
    if axiom == "block-closure":
        a, b = w
        return x.block_of[p[a, b]] != x.block_of[a] or p[a, b] < 0
    if axiom == "block-associativity":
        a, b, c = w
        return p[p[a, b], c] != p[a, p[b, c]]
    if isinstance(x, MCQ):
        s = x.star
        if axiom == "conjugation":
            a, b = w
            return s[a, b] != p[p[x.ginv[b], a], b]
        if axiom == "star-unit":
            return s[w[0], w[1]] != w[0]
        if axiom == "star-product":
            xx, a, b = w
            return s[xx, p[a, b]] != s[s[xx, a], b]
        if axiom == "self-distributivity":
            xx, y, z = w
            return s[s[xx, y], z] != s[s[xx, z], s[y, z]]
        if axiom == "block-homomorphy":
            a, b, y = w
            ay, by = s[a, y], s[b, y]
            return x.block_of[ay] != x.block_of[by] or s[p[a, b], y] != p[ay, by]
        if axiom == "star-bijectivity":
            return len(np.unique(s[:, w[0]])) != x.n
        if axiom == "block-to-block":
            member, y = w
            blocks = {int(x.block_of[s[a, y]]) for a in x.blocks[x.block_of[member]]}
            return len(blocks) > 1
        raise AssertionError(f"unknown mcq axiom {axiom}")
    u, o = x.under, x.over
    if axiom in ("exchange-uu", "exchange-uo", "exchange-oo"):
        lawmap = {
            "exchange-uu": lambda a, b, c: u[u[a, b], u[c, b]] != u[u[a, c], o[b, c]],
            "exchange-uo": lambda a, b, c: o[u[a, b], u[c, b]] != u[o[a, c], o[b, c]],
            "exchange-oo": lambda a, b, c: o[o[a, b], o[c, b]] != o[o[a, c], u[b, c]],
        }
        return lawmap[axiom](*w)
    if axiom in ("hom-under", "hom-over"):
        tbl = u if axiom.endswith("under") else o
        a, b, y = w
        ay, by = tbl[a, y], tbl[b, y]
        return x.block_of[ay] != x.block_of[by] or tbl[p[a, b], y] != p[ay, by]
    if axiom in ("prod-under", "prod-over"):
        tbl = u if axiom.endswith("under") else o
        xx, a, b = w
        return tbl[xx, p[a, b]] != tbl[tbl[xx, a], o[b, a]]
    if axiom in ("unit-under", "unit-over"):
        tbl = u if axiom.endswith("under") else o
        return tbl[w[0], w[1]] != w[0]
    if axiom == "conj-compat":
        a, b = w
        return o[p[x.ginv[a], b], a] != u[p[b, x.ginv[a]], a]
    if axiom in ("under-bijectivity", "over-bijectivity"):
        tbl = u if axiom.startswith("under") else o
        return len(np.unique(tbl[:, w[0]])) != x.n
    if axiom in ("block-to-block-under", "block-to-block-over"):
        tbl = u if axiom.endswith("under") else o
        member, y = w
        blocks = {int(x.block_of[tbl[a, y]]) for a in x.blocks[x.block_of[member]]}
        return len(blocks) > 1
    raise AssertionError(f"unknown mcb axiom {axiom}")


def _replay_group(g: FiniteGroup, axiom: str, w: tuple) -> bool:
    c = g.cayley
    if axiom == "row-bijectivity":
        return len(np.unique(c[w[0]])) != g.n
    if axiom == "column-bijectivity":
        return len(np.unique(c[:, w[0]])) != g.n
    if axiom == "associativity":
        x, y, z = w
        return c[c[x, y], z] != c[x, c[y, z]]
    raise AssertionError(f"unknown group axiom {axiom}")


def _replay_gfamily(f, axiom: str, w: tuple) -> bool:
    g_ = f.group
    if isinstance(f, GFamilyQ):
        ops = f.ops
        if axiom == "gf-idempotence":
            g, x = w
            return ops[g][x, x] != x
        if axiom == "gf-unit":
            x, y = w
            return ops[g_.identity][x, y] != x
        if axiom == "gf-product":
            g, h, x, y = w
            return ops[g_.mul(g, h)][x, y] != ops[h][ops[g][x, y], y]
        if axiom == "gf-exchange":
            g, h, x, y, z = w
            c = g_.conj(g, h)
            return ops[h][ops[g][x, y], z] != ops[c][ops[h][x, z], ops[h][y, z]]
        raise AssertionError(f"unknown gfq axiom {axiom}")
    u, o = f.under_ops, f.over_ops
    if axiom == "gfb-diagonal":
        g, x = w
        return u[g][x, x] != o[g][x, x]
    if axiom in ("gfb-unit-under", "gfb-unit-over"):
        tbl = u if axiom.endswith("under") else o
        x, y = w
        return tbl[g_.identity][x, y] != x
    if axiom in ("gfb-product-under", "gfb-product-over"):
        tbl = u if axiom.endswith("under") else o
        g, h, x, y = w
        return tbl[g_.mul(g, h)][x, y] != tbl[h][tbl[g][x, y], tbl[g][y, y]]
    if axiom.startswith("gfb-exchange"):
        g, h, x, y, z = w
        c = g_.conj(g, h)
        zoy = o[g][z, y]
        laws = {
            "gfb-exchange-uu": (u[h][u[g][x, y], zoy], u[c][u[h][x, z], u[h][y, z]]),
            "gfb-exchange-ou": (u[h][o[g][x, y], zoy], o[c][u[h][x, z], u[h][y, z]]),
            "gfb-exchange-oo": (o[h][o[g][x, y], zoy], o[c][o[h][x, z], u[h][y, z]]),
        }
        lhs, rhs = laws[axiom]
        return lhs != rhs
    raise AssertionError(f"unknown gfb axiom {axiom}")


def _mutate_and_check(obj, rng):
    """Mutate one table entry; return the checker report on the mutant."""
    if isinstance(obj, Quandle):
        t = obj.table.copy()
        a, b = rng.randrange(obj.n), rng.randrange(obj.n)
        t[a, b] = (t[a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = Quandle(t)
        return quandle_check(mutant), mutant, _replay_quandle
    if isinstance(obj, Biquandle):
        u, o = obj.under.copy(), obj.over.copy()
        a, b = rng.randrange(obj.n), rng.randrange(obj.n)
        tbl = u if rng.random() < 0.5 else o
        tbl[a, b] = (tbl[a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = Biquandle(u, o)
        return biquandle_check(mutant), mutant, _replay_biquandle
    if isinstance(obj, MCQ):
        s = obj.star.copy()
        p = obj.prod.copy()
        if rng.random() < 0.7:
            a, b = rng.randrange(obj.n), rng.randrange(obj.n)
            s[a, b] = (s[a, b] + rng.randrange(1, obj.n)) % obj.n
        else:
            lam = rng.randrange(len(obj.blocks))
            members = obj.blocks[lam]
            a, b = rng.choice(members), rng.choice(members)
            p[a, b] = (p[a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = MCQ(obj.block_of.copy(), p, s)
        return mcq_check(mutant), mutant, _replay_mc
    if isinstance(obj, MCB):
        u, o, p = obj.under.copy(), obj.over.copy(), obj.prod.copy()
        roll = rng.random()
        if roll < 0.45:
            a, b = rng.randrange(obj.n), rng.randrange(obj.n)
            u[a, b] = (u[a, b] + rng.randrange(1, obj.n)) % obj.n
        elif roll < 0.9:
            a, b = rng.randrange(obj.n), rng.randrange(obj.n)
            o[a, b] = (o[a, b] + rng.randrange(1, obj.n)) % obj.n
        else:
            lam = rng.randrange(len(obj.blocks))
            members = obj.blocks[lam]
            a, b = rng.choice(members), rng.choice(members)
            p[a, b] = (p[a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = MCB(obj.block_of.copy(), p, u, o)
        return mcb_check(mutant), mutant, _replay_mc
    if isinstance(obj, FiniteGroup):
        c = obj.cayley.copy()
        a, b = rng.randrange(obj.n), rng.randrange(obj.n)
        c[a, b] = (c[a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = object.__new__(FiniteGroup)
        mutant.cayley = c
        mutant.n = obj.n
        mutant.labels = None
        return group_check(mutant), mutant, _replay_group
    if isinstance(obj, GFamilyQ):
        ops = obj.ops.copy()
        g = rng.randrange(obj.group.n)
        a, b = rng.randrange(obj.n), rng.randrange(obj.n)
        ops[g, a, b] = (ops[g, a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = GFamilyQ(obj.group, ops)
        return gfq_check(mutant), mutant, _replay_gfamily
    if isinstance(obj, GFamilyB):
        u, o = obj.under_ops.copy(), obj.over_ops.copy()
        g = rng.randrange(obj.group.n)
        a, b = rng.randrange(obj.n), rng.randrange(obj.n)
        tbl = u if rng.random() < 0.5 else o
        tbl[g, a, b] = (tbl[g, a, b] + rng.randrange(1, obj.n)) % obj.n
        mutant = GFamilyB(obj.group, u, o)
        return gfb_check(mutant), mutant, _replay_gfamily
    raise AssertionError(f"no mutation strategy for {type(obj)}")


def test_criterion_9_mutation_sensitivity(corpus_structures, corpus_mcbs):
    structures = dict(corpus_structures)
    structures["assoc-gf9-z8-mcb"] = corpus_mcbs["assoc-gf9-z8-mcb"]
    rng = random.Random(99)
    total = 0
    for name, obj in sorted(structures.items()):
        for _ in range(100):
            try:
                report, mutant, replay = _mutate_and_check(obj, rng)
            except ValueError:
                total += 1  # structurally malformed: rejected at construction
                continue
            assert not report.ok, f"false accept on mutated {name}"
            axiom, witness = report.violations[0]
            assert replay(mutant, axiom, witness), (name, axiom, witness)
            total += 1
    _announce(9, "mutation-sensitivity", f"{total} mutations rejected with replayed witnesses")
