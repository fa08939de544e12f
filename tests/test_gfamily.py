import numpy as np
import pytest

from hlcolor.algebra import (
    alexander_biquandle,
    alexander_quandle,
    dihedral_quandle,
    quandle_lift,
    trivial_quandle,
    type_of,
)
from hlcolor.gfamily import (
    GFamilyQ,
    OrderMismatchError,
    associated_mcb,
    associated_mcq,
    gfamily_alexander_b,
    gfamily_alexander_q,
    gfb_check,
    gfq_check,
    qg_map,
    verify_qg_compat,
    zkm_family_from_biquandle,
    zkm_family_from_quandle,
)
from hlcolor.mcqb import mcb_check, mcq_check
from hlcolor.rings import NonUnitError, ring_make
from tests.conftest import corpus_rings

R3 = ring_make(3)
R5 = ring_make(5)
GF9 = ring_make(3, [2, 1, 1])


@pytest.fixture(scope="module")
def gf9_family():
    t = GF9.element([0, 1])
    return gfamily_alexander_b(GF9, 8, t, GF9.add(t, GF9.one))


def test_gfamily_alexander_q_dihedral():
    fam = gfamily_alexander_q(R3, 2, R3.element(2))
    assert gfq_check(fam).ok
    assert np.array_equal(fam.ops[0], trivial_quandle(3).table)
    assert np.array_equal(fam.ops[1], dihedral_quandle(3).table)


def test_gfamily_alexander_q_u_one_trivial():
    fam = gfamily_alexander_q(R5, 3, R5.one)
    assert gfq_check(fam).ok
    assert all(np.array_equal(fam.ops[i], trivial_quandle(5).table) for i in range(3))


def test_gfamily_alexander_q_gf9():
    t2 = GF9.mul(GF9.element([0, 1]), GF9.element([0, 1]))
    fam = gfamily_alexander_q(GF9, 8, t2)
    assert gfq_check(fam).ok


def test_gfamily_alexander_errors():
    with pytest.raises(OrderMismatchError):
        gfamily_alexander_q(R5, 3, R5.element(2))  # 2^3 = 3 != 1
    with pytest.raises(NonUnitError):
        gfamily_alexander_b(ring_make(4), 2, ring_make(4).element(2), ring_make(4).one)


def test_gfamily_alexander_b_examples(gf9_family):
    assert gfb_check(gf9_family).ok
    fam5 = gfamily_alexander_b(R5, 4, R5.element(3), R5.element(2))
    assert gfb_check(fam5).ok
    fam_st = gfamily_alexander_b(R5, 4, R5.element(2), R5.element(2))
    assert gfb_check(fam_st).ok
    assert np.array_equal(fam_st.under_ops, fam_st.over_ops)


def test_gfamily_mutation_rejected(gf9_family):
    fam5 = gfamily_alexander_b(R5, 4, R5.element(3), R5.element(2))
    under = fam5.under_ops.copy()
    under[1, 0, 1] = (under[1, 0, 1] + 1) % 5
    from hlcolor.gfamily import GFamilyB

    assert not gfb_check(GFamilyB(fam5.group, under, fam5.over_ops.copy())).ok
    fam = gfamily_alexander_q(R3, 2, R3.element(2))
    ops = fam.ops.copy()
    ops[1, 0, 1] = (ops[1, 0, 1] + 1) % 3
    from hlcolor.gfamily import GFamilyQ

    assert not gfq_check(GFamilyQ(fam.group, ops)).ok


def test_zkm_families():
    famq = zkm_family_from_quandle(dihedral_quandle(3), 1)
    assert famq.group.n == 2
    assert gfq_check(famq).ok
    famq3 = zkm_family_from_quandle(trivial_quandle(2), 3)
    assert famq3.group.n == 3
    assert gfq_check(famq3).ok
    b5 = alexander_biquandle(R5, R5.element(2), R5.element(3))
    famb = zkm_family_from_biquandle(b5, 1)
    assert famb.group.n == 4
    assert gfb_check(famb).ok
    # the zkm family of an Alexander biquandle equals the Alexander family
    direct = gfamily_alexander_b(R5, 4, R5.element(3), R5.element(2))
    assert np.array_equal(famb.under_ops, direct.under_ops)
    assert np.array_equal(famb.over_ops, direct.over_ops)


def test_zkm_index_km_is_identity():
    b5 = alexander_biquandle(R5, R5.element(2), R5.element(3))
    m = type_of(b5)
    fam = zkm_family_from_biquandle(b5, 2)
    ident = np.broadcast_to(np.arange(5)[:, None], (5, 5))
    assert np.array_equal(fam.under_ops[m], ident)
    assert np.array_equal(fam.over_ops[m], ident)
    famq = zkm_family_from_quandle(dihedral_quandle(3), 2)
    identq = np.broadcast_to(np.arange(3)[:, None], (3, 3))
    assert np.array_equal(famq.ops[type_of(dihedral_quandle(3))], identq)


def test_associated_mcq_shapes():
    fam = zkm_family_from_quandle(dihedral_quandle(3), 1)
    x = associated_mcq(fam)
    assert x.n == 6 and len(x.blocks) == 3
    assert mcq_check(x).ok
    triv = zkm_family_from_quandle(trivial_quandle(2), 1)
    xt = associated_mcq(triv)
    assert xt.n == 2
    assert mcq_check(xt).ok


def test_associated_mcb_gf9(gf9_family):
    x = associated_mcb(gf9_family)
    assert x.n == 72 and len(x.blocks) == 9
    assert mcb_check(x).ok


def test_qg_map_gf9_matches_alexander(gf9_family):
    qfam = qg_map(gf9_family)
    assert gfq_check(qfam).ok
    t = GF9.element([0, 1])
    expected = gfamily_alexander_q(GF9, 8, GF9.mul(t, t))
    assert np.array_equal(qfam.ops, expected.ops)
    kind, ring, unit = qfam.alexander
    assert kind == "quandle" and unit == GF9.mul(t, t)


def test_qg_map_s_equals_t_trivial():
    fam = gfamily_alexander_b(R5, 4, R5.element(2), R5.element(2))
    qfam = qg_map(fam)
    ident = np.broadcast_to(np.arange(5)[:, None], (5, 5))
    assert all(np.array_equal(qfam.ops[i], ident) for i in range(4))


def test_qg_map_trivial_group_is_underlying_lift():
    lift = quandle_lift(dihedral_quandle(3))
    fam = zkm_family_from_biquandle(lift, 1)
    qfam = qg_map(fam)
    assert gfq_check(qfam).ok
    assert np.array_equal(qfam.ops[1], dihedral_quandle(3).table)


@pytest.mark.parametrize(
    "family_name",
    ["gf9-z8-family", "z5-z4-family", "z3-z2-family"],
)
def test_qg_compat_on_corpus(corpus_structures, family_name):
    fam = corpus_structures[family_name]
    assert gfb_check(fam).ok
    assert gfq_check(qg_map(fam)).ok
    assert verify_qg_compat(fam)


def test_qg_compat_quandle_lift_family():
    fam = zkm_family_from_biquandle(quandle_lift(dihedral_quandle(3)), 1)
    assert verify_qg_compat(fam)


def _assoc_entrywise(f):
    """prod and the operation tables of the associated structure, entry by entry."""
    g_, ng = f.group, f.group.n
    total = f.n * ng
    quandle = isinstance(f, GFamilyQ)
    prod = np.full((total, total), -1, dtype=np.int64)
    ops = [np.empty((total, total), dtype=np.int64) for _ in range(1 if quandle else 2)]
    for x in range(f.n):
        for g in range(ng):
            for h in range(ng):
                prod[x * ng + g, x * ng + h] = x * ng + g_.mul(g, h)
            for y in range(f.n):
                for h in range(ng):
                    a, b = x * ng + g, y * ng + h
                    if quandle:
                        ops[0][a, b] = f.ops[h, x, y] * ng + g_.conj(g, h)
                    else:
                        ops[0][a, b] = f.under_ops[h, x, y] * ng + g_.conj(g, h)
                        ops[1][a, b] = f.over_ops[h, x, y] * ng + g
    return prod, ops


@pytest.mark.parametrize("family_name", ["gf9-z8-family", "z5-z4-family", "dihedral-z2-family"])
def test_associated_tables_match_entrywise_definition(corpus_structures, family_name):
    from hlcolor.groups import symmetric_group

    s3 = symmetric_group(3)
    # a family over a non-abelian group, so that conjugation is not trivial
    trivial = GFamilyQ(s3, np.broadcast_to(np.arange(2)[:, None], (s3.n, 2, 2)))
    for f in (corpus_structures[family_name], trivial):
        build = associated_mcq if isinstance(f, GFamilyQ) else associated_mcb
        x = build(f)
        prod, ops = _assoc_entrywise(f)
        assert np.array_equal(x.prod, prod)
        got = [x.star] if isinstance(f, GFamilyQ) else [x.under, x.over]
        assert all(np.array_equal(a, b) for a, b in zip(got, ops))
        assert build(f) is x  # built once per family object


# -- the Alexander constructors against the element-by-element loops ------------


def _loop_alexander_quandle(ring, t):
    els = ring.elements()
    index = {e: i for i, e in enumerate(els)}
    one_minus_t = ring.sub(ring.one, t)
    return np.array([
        [index[ring.add(ring.mul(t, a), ring.mul(one_minus_t, b))] for b in els]
        for a in els
    ])


def _loop_alexander_biquandle(ring, s, t):
    els = ring.elements()
    index = {e: i for i, e in enumerate(els)}
    s_minus_t = ring.sub(s, t)
    under = [
        [index[ring.add(ring.mul(t, a), ring.mul(s_minus_t, b))] for b in els]
        for a in els
    ]
    over = [[index[ring.mul(s, a)] for _b in els] for a in els]
    return np.array(under), np.array(over)


def _loop_gfamily_q(ring, n, u):
    els = ring.elements()
    index = {e: i for i, e in enumerate(els)}
    ops = np.empty((n, len(els), len(els)), dtype=np.int64)
    for i in range(n):
        ui = ring.pow(u, i)
        one_minus = ring.sub(ring.one, ui)
        for a_idx, a in enumerate(els):
            for b_idx, b in enumerate(els):
                ops[i, a_idx, b_idx] = index[ring.add(ring.mul(ui, a), ring.mul(one_minus, b))]
    return ops


def _loop_gfamily_b(ring, n, t, s):
    els = ring.elements()
    index = {e: i for i, e in enumerate(els)}
    m = len(els)
    under = np.empty((n, m, m), dtype=np.int64)
    over = np.empty((n, m, m), dtype=np.int64)
    for i in range(n):
        ti, si = ring.pow(t, i), ring.pow(s, i)
        smt = ring.sub(si, ti)
        for a_idx, a in enumerate(els):
            sa = index[ring.mul(si, a)]
            ta = ring.mul(ti, a)
            for b_idx, b in enumerate(els):
                under[i, a_idx, b_idx] = index[ring.add(ta, ring.mul(smt, b))]
                over[i, a_idx, b_idx] = sa
    return under, over


CONSTRUCTOR_RINGS = {**corpus_rings(), "Z9[t]/(t^2+1)": ring_make(9, [1, 0, 1])}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_RINGS))
def test_alexander_constructors_match_the_loops(name):
    ring = CONSTRUCTOR_RINGS[name]
    units = [a for a in ring.elements() if ring.is_unit(a)]
    # the unit of largest order up to 8 (first in element order), and its square
    t = max(units, key=lambda a: (ring.unit_order(a) <= 8, ring.unit_order(a)))
    s = ring.mul(t, t)
    n = ring.unit_order(t)
    for u in (t, s, ring.one):
        assert np.array_equal(alexander_quandle(ring, u).table, _loop_alexander_quandle(ring, u))
    for x, y in ((s, t), (t, t), (ring.one, t)):
        b = alexander_biquandle(ring, x, y)
        under, over = _loop_alexander_biquandle(ring, x, y)
        assert np.array_equal(b.under, under) and np.array_equal(b.over, over)
    fq = gfamily_alexander_q(ring, n, t)
    assert np.array_equal(fq.ops, _loop_gfamily_q(ring, n, t))
    fb = gfamily_alexander_b(ring, n, t, s)
    under, over = _loop_gfamily_b(ring, n, t, s)
    assert np.array_equal(fb.under_ops, under) and np.array_equal(fb.over_ops, over)
    assert fb.labels == fq.labels == ring.elements()
