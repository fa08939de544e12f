import random

import numpy as np
import pytest

from hlcolor.algebra import dihedral_quandle
from hlcolor.gfamily import associated_mcq, gfamily_alexander_b, zkm_family_from_quandle
from hlcolor.groups import FiniteGroup, cyclic_group, group_check, symmetric_group
from hlcolor.mcqb import (
    MCB,
    MCQ,
    conjugation_mcq,
    hom_check,
    mcb_check,
    mcq_check,
    q_functor_mcb,
    quandle_lift_mcb,
)
from hlcolor.rings import ring_make


@pytest.fixture(scope="module")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="module")
def mcq6():
    return associated_mcq(zkm_family_from_quandle(dihedral_quandle(3), 1))


@pytest.fixture(scope="module")
def mcb6():
    r3 = ring_make(3)
    return __import__("hlcolor.gfamily", fromlist=["associated_mcb"]).associated_mcb(
        gfamily_alexander_b(r3, 2, r3.element(2), r3.element(2))
    )


def test_group_check(s3):
    assert group_check(s3).ok
    assert group_check(cyclic_group(8)).ok
    bad = s3.cayley.copy()
    bad[0][1] = bad[0][2]
    with pytest.raises(ValueError):
        FiniteGroup(bad)  # inverse/identity detection fails on mangled tables


def test_group_check_reports_broken_associativity():
    # latin square that is not associative: a quasigroup of order 5
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    g = object.__new__(FiniteGroup)
    g.cayley = np.asarray(t)
    g.n = 5
    g.labels = None
    report = group_check(g)
    assert not report.ok
    assert report.violations[0][0] == "associativity"


def test_conjugation_mcq(s3):
    x = conjugation_mcq(s3)
    assert mcq_check(x).ok


def test_associated_mcq_dihedral(mcq6):
    assert mcq6.n == 6
    assert len(mcq6.blocks) == 3
    assert mcq_check(mcq6).ok


def test_mcq_mutation_rejected(mcq6):
    star = mcq6.star.copy()
    star[0, 1] = (star[0, 1] + 1) % 6
    assert not mcq_check(MCQ(mcq6.block_of, mcq6.prod, star)).ok


def test_malformed_partition_raises(mcq6):
    prod = mcq6.prod.copy()
    prod[0, 2] = 1  # cross-block product defined
    with pytest.raises(ValueError):
        MCQ(mcq6.block_of, prod, mcq6.star)


def test_mcb_check_and_q_functor(mcb6):
    assert mcb_check(mcb6).ok
    q = q_functor_mcb(mcb6)
    assert mcq_check(q).ok


def test_quandle_lift_mcb(mcq6):
    lifted = quandle_lift_mcb(mcq6)
    assert mcb_check(lifted).ok
    assert np.array_equal(q_functor_mcb(lifted).star, mcq6.star)


def test_gf9_assoc_mcb_q_functor(corpus_mcbs):
    x = corpus_mcbs["assoc-gf9-z8-mcb"]
    assert x.n == 72
    assert mcb_check(x).ok
    assert mcq_check(q_functor_mcb(x)).ok


def test_assoc_block_structure(corpus_mcbs):
    for name, x in corpus_mcbs.items():
        for lam, members in enumerate(x.blocks):
            e = x.identities[lam]
            assert x.block_of[e] == lam
            mset = set(members)
            for a in members:
                assert int(x.ginv[a]) in mset
                for b in members:
                    assert int(x.prod[a, b]) in mset


def test_hom_check_identity_and_automorphism(mcq6):
    assert hom_check(list(range(6)), mcq6, mcq6)
    # quandle rotation a -> a+1 of R_3 induces the block permutation
    phi = [((a // 2 + 1) % 3) * 2 + a % 2 for a in range(6)]
    assert hom_check(phi, mcq6, mcq6)
    bad = list(range(6))
    bad[0], bad[1] = 1, 0
    assert not hom_check(bad, mcq6, mcq6)


def test_hom_check_q_functor_functoriality(corpus_structures):
    # scaling the Alexander carrier by a unit is a family automorphism, so
    # (x, g) -> (x r, g) is an MCB automorphism of the associated structure;
    # the functor must carry each one to an MCQ automorphism
    from hlcolor.gfamily import associated_mcb
    from hlcolor.rings import ring_make

    checked = 0
    for fname, ring in (("z3-z2-family", ring_make(3)), ("z5-z4-family", ring_make(5))):
        fam = corpus_structures[fname]
        x = associated_mcb(fam)
        q = q_functor_mcb(x)
        ng = fam.group.n
        els = ring.elements()
        index = {e: i for i, e in enumerate(els)}
        for r in els:
            if not ring.is_unit(r):
                continue
            phi = [
                index[ring.mul(els[a // ng], r)] * ng + a % ng for a in range(x.n)
            ]
            assert hom_check(phi, x, x), (fname, r)
            assert hom_check(phi, q, q), (fname, r)
            checked += 1
    assert checked >= 5


def test_mcb_mutations_rejected(mcb6):
    rng = random.Random(3)
    for _ in range(100):
        under = mcb6.under.copy()
        over = mcb6.over.copy()
        a, b = rng.randrange(6), rng.randrange(6)
        if rng.random() < 0.5:
            under[a, b] = (under[a, b] + rng.randrange(1, 6)) % 6
        else:
            over[a, b] = (over[a, b] + rng.randrange(1, 6)) % 6
        assert not mcb_check(MCB(mcb6.block_of, mcb6.prod, under, over)).ok


def _first_shape_error(block_of, prod):
    """The loop the vectorised product-shape check replaced, kept as its reference."""
    n = len(block_of)
    for a in range(n):
        for b in range(n):
            inside = block_of[a] == block_of[b]
            val = int(prod[a, b])
            if inside and not 0 <= val < n:
                return f"product undefined inside a block at ({a},{b})"
            if not inside and val != -1:
                return f"product defined across blocks at ({a},{b})"
    return None


def test_partial_product_shape_errors_match_the_loop(mcq6):
    rng = random.Random(5)
    block_of, good = mcq6.block_of, mcq6.prod
    kinds = set()
    for _ in range(200):
        prod = good.copy()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(mcq6.n), rng.randrange(mcq6.n)
            prod[a, b] = rng.choice((-1, mcq6.n)) if block_of[a] == block_of[b] else 0
        want = _first_shape_error(block_of, prod)
        kinds.add(want.split(" at ")[0])
        with pytest.raises(ValueError) as exc:
            MCQ(block_of, prod, mcq6.star)
        assert str(exc.value) == want
    assert kinds == {"product undefined inside a block", "product defined across blocks"}


def _block_law_witnesses(x):
    """The loops the vectorised block-law checks replaced, kept as their reference:
    the first witness of each law, blocks, a, b, then y (or x) in ascending order."""
    p = x.prod
    out = []
    tables = (("block-homomorphy", x.star),) if isinstance(x, MCQ) else (
        ("hom-under", x.under), ("hom-over", x.over))
    for name, tbl in tables:
        out += [next(
            ((name, (a, b, y))
             for members in x.blocks for a in members for b in members for y in range(x.n)
             if x.block_of[tbl[a, y]] != x.block_of[tbl[b, y]]
             or tbl[p[a, b], y] != p[tbl[a, y], tbl[b, y]]),
            None,
        )]
    if isinstance(x, MCQ):
        return out
    u, o = x.under, x.over
    for name, tbl in (("prod-under", u), ("prod-over", o)):
        out += [next(
            ((name, (int(np.argmax(tbl[:, p[a, b]] != tbl[tbl[:, a], o[b, a]])), a, b))
             for members in x.blocks for a in members for b in members
             if not np.array_equal(tbl[:, p[a, b]], tbl[tbl[:, a], o[b, a]])),
            None,
        )]
    out += [next(
        (("conj-compat", (a, b))
         for members in x.blocks for a in members for b in members
         if o[p[x.ginv[a], b], a] != u[p[b, x.ginv[a]], a]),
        None,
    )]
    return out


def _checked_block_laws(x):
    report = mcq_check(x) if isinstance(x, MCQ) else mcb_check(x)
    found = {name: w for name, w in report.violations}
    names = ("block-homomorphy",) if isinstance(x, MCQ) else (
        "hom-under", "hom-over", "prod-under", "prod-over", "conj-compat")
    return [(name, found[name]) if name in found else None for name in names]


def test_block_laws_match_the_loops(corpus_mcbs, corpus_mcqs, mcb6, mcq6):
    """Vectorised hom-, prod- and conj-compat checks give the loops' first
    witnesses, on the corpus structures and on mutated tables."""
    rng = random.Random(11)
    structures = [mcb6, mcq6, *corpus_mcbs.values(), *corpus_mcqs.values()]
    seen = set()
    for x in structures:
        assert _checked_block_laws(x) == _block_law_witnesses(x)
        if x.n > 24:
            continue
        for _ in range(40):
            tables = [x.star.copy()] if isinstance(x, MCQ) else [x.under.copy(), x.over.copy()]
            for _ in range(rng.randint(1, 3)):
                tbl = rng.choice(tables)
                a, b = rng.randrange(x.n), rng.randrange(x.n)
                tbl[a, b] = rng.randrange(x.n)
            mutant = (MCQ if isinstance(x, MCQ) else MCB)(x.block_of, x.prod, *tables)
            want = _block_law_witnesses(mutant)
            assert _checked_block_laws(mutant) == want
            seen.update(w[0] for w in want if w is not None)
    assert seen == {"block-homomorphy", "hom-under", "hom-over", "prod-under", "prod-over",
                    "conj-compat"}
