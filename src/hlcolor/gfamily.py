"""G-families of quandles and biquandles, their associated MCQs/MCBs, and
the passage from biquandle families to quandle families.

A family stores one n-by-n operation table per group element; Alexander
families over cyclic groups come from ring units, and any finite (bi)quandle
of type m yields a Z_{km}-family through iterated (bracket) operations.
"""

from __future__ import annotations

import numpy as np

from hlcolor.algebra import (
    AxiomReport,
    Biquandle,
    Quandle,
    _as_tables,
    _cube,
    _law,
    quandle_lift,
    type_of,
)
from hlcolor.groups import FiniteGroup, cyclic_group
from hlcolor.mcqb import MCB, MCQ
from hlcolor.rings import Element, FiniteRing, NonUnitError


class OrderMismatchError(ValueError):
    """Raised when a unit's order does not divide the requested group order."""


class GFamilyQ:
    """A G-family of quandles: ops[g][x][y] = x *^g y.

    ``alexander`` is set by the Alexander constructors to ("quandle", ring, u)
    and enables the linear coloring path.
    """

    def __init__(self, group: FiniteGroup, ops, labels: list | None = None, alexander=None):
        self.group = group
        self.ops = _as_tables(ops, "family op")
        if self.ops.ndim != 3 or len(self.ops) != group.n:
            raise ValueError("family ops must have shape (|G|, n, n)")
        self.n = self.ops.shape[1]
        self.labels = labels
        self.alexander = alexander
        self._assoc: MCQ | None = None


class GFamilyB:
    """A G-family of biquandles: under_ops[g], over_ops[g].

    ``alexander`` is ("biquandle", ring, t, s) for Alexander families.
    """

    def __init__(self, group: FiniteGroup, under_ops, over_ops, labels: list | None = None, alexander=None):
        self.group = group
        self.under_ops = _as_tables(under_ops, "family under")
        self.over_ops = _as_tables(over_ops, "family over")
        if self.under_ops.shape != self.over_ops.shape:
            raise ValueError("under/over family shapes differ")
        if self.under_ops.ndim != 3 or len(self.under_ops) != group.n:
            raise ValueError("family ops must have shape (|G|, n, n)")
        self.n = self.under_ops.shape[1]
        self.labels = labels
        self.alexander = alexander
        self._assoc: MCB | None = None


# -- axiom checks -----------------------------------------------------------


def _first_pair(group: FiniteGroup, laws) -> list[tuple[str, tuple]]:
    """The first of the laws(g, h) to fail at the first failing (g, h), witnessed at (g, h) + w."""
    pairs = ((g, h) for g in range(group.n) for h in range(group.n))
    found = (_law(name, bad, lambda w: (g, h) + w) for g, h in pairs for name, bad in laws(g, h))
    return next(filter(None, found), [])


def gfq_check(f: GFamilyQ) -> AxiomReport:
    """Exhaustive verification over (x, y, z, g, h); O(n^3 |G|^2)."""
    g_, ops, n = f.group, f.ops, f.n
    rng = np.arange(n)
    x, y, z = _cube(n)
    violations = [
        *_law("gf-idempotence", ops[:, rng, rng] != rng),
        *_law("gf-unit", ops[g_.identity] != rng[:, None]),
        # x *^{gh} y = (x *^g y) *^h y
        *_first_pair(g_, lambda g, h: [("gf-product", ops[g_.mul(g, h)] != ops[h][ops[g], rng])]),
        *_first_pair(g_, lambda g, h: [("gf-exchange", ops[h][ops[g][x, y], z]
                                        != ops[g_.conj(g, h)][ops[h][x, z], ops[h][y, z]])]),
    ]
    return AxiomReport(not violations, violations)


def gfb_check(f: GFamilyB) -> AxiomReport:
    """Exhaustive verification of the G-family-of-biquandles axioms."""
    g_, u, o, n = f.group, f.under_ops, f.over_ops, f.n
    rng = np.arange(n)
    x, y, z = _cube(n)

    def product(name, t):  # x t^{gh} y = (x t^g y) t^h (y t^g y)
        return _first_pair(g_, lambda g, h: [(name, t[g_.mul(g, h)] != t[h][t[g], t[g][rng, rng]])])

    def exchange(g, h):
        c, zoy = g_.conj(g, h), o[g][z, y]
        return [
            ("gfb-exchange-uu", u[h][u[g][x, y], zoy] != u[c][u[h][x, z], u[h][y, z]]),
            ("gfb-exchange-ou", u[h][o[g][x, y], zoy] != o[c][u[h][x, z], u[h][y, z]]),
            ("gfb-exchange-oo", o[h][o[g][x, y], zoy] != o[c][o[h][x, z], u[h][y, z]]),
        ]

    violations = [
        *_law("gfb-diagonal", u[:, rng, rng] != o[:, rng, rng]),
        *_law("gfb-unit-under", u[g_.identity] != rng[:, None]),
        *_law("gfb-unit-over", o[g_.identity] != rng[:, None]),
        *product("gfb-product-under", u),
        *product("gfb-product-over", o),
        *_first_pair(g_, exchange),
    ]
    return AxiomReport(not violations, violations)


# -- constructors -----------------------------------------------------------


def _unit_powers(ring: FiniteRing, n: int, u: Element) -> np.ndarray:
    """The codes of u^0, u^1, ..., u^(n-1)."""
    return np.array([ring.tables.code[ring.pow(u, i)] for i in range(n)])


def gfamily_alexander_q(ring: FiniteRing, n: int, u: Element) -> GFamilyQ:
    """Z_n-family on the ring carrier: x *^i y = u^i x + (1 - u^i) y, the
    under operations of the biquandle family with t = u and s = 1."""
    if n < 1:
        raise ValueError(f"family order n must be at least 1, got {n}")
    if not ring.is_unit(u):
        raise NonUnitError("Alexander family unit u is not invertible")
    if ring.pow(u, n) != ring.one:
        raise OrderMismatchError(f"u^{n} != 1 for u={u}")
    b = gfamily_alexander_b(ring, n, u, ring.one)
    return GFamilyQ(b.group, b.under_ops, labels=b.labels, alexander=("quandle", ring, u))


def gfamily_alexander_b(ring: FiniteRing, n: int, t: Element, s: Element) -> GFamilyB:
    """Z_n-family: x under^i y = t^i x + (s^i - t^i) y, x over^i y = s^i x."""
    if n < 1:
        raise ValueError(f"family order n must be at least 1, got {n}")
    for name, val in (("t", t), ("s", s)):
        if not ring.is_unit(val):
            raise NonUnitError(f"Alexander family unit {name} is not invertible")
        if ring.pow(val, n) != ring.one:
            raise OrderMismatchError(f"{name}^{n} != 1")
    tb = ring.tables
    add, sub, mul = np.array(tb.add), np.array(tb.sub), np.array(tb.mul)
    ti, si = _unit_powers(ring, n, t), _unit_powers(ring, n, s)
    under = add[mul[ti][:, :, None], mul[sub[si, ti]][:, None, :]]
    over = np.repeat(mul[si][:, :, None], ring.size, axis=2)
    return GFamilyB(
        cyclic_group(n), under, over, labels=ring.elements(), alexander=("biquandle", ring, t, s)
    )


def zkm_family_from_quandle(q: Quandle, k: int) -> GFamilyQ:
    """The Z_{km}-family (m = type of q) with *^i the i-fold star: the under
    operations of the family of q's lift, whose over operation is the projection."""
    b = zkm_family_from_biquandle(quandle_lift(q), k)
    return GFamilyQ(b.group, b.under_ops, labels=b.labels)


def zkm_family_from_biquandle(b: Biquandle, k: int) -> GFamilyB:
    """The Z_{km}-family (m = type of b) of bracket powers of b."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = type_of(b)
    order = k * m
    n = b.n
    under, over = np.empty((2, order, n, n), dtype=np.int64)
    for tbl, out in ((b.under, under), (b.over, over)):
        a = np.broadcast_to(np.arange(n)[:, None], (n, n)).copy()
        c = np.broadcast_to(np.arange(n)[None, :], (n, n)).copy()
        for i in range(order):
            out[i] = a
            a, c = tbl[a, c], tbl[c, c]
    return GFamilyB(cyclic_group(order), under, over, labels=b.labels)


# -- associated structures ---------------------------------------------------


def _assoc_labels(f, nblocks: int):
    labels = []
    for x in range(nblocks):
        base = f.labels[x] if f.labels is not None else x
        for g in range(f.group.n):
            labels.append((base, g))
    return labels


def _assoc_partition_product(f):
    ng = f.group.n
    total = f.n * ng
    block_of = np.repeat(np.arange(f.n), ng)
    prod = np.full((total, total), -1, dtype=np.int64)
    for x in range(f.n):
        prod[x * ng:(x + 1) * ng, x * ng:(x + 1) * ng] = x * ng + f.group.cayley
    return block_of, prod


def _assoc_op(f, ops: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The table (x,g) op (y,h) = (x op^h y, shift[g, h]) on X x G."""
    ng = f.group.n
    total = f.n * ng
    # entry [x, g, y, h] = ops[h, x, y] * |G| + shift[g, h]
    return (ops.transpose(1, 2, 0)[:, None] * ng + shift[None, :, None, :]).reshape(total, total)


def associated_mcq(f: GFamilyQ) -> MCQ:
    """Carrier X x G, blocks {x} x G, (x,g)*(y,h) = (x *^h y, h^{-1} g h).

    Built once per family object.
    """
    if f._assoc is None:
        block_of, prod = _assoc_partition_product(f)
        star = _assoc_op(f, f.ops, f.group.conj_table())
        f._assoc = MCQ(block_of, prod, star, labels=_assoc_labels(f, f.n))
    return f._assoc


def associated_mcb(f: GFamilyB) -> MCB:
    """(x,g) under (y,h) = (x under^h y, h^{-1} g h); (x,g) over (y,h) = (x over^h y, g).

    Built once per family object.
    """
    if f._assoc is None:
        block_of, prod = _assoc_partition_product(f)
        ng = f.group.n
        under = _assoc_op(f, f.under_ops, f.group.conj_table())
        over = _assoc_op(f, f.over_ops, np.broadcast_to(np.arange(ng)[:, None], (ng, ng)))
        f._assoc = MCB(block_of, prod, under, over, labels=_assoc_labels(f, f.n))
    return f._assoc


def qg_map(f: GFamilyB) -> GFamilyQ:
    """The quandle family x *^g y = (x under^g y) over^{g^{-1}} (y over^g y)."""
    g_ = f.group
    n = f.n
    ops = np.empty((g_.n, n, n), dtype=np.int64)
    rng = np.arange(n)
    for g in range(g_.n):
        ginv = g_.inv(g)
        diag = f.over_ops[g][rng, rng]
        ops[g] = f.over_ops[ginv][f.under_ops[g], np.broadcast_to(diag[None, :], (n, n))]
    alexander = None
    if f.alexander is not None:
        _, ring, t, s = f.alexander
        alexander = ("quandle", ring, ring.mul(ring.inverse(s), t))
    return GFamilyQ(g_, ops, labels=f.labels, alexander=alexander)


def verify_qg_compat(f: GFamilyB) -> bool:
    """True iff Q(associated MCB) equals the associated MCQ of the quandle family."""
    from hlcolor.mcqb import q_functor_mcb

    left = q_functor_mcb(associated_mcb(f))
    right = associated_mcq(qg_map(f))
    return left == right
