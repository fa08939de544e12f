"""Multiple conjugation quandles (MCQs) and biquandles (MCBs).

The carrier [0, N) is partitioned into blocks, each carrying a group
structure via a partial product table (entries outside blocks are -1).
MCQs add a global star table; MCBs add under/over tables.  All axiom
checks are exhaustive with lexicographic first-found witnesses.
"""

from __future__ import annotations

import numpy as np

from hlcolor.algebra import (
    AxiomReport,
    _as_table,
    _bijective_columns,
    _column_inverse,
    _exchange_laws,
    _first_where,
    _law,
    _self_distributivity,
)
from hlcolor.groups import FiniteGroup, _associativity


class _PartitionedCarrier:
    def __init__(self, block_of, prod, labels=None):
        self.block_of = np.asarray(block_of, dtype=np.int64)
        self.n = len(self.block_of)
        self.prod = np.asarray(prod, dtype=np.int64)
        if self.prod.shape != (self.n, self.n):
            raise ValueError("product table shape mismatch")
        self.labels = labels
        if self.n and self.block_of.min() < 0:
            raise ValueError("block labels must be non-negative")
        nblocks = int(self.block_of.max()) + 1 if self.n else 0
        self.blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for i, lam in enumerate(self.block_of):
            self.blocks[int(lam)].append(i)
        self._check_partial_product_shape()
        self.identities = self._find_identities()
        self.ginv = self._find_inverses()

    def _check_partial_product_shape(self) -> None:
        """Raise at the first (a, b) in row-major order where prod is not defined
        exactly inside the blocks."""
        inside = self.block_of[:, None] == self.block_of[None, :]
        undefined = (self.prod < 0) | (self.prod >= self.n)
        w = _first_where(np.where(inside, undefined, self.prod != -1))
        if w is None:
            return
        a, b = w
        if inside[a, b]:
            raise ValueError(f"product undefined inside a block at ({a},{b})")
        raise ValueError(f"product defined across blocks at ({a},{b})")

    def _find_identities(self) -> list[int]:
        ids = []
        for members in self.blocks:
            e = next(
                (c for c in members
                 if all(self.prod[c, a] == a and self.prod[a, c] == a for a in members)),
                None,
            )
            if e is None:
                raise ValueError(f"block {members} has no identity")
            ids.append(e)
        return ids

    def _find_inverses(self) -> np.ndarray:
        inv = np.full(self.n, -1, dtype=np.int64)
        for lam, members in enumerate(self.blocks):
            e = self.identities[lam]
            for a in members:
                hit = next((b for b in members if self.prod[a, b] == e and self.prod[b, a] == e), None)
                if hit is None:
                    raise ValueError(f"element {a} has no inverse in its block")
                inv[a] = hit
        return inv


class MCQ(_PartitionedCarrier):
    """Disjoint union of groups with a conjugation-like star operation."""

    def __init__(self, block_of, prod, star, labels=None):
        super().__init__(block_of, prod, labels)
        self.star = _as_table(star, "mcq star")
        if self.star.shape != (self.n, self.n):
            raise ValueError("star table shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MCQ)
            and np.array_equal(self.block_of, other.block_of)
            and np.array_equal(self.prod, other.prod)
            and np.array_equal(self.star, other.star)
        )


class MCB(_PartitionedCarrier):
    """Disjoint union of groups with global under/over operations."""

    def __init__(self, block_of, prod, under, over, labels=None):
        super().__init__(block_of, prod, labels)
        self.under = _as_table(under, "mcb under")
        self.over = _as_table(over, "mcb over")
        if self.under.shape != (self.n, self.n) or self.over.shape != (self.n, self.n):
            raise ValueError("under/over table shape mismatch")
        self._over_inv: np.ndarray | None = None

    @property
    def over_inv(self) -> np.ndarray:
        if self._over_inv is None:
            self._over_inv = _column_inverse(self.over, "mcb over")
        return self._over_inv

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MCB)
            and np.array_equal(self.block_of, other.block_of)
            and np.array_equal(self.prod, other.prod)
            and np.array_equal(self.under, other.under)
            and np.array_equal(self.over, other.over)
        )


# -- axiom checks -----------------------------------------------------------


def _block_pairs(x) -> tuple[np.ndarray, np.ndarray]:
    """a, b over every ordered pair inside one block: block by block, row-major."""
    a, b = np.nonzero(x.block_of[:, None] == x.block_of[None, :])
    k = np.argsort(x.block_of[a], kind="stable")
    return a[k], b[k]


def _per_block(x, pairs, name: str, bad: np.ndarray) -> list[tuple[str, tuple]]:
    """The first (a, b) of each block where a law on the block pairs fails."""
    a, b = pairs
    k = np.flatnonzero(bad)
    _, first = np.unique(x.block_of[a[k]], return_index=True)
    return [(name, (int(a[i]), int(b[i]))) for i in k[first]]


def _block_group_laws(x, pairs) -> list[tuple[str, tuple]]:
    """block-closure at the first failing pair of each block, then block-associativity
    at the first failing triple."""
    a, b = pairs
    assoc = (_law("block-associativity", _associativity(x.prod, *np.ix_(m, m, m)),
                  lambda w: np.take(m, w)) for m in x.blocks)
    return [
        *_per_block(x, pairs, "block-closure", x.block_of[x.prod[a, b]] != x.block_of[a]),
        *next(filter(None, assoc), []),
    ]


def _hom_violations(x, pairs, table: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    """Acting by a fixed y must be a homomorphism between blocks: the first
    (a, b, y), in block, a, b, y order, where it is not."""
    a, b = pairs
    ay, by = table[a], table[b]
    bad = (x.block_of[ay] != x.block_of[by]) | (table[x.prod[a, b]] != x.prod[ay, by])
    return _law(name, bad, lambda w: (a[w[0]], b[w[0]], w[1]))


def _product_law(x, pairs, table: np.ndarray, c: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    """z t (ab) = (z t a) t c: the first (z, a, b), in block, a, b, z order, where it fails."""
    a, b = pairs
    bad = table[:, x.prod[a, b]] != table[table[:, a], c]
    return _law(name, bad.T, lambda w: (w[1], a[w[0]], b[w[0]]))


def _block_to_block(x, table: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    """Acting by each y sends each block into one block: the first failing (first member, y)."""
    img = x.block_of[table]
    spread = np.array([(img[m] != img[m[0]]).any(axis=0) for m in x.blocks])
    return _law(name, spread.T, lambda w: (x.blocks[w[1]][0], w[0]))


def mcq_check(x: MCQ) -> AxiomReport:
    """Exhaustive verification of every MCQ axiom; witnesses name the axiom."""
    s, p = x.star, x.prod
    pairs = a, b = _block_pairs(x)
    ids = np.array(x.identities)
    violations = [
        *_block_group_laws(x, pairs),
        *_per_block(x, pairs, "conjugation", s[a, b] != p[p[x.ginv[b], a], b]),
        # first in (z, block) order
        *_law("star-unit", s[:, ids] != np.arange(x.n)[:, None], lambda w: (w[0], ids[w[1]])),
        *_product_law(x, pairs, s, b, "star-product"),
        *_self_distributivity(s),
        *_hom_violations(x, pairs, s, "block-homomorphy"),
        *_bijective_columns(s, "star-bijectivity"),
        *_block_to_block(x, s, "block-to-block"),
    ]
    return AxiomReport(not violations, violations)


def mcb_check(x: MCB) -> AxiomReport:
    """Exhaustive verification of every MCB axiom; witnesses name the axiom."""
    u, o, p = x.under, x.over, x.prod
    pairs = a, b = _block_pairs(x)
    ids = np.array(x.identities)
    ai = x.ginv[a]
    violations = [
        *_block_group_laws(x, pairs),
        *_exchange_laws(u, o),
        *_hom_violations(x, pairs, u, "hom-under"),
        *_hom_violations(x, pairs, o, "hom-over"),
        *_product_law(x, pairs, u, o[b, a], "prod-under"),
        *_product_law(x, pairs, o, o[b, a], "prod-over"),
        # z op e = z, first in (block, z) order
        *_law("unit-under", u[:, ids].T != np.arange(x.n), lambda w: (w[1], ids[w[0]])),
        *_law("unit-over", o[:, ids].T != np.arange(x.n), lambda w: (w[1], ids[w[0]])),
        # a^{-1}b over a = b a^{-1} under a
        *_law("conj-compat", o[p[ai, b], a] != u[p[b, ai], a], lambda w: (a[w[0]], b[w[0]])),
        *_bijective_columns(u, "under-bijectivity"),
        *_bijective_columns(o, "over-bijectivity"),
        *_block_to_block(x, u, "block-to-block-under"),
        *_block_to_block(x, o, "block-to-block-over"),
    ]
    return AxiomReport(not violations, violations)


# -- constructions ----------------------------------------------------------


def conjugation_mcq(g: FiniteGroup) -> MCQ:
    """The single-block MCQ on a group: x * y = y^{-1} x y, product = group law."""
    return MCQ([0] * g.n, g.cayley.copy(), g.conj_table(), labels=g.labels)


def q_functor_mcb(x: MCB) -> MCQ:
    """Same carrier, partition and products; star x*y = (x under y) over^{-1} y."""
    n = x.n
    cols = np.broadcast_to(np.arange(n)[None, :], (n, n))
    star = x.over_inv[x.under, cols]
    return MCQ(x.block_of.copy(), x.prod.copy(), star, labels=x.labels)


def quandle_lift_mcb(x: MCQ) -> MCB:
    """The MCB with under = star and over = projection (x over y = x)."""
    n = x.n
    over = np.tile(np.arange(n)[:, None], (1, n))
    return MCB(x.block_of.copy(), x.prod.copy(), x.star.copy(), over, labels=x.labels)


def hom_check(phi, x, y) -> bool:
    """True iff phi preserves the operations and all in-block products."""
    phi = np.asarray(list(phi), dtype=np.int64)
    if len(phi) != x.n or isinstance(x, MCQ) != isinstance(y, MCQ):
        return False
    fa, fb = phi[:, None], phi[None, :]
    inside = x.block_of[:, None] == x.block_of[None, :]
    ops = ("star",) if isinstance(x, MCQ) else ("under", "over")
    return bool(
        (y.block_of[fa] == y.block_of[fb])[inside].all()
        and (phi[x.prod] == y.prod[fa, fb])[inside].all()
        and all(np.array_equal(phi[getattr(x, op)], getattr(y, op)[fa, fb]) for op in ops)
    )
