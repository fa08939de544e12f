"""Multiple conjugation quandles (MCQs) and biquandles (MCBs).

The carrier [0, N) is partitioned into blocks, each carrying a group
structure via a partial product table (entries outside blocks are -1).
MCQs add a global star table; MCBs add under/over tables.  All axiom
checks are exhaustive with lexicographic first-found witnesses.
"""

from __future__ import annotations

import numpy as np

from hlcolor.algebra import AxiomReport, _as_table, _column_inverse, _first_where
from hlcolor.groups import FiniteGroup


class _PartitionedCarrier:
    def __init__(self, block_of, prod, labels=None):
        self.block_of = np.asarray(block_of, dtype=np.int64)
        self.n = len(self.block_of)
        self.prod = np.asarray(prod, dtype=np.int64)
        if self.prod.shape != (self.n, self.n):
            raise ValueError("product table shape mismatch")
        self.labels = labels
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

    def same_block(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def _block_group_violations(self) -> list[tuple[str, tuple]]:
        violations = []
        for members in self.blocks:
            mset = set(members)
            for a in members:
                for b in members:
                    if int(self.prod[a, b]) not in mset:
                        violations.append(("block-closure", (a, b)))
                        break
                else:
                    continue
                break
        for members in self.blocks:
            for a in members:
                for b in members:
                    for c in members:
                        if self.prod[self.prod[a, b], c] != self.prod[a, self.prod[b, c]]:
                            violations.append(("block-associativity", (a, b, c)))
                            return violations
        return violations


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


def _column_permutation_violations(table: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    n = table.shape[0]
    for col in range(n):
        if len(np.unique(table[:, col])) != n:
            return [(name, (col,))]
    return []


def _block_to_block_violations(x, table: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    """Acting by any fixed y must send each block into a single block."""
    for y in range(x.n):
        img_blocks = x.block_of[table[:, y]]
        for members in x.blocks:
            bs = {int(img_blocks[a]) for a in members}
            if len(bs) > 1:
                return [(name, (members[0], y))]
    return []


def _block_pairs(x) -> tuple[np.ndarray, np.ndarray]:
    """a, b over every ordered pair inside one block: block by block, row-major."""
    pairs = [(a, b) for members in x.blocks for a in members for b in members]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return a, b


def _hom_violations(x, pairs, table: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    """Acting by a fixed y must be a homomorphism between blocks: the first
    (a, b, y), in block, a, b, y order, where it is not."""
    a, b = pairs
    ay, by = table[a], table[b]
    bad = (x.block_of[ay] != x.block_of[by]) | (table[x.prod[a, b]] != x.prod[ay, by])
    w = _first_where(bad)
    return [] if w is None else [(name, (int(a[w[0]]), int(b[w[0]]), w[1]))]


def mcq_check(x: MCQ) -> AxiomReport:
    """Exhaustive verification of every MCQ axiom; witnesses name the axiom."""
    violations = x._block_group_violations()
    s, p = x.star, x.prod
    n = x.n
    for lam, members in enumerate(x.blocks):
        for a in members:
            for b in members:
                if s[a, b] != p[p[x.ginv[b], a], b]:
                    violations.append(("conjugation", (a, b)))
                    break
            else:
                continue
            break
    for xx in range(n):
        for lam, e in enumerate(x.identities):
            if s[xx, e] != xx:
                violations.append(("star-unit", (xx, e)))
                break
        else:
            continue
        break
    done = False
    for lam, members in enumerate(x.blocks):
        for a in members:
            for b in members:
                ab = p[a, b]
                if not np.array_equal(s[:, ab], s[s[:, a], b]):
                    w = _first_where(s[:, ab] != s[s[:, a], b])
                    violations.append(("star-product", (w[0], a, b)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    xs = np.arange(n)[:, None, None]
    ys = np.arange(n)[None, :, None]
    zs = np.arange(n)[None, None, :]
    w = _first_where(s[s[xs, ys], zs] != s[s[xs, zs], s[ys, zs]])
    if w is not None:
        violations.append(("self-distributivity", w))
    violations += _hom_violations(x, _block_pairs(x), s, "block-homomorphy")
    violations += _column_permutation_violations(s, "star-bijectivity")
    violations += _block_to_block_violations(x, s, "block-to-block")
    return AxiomReport(not violations, violations)


def mcb_check(x: MCB) -> AxiomReport:
    """Exhaustive verification of every MCB axiom; witnesses name the axiom."""
    violations = x._block_group_violations()
    u, o, p = x.under, x.over, x.prod
    n = x.n
    xs = np.arange(n)[:, None, None]
    ys = np.arange(n)[None, :, None]
    zs = np.arange(n)[None, None, :]
    laws = [
        ("exchange-uu", u[u[xs, ys], u[zs, ys]], u[u[xs, zs], o[ys, zs]]),
        ("exchange-uo", o[u[xs, ys], u[zs, ys]], u[o[xs, zs], o[ys, zs]]),
        ("exchange-oo", o[o[xs, ys], o[zs, ys]], o[o[xs, zs], u[ys, zs]]),
    ]
    for name, lhs, rhs in laws:
        w = _first_where(lhs != rhs)
        if w is not None:
            violations.append((name, w))
    # under/over by a fixed y restrict to group homomorphisms between blocks
    pairs = _block_pairs(x)
    a, b = pairs
    for opname, tbl in (("hom-under", u), ("hom-over", o)):
        violations += _hom_violations(x, pairs, tbl, opname)
    # x op ab = (x op a) op (b over a), first in (block, a, b, x) order;  x op e = x
    for opname, tbl in (("prod-under", u), ("prod-over", o)):
        w = _first_where((tbl[:, p[a, b]] != tbl[tbl[:, a], o[b, a]]).T)
        if w is not None:
            violations.append((opname, (w[1], int(a[w[0]]), int(b[w[0]]))))
    for opname, tbl in (("unit-under", u), ("unit-over", o)):
        for e in x.identities:
            w = _first_where(tbl[:, e] != np.arange(n))
            if w is not None:
                violations.append((opname, (w[0], e)))
                break
    # a^{-1}b over a = b a^{-1} under a
    ai = x.ginv[a]
    w = _first_where(o[p[ai, b], a] != u[p[b, ai], a])
    if w is not None:
        violations.append(("conj-compat", (int(a[w[0]]), int(b[w[0]]))))
    violations += _column_permutation_violations(u, "under-bijectivity")
    violations += _column_permutation_violations(o, "over-bijectivity")
    violations += _block_to_block_violations(x, u, "block-to-block-under")
    violations += _block_to_block_violations(x, o, "block-to-block-over")
    return AxiomReport(not violations, violations)


# -- constructions ----------------------------------------------------------


def conjugation_mcq(g: FiniteGroup) -> MCQ:
    """The single-block MCQ on a group: x * y = y^{-1} x y, product = group law."""
    n = g.n
    star = [[g.conj(a, b) for b in range(n)] for a in range(n)]
    return MCQ([0] * n, g.cayley.copy(), star, labels=g.labels)


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
    phi = list(phi)
    if len(phi) != x.n:
        return False
    if isinstance(x, MCQ) != isinstance(y, MCQ):
        return False
    for a in range(x.n):
        for b in range(x.n):
            if x.same_block(a, b):
                if not y.same_block(phi[a], phi[b]):
                    return False
                if phi[int(x.prod[a, b])] != y.prod[phi[a], phi[b]]:
                    return False
            if isinstance(x, MCQ):
                if phi[int(x.star[a, b])] != y.star[phi[a], phi[b]]:
                    return False
            else:
                if phi[int(x.under[a, b])] != y.under[phi[a], phi[b]]:
                    return False
                if phi[int(x.over[a, b])] != y.over[phi[a], phi[b]]:
                    return False
    return True
