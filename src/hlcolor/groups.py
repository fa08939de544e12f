"""Finite groups as Cayley tables."""

from __future__ import annotations

from itertools import permutations

import numpy as np

from hlcolor.algebra import AxiomReport, _as_table, _bijective_columns, _cube, _law


class FiniteGroup:
    """A finite group given by its Cayley table cayley[a][b] = a·b."""

    def __init__(self, cayley, labels: list | None = None):
        self.cayley = _as_table(cayley, "Cayley")
        self.n = self.cayley.shape[0]
        self.labels = labels
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()

    def _find_identity(self) -> int:
        for e in range(self.n):
            if all(self.cayley[e, a] == a and self.cayley[a, e] == a for a in range(self.n)):
                return e
        raise ValueError("Cayley table has no identity element")

    def _build_inverses(self) -> np.ndarray:
        inv = np.full(self.n, -1, dtype=np.int64)
        for a in range(self.n):
            hits = np.where(self.cayley[a] == self.identity)[0]
            if len(hits) != 1 or self.cayley[hits[0], a] != self.identity:
                raise ValueError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        return inv

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, h: int) -> int:
        """h^{-1} g h."""
        return self.mul(self.mul(self.inv(h), g), h)

    def conj_table(self) -> np.ndarray:
        """conj_table()[g, h] = h^{-1} g h."""
        gs, hs = np.arange(self.n)[:, None], np.arange(self.n)[None, :]
        return self.cayley[self.cayley[self.inverse[hs], gs], hs]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.cayley, other.cayley)

    def __hash__(self) -> int:
        return hash(self.cayley.tobytes())


def _associativity(p: np.ndarray, a, b, c) -> np.ndarray:
    """(ab)c != a(bc) over the broadcast index arrays a, b, c."""
    return p[p[a, b], c] != p[a, p[b, c]]


def group_check(g: FiniteGroup) -> AxiomReport:
    """Exhaustive associativity plus latin-square verification."""
    c = g.cayley
    violations = [
        *_bijective_columns(c.T, "row-bijectivity"),
        *_bijective_columns(c, "column-bijectivity"),
        *_law("associativity", _associativity(c, *_cube(g.n))),
    ]
    return AxiomReport(not violations, violations)


def cyclic_group(n: int) -> FiniteGroup:
    a = np.arange(n)
    return FiniteGroup((a[:, None] + a[None, :]) % n, labels=list(range(n)))


def symmetric_group(k: int) -> FiniteGroup:
    """S_k with elements ordered lexicographically by permutation tuple."""
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(k))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, labels=perms)
