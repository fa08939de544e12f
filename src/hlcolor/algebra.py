"""Finite quandles and biquandles as operation tables.

Carriers are integers [0, n); Alexander constructors keep a ``labels`` list
mapping indices to ring elements.  Axiom checks are exhaustive (vectorized
with numpy) and report the lexicographically first witness per axiom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from hlcolor.rings import Element, FiniteRing, NonUnitError


class AxiomError(ValueError):
    """A table lacks a law that a computation on it needs: a bijective column."""


@dataclass
class AxiomReport:
    ok: bool
    violations: list[tuple[str, tuple]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _as_table(table, name: str) -> np.ndarray:
    arr = _as_tables(table, name)
    if arr.ndim != 2:
        raise ValueError(f"{name} table must be square, got shape {arr.shape}")
    return arr


def _as_tables(tables, name: str) -> np.ndarray:
    """tables as an array of square, non-empty tables (the last two axes) over [0, n)."""
    arr = np.asarray(tables, dtype=np.int64)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{name} table must be square, got shape {arr.shape}")
    n = arr.shape[-1]
    if n == 0:
        raise ValueError(f"{name} carrier must be non-empty")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"{name} table entries must lie in [0, {n})")
    return arr


def _first_where(mask: np.ndarray) -> tuple | None:
    """Lexicographically first index where mask holds, or None."""
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    # np.argwhere returns indices in C order = lexicographic
    return tuple(int(v) for v in idx[0])


def _law(name: str, bad: np.ndarray, where=None) -> list[tuple[str, tuple]]:
    """[(name, witness)] for a law that fails where ``bad`` holds, or []: the witness
    is the lexicographically first failing index, or where(index)."""
    w = _first_where(bad)
    return [] if w is None else [(name, w if where is None else tuple(int(v) for v in where(w)))]


def _cube(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z broadcasting over every triple of [0, n)."""
    return np.ix_(np.arange(n), np.arange(n), np.arange(n))


def _first_repeat(values: np.ndarray) -> np.ndarray:
    """first[i] = the least j with values[j] == values[i]; i repeats where first[i] < i."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    return first[inverse]


def _bijective_columns(t: np.ndarray, name: str) -> list[tuple[str, tuple]]:
    """The first column of t that is not a permutation of [0, n)."""
    return _law(name, (np.sort(t, axis=0) != np.arange(t.shape[0])[:, None]).any(axis=0))


def _self_distributivity(t: np.ndarray) -> list[tuple[str, tuple]]:
    """(x t y) t z = (x t z) t (y t z)."""
    x, y, z = _cube(t.shape[0])
    return _law("self-distributivity", t[t[x, y], z] != t[t[x, z], t[y, z]])


def _exchange_laws(u: np.ndarray, o: np.ndarray) -> list[tuple[str, tuple]]:
    """The three exchange laws of a biquandle (under u, over o)."""
    x, y, z = _cube(u.shape[0])
    return [
        *_law("exchange-uu", u[u[x, y], u[z, y]] != u[u[x, z], o[y, z]]),
        *_law("exchange-uo", o[u[x, y], u[z, y]] != u[o[x, z], o[y, z]]),
        *_law("exchange-oo", o[o[x, y], o[z, y]] != o[o[x, z], u[y, z]]),
    ]


def _column_inverse(table: np.ndarray, name: str) -> np.ndarray:
    """inv[a][b] = the x with table[x][b] = a; requires permutation columns."""
    bad = _bijective_columns(table, name)
    if bad:
        raise AxiomError(f"{name} column {bad[0][1][0]} is not a permutation; no inverse table")
    n = table.shape[0]
    inv = np.empty((n, n), dtype=np.int64)
    inv[table, np.arange(n)] = np.arange(n)[:, None]
    return inv


class Quandle:
    """Finite quandle (X, *) given by table[a][b] = a * b."""

    def __init__(self, table, labels: list | None = None):
        self.table = _as_table(table, "quandle")
        self.n = self.table.shape[0]
        self.labels = labels

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and np.array_equal(self.table, other.table)


class Biquandle:
    """Finite biquandle (X, under, over); under[a][b] is the under-operation a act b."""

    def __init__(self, under, over, labels: list | None = None):
        self.under = _as_table(under, "biquandle under")
        self.over = _as_table(over, "biquandle over")
        if self.under.shape != self.over.shape:
            raise ValueError("under/over tables differ in size")
        self.n = self.under.shape[0]
        self.labels = labels
        self._under_inv: np.ndarray | None = None
        self._over_inv: np.ndarray | None = None
        self._diag_inv: dict[str, np.ndarray] = {}

    @property
    def under_inv(self) -> np.ndarray:
        if self._under_inv is None:
            self._under_inv = _column_inverse(self.under, "biquandle under")
        return self._under_inv

    @property
    def over_inv(self) -> np.ndarray:
        if self._over_inv is None:
            self._over_inv = _column_inverse(self.over, "biquandle over")
        return self._over_inv

    def diag_inverse(self, which: str) -> np.ndarray:
        """Inverse of the bijection x -> x op x for the chosen operation."""
        if which not in self._diag_inv:
            tbl = self.under if which == "under" else self.over
            diag = tbl[np.arange(self.n), np.arange(self.n)]
            if len(np.unique(diag)) != self.n:
                raise AxiomError(f"diagonal of {which} is not a bijection")
            inv = np.empty(self.n, dtype=np.int64)
            inv[diag] = np.arange(self.n)
            self._diag_inv[which] = inv
        return self._diag_inv[which]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Biquandle)
            and np.array_equal(self.under, other.under)
            and np.array_equal(self.over, other.over)
        )


# -- axiom checks -----------------------------------------------------------


def quandle_check(q: Quandle) -> AxiomReport:
    """Exhaustive O(n^3) verification of the three quandle axioms."""
    t, n = q.table, q.n
    rng = np.arange(n)
    # first[b, a]: the first row of column b that holds t[a, b]
    first = _first_repeat((t.T + n * rng[:, None]).ravel()).reshape(n, n) - n * rng[:, None]
    violations = [
        *_law("idempotence", t[rng, rng] != rng),
        *_law("right-bijectivity", first != rng, lambda w: (first[w], w[1], w[0])),
        *_self_distributivity(t),
    ]
    return AxiomReport(not violations, violations)


def biquandle_check(b: Biquandle) -> AxiomReport:
    """Diagonal law, three bijectivity conditions, and three exchange laws."""
    u, o, n = b.under, b.over, b.n
    rng = np.arange(n)
    # the pair map S(x, y) = (y over x, x under y), keyed at x * n + y
    first = _first_repeat((o.T * n + u).ravel())
    violations = [
        *_law("diagonal", u[rng, rng] != o[rng, rng]),
        *_bijective_columns(u, "under-bijectivity"),
        *_bijective_columns(o, "over-bijectivity"),
        *_law("pair-map-bijectivity", first != np.arange(n * n),
              lambda w: divmod(first[w], n) + divmod(w[0], n)),
        *_exchange_laws(u, o),
    ]
    return AxiomReport(not violations, violations)


# -- constructors -----------------------------------------------------------


def alexander_quandle(ring: FiniteRing, t: Element) -> Quandle:
    """a * b = t a + (1 - t) b on the carrier of ``ring``, t a unit: the under
    operation of the Alexander biquandle with s = 1."""
    b = alexander_biquandle(ring, ring.one, t)
    return Quandle(b.under, labels=b.labels)


def alexander_biquandle(ring: FiniteRing, s: Element, t: Element) -> Biquandle:
    """under: a -> t a + (s - t) b, over: a -> s a; s, t must be units."""
    for name, val in (("s", s), ("t", t)):
        if not ring.is_unit(val):
            raise NonUnitError(f"Alexander parameter {name} must be a unit")
    tb = ring.tables
    add, mul = np.array(tb.add), np.array(tb.mul)
    s_minus_t = tb.code[ring.sub(s, t)]
    under = add[mul[tb.code[t]][:, None], mul[s_minus_t][None, :]]
    over = np.tile(mul[tb.code[s]][:, None], (1, ring.size))
    return Biquandle(under, over, labels=ring.elements())


def quandle_lift(q: Quandle) -> Biquandle:
    """The biquandle (X, *, proj1): under = quandle table, x over y = x."""
    n = q.n
    over = np.tile(np.arange(n)[:, None], (1, n))
    return Biquandle(q.table.copy(), over, labels=q.labels)


def trivial_quandle(n: int) -> Quandle:
    return Quandle(np.tile(np.arange(n)[:, None], (1, n)))


def dihedral_quandle(n: int) -> Quandle:
    """a * b = 2b - a mod n."""
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    return Quandle((2 * b - a) % n)


# -- bracket powers and type ------------------------------------------------


def bracket_pow(b: Biquandle, a: int, c: int, n: int, which: str = "under") -> int:
    """The n-th bracket power a op^[n] c (op = under or over); any integer n."""
    tbl = b.under if which == "under" else b.over
    x, y = a, c
    while n > 0:
        x, y = int(tbl[x, y]), int(tbl[y, y])
        n -= 1
    if n < 0:
        inv = b.under_inv if which == "under" else b.over_inv
        diag_inv = b.diag_inverse(which)
        while n < 0:
            y = int(diag_inv[y])
            x = int(inv[x, y])
            n += 1
    return x


def _perm_order(perm: np.ndarray) -> int:
    """Order of a permutation given as an image array."""
    n = len(perm)
    seen = np.zeros(n, dtype=bool)
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = int(perm[cur])
            length += 1
        order = lcm(order, length)
    return order


def _pair_step_order(tbl: np.ndarray) -> int:
    """Order of the pair permutation (a, b) -> (a op b, b op b)."""
    n = tbl.shape[0]
    a = np.repeat(np.arange(n), n)
    b = np.tile(np.arange(n), n)
    img = tbl[a, b] * n + tbl[b, b]
    return _perm_order(img)


def type_of(s: Quandle | Biquandle) -> int:
    """Least n >= 1 making the n-fold (bracket) operations trivial for all pairs.

    Computed as the lcm of per-pair cycle lengths, a quandle's as its lift's
    (``quandle_lift``); finite carriers guarantee termination with no cap.
    """
    if isinstance(s, Quandle):
        s = quandle_lift(s)
    return lcm(_pair_step_order(s.under), _pair_step_order(s.over))


def alexander_quandle_type(ring: FiniteRing, t: Element) -> int:
    """Fast path: the type of an Alexander quandle is the order of t."""
    return ring.unit_order(t)


def alexander_biquandle_type(ring: FiniteRing, s: Element, t: Element) -> int:
    """Fast path: lcm of the unit orders of s and t."""
    return lcm(ring.unit_order(s), ring.unit_order(t))


# -- the quandle shadow of a biquandle ---------------------------------------


def q_functor_biquandle(b: Biquandle) -> Quandle:
    """The quandle x * y = (x under y) over^{-1} y on the same carrier."""
    n = b.n
    y = np.arange(n)[None, :]
    table = b.over_inv[b.under, np.broadcast_to(y, (n, n))]
    return Quandle(table, labels=b.labels)
