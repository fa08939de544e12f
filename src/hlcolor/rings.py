"""Exact arithmetic and linear algebra over finite commutative rings Z_m[x]/(f).

Elements are canonical little-endian coefficient tuples of length max(deg f, 1),
entries reduced into [0, m).  With deg f = 0 the ring is Z_m itself and elements
are 1-tuples.  All operations are pure; a ring handle is immutable and safe to
share.

Elements stay tuples at the API.  Inside, the solvers and the Alexander
constructors work on integer codes, an element's code being its position in
``elements()``, through the ``add``/``sub``/``mul`` tables, ``neg`` and ``inv``
of ``FiniteRing.tables``, built vectorised once per ring object on first use.
Units, inverses, unit orders and ``is_field`` are read from those tables.

Linear systems are solved exactly over every such ring by ``solve_linear``:
by Gauss-Jordan elimination over a field, otherwise over Z_m through the
regular representation.  The sparse homogeneous systems of the coloring rules
are propagated: ``compile_homogeneous`` schedules, once for a family of
systems, which row places which variable (pivots being units for every entry
choice), and ``run_homogeneous`` places them as linear forms in a few
parameters and hands ``solve_linear`` only the residual system in those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd
from typing import Iterable, Sequence

import numpy as np

Element = tuple[int, ...]


class NonUnitError(ValueError):
    """Raised when an inverse (or unit order) of a non-invertible element is requested."""


class SizeBoundExceededError(RuntimeError):
    """Raised when a coloring search passes its budget, or a brute-force count its size bound."""


class FiniteRing:
    """The quotient ring Z_m[x]/(f) for a monic polynomial f over Z_m.

    ``poly`` is the little-endian coefficient list of f including the leading 1;
    an empty list (or omitted poly) means the ring is Z_m.
    """

    def __init__(self, m: int, poly: Sequence[int] = ()):
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        poly = [c % m for c in poly]
        while poly and poly[-1] == 0:
            raise ValueError("defining polynomial has zero leading coefficient")
        if poly:
            if len(poly) == 1:
                raise ValueError("defining polynomial must have degree >= 1")
            if poly[-1] != 1:
                raise ValueError(f"defining polynomial must be monic, got leading {poly[-1]}")
        self.m = m
        self.poly = tuple(poly)
        self.degree = max(len(poly) - 1, 0)
        self.width = max(self.degree, 1)
        self.size = m ** self.degree if self.degree else m
        self.zero: Element = (0,) * self.width
        self.one: Element = (1,) + (0,) * (self.width - 1)
        self._tables: RingTables | None = None

    def __repr__(self) -> str:
        if not self.degree:
            return f"FiniteRing(Z_{self.m})"
        return f"FiniteRing(Z_{self.m}[x]/({format_poly(self.poly)}))"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteRing) and (self.m, self.poly) == (other.m, other.poly)

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    # -- element plumbing ---------------------------------------------------

    def element(self, coeffs: Iterable[int] | int) -> Element:
        """Canonicalize an int or coefficient iterable into a ring element."""
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        cs = [c % self.m for c in coeffs]
        if len(cs) > self.width:
            cs = self._reduce(cs)
        cs += [0] * (self.width - len(cs))
        return tuple(cs)

    def elements(self) -> list[Element]:
        """All ring elements in lexicographic coefficient order."""
        return [tuple(c) for c in product(range(self.m), repeat=self.width)]

    def _reduce(self, cs: list[int]) -> list[int]:
        # long division by the monic f, coefficients mod m
        if not self.degree:
            return [cs[0] % self.m] if cs else [0]
        cs = [c % self.m for c in cs]
        d = self.degree
        for i in range(len(cs) - 1, d - 1, -1):
            c = cs[i]
            if c:
                for j, fj in enumerate(self.poly[:-1]):
                    cs[i - d + j] = (cs[i - d + j] - c * fj) % self.m
                cs[i] = 0
        return cs[:d]

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.m for x in a)

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.m for x, y in zip(a, b))

    def mul(self, a: Element, b: Element) -> Element:
        if not self.degree:
            return ((a[0] * b[0]) % self.m,)
        acc = [0] * (2 * self.width)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += x * y
        return tuple(self._reduce(acc))

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.pow(self.inverse(a), -n)
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    @property
    def tables(self) -> RingTables:
        """The ring's operations on element codes, built on first use."""
        if self._tables is None:
            self._tables = _build_tables(self)
        return self._tables

    def is_unit(self, a: Element) -> bool:
        tb = self.tables
        return tb.inv[tb.code[a]] >= 0

    def inverse(self, a: Element) -> Element:
        """Multiplicative inverse, read from the ``inv`` table."""
        tb = self.tables
        c = tb.inv[tb.code[a]]
        if c < 0:
            raise NonUnitError(f"{format_element(a)} is not a unit in {self!r}")
        return tb.elements[c]

    def unit_order(self, a: Element) -> int:
        """Least n >= 1 with a^n = 1."""
        if not self.is_unit(a):
            raise NonUnitError(f"{format_element(a)} is not a unit in {self!r}")
        tb = self.tables
        a_code = tb.code[a]
        n, cur = 1, a_code
        while cur != tb.one:
            cur = tb.mul[cur][a_code]
            n += 1
        return n

    @cached_property
    def is_field(self) -> bool:
        """True iff every nonzero element is invertible (read off the ``inv`` table)."""
        return all(c >= 0 for c in self.tables.inv[1:])


@dataclass(frozen=True)
class RingTables:
    """A ring's elements as integer codes, and its operations as code tables.

    An element's code is its position in ``elements``; ``code`` maps back.
    Zero has code 0.  ``add``, ``sub`` and ``mul`` are size x size tables of
    codes (``mul[a][b]`` is the code of a b), ``neg`` and ``inv`` lists of
    codes, with -1 in ``inv`` at a non-unit.  They are Python lists, for the
    scalar lookups of the solver; vectorised callers wrap them in numpy.
    """

    elements: list[Element]
    code: dict[Element, int]
    one: int
    add: list[list[int]]
    sub: list[list[int]]
    mul: list[list[int]]
    neg: list[int]
    inv: list[int]


def _build_tables(ring: FiniteRing) -> RingTables:
    m, w = ring.m, ring.width
    place = m ** np.arange(w - 1, -1, -1)  # code = coefficients @ place
    coeffs = np.arange(ring.size)[:, None] // place % m  # row c: the coefficients of code c
    # x^p mod f for p < 2w - 1, and shifted[i, c]: the coefficients of x^i times code c
    xpow = np.array([ring.element([0] * p + [1]) for p in range(2 * w - 1)])
    shifted = np.stack([coeffs @ xpow[i : i + w] % m for i in range(w)])
    # one coefficient at a time, so no array is larger than size x size
    add = sum((coeffs[:, None, k] + coeffs[None, :, k]) % m * place[k] for k in range(w))
    mul = sum(coeffs @ shifted[:, :, k] % m * place[k] for k in range(w))
    neg = -coeffs % m @ place
    one = int(place[0])
    is_one = mul == one
    inv = np.where(is_one.any(axis=1), is_one.argmax(axis=1), -1)
    elements = ring.elements()
    return RingTables(
        elements=elements,
        code={e: i for i, e in enumerate(elements)},
        one=one,
        add=add.tolist(),
        sub=add[:, neg].tolist(),
        mul=mul.tolist(),
        neg=neg.tolist(),
        inv=inv.tolist(),
    )


def ring_make(m: int, poly: Sequence[int] = ()) -> FiniteRing:
    """Construct Z_m[x]/(f); ``poly`` little-endian including the leading 1."""
    return FiniteRing(m, poly)


# -- linear systems ---------------------------------------------------------


@dataclass
class LinearSystemSolution:
    """Solution set of A x = b over a finite ring.

    ``dimension`` and ``basis`` are reported only over fields, where the
    solution set is an affine subspace;  over every other ring only the exact
    cardinality (and a particular solution when one exists) is reported.
    """

    cardinality: int
    dimension: int | None = None
    basis: list[list[Element]] | None = None
    particular: list[Element] | None = None


def solve_linear(
    ring: FiniteRing, rows: Sequence[Sequence[Element]], rhs: Sequence[Element]
) -> LinearSystemSolution:
    """Solve A x = b exactly.

    Fields take Gaussian elimination.  Every other ring Z_m[x]/(f) is reduced
    to Z_m through its regular representation and diagonalised mod m.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    if ring.is_field:
        return _solve_field(ring, rows, rhs)
    return _solve_zm(ring, rows, rhs)


def _solve_field(
    ring: FiniteRing, a: Sequence[Sequence[Element]], b: Sequence[Element]
) -> LinearSystemSolution:
    """Gauss-Jordan elimination on the augmented matrix [A | b] in codes.

    Each row is a sparse dict column -> nonzero code, column ``ncols`` holding
    b.  The pivot of a column is the first row at or below the current one
    with a nonzero entry there; that row is scaled by the pivot's inverse and
    the column is cleared in every other row.
    """
    tb = ring.tables
    mul, sub = tb.mul, tb.sub
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    mat: list[dict[int, int]] = []
    for r, y in zip(a, b):
        codes = {j: tb.code[x] for j, x in enumerate(r) if x != ring.zero}
        if y != ring.zero:
            codes[ncols] = tb.code[y]
        mat.append(codes)
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if col in mat[r]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        scale = mul[tb.inv[mat[row][col]]]
        prow = mat[row] = {j: scale[x] for j, x in mat[row].items()}
        for r, cur in enumerate(mat):
            factor = cur.get(col)
            if factor is None or r == row:
                continue
            times = mul[factor]
            for j, y in prow.items():
                v = sub[cur.get(j, 0)][times[y]]
                if v:
                    cur[j] = v
                else:
                    cur.pop(j, None)
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break
    if any(ncols in r for r in mat[row:]):
        return LinearSystemSolution(cardinality=0)
    els = tb.elements
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    particular = [ring.zero] * ncols
    for i, col in enumerate(pivot_cols):
        particular[col] = els[mat[i].get(ncols, 0)]
    basis: list[list[Element]] = []
    for fc in free_cols:
        vec = [ring.zero] * ncols
        vec[fc] = ring.one
        for i, col in enumerate(pivot_cols):
            vec[col] = els[tb.neg[mat[i].get(fc, 0)]]
        basis.append(vec)
    dim = len(free_cols)
    return LinearSystemSolution(
        cardinality=ring.size**dim, dimension=dim, basis=basis, particular=particular
    )


def solve_homogeneous(
    ring: FiniteRing, ncols: int, rows: Sequence[dict[int, int]]
) -> LinearSystemSolution:
    """Solve A x = 0, each row a sparse dict column -> nonzero code of
    ``ring.tables``: ``compile_homogeneous`` with a unit as a pivot, run once."""
    one_h = [(0, [(j, [c], ring.tables.inv[c] >= 0) for j, c in row.items()]) for row in rows]
    return run_homogeneous(ring, compile_homogeneous(ncols, one_h), [0])


def compile_homogeneous(ncols: int, rows: Sequence[tuple[int, list]]) -> tuple:
    """Schedule the propagation of A x = 0 once for every choice of entries.

    A row is (slot, terms), each term (column, coefficients, unit): the entry
    is coefficients[h] when the slot's value is h, unit says it is a unit for
    every h.  A row with one open variable whose entry is a unit for every h
    places it as a linear form in the parameters; when none does, the next
    open variable in order of first appearance becomes a parameter.  Step i of
    the program (ncols, params, heads, slots, pivots, ends, cols, coefs) places
    heads[i] (a residual form if -1) as -1/pivots[i] times the sum of coefs[q]
    times the form of cols[q], q in ends[i-1]:ends[i], read at values[slots[i]]."""
    occurs, order = [[] for _ in range(ncols)], []  # rows by column; columns by appearance
    for r, (_, terms) in enumerate(rows):
        for j, _, _ in terms:
            occurs[j].append(r)
            order.append(j)
    placed, done = [False] * ncols, [False] * len(rows)
    n_open = [len(terms) for _, terms in rows]
    ready = [r for r, n in enumerate(n_open) if n <= 1]
    params: list[int] = []
    steps = heads, slots, pivots, ends, cols, coefs = ([], [], [], [], [], [])
    for var in order + list(range(ncols)):
        if placed[var]:
            continue
        params.append(new := var)  # a branch: var becomes a parameter
        while new is not None:  # note that new is placed in each of its rows
            placed[new] = True
            for r in occurs[new]:
                n_open[r] -= 1
                if n_open[r] <= 1:
                    ready.append(r)
            new = None
            while ready and new is None:
                r = ready.pop()
                if done[r]:
                    continue
                slot, terms = rows[r]
                head, pivot = -1, None
                if n_open[r]:
                    head, pivot, unit = [t for t in terms if not placed[t[0]]][0]
                    if not unit:  # the row waits until its open variable is placed
                        continue
                done[r] = True
                for j, c, _ in terms:
                    if j != head:
                        cols.append(j)
                        coefs.append(c)
                heads.append(head)
                slots.append(slot)
                pivots.append(pivot)
                ends.append(len(cols))
                if pivot is not None:
                    new = head
    return (ncols, tuple(params), *map(tuple, steps))


def run_homogeneous(ring: FiniteRing, program: tuple, values) -> LinearSystemSolution:
    """Solve a compiled system with the entries that ``values[slot]`` picks:
    the forms one parameter at a time (the solution with it 1, the others 0),
    the residual system by ``solve_linear`` when a nonzero row is left, and
    over a field its kernel's basis mapped back and reduced to the
    Gauss-Jordan basis of the full system."""
    tb = ring.tables
    mul, add, neg, inv = tb.mul, tb.add, tb.neg, tb.inv
    ncols, params, heads, slots, pivots, ends, cols, coefs = program
    hs = [values[s] for s in slots]
    forms, sides = [], []  # by parameter: every column's coefficient, every residual's
    for param in params:
        form, side, start = [0] * ncols, [], 0
        form[param] = tb.one
        for j, h, pivot, end in zip(heads, hs, pivots, ends):
            acc = 0
            for q in range(start, end):
                x = form[cols[q]]
                if x:
                    acc = add[acc][mul[coefs[q][h]][x]]
            start = end
            if pivot is None:
                side.append(acc)
            else:
                form[j] = mul[neg[inv[pivot[h]]]][acc]
        forms.append(form)
        sides.append(side)
    residual = [form for form in zip(*sides) if any(form)]
    els = tb.elements
    if residual:
        sol = solve_linear(ring, [[els[x] for x in form] for form in residual],
                           [ring.zero] * len(residual))
    else:  # every parameter is free; over a field the kernel's basis is the unit vectors
        k = len(params)
        units = [[ring.one if i == j else ring.zero for j in range(k)] for i in range(k)]
        sol = (LinearSystemSolution(ring.size**k, k, units) if ring.is_field
               else LinearSystemSolution(ring.size**k))
    if sol.dimension is None:
        return LinearSystemSolution(cardinality=sol.cardinality, particular=[ring.zero] * ncols)
    # Each kernel vector is mapped through the forms, then reduced to a 1 at
    # its right-most nonzero column (its pivot) and 0 at the others' pivots.
    # A column is free in Gauss-Jordan elimination iff some solution ends
    # there, so the pivots are its free columns and this is its basis.
    basis: list[tuple[int, list[int]]] = []
    for kernel_vec in sol.basis:
        vec = [0] * ncols
        for x, form in zip(kernel_vec, forms):
            times = mul[tb.code[x]]
            vec = [add[y][times[z]] for y, z in zip(vec, form)]
        for piv, b in basis:
            _axpy(tb, vec, b, vec[piv])
        piv = next(j for j in range(ncols - 1, -1, -1) if vec[j])
        scale = mul[inv[vec[piv]]]
        vec = [scale[x] for x in vec]
        for _, b in basis:
            _axpy(tb, b, vec, b[piv])
        basis.append((piv, vec))
    basis.sort()
    return LinearSystemSolution(
        cardinality=sol.cardinality,
        dimension=sol.dimension,
        basis=[[els[x] for x in vec] for _, vec in basis],
        particular=[ring.zero] * ncols,
    )


def _axpy(tb: RingTables, y: list[int], x: list[int], a: int) -> None:
    """y -= a x, in place, on code vectors."""
    if a:
        times = tb.mul[a]
        for j, xj in enumerate(x):
            if xj:
                y[j] = tb.sub[y[j]][times[xj]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _clear(p: int, e: int, m: int) -> tuple[int, int, int, int]:
    """A determinant-1 matrix [[s, t], [u, w]] mod m that sends the pair
    (p, e), p != 0, to (gcd(p, e), 0); it is [[1, 0], [-e/p, 1]] when p | e."""
    if e % p == 0:
        return 1, 0, -(e // p) % m, 1
    g, s, t = _xgcd(p, e)
    return s % m, t % m, -(e // g) % m, (p // g) % m


def _solve_zm(ring: FiniteRing, rows: Sequence[Sequence[Element]], rhs: Sequence[Element]) -> LinearSystemSolution:
    """Diagonalise [A | b] over Z_m with every entry kept in [0, m).

    A ring of degree k enters through its regular representation: an entry a
    becomes the k x k block of y -> a y in the basis 1, x, ..., x^(k-1), whose
    column j holds the coefficients of a x^j.  So each equation becomes k
    equations over Z_m and each unknown k unknowns; Z_m itself is k = 1.
    Row operations act on the augmented matrix and column operations are
    recorded in V, so the system becomes D y = c with x = V y.  Each step
    either subtracts a multiple of the pivot or, when the pivot does not
    divide the entry, moves gcd(pivot, entry) < pivot into the pivot, so the
    sweeps of one pivot end.  The solution is read back as ring elements of k
    coefficients each.
    """
    m, k = ring.m, ring.width
    if not rows or not rows[0]:
        ok = all(x == ring.zero for x in rhs)
        return LinearSystemSolution(cardinality=1 if ok else 0, particular=[] if ok else None)
    basis = [ring.element([0] * j + [1]) for j in range(k)]
    entries = {e for r in rows for e in r}
    block = {e: list(zip(*(ring.mul(e, y) for y in basis))) for e in entries}
    a = [[x for e in r for x in block[e][i]] + [b[i]] for r, b in zip(rows, rhs) for i in range(k)]
    nrows, ncols = len(a), k * len(rows[0])
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for t in range(min(nrows, ncols)):
        piv = next(((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]), None)
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for r in a + v:
            r[t], r[piv[1]] = r[piv[1]], r[t]
        while True:
            below = [i for i in range(t + 1, nrows) if a[i][t]]
            right = [j for j in range(t + 1, ncols) if a[t][j]]
            if not below and not right:
                break
            for i in below:
                s_, t_, u_, w_ = _clear(a[t][t], a[i][t], m)
                a[t], a[i] = (
                    [(s_ * x + t_ * y) % m for x, y in zip(a[t], a[i])],
                    [(u_ * x + w_ * y) % m for x, y in zip(a[t], a[i])],
                )
            for j in right:
                s_, t_, u_, w_ = _clear(a[t][t], a[t][j], m)
                for r in a + v:
                    r[t], r[j] = (s_ * r[t] + t_ * r[j]) % m, (u_ * r[t] + w_ * r[j]) % m
    count = m ** max(ncols - nrows, 0)
    y = [0] * ncols
    for i in range(nrows):
        di = a[i][i] if i < ncols else 0
        g = gcd(di, m)
        if a[i][ncols] % g:
            return LinearSystemSolution(cardinality=0)
        if i < ncols:
            count *= g
            mg = m // g
            y[i] = (a[i][ncols] // g) * pow(di // g, -1, mg) % m if mg > 1 else 0
    x = [sum(v[i][j] * y[j] for j in range(ncols)) % m for i in range(ncols)]
    particular = [ring.element(x[j : j + k]) for j in range(0, ncols, k)]
    tb = ring.tables
    xs = [tb.code[xi] for xi in particular]
    for r, want in zip(rows, rhs):
        acc = 0
        for coef, xi in zip(r, xs):
            acc = tb.add[acc][tb.mul[tb.code[coef]][xi]]
        assert acc == tb.code[want], "internal Z_m solve error"
    return LinearSystemSolution(cardinality=count, particular=particular)


# -- literals ---------------------------------------------------------------


def format_poly(poly: Sequence[int], var: str = "x") -> str:
    terms = []
    for i, c in enumerate(poly):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{var}" if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return " + ".join(terms) if terms else "0"


def format_element(a: Element) -> str:
    """Compact bracket form, e.g. (2t+1 in a degree-2 quotient) -> ``[1,2]``."""
    return "[" + ",".join(str(c) for c in a) + "]"


def format_ring_literal(ring: FiniteRing) -> str:
    if not ring.degree:
        return f"ring m={ring.m}"
    return f"ring m={ring.m} poly={','.join(str(c) for c in ring.poly)}"


def parse_ring_literal(text: str) -> FiniteRing:
    """Parse ``ring m=<int> poly=<c0,c1,...,1>`` (poly omitted for Z_m)."""
    parts = text.split()
    if not parts or parts[0] != "ring":
        raise ValueError(f"ring literal must start with 'ring': {text!r}")
    m = None
    poly: list[int] = []
    for p in parts[1:]:
        if p.startswith("m="):
            m = int(p[2:])
        elif p.startswith("poly="):
            poly = [int(c) for c in p[5:].split(",") if c]
        else:
            raise ValueError(f"unrecognized ring literal field {p!r}")
    if m is None:
        raise ValueError(f"ring literal missing m=: {text!r}")
    return FiniteRing(m, poly)


def parse_element(ring: FiniteRing, text: str) -> Element:
    """Parse ``[c0,c1,...]`` or a polynomial expression like ``2+t`` / ``1+2*x^3``."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        cs = [int(c) for c in body.split(",")] if body else [0]
        return ring.element(cs)
    coeffs = [0] * ring.width
    expr = text.replace("-", "+-").replace(" ", "")
    for term in expr.split("+"):
        if not term:
            continue
        c, p = _parse_term(term)
        if p >= len(coeffs):
            padded = coeffs + [0] * (p + 1 - len(coeffs))
            padded[p] += c
            coeffs = padded
        else:
            coeffs[p] += c
    return ring.element(coeffs)


def _parse_term(term: str) -> tuple[int, int]:
    sign = 1
    if term.startswith("-"):
        sign, term = -1, term[1:]
    if term.isdigit():
        return sign * int(term), 0
    # forms: v, c*v, cv, v^k, c*v^k, cv^k   with v a single letter
    i = 0
    while i < len(term) and (term[i].isdigit()):
        i += 1
    c = int(term[:i]) if i else 1
    rest = term[i:]
    if rest.startswith("*"):
        if i == 0:
            raise ValueError(f"cannot parse element term {term!r}")
        rest = rest[1:]
    if not rest or not rest[0].isalpha():
        raise ValueError(f"cannot parse element term {term!r}")
    rest = rest[1:]
    if not rest:
        return sign * c, 1
    if rest.startswith("^"):
        return sign * c, int(rest[1:])
    raise ValueError(f"cannot parse element term {term!r}")
