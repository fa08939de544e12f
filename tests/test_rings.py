import itertools
import random
from functools import lru_cache

import pytest

from hlcolor import rings
from hlcolor.rings import (
    FiniteRing,
    LinearSystemSolution,
    NonUnitError,
    format_element,
    format_ring_literal,
    parse_element,
    parse_ring_literal,
    ring_make,
    solve_homogeneous,
    solve_linear,
)
from tests.conftest import corpus_rings

GF9 = ring_make(3, [2, 1, 1])
Z81 = ring_make(3, [2, 0, 0, 0, 1])
Z5 = ring_make(5)


def test_ring_make_validation():
    with pytest.raises(ValueError):
        ring_make(1)
    with pytest.raises(ValueError):
        ring_make(3, [1, 2])  # not monic
    with pytest.raises(ValueError):
        ring_make(3, [2])  # degree 0 polynomial


def test_gf9_is_field_of_nine_elements():
    assert GF9.size == 9
    assert GF9.is_field


def test_z81_is_not_a_field():
    assert Z81.size == 81
    assert not Z81.is_field


def test_z2_is_field():
    assert ring_make(2).is_field


def test_mul_reduction_gf9():
    t = GF9.element([0, 1])
    assert GF9.mul(t, t) == GF9.element([1, 2])  # t^2 = 2t + 1 mod 3


def test_mul_identity_and_z5():
    t1 = GF9.element([1, 1])
    assert GF9.mul(GF9.one, t1) == t1
    assert Z5.mul(Z5.element(2), Z5.element(3)) == Z5.one


def test_inverse_examples():
    t = GF9.element([0, 1])
    s = GF9.add(t, GF9.one)
    assert GF9.mul(s, GF9.inverse(s)) == GF9.one
    assert Z5.inverse(Z5.element(2)) == Z5.element(3)
    with pytest.raises(NonUnitError):
        Z81.inverse(Z81.element([2, 1]))  # t - 1 divides t^4 - 1


def test_unit_orders():
    t = GF9.element([0, 1])
    assert GF9.unit_order(t) == 8
    assert GF9.unit_order(GF9.one) == 1
    assert Z81.unit_order(Z81.neg(Z81.element([0, 1]))) == 4
    with pytest.raises(NonUnitError):
        Z81.unit_order(Z81.element([2, 1]))


@pytest.mark.parametrize("ring", [Z5, GF9, ring_make(4), ring_make(6), ring_make(2, [1, 1, 1])])
def test_ring_axioms_exhaustive(ring):
    els = ring.elements()
    assert len(els) == ring.size <= 128
    for a, b in itertools.product(els, repeat=2):
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(a, b) == ring.add(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


@pytest.mark.parametrize("ring", [Z5, GF9, ring_make(8), ring_make(12)])
def test_unit_order_divides_unit_group_order(ring):
    units = [a for a in ring.elements() if ring.is_unit(a)]
    for a in units:
        assert len(units) % ring.unit_order(a) == 0
    if ring.is_field:
        assert len(units) == ring.size - 1


def test_solve_linear_field_examples():
    sol = solve_linear(ring_make(3), [[(1,), (2,)]], [(0,)])  # x - y = 0 over Z_3
    assert sol.cardinality == 3 and sol.dimension == 1
    sol = solve_linear(GF9, [[GF9.zero] * 4], [GF9.zero])
    assert sol.cardinality == 9**4 and sol.dimension == 4
    R3 = ring_make(3)
    sol = solve_linear(
        R3, [[R3.one, R3.one], [R3.one, R3.neg(R3.one)]], [R3.one, R3.one]
    )
    assert sol.cardinality == 1
    assert sol.particular == [R3.element(1), R3.element(0)]


def test_solve_linear_field_solutions_satisfy_system():
    rng = random.Random(20)
    for _ in range(25):
        nr, nc = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[GF9.element([rng.randrange(3), rng.randrange(3)]) for _ in range(nc)] for _ in range(nr)]
        rhs = [GF9.element([rng.randrange(3), rng.randrange(3)]) for _ in range(nr)]
        sol = solve_linear(GF9, rows, rhs)
        if sol.cardinality == 0:
            continue
        assert sol.cardinality == 9**sol.dimension
        vectors = [sol.particular] + [
            [GF9.add(p, b) for p, b in zip(sol.particular, bas)] for bas in sol.basis
        ]
        for vec in vectors:
            for row, want in zip(rows, rhs):
                acc = GF9.zero
                for coef, x in zip(row, vec):
                    acc = GF9.add(acc, GF9.mul(coef, x))
                assert acc == want


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
def test_solve_linear_zm_matches_bruteforce(m):
    ring = ring_make(m)
    rng = random.Random(m)
    for _ in range(40):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[ring.element(rng.randrange(m)) for _ in range(nc)] for _ in range(nr)]
        rhs = [ring.element(rng.randrange(m)) for _ in range(nr)]
        got = solve_linear(ring, rows, rhs)
        want = 0
        for xs in itertools.product(range(m), repeat=nc):
            if all(
                sum(r[j][0] * xs[j] for j in range(nc)) % m == b[0]
                for r, b in zip(rows, rhs)
            ):
                want += 1
        assert got.cardinality == want
        if got.particular is not None:
            for r, b in zip(rows, rhs):
                acc = sum(c[0] * x[0] for c, x in zip(r, got.particular)) % m
                assert acc == b[0]


@lru_cache(maxsize=None)
def _tables(ring):
    """The ring's elements, their positions, and + and * as tables of positions."""
    els = ring.elements()
    pos = {e: i for i, e in enumerate(els)}
    add = [[pos[ring.add(a, b)] for b in els] for a in els]
    mul = [[pos[ring.mul(a, b)] for b in els] for a in els]
    return els, pos, add, mul


def _solve_bruteforce(ring, rows, rhs) -> int:
    """The oracle: the number of solutions, by testing every assignment."""
    els, pos, add, mul = _tables(ring)
    rows = [[pos[e] for e in r] for r in rows]
    rhs = [pos[b] for b in rhs]
    zero = pos[ring.zero]
    count = 0
    for xs in itertools.product(range(len(els)), repeat=len(rows[0]) if rows else 0):
        ok = True
        for r, want in zip(rows, rhs):
            acc = zero
            for coef, xi in zip(r, xs):
                acc = add[acc][mul[coef][xi]]
            if acc != want:
                ok = False
                break
        count += ok
    return count


def _row_value(ring, row, xs):
    acc = ring.zero
    for coef, x in zip(row, xs):
        acc = ring.add(acc, ring.mul(coef, x))
    return acc


def _satisfies(ring, rows, rhs, xs) -> bool:
    return all(_row_value(ring, r, xs) == want for r, want in zip(rows, rhs))


def test_solve_linear_nonfield_quotient_bruteforce_and_bound():
    sol = solve_linear(Z81, [[Z81.element([2, 1])]], [Z81.zero])
    # t - 1 is a zero divisor: the annihilator is nontrivial
    assert sol.cardinality > 1
    assert sol.cardinality == _solve_bruteforce(Z81, [[Z81.element([2, 1])]], [Z81.zero])
    # 81^4 assignments, past any brute-force bound, and the count is exact
    sol = solve_linear(Z81, [[Z81.one] * 4], [Z81.zero])
    assert sol.cardinality == 81**3
    assert _satisfies(Z81, [[Z81.one] * 4], [Z81.zero], sol.particular)


NONFIELD_QUOTIENTS = {
    "Z9[t]/(t^2+1)": ring_make(9, [1, 0, 1]),
    "Z3[t]/(t^4-1)": Z81,
    "Z4[t]/(t^2+t+1)": ring_make(4, [1, 1, 1]),
    "Z4[t]/(t^2)": ring_make(4, [0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(NONFIELD_QUOTIENTS))
def test_solve_linear_quotient_matches_bruteforce(name):
    ring = NONFIELD_QUOTIENTS[name]
    assert not ring.is_field
    els = ring.elements()
    nonunits = [a for a in els if not ring.is_unit(a)]
    # unknowns per system: at most 81^2 or 16^3 assignments for the oracle
    most = 2 if ring.size > 16 else 3
    rng = random.Random(name)
    solvable = 0
    for _ in range(200):
        nr, nc = rng.randint(1, 3), rng.randint(1, most)
        # half the entries are non-units, so the solution sets vary
        rows = [
            [rng.choice(nonunits if rng.random() < 0.5 else els) for _ in range(nc)]
            for _ in range(nr)
        ]
        if rng.random() < 0.5:
            rhs = [rng.choice(els) for _ in range(nr)]
        else:
            x0 = [rng.choice(els) for _ in range(nc)]
            rhs = [_row_value(ring, r, x0) for r in rows]
        got = solve_linear(ring, rows, rhs)
        want = _solve_bruteforce(ring, rows, rhs)
        assert got.cardinality == want, (rows, rhs)
        assert (got.particular is None) == (want == 0)
        if want:
            solvable += 1
            assert _satisfies(ring, rows, rhs, got.particular)
    assert solvable >= 50


# -- the coded field solver against the tuple solver ----------------------------


def _solve_field_tuples(ring, a, b):
    """Gauss-Jordan elimination in tuple arithmetic: the field solver before codes."""
    a, b = [list(r) for r in a], list(b)
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivot_cols = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col] != ring.zero), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        b[row], b[piv] = b[piv], b[row]
        inv = ring.inverse(a[row][col])
        a[row] = [ring.mul(inv, x) for x in a[row]]
        b[row] = ring.mul(inv, b[row])
        for r in range(nrows):
            if r != row and a[r][col] != ring.zero:
                factor = a[r][col]
                a[r] = [ring.sub(x, ring.mul(factor, y)) for x, y in zip(a[r], a[row])]
                b[r] = ring.sub(b[r], ring.mul(factor, b[row]))
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if b[r] != ring.zero:
            return LinearSystemSolution(cardinality=0)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    particular = [ring.zero] * ncols
    for i, col in enumerate(pivot_cols):
        particular[col] = b[i]
    basis = []
    for fc in free_cols:
        vec = [ring.zero] * ncols
        vec[fc] = ring.one
        for i, col in enumerate(pivot_cols):
            vec[col] = ring.neg(a[i][fc])
        basis.append(vec)
    dim = len(free_cols)
    return LinearSystemSolution(
        cardinality=ring.size**dim, dimension=dim, basis=basis, particular=particular
    )


FIELDS = {
    "GF(4)": ring_make(2, [1, 1, 1]),
    "GF(8)": ring_make(2, [1, 1, 0, 1]),
    "GF(9)": GF9,
    "GF(25)": ring_make(5, [2, 0, 1]),
    "Z5": Z5,
    "Z7": ring_make(7),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_solve_field_matches_the_tuple_solver(name):
    ring = FIELDS[name]
    assert ring.is_field
    els = ring.elements()
    rng = random.Random(name)
    seen = {"inconsistent": 0, "zero matrix": 0, "solvable": 0}
    for k in range(240):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        # sparse rows like the coloring systems; every tenth matrix is all zero
        density = 0.0 if k % 10 == 0 else rng.choice((0.3, 0.6, 1.0))
        rows = [
            [rng.choice(els) if rng.random() < density else ring.zero for _ in range(nc)]
            for _ in range(nr)
        ]
        if rng.random() < 0.5:
            rhs = [rng.choice(els) for _ in range(nr)]
        else:
            x0 = [rng.choice(els) for _ in range(nc)]
            rhs = [_row_value(ring, r, x0) for r in rows]
        got = solve_linear(ring, rows, rhs)
        want = _solve_field_tuples(ring, rows, rhs)
        assert (got.cardinality, got.dimension, got.basis, got.particular) == (
            want.cardinality, want.dimension, want.basis, want.particular
        ), (rows, rhs)
        seen["inconsistent"] += want.cardinality == 0
        seen["zero matrix"] += density == 0.0
        seen["solvable"] += want.cardinality > 0
    assert min(seen.values()) >= 20, seen


TABLE_RINGS = {
    **corpus_rings(),
    "Z3[t]/(t^4-1)": Z81,
    "Z4[t]/(t^2+t+1)": ring_make(4, [1, 1, 1]),
    "Z9[t]/(t^2+1)": ring_make(9, [1, 0, 1]),
    "Z2[t]/(t^2)": ring_make(2, [0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(TABLE_RINGS))
def test_code_tables_match_tuple_arithmetic(name):
    # a fresh ring object, so its tables are built here
    ring = FiniteRing(TABLE_RINGS[name].m, TABLE_RINGS[name].poly)
    tb = ring.tables
    els = ring.elements()
    assert tb.elements == els and tb.code == {e: i for i, e in enumerate(els)}
    assert els[0] == ring.zero and els[tb.one] == ring.one
    for i, a in enumerate(els):
        assert els[tb.neg[i]] == ring.neg(a)
        for j, b in enumerate(els):
            assert els[tb.add[i][j]] == ring.add(a, b)
            assert els[tb.sub[i][j]] == ring.sub(a, b)
            assert els[tb.mul[i][j]] == ring.mul(a, b)
    # inverses, units, is_field and unit orders against their definitions
    for i, a in enumerate(els):
        inverses = [j for j, b in enumerate(els) if ring.mul(a, b) == ring.one]
        assert inverses == ([tb.inv[i]] if tb.inv[i] >= 0 else [])
        assert ring.is_unit(a) == bool(inverses)
        if inverses:
            assert ring.inverse(a) == els[inverses[0]]
            n, cur = 1, a
            while cur != ring.one:
                cur, n = ring.mul(cur, a), n + 1
            assert ring.unit_order(a) == n
        else:
            with pytest.raises(NonUnitError):
                ring.inverse(a)
            with pytest.raises(NonUnitError):
                ring.unit_order(a)
    assert ring.is_field == all(
        any(ring.mul(a, b) == ring.one for b in els) for a in els if a != ring.zero
    )


def test_literals_roundtrip():
    for ring in (Z5, GF9, Z81):
        assert parse_ring_literal(format_ring_literal(ring)) == ring
    assert parse_element(GF9, "[1,2]") == (1, 2)
    assert parse_element(GF9, "1+2*x") == (1, 2)
    assert parse_element(GF9, "1 + 2x") == (1, 2)
    assert parse_element(Z81, "t^3") == (0, 0, 0, 1)
    assert parse_element(Z81, "2t^3+t+1") == (1, 1, 0, 2)
    assert format_element((1, 2)) == "[1,2]"
    with pytest.raises(ValueError):
        parse_ring_literal("m=3")
    with pytest.raises(ValueError):
        parse_element(GF9, "1+*x")


# -- propagation against the full solve -------------------------------------------

HOMOGENEOUS_RINGS = {
    "GF(4)": ring_make(2, [1, 1, 1]),
    "GF(9)": GF9,
    "GF(25)": ring_make(5, [2, 0, 1]),
    "Z5": Z5,
    "Z9": ring_make(9),
    "Z4[t]/(t^2+t+1)": ring_make(4, [1, 1, 1]),
    "Z2[t]/(t^2)": ring_make(2, [0, 0, 1]),
}
BRUTE_FORCE_MAX = 5000  # assignments the oracle tests, per system


def _sparse_system(ring, rng):
    """(ncols, rows) of a random homogeneous system in codes: rows that place a
    head variable with coefficient 1, as the coloring rules do, rows of random
    entries, rows of non-units only and all-zero rows."""
    tb = ring.tables
    codes = range(1, ring.size)
    nonunits = [c for c in codes if tb.inv[c] < 0] or list(codes)
    ncols = rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(("head", "head", "random", "nonunit", "zero"))
        pool = nonunits if kind == "nonunit" else codes
        row = {}
        if kind != "zero":
            for j in rng.sample(range(ncols), rng.randint(1, min(3, ncols))):
                row[j] = rng.choice(pool)
        if kind == "head":
            row[rng.randrange(ncols)] = tb.one
        rows.append(row)
    return ncols, rows


@pytest.mark.parametrize("name", sorted(HOMOGENEOUS_RINGS))
def test_solve_homogeneous_matches_the_full_solve_and_brute_force(name, monkeypatch):
    ring = HOMOGENEOUS_RINGS[name]
    tb = ring.tables
    residuals = []

    def solve_residual(ring, rows, rhs):
        residuals.append(any(x != ring.zero for r in rows for x in r))
        return solve_linear(ring, rows, rhs)

    monkeypatch.setattr(rings, "solve_linear", solve_residual)
    rng = random.Random(name)
    seen = dict.fromkeys(("zero row", "column in no row", "row without a unit", "residual",
                          "brute force", "dimension > 0"), 0)
    for _ in range(300):
        ncols, rows = _sparse_system(ring, rng)
        # the full system as tuples, one zero row standing for none
        dense = [[tb.elements[row.get(j, 0)] for j in range(ncols)] for row in rows or [{}]]
        zeros = [ring.zero] * len(dense)
        got = solve_homogeneous(ring, ncols, rows)
        want = solve_linear(ring, dense, zeros)
        assert (got.cardinality, got.dimension, got.basis) == (
            want.cardinality, want.dimension, want.basis
        ), (ncols, rows)
        if ring.size**ncols <= BRUTE_FORCE_MAX:
            assert got.cardinality == _solve_bruteforce(ring, dense, zeros)
            seen["brute force"] += 1
        seen["zero row"] += any(not row for row in rows)
        seen["column in no row"] += any(all(j not in row for row in rows) for j in range(ncols))
        seen["row without a unit"] += any(row and all(tb.inv[c] < 0 for c in row.values())
                                          for row in rows)
        seen["residual"] += residuals.pop()
        seen["dimension > 0"] += bool(got.dimension)
    if ring.is_field:
        del seen["row without a unit"]
    else:
        del seen["dimension > 0"]
    assert min(seen.values()) >= 20, seen
