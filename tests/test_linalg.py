import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import fit_int64, from_scaled, int_scaled, lagrange_signature, mat, python_product
from qsetalg import linalg


def _fraction_product(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def test_mmul_beyond_int64_equals_the_fraction_product():
    a = mat([[2 ** 70, Fraction(1, 3)], [5, -(2 ** 69)]])
    b = mat([[7, 2 ** 70], [Fraction(-1, 2), 3]])
    assert linalg.mmul(a, b) == _fraction_product(a, b)


def test_mmul_just_past_the_bound_equals_the_fraction_product():
    # every entry fits int64, but k * max|a| * max|b| >= 2^62
    big = 2 ** 31
    a = mat([[big, big], [-big, 1]])
    b = mat([[big, -1], [Fraction(big, 7), big]])
    assert 2 * big * big >= 2 ** 62
    assert linalg.mmul(a, b) == _fraction_product(a, b)


def test_mmul_refuses_mismatched_shapes():
    with pytest.raises(linalg.LinalgError, match=r"shape mismatch \(1, 2\) @ \(1, 1\)"):
        linalg.mmul(mat([[1, 2]]), mat([[3]]))


def test_int_scaled_round_trip_and_dtype():
    small, den = int_scaled([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]])
    assert den == 6 and small.dtype == np.int64
    assert small.tolist() == [[3, 18], [-4, 0]]
    huge, den = int_scaled([2 ** 70, Fraction(1, 3)])
    assert den == 3 and huge.dtype == object
    assert from_scaled(huge, den) == (Fraction(2 ** 70), Fraction(1, 3))


# -- exact elimination: det, congruence_signature, RationalSpan, ColumnSolver


def _sympy_det(a):
    import sympy as sp

    ref = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in a]).det()
    return Fraction(int(ref.p), int(ref.q))


def _rand_fraction(rng, zeros=0.3):
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _int_rows(a):
    """(integer rows, denominator) of a Fraction matrix."""
    ints, den = int_scaled(a)
    return ints.tolist(), den


def test_det_matches_sympy_on_seeded_rational_matrices():
    rng = random.Random(20240)
    for n in range(1, 7):
        for _ in range(12):
            a = mat([[_rand_fraction(rng) for _ in range(n)] for _ in range(n)])
            assert linalg.det(*_int_rows(a)) == _sympy_det(a)


def test_det_of_singular_matrices_is_zero():
    rng = random.Random(20241)
    for n in range(2, 7):
        for _ in range(6):
            rows = [[_rand_fraction(rng, 0.1) for _ in range(n)] for _ in range(n - 1)]
            c1, c2 = _rand_fraction(rng, 0), _rand_fraction(rng, 0)
            dependent = [c1 * x + c2 * y for x, y in zip(rows[0], rows[-1])]
            rows.insert(rng.randrange(n), dependent)
            assert linalg.det(*_int_rows(mat(rows))) == 0 == _sympy_det(mat(rows))
    assert linalg.det(*_int_rows(mat([[0, 0], [0, 0]]))) == 0
    assert linalg.det(*_int_rows(mat([[1, 2, 3], [0, 0, 0], [4, 5, 6]]))) == 0


def test_det_with_row_swaps_and_huge_entries():
    swap = mat([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
    assert linalg.det(*_int_rows(swap)) == -30 == _sympy_det(swap)
    shuffled = mat([[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]])
    assert linalg.det(*_int_rows(shuffled)) == _sympy_det(shuffled)
    huge = mat([
        [2 ** 70, Fraction(1, 3), -7],
        [0, -(2 ** 70) + 1, Fraction(2 ** 70, 11)],
        [5, 2 ** 69, 0],
    ])
    assert linalg.det(*_int_rows(huge)) == _sympy_det(huge)
    rng = random.Random(20242)
    for _ in range(8):
        a = mat([[rng.choice([0, 1, -1]) * 2 ** 70 + rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        assert linalg.det(*_int_rows(a)) == _sympy_det(a)
    assert linalg.det(*_int_rows(mat([[Fraction(-2, 7)]]))) == Fraction(-2, 7)


@settings(max_examples=100)
@given(st.data())
def test_det_property(data):
    """det equals sympy's determinant on square matrices of small rationals
    and integers up to 2^70, zero rows and repeated entries included."""
    n = data.draw(st.integers(1, 5), label="n")
    entry = st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=6), st.integers(-(2 ** 70), 2 ** 70))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    a = mat(rows)
    assert linalg.det(*_int_rows(a)) == _sympy_det(a)


def test_det_of_non_square_raises():
    with pytest.raises(linalg.LinalgError):
        linalg.det(*_int_rows(mat([[1, 2, 3], [4, 5, 6]])))


def _rand_symmetric(rng, n, rank=None):
    """Symmetric B^T D B with zero diagonals likely; rank <= `rank` when given."""
    k = n if rank is None else rank
    b = [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(n)] for _ in range(k)]
    d = [rng.choice([1, -1, 3, Fraction(-1, 3)]) for _ in range(k)]
    return mat(
        [[sum(b[m][i] * d[m] * b[m][j] for m in range(k)) for j in range(n)] for i in range(n)]
    )


def test_congruence_signature_matches_the_lagrange_reference():
    rng = random.Random(20243)
    for n in range(1, 7):
        for _ in range(15):
            a = _rand_symmetric(rng, n)
            assert linalg.congruence_signature(a) == lagrange_signature(a)
            low = _rand_symmetric(rng, n, rank=rng.randint(0, n - 1))
            got = linalg.congruence_signature(low)
            assert got == lagrange_signature(low)
            assert got[2] >= 1


def test_congruence_signature_zero_diagonals_and_huge_entries():
    hyperbolic = mat([[0, 1], [1, 0]])
    assert linalg.congruence_signature(hyperbolic) == (1, 1, 0)
    off = mat([[0, 0, 2, 0], [0, 0, 0, -3], [2, 0, 0, 0], [0, -3, 0, 0]])
    assert linalg.congruence_signature(off) == lagrange_signature(off) == (2, 2, 0)
    assert linalg.congruence_signature(mat([[0] * 3] * 3)) == (0, 0, 3)
    rng = random.Random(20244)
    for _ in range(10):
        n = rng.randint(2, 5)
        upper = [[rng.choice([0, 2 ** 70, -(2 ** 69), Fraction(1, 3)]) for _ in range(n)] for _ in range(n)]
        a = mat([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        assert linalg.congruence_signature(a) == lagrange_signature(a)


def test_congruence_signature_rejects_bad_shapes():
    with pytest.raises(linalg.LinalgError):
        linalg.congruence_signature(mat([[1, 2], [3, 4]]))
    with pytest.raises(linalg.LinalgError):
        linalg.congruence_signature(mat([[1, 2, 3], [2, 4, 5]]))


def test_rational_span_add_reports_whether_the_span_grew():
    span = linalg.RationalSpan(3)
    assert span.add([2, 4, 6]) is True
    assert span.add([1, 2, 3]) is False
    assert span.add([0, 0, 0]) is False
    assert span.add([0, 5, 1]) is True
    assert span.add([2, 9, 7]) is False
    assert span.add([3, -1, 2 ** 70]) is True
    assert span.add([7, 7, 7]) is False


def test_rational_span_add_tracks_sympy_rank():
    import sympy as sp

    rng = random.Random(20245)
    for dim in (2, 4, 6):
        span, seen = linalg.RationalSpan(dim), []
        for _ in range(2 * dim):
            if seen and rng.random() < 0.4:
                v = [sum(rng.randint(-2, 2) * w[j] for w in seen) for j in range(dim)]
            else:
                v = [rng.choice([0, 0, 1, -3, 5, 2 ** 64]) for _ in range(dim)]
            before = sp.Matrix(seen).rank() if seen else 0
            seen.append(v)
            assert span.add(v) is (sp.Matrix(seen).rank() > before)


def _sparse(vector) -> dict:
    return {r: int(x) for r, x in enumerate(vector) if x}


def _column_solver(m):
    """A ColumnSolver over the columns of the integer matrix m."""
    return linalg.ColumnSolver([_sparse(col) for col in np.asarray(m).T.tolist()])


def _solve(solver, b):
    """(X, inside) for every column of the integer matrix b, X's columns the
    coordinates over den, as arrays."""
    cols = [solver.solve(_sparse(col)) for col in np.asarray(b).T.tolist()]
    x = np.array([x for x, _ in cols], dtype=object).T.reshape(len(solver.a), len(cols))
    return x, np.array([inside for _, inside in cols], dtype=bool)


def test_column_solver_rejects_dependent_columns():
    with pytest.raises(linalg.LinalgError):
        _column_solver(np.array([[1, 2], [2, 4], [3, 6]], dtype=np.int64))
    with pytest.raises(linalg.LinalgError):
        _column_solver(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64))


def test_column_solver_solves_and_flags_columns_outside_the_span():
    m = np.array([[0, 0], [2, 0], [0, 3], [1, 1]], dtype=np.int64)
    solver = _column_solver(m)
    b = np.array([[0, 1], [4, 0], [9, 0], [5, 0]], dtype=np.int64)  # (2, 3) inside; e_1 not
    x, inside = _solve(solver, b)
    assert inside.tolist() == [True, False]
    assert [Fraction(int(v), solver.den) for v in x[:, 0]] == [2, 3]
    assert (m @ x[:, :1] == solver.den * b[:, :1]).all()
    x, inside = _solve(solver, b[:, :0])  # no columns: an algebra with no pairs
    assert x.shape == (2, 0) and inside.shape == (0,)


def test_column_solver_recovers_random_coordinates():
    rng = np.random.default_rng(20246)
    for k in (1, 3, 6):
        m = rng.integers(-4, 5, size=(3 * k, k))
        m[0] = 0
        assert np.linalg.matrix_rank(m.astype(float)) == k
        coords = rng.integers(-9, 10, size=(k, 5))
        solver = _column_solver(m)
        x, inside = _solve(solver, m @ coords)
        assert inside.all()
        assert (x == solver.den * coords).all()


def _solver_matrices():
    """The column matrices ColumnSolver meets: the three frames, every catalog
    algebra, and seeded integer matrices with zero and repeated rows, each
    with more than one column also once with a dependent last column."""
    from qsetalg.liecore import CATALOG, catalog_entry
    from qsetalg.yang import PRESETS, build_yang

    algebras = [build_yang(p).algebra for p in sorted(PRESETS)]
    algebras += [catalog_entry(key).algebra for key in CATALOG]
    for alg in algebras:
        yield np.array(alg.matrices).reshape(alg.dim, -1).T
    rng = np.random.default_rng(20248)
    for k in (1, 3, 6):
        m = rng.integers(-3, 4, size=(2 * k, k))
        m = m[rng.integers(0, 2 * k, size=5 * k)]  # repeated rows
        m[rng.integers(0, 5 * k, size=k)] = 0
        yield m
        if k > 1:
            yield np.concatenate([m[:, :-1], m[:, :1] - m[:, 1:2]], axis=1)


def _rank(m) -> int:
    """Exact rank of the integer matrix m, by a span over its columns."""
    span = linalg.RationalSpan(m.shape[0])
    return sum(span.add(col) for col in m.T.tolist())


def test_column_solver_recovers_coordinates_on_the_algebra_bases():
    rng = np.random.default_rng(20249)
    for m in _solver_matrices():
        k = m.shape[1]
        if _rank(m) < k:
            with pytest.raises(linalg.LinalgError):
                _column_solver(m)
            continue
        solver = _column_solver(m)
        coords = rng.integers(-9, 10, size=(k, 4))
        x, inside = _solve(solver, python_product(m, coords))
        assert inside.all()
        assert (x == solver.den * coords).all()


def test_column_solver_with_zero_and_repeated_rows_rejects_a_dependent_basis():
    m = np.array([[0, 0, 0], [1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6], [0, 1, 1], [0, 1, 1]])
    with pytest.raises(linalg.LinalgError):
        _column_solver(m)
    m[3] = [5, 0, 0]
    solver = _column_solver(m)
    x, inside = _solve(solver, m @ np.array([[1], [-2], [3]]))
    assert inside.all()
    assert x.ravel().tolist() == [solver.den * c for c in (1, -2, 3)]


def _fraction_inverse(g):
    """inv(g) for a nonsingular integer matrix, by Gauss-Jordan on Fractions."""
    k = len(g)
    rows = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(k)] for r, row in enumerate(g)]
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[k:] for row in rows]


def test_column_solver_gram_path_matches_a_fraction_reference():
    # A / den is inv(M^T M), X == den inv(G) M^T B, and a column is inside
    # exactly when M inv(G) M^T b == b, all on Fractions
    rng = np.random.default_rng(20250)
    for rows, k in ((3, 1), (4, 2), (6, 3), (9, 5), (12, 4)):
        m = rng.integers(-5, 6, size=(rows, k))
        if _rank(m) < k:
            continue
        solver = _column_solver(m)
        inv = _fraction_inverse(python_product(m.T, m).tolist())
        assert [[Fraction(int(x), solver.den) for x in row] for row in solver.a] == inv
        b = np.concatenate([m @ rng.integers(-9, 10, size=(k, 3)), rng.integers(-9, 10, size=(rows, 3))], axis=1)
        x, inside = _solve(solver, b)
        want = _fraction_product(inv, _fraction_product(m.T.tolist(), b.tolist()))
        assert [[Fraction(int(v), solver.den) for v in row] for row in x] == [list(row) for row in want]
        back = _fraction_product(m.tolist(), want)
        assert inside.tolist() == [all(back[r][c] == b[r, c] for r in range(rows)) for c in range(b.shape[1])]
        assert inside[:3].all()


def test_column_solver_is_exact_when_the_norm_sum_passes_int64():
    # M = 64 ones, so den = 64, and b = c * ones is inside: den |b|^2 ==
    # 64 * 64 * c^2 ~ 2^66, past int64, and exact on Python ints
    m = np.ones((64, 1), dtype=np.int64)
    c = 2 ** 27 + 1
    solver = _column_solver(m)
    assert solver.den == 64 and solver.den * 64 * c * c >= 2 ** 63 > 64 * c * c
    x, inside = _solve(solver, np.full((64, 1), c, dtype=np.int64))
    assert inside.tolist() == [True]
    assert x.tolist() == [[64 * c]]


def test_column_solver_is_exact_when_the_dot_sum_passes_int64():
    # M = I_4, so y = x = b and y . x == |b|^2 == 4 c^2 ~ 2^63.2: c^2 < 2^62
    # alone, and the sum of four past int64, exact on Python ints
    c = 3 * 2 ** 29
    solver = _column_solver(np.eye(4, dtype=np.int64))
    assert solver.den == 1 and c * c < 2 ** 62 and 4 * c * c >= 2 ** 63
    x, inside = _solve(solver, np.full((4, 1), c, dtype=np.int64))
    assert inside.tolist() == [True]
    assert x.tolist() == [[c]] * 4


def test_pythagorean_check_on_python_ints_finds_a_one_unit_escape():
    # so(3) with L1 and L3 scaled by 2^40 and L3 moved by one unit on the
    # diagonal: [A, B] = 2^40 L3 = C - E_00 leaves the span by that unit
    from qsetalg.liecore import ClosureError, MatrixAlgebra, rotation3

    l1, l2, l3 = (np.array(m, dtype=object) for m in rotation3().matrices)
    unit = np.zeros((3, 3), dtype=object)
    unit[0, 0] = 1
    alg = MatrixAlgebra("escape", [2 ** 40 * l1, l2, 2 ** 40 * l3 + unit], 1)
    x, inside = alg._solver.solve(alg._commutator(0, 1))
    assert not inside
    with pytest.raises(ClosureError, match=r"^\[0,1\] leaves the span of the basis$"):
        alg.structure_constants()


_entries = st.integers(-(2 ** 70), 2 ** 70)


@settings(max_examples=80)
@given(st.data())
def test_column_solver_property(data):
    """For full-column-rank M: solve(M Y) == den * Y with every column inside,
    a column b reads inside exactly when [M | b] keeps rank k, and a column
    that depends on the others makes the solver refuse."""
    k = data.draw(st.integers(1, 4), label="k")
    rows = data.draw(st.integers(k, 3 * k), label="rows")
    m = np.array(data.draw(st.lists(
        st.lists(_entries, min_size=k, max_size=k), min_size=rows, max_size=rows)), dtype=object)
    assume(_rank(m) == k)
    solver = _column_solver(fit_int64(m))  # int64 where it fits, as the Lie layer passes it

    y = np.array(data.draw(st.lists(
        st.lists(_entries, min_size=2, max_size=2), min_size=k, max_size=k)), dtype=object)
    x, inside = _solve(solver, fit_int64(python_product(m, y)))
    assert inside.all()
    assert (x == solver.den * y).all()

    b = np.array(data.draw(st.lists(_entries, min_size=rows, max_size=rows)), dtype=object)
    x, inside = _solve(solver, fit_int64(b[:, None]))
    assert bool(inside[0]) == (_rank(np.column_stack([m, b])) == k)
    if inside[0]:
        assert (python_product(m, x) == solver.den * b[:, None]).all()

    c = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)), dtype=object)
    with pytest.raises(linalg.LinalgError):
        _column_solver(fit_int64(np.column_stack([m, python_product(m, c[:, None])])))
