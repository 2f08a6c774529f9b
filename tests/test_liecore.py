from fractions import Fraction

import numpy as np
import pytest

from qsetalg import linalg
from qsetalg.cliff import build_gammas
from qsetalg.liecore import (
    CATALOG,
    ClosureError,
    ContractionError,
    ContractionFamily,
    MatrixAlgebra,
    StructureConstants,
    boost_triple,
    catalog_entry,
    heisenberg3,
    numeric_contraction_check,
    rotation3,
    rotation_boost6,
)


from helpers import int_scaled, load_oracle, reference_refit, scaled_basis, smul

HALF = Fraction(1, 2)


def catalog() -> dict:
    """Every catalog algebra, each built fresh, by key."""
    return {key: catalog_entry(key) for key in CATALOG}


def test_rotation3_constants_are_the_alternating_tensor():
    sc = rotation3().structure_constants()
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert sc.c[i][j][k] == eps.get((i, j, k), 0)


def test_heisenberg3_bracket():
    sc = heisenberg3().structure_constants()
    assert sc.labels == ("P", "Q", "Z")
    assert sc.c[0][1][2] == 1
    assert sc.c[1][0][2] == -1
    nz = sc.nonzero()
    assert len(nz) == 1


def test_closure_error_on_escaping_bracket():
    sx = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    sz = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    with pytest.raises(ClosureError):
        MatrixAlgebra("open", *int_scaled([sx, sz])).structure_constants()


def test_dependent_basis_is_rejected():
    m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    twice = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))
    with pytest.raises(ValueError):
        MatrixAlgebra("dep", *int_scaled([m, twice]))


def test_catalog_killing_determinants_match_sympy():
    frozen = load_oracle("oracle_killing")
    for key, ent in catalog().items():
        sc = ent.algebra.structure_constants()
        assert str(sc.killing_det()) == frozen[key]


def test_catalog_classifications():
    cat = catalog()
    assert cat["so3"].algebra.structure_constants().classify() == "semisimple"
    assert cat["h1"].algebra.structure_constants().classify() == "nilpotent"
    assert cat["so21"].algebra.structure_constants().classify() == "semisimple"
    assert cat["so4"].algebra.structure_constants().classify() == "semisimple"


def test_abelian_classification():
    d1 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    d2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
    sc = MatrixAlgebra("diag", *int_scaled([d1, d2])).structure_constants()
    assert sc.classify() == "abelian"
    assert sc.is_abelian() and sc.is_nilpotent() and sc.is_solvable()
    assert not sc.is_semisimple()


def test_bracket_reads_both_orders():
    sc = rotation_boost6().structure_constants()
    for i in range(sc.dim):
        assert sc.bracket(i, i) == {}
        for j in range(sc.dim):
            got = sc.bracket(i, j)
            assert {k: Fraction(v, sc.D) for k, v in got.items()} == {k: c for k, c in enumerate(sc.c[i][j]) if c}
            assert got == {k: -v for k, v in sc.bracket(j, i).items()}


def test_commutator_bound_holds_the_difference():
    # the (0, 1) entry of [A, B] is 4 m^2 - m, odd and past 2^53
    m = 2 ** 26 - 1
    stack = np.array([[[m, m], [0, -m]], [[-(m - 1), m], [0, m]]], dtype=np.int64)
    a, b = stack.astype(object)
    want = a @ b - b @ a
    assert want[0, 1] == 4 * m * m - m and 2 * m * m < 2 ** 53 <= want[0, 1]
    got = MatrixAlgebra("edge", stack, 1)._commutator(0, 1)
    assert got == {2 * r + c: x for (r, c), x in np.ndenumerate(want) if x}


@pytest.mark.parametrize("m", [40000001, 2 ** 30])
def test_jacobi_bound_holds_the_cyclic_sum(m):
    # constants of size m: the cyclic sum is m^2 (past 2^60 for m = 2^30),
    # exact on Python ints
    sc = StructureConstants(3, {(0, 1): {0: m, 2: m}, (0, 2): {1: m}, (1, 2): {0: m, 1: -m}})
    assert sc.jacobi_defect() == _ref_jacobi(sc.c) == m * m


def test_one_dimensional_algebra_is_abelian_and_refits():
    alg = MatrixAlgebra("line", np.array([[[1, 0], [0, 0]]]), 1)
    sc = alg.structure_constants()
    assert sc.table == {} and sc.D == 1 and sc.c == (((0,),),)
    assert sc.jacobi_defect() == 0
    assert sc.classify() == "abelian"
    assert numeric_contraction_check(alg, (1,), 0.5) == 0.0


def test_defects_vanish_for_catalog_entries():
    for ent in catalog().values():
        sc = ent.algebra.structure_constants()
        n = sc.dim
        assert all(sc.c[i][j][k] == -sc.c[j][i][k] for i in range(n) for j in range(n) for k in range(n))
        assert sc.jacobi_defect() == 0


def test_ladder_matrices_shape_and_relation():
    # a four-level ladder pair like boost_triple's: A steps down the index,
    # B steps up, and their bracket is diagonal, so the two alone do not close
    k = np.arange(3)
    up, down = np.diag(3 - k, -1), np.diag(k + 1, 1)
    alg = MatrixAlgebra("ladder", np.stack([up, down]), 1)
    with pytest.raises(ClosureError):
        alg.structure_constants()


def test_boost_triple_relations():
    sc = boost_triple().structure_constants()
    assert sc.labels == ("q", "p", "r")
    want = {("q", "p", "r"): 1, ("q", "r", "p"): 1, ("p", "r", "q"): 1}
    got = {
        (sc.labels[i], sc.labels[j], sc.labels[k]): c
        for i, j, k, c in sc.nonzero()
    }
    assert got == want


def test_contraction_exponents_and_limit():
    ent = catalog_entry("so21")
    fam = ContractionFamily(ent.algebra.structure_constants(), ent.weights)
    rows = {(li, lj, lk): e for li, lj, lk, _, e in fam.describe()}
    assert rows[("q", "p", "r")] == 0
    assert rows[("q", "r", "p")] == 1
    assert rows[("p", "r", "q")] == 1
    lim = fam.limit()
    assert lim.classify() == "nilpotent"
    assert lim.killing_det() == 0
    # the surviving bracket is the heisenberg one
    h = heisenberg3().structure_constants()
    assert lim.c[0][1][2] == h.c[1][0][2] * -1


def test_negative_exponent_is_rejected_at_construction():
    sc = rotation3().structure_constants()
    with pytest.raises(ContractionError):
        ContractionFamily(sc, (Fraction(1), Fraction(0), Fraction(0)))


def test_divergence_names_the_first_diverging_constant():
    sc = rotation_boost6().structure_constants()
    with pytest.raises(ContractionError, match=r"^constant \(r13,r23\)->r12 diverges: exponent -1 < 0$"):
        ContractionFamily(sc, (1, 0, 0, 0, 0, 0))
    with pytest.raises(ContractionError, match=r"^constant \(r13,b1\)->b3 diverges: exponent -1/2 < 0$"):
        ContractionFamily(sc, (0, 0, 0, HALF, HALF, 1))


def test_the_refit_refuses_weights_with_the_family_text():
    alg = rotation_boost6()
    sc = alg.structure_constants()
    for weights in ((1, 0, 0, 0, 0, 0), (0, 0, 0, HALF, HALF, 1), (0, 0, 0, 1, 1)):
        with pytest.raises(ContractionError) as family:
            ContractionFamily(sc, weights)
        with pytest.raises(ContractionError) as refit:
            numeric_contraction_check(alg, weights, 0.1)
        assert str(refit.value) == str(family.value)


def test_family_at_matches_scaled_basis_refit():
    ent = catalog_entry("so21")
    sc = ent.algebra.structure_constants()
    fam = ContractionFamily(sc, ent.weights)
    eps_sqrt = Fraction(1, 2)
    eps = eps_sqrt * eps_sqrt
    at = fam.at(eps)
    scaled = scaled_basis(ent.algebra.basis, ent.weights, eps_sqrt)
    refit = MatrixAlgebra("refit", *int_scaled(scaled)).structure_constants()
    assert at.c == refit.c


def test_family_at_requires_exact_scaling():
    ent = catalog_entry("so21")
    fam = ContractionFamily(ent.algebra.structure_constants(), ent.weights)
    at = fam.at(Fraction(1, 1000))
    assert at.c[0][2][1] == Fraction(1, 1000)
    assert at.c[1][2][0] == Fraction(1, 1000)
    assert at.c[0][1][2] == 1


def test_surviving_and_decaying_partition():
    ent = catalog_entry("so4")
    fam = ContractionFamily(ent.algebra.structure_constants(), ent.weights)
    surv = {(i, j, k) for i, j, k, _ in fam.sc.nonzero() if fam.exponent(i, j, k) == 0}
    dec = set()
    for i, j, k, _, e in fam.decaying():
        assert e > 0
        dec.add((i, j, k))
    assert surv.isdisjoint(dec)
    assert surv | dec == {(i, j, k) for i, j, k, _ in fam.sc.nonzero()}
    lim = fam.limit()
    assert {(i, j, k) for i, j, k, _ in lim.nonzero()} == surv
    assert lim.killing_det() == 0
    assert lim.classify() == "non-semisimple (mixed)"


def test_numeric_contraction_check_is_tiny():
    ent = catalog_entry("so21")
    rel = numeric_contraction_check(ent.algebra, ent.weights, 1e-3)
    assert rel <= 1e-9


def _refit_cases():
    """Every algebra the CLI contracts, with the weights its goldens use."""
    from qsetalg.yang import PRESETS, build_yang, toy_frame

    fixed = {"so3": (0, 1, 1), "h1": (1, 1, 1)}
    for key, ent in catalog().items():
        yield key, ent.algebra, ent.weights or fixed[key]
    yield "toy", toy_frame(), (HALF, HALF, 1)
    for preset in sorted(PRESETS):
        fr = build_yang(preset)
        yield preset, fr.algebra, fr.family().weights


@pytest.mark.parametrize("eps", [1e-3, 1 / 7, 3.0, -1 / 100, 1e-8])
def test_batched_refit_matches_the_per_bracket_loop(eps):
    # at 1e-8 the basis of an algebra whose weights spread by 1 has condition
    # number 1e8, past the refit's bound; so21, h1 and toy still resolve
    refused = {"so3", "so4", "3-3", "4-2", "5-1"} if eps == 1e-8 else set()
    for key, alg, weights in _refit_cases():
        if key in refused:
            with pytest.raises(ContractionError, match=r"cannot resolve eps=1e-08: condition number 1e\+08"):
                numeric_contraction_check(alg, weights, eps)
            continue
        got, want = numeric_contraction_check(alg, weights, eps), reference_refit(alg, weights, eps)
        assert abs(got - want) <= 1e-15, key


def test_refit_floats_equal_the_frozen_ones():
    # recorded by tests/oracles/refit_values.py; == rather than a tolerance
    frozen = load_oracle("refit_values")
    assert sorted(frozen) == sorted(key for key, _, _ in _refit_cases())
    for key, alg, weights in _refit_cases():
        got = {text: numeric_contraction_check(alg, weights, float(text)) for text in frozen[key]}
        assert got == frozen[key], key


def test_refit_divides_past_2_53_as_python_does():
    # 3s / 2s is exactly 1.5, but float(3s) / float(2s) is not: the refit of
    # 1.5 so(3) written over a scale past 2^60 equals the refit over scale 2
    s = 2**60 + 86
    assert float(3 * s) / float(2 * s) != 1.5
    small = MatrixAlgebra("so3x3/2", [[[3 * x for x in row] for row in m] for m in rotation3().matrices], 2)
    big = MatrixAlgebra("so3x3/2", [[[3 * s * x for x in row] for row in m] for m in rotation3().matrices], 2 * s)
    assert big.structure_constants().table == small.structure_constants().table
    for eps in (1e-3, 1 / 7, 3.0, -1 / 100):
        assert numeric_contraction_check(big, (0, 1, 1), eps) == numeric_contraction_check(small, (0, 1, 1), eps)


def test_rotation_boost6_is_so4_sized():
    alg = rotation_boost6()
    assert alg.dim == 6
    sc = alg.structure_constants()
    assert sc.classify() == "semisimple"
    assert str(sc.killing_det()) == load_oracle("oracle_killing")["so4"]


# -- int64 bounds: huge constants take the Python-int route ------------------


def _ref_jacobi(c):
    n = len(c)
    worst = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = sum(
                        c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l] + c[k][i][m] * c[m][j][l]
                        for m in range(n)
                    )
                    worst = max(worst, abs(s))
    return worst


def _ref_killing(c):
    n = len(c)
    return tuple(
        tuple(sum(c[i][m][l] * c[j][l][m] for l in range(n) for m in range(n)) for j in range(n))
        for i in range(n)
    )


def _assert_exact(sc):
    assert sc.jacobi_defect() == _ref_jacobi(sc.c)
    assert sc.killing_form() == _ref_killing(sc.c)


def test_contraction_at_tiny_eps_matches_the_fraction_table():
    ent = catalog_entry("so21")
    base = ent.algebra.structure_constants()
    fam = ContractionFamily(base, ent.weights)
    eps = Fraction(1, 2 ** 40)
    sc = fam.at(eps)
    n = base.dim
    want = tuple(
        tuple(tuple(base.c[i][j][k] * eps ** int(fam.exponent(i, j, k)) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert sc.c == want
    _assert_exact(sc)


def test_contraction_at_one_third_matches_the_fraction_table():
    from qsetalg.yang import build_yang

    fam = build_yang("5-1").family()
    eps = Fraction(1, 3)
    sc = fam.at(eps)
    base, n = fam.sc, fam.sc.dim
    want = tuple(
        tuple(tuple(base.c[i][j][k] * eps ** int(fam.exponent(i, j, k)) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert sc.c == want


def test_so3_scaled_by_2_to_the_40_scales_its_constants_exactly():
    big = 2 ** 40
    alg = MatrixAlgebra("so3-big", *int_scaled([smul(big, m) for m in rotation3().basis]))
    sc = alg.structure_constants()
    plain = rotation3().structure_constants()
    assert sc.c == tuple(
        tuple(tuple(big * x for x in row) for row in plane) for plane in plain.c
    )
    _assert_exact(sc)


# ---------------------------------------------------------------------------
# integer stacks: the one constructor, lazy Fraction views, integer Killing determinant


def test_the_basis_view_scales_back_to_the_same_stack():
    for ent in catalog().values():
        alg = ent.algebra
        again = MatrixAlgebra(alg.name, *int_scaled(alg.basis), labels=alg.labels)
        assert again.scale == alg.scale and again.matrices == alg.matrices
        a, b = alg.structure_constants(), again.structure_constants()
        assert a.D == b.D and a.table == b.table


def test_constructor_rejects_a_dependent_stack_with_its_message():
    stack = np.array([np.eye(2, dtype=np.int64), 2 * np.eye(2, dtype=np.int64)])
    with pytest.raises(ValueError, match=r"^basis of dep is linearly dependent$"):
        MatrixAlgebra("dep", stack, 3)
    with pytest.raises(ValueError, match=r"^basis of dep is linearly dependent$"):
        MatrixAlgebra("dep", *int_scaled([((1, 0), (0, 1)), ((2, 0), (0, 2))]))
    with pytest.raises(ValueError, match="square"):
        MatrixAlgebra("flat", np.zeros((2, 2, 3), dtype=np.int64), 1)
    with pytest.raises(ValueError, match="empty basis"):
        MatrixAlgebra("none", np.zeros((0, 2, 2), dtype=np.int64), 1)


def test_structure_constants_reduce_c_over_d_to_lowest_terms():
    sc = StructureConstants(2, {(0, 1): {0: 0, 1: 6}}, -4, labels=("a", "b"))
    assert sc.D == 2 and sc.table == {(0, 1): {1: -3}}
    assert sc.nonzero() == [(0, 1, 1, Fraction(-3, 2))]
    for bad in ({(1, 0): {0: 1}}, {(0, 0): {0: 1}}, {(0, 1): {2: 1}}):
        with pytest.raises(ValueError, match="pairs i < j < n and indices k < n"):
            StructureConstants(2, bad)


@pytest.mark.parametrize("table", [{(0, 1): {0: 3}}, {}])
def test_structure_constants_refuse_a_zero_denominator(table):
    # a zero D would rescale the entry 3 to 1, or divide by 0
    with pytest.raises(ValueError, match="nonzero denominator"):
        StructureConstants(2, table, 0)


@pytest.mark.parametrize("scale", [0, -2, 2.0, True, Fraction(1, 2), np.int64(2)])
def test_matrix_algebras_refuse_a_scale_that_is_not_a_positive_int(scale):
    # a scale of 0 would build an algebra whose structure constants divide by 0
    gs = build_gammas(2, 0)
    with pytest.raises(ValueError, match="must be a positive int"):
        MatrixAlgebra("x", rotation3().matrices, scale)
    with pytest.raises(ValueError, match="must be a positive int"):
        MatrixAlgebra.of_points("x", gs.points, gs.dim, scale)


def test_a_non_closing_stack_raises_closure_error():
    sx_sz = np.array([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], dtype=np.int64)
    with pytest.raises(ClosureError):
        MatrixAlgebra("open", sx_sz, 2).structure_constants()


def test_fraction_views_are_built_on_first_read():
    alg = rotation_boost6()
    sc = alg.structure_constants()
    assert "basis" not in vars(alg) and "c" not in vars(sc)
    sc.killing_det(), sc.classify(), sc.nonzero()
    numeric_contraction_check(alg, catalog_entry("so4").weights, 1e-3)
    assert "basis" not in vars(alg) and "c" not in vars(sc)
    assert alg.basis == tuple(
        tuple(tuple(Fraction(int(x), 2) for x in row) for row in m) for m in alg.matrices
    )
    assert sc.c[0][1][2] == Fraction(sc.bracket(0, 1).get(2, 0), sc.D)


def _killing_cases():
    from qsetalg.yang import PRESETS, build_yang, toy_frame

    algs = [ent.algebra for ent in catalog().values()] + [toy_frame()]
    algs += [build_yang(p).algebra for p in sorted(PRESETS)]
    weights = {"so3": (0, 1, 1), "h1": (1, 1, 1), "toy": (HALF, HALF, 1), "so21": (HALF, HALF, 1),
               "so4": (0,) * 3 + (1,) * 3}
    for alg in algs:
        sc = alg.structure_constants()
        fam = ContractionFamily(sc, weights.get(alg.name, (0,) * 6 + (HALF,) * 8 + (1,)))
        yield alg.name, sc
        yield f"{alg.name} limit", fam.limit()
        yield f"{alg.name} at 2^-40", fam.at(Fraction(1, 2 ** 40))


KILLING_CASES = dict(_killing_cases())


@pytest.mark.parametrize("name", list(KILLING_CASES))
def test_integer_killing_det_equals_det_of_the_fraction_form(name):
    sc = KILLING_CASES[name]
    ints, den = int_scaled(sc.killing_form())
    assert sc.killing_det() == linalg.det(ints.tolist(), den)


# -- a basis whose Gram matrix is not diagonal goes through the span ----------


def _fraction_constants(basis):
    """c_ijk of Fraction matrices by the Fraction route: each commutator's
    coordinates solve the normal equations G x = (<b_a, [b_i, b_j]>) by
    Gauss-Jordan, and must rebuild the commutator exactly."""
    from helpers import commutator

    def dot(a, b):
        return sum(x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    n = len(basis)
    table = []
    for i in range(n):
        plane = []
        for j in range(n):
            k_ij = commutator(basis[i], basis[j])
            rows = [[dot(a, b) for b in basis] + [dot(a, k_ij)] for a in basis]
            for c in range(n):
                p = next(r for r in range(c, n) if rows[r][c])
                rows[c], rows[p] = rows[p], rows[c]
                rows[c] = [x / rows[c][c] for x in rows[c]]
                for r in range(n):
                    if r != c:
                        rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
            x = [row[n] for row in rows]
            rebuilt = tuple(
                tuple(sum(x[k] * basis[k][r][s] for k in range(n)) for s in range(len(k_ij))) for r in range(len(k_ij))
            )
            assert rebuilt == k_ij
            plane.append(tuple(x))
        table.append(tuple(plane))
    return tuple(table)


def _sheared(basis, rows):
    """The Fraction matrices sum_k rows[a][k] basis[k], one per row."""
    return [
        tuple(tuple(sum(w * m[r][s] for w, m in zip(row, basis)) for s in range(len(basis[0]))) for r in range(len(basis[0])))
        for row in rows
    ]


def test_a_sheared_basis_goes_through_the_span_and_matches_the_fraction_route():
    x1, x2, x3 = boost_triple().basis
    sheared = _sheared((x1, x2, x3), ((1, 0, 0), (1, 1, 0), (0, 0, 1)))
    alg = MatrixAlgebra("so21-sheared", *int_scaled(sheared), labels=("a", "b", "c"))
    inv = alg._solver.a
    assert any(inv[a][b] for a in range(3) for b in range(3) if a != b)  # inv(G) is not diagonal
    sc = alg.structure_constants()
    assert sc.c == _fraction_constants(sheared)
    assert sc.jacobi_defect() == 0
    # the Killing determinant scales by det(P)^2 = 1 under the shear P
    assert sc.killing_det() == Fraction(load_oracle("oracle_killing")["so21"])
    assert sc.classify() == "semisimple"


def test_a_sheared_dependent_or_open_basis_is_refused():
    x1, x2, x3 = boost_triple().basis
    dependent = _sheared((x1, x2, x3), ((1, 0, 0), (1, 1, 0), (2, 1, 0)))
    with pytest.raises(ValueError, match=r"^basis of so21-dep is linearly dependent$"):
        MatrixAlgebra("so21-dep", *int_scaled(dependent))
    open_pair = _sheared((x1, x2, x3), ((1, 0, 0), (1, 1, 0)))
    alg = MatrixAlgebra("so21-open", *int_scaled(open_pair))
    assert alg._solver.a[0][1] != 0
    with pytest.raises(ClosureError):
        alg.structure_constants()
