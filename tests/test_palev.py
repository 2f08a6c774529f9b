from fractions import Fraction
from math import factorial

import pytest
import sympy as sp

from qsetalg import palev
from qsetalg.cli import main
from qsetalg.liecore import boost_triple
from qsetalg.palev import (
    NCPolynomial,
    PalevMode,
    QuadExt,
    REWRITE_PRESETS,
    RewriteSystem,
    bose_deviation,
    carrier_triple,
    evaluate_nc,
    normal_order,
)

from helpers import commutator, load_oracle, madd, msub, smul


# -- quadratic extension scalars --------------------------------------------


def test_quadext_square_factor_collapses():
    assert QuadExt(0, 1, 4) == QuadExt(2)
    assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
    assert QuadExt(0, 1, 18) == QuadExt(0, 3, 2)
    assert QuadExt(0, Fraction(1, 2), 1) == QuadExt(Fraction(1, 2))


def test_quadext_arithmetic():
    r2 = QuadExt(0, 1, 2)
    assert r2 * r2 == QuadExt(2)
    assert (QuadExt(1, 1, 2)) * (QuadExt(1, -1, 2)) == QuadExt(-1)
    x = QuadExt(3, 2, 5)
    assert x * x.inverse() == QuadExt(1)
    assert x / x == QuadExt(1)
    assert x - x == QuadExt(0)
    assert float(r2) == pytest.approx(2 ** 0.5)


def test_quadext_is_immutable():
    x = QuadExt(1, 1, 2)
    with pytest.raises(AttributeError):
        x.a = 5


def test_quadext_mixed_radicals_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    # rational values mix with anything
    assert QuadExt(2) + QuadExt(0, 1, 3) == QuadExt(2, 1, 3)


# -- capped modes ------------------------------------------------------------


def test_mode_shapes_and_bounds():
    m = PalevMode(4)
    assert m.dim == 5
    assert m.j == 2
    with pytest.raises(ValueError):
        PalevMode(0)
    with pytest.raises(ValueError):
        PalevMode(4097)


def test_commutator_diagonal_matches_float_oracle():
    frozen = load_oracle("oracle_modes")["commutator_diag"]
    for two_j_text, diag in frozen.items():
        m = PalevMode(int(two_j_text))
        got = m.ladder_commutator_diagonal()
        assert len(got) == m.dim
        for a, b in zip(got, diag):
            assert float(a) == pytest.approx(b, abs=1e-9)


def test_ground_commutator_is_exactly_bosonic():
    for two_j in (1, 2, 7, 64):
        assert PalevMode(two_j).ground_commutator_value() == 1


def test_deviation_grows_linearly_with_level():
    m = PalevMode(6)
    for n in range(m.dim):
        assert m.bose_deviation(n) == Fraction(n, 3)
    assert bose_deviation(6, 2) == Fraction(2, 3)


def test_deviation_halves_when_capacity_doubles():
    frozen = load_oracle("oracle_modes")["deviation_at_1"]
    prev = None
    for two_j in (16, 32, 64, 128):
        dev = bose_deviation(two_j, 1)
        assert dev == Fraction(2, two_j)
        assert float(dev) == pytest.approx(frozen[str(two_j)], abs=1e-12)
        if prev is not None:
            assert dev / prev == Fraction(1, 2)
        prev = dev


def test_exclusion_matches_float_oracle():
    frozen = load_oracle("oracle_modes")["exclusion"]
    for two_j_text, row in frozen.items():
        at_n, beyond = PalevMode(int(two_j_text)).exclusion_report()
        assert float(at_n) == pytest.approx(row["norm_at_capacity"])
        assert beyond == 0
        assert row["norm_beyond"] == 0


def test_charge_diagonal():
    m = PalevMode(4)
    for k in range(m.dim):
        assert m.charge[k][k] == 2 * k - 4


@pytest.mark.parametrize("n", range(1, 33))
def test_closed_form_charge_is_the_ladder_commutator(n):
    m = PalevMode(n)
    assert m.charge == commutator(m.raise_op, m.lower_op)


# -- carrier triples ---------------------------------------------------------


@pytest.mark.parametrize("preset", ["spin3", "spin21"])
def test_carrier_relations_hold(preset):
    triple, checks = carrier_triple(PalevMode(2), preset)
    assert triple.preset == preset
    assert checks and all(checks.values())
    assert len(triple.tags) == 3


def test_carrier_bad_preset():
    with pytest.raises(ValueError):
        carrier_triple(PalevMode(2), "nosuch")


@pytest.mark.parametrize("preset", ["spin3", "spin21"])
@pytest.mark.parametrize("n", range(1, 9))
def test_carrier_parts_equal_the_fraction_construction(n, preset):
    m = PalevMode(n)
    a, b, z = m.raise_op, m.lower_op, m.charge
    half = Fraction(1, 2)
    if preset == "spin3":
        want = (madd(a, b), msub(a, b), smul(-1, z))
    else:
        want = (smul(half, z), smul(half, msub(a, b)), smul(half, madd(a, b)))
    triple, checks = carrier_triple(m, preset)
    assert (triple.q, triple.p, triple.r) == want
    assert all(checks.values())
    m._charge = 2 * m._charge  # a wrong charge breaks every relation that involves it
    _, checks = carrier_triple(m, preset)
    assert not any(checks.values())


def test_rewrite_budget_is_bad_input_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(palev, "_MAX_REWRITE_STEPS", 50)
    with pytest.raises(palev.RewriteBudgetError, match="budget of 50 rewrite steps"):
        normal_order(NCPolynomial.word(*"ppppqqqq"), "h1")
    assert issubclass(palev.RewriteBudgetError, ValueError)
    word = ",".join("p" * 7 + "q" * 7)
    code = main(["palev", "normal-order", "--system", "h1", "--word", word])
    out = capsys.readouterr()
    assert code == 2
    assert len(out.out.splitlines()) == 1 and out.out.startswith("# qsetalg palev |")
    assert out.err.startswith("error: normal ordering exceeded the budget of 50")


# -- normal ordering ---------------------------------------------------------


def test_presets_exist():
    assert set(REWRITE_PRESETS) == {"h1", "spin21", "spin3"}
    for sys_ in REWRITE_PRESETS.values():
        assert isinstance(sys_, RewriteSystem)


def test_known_reordering():
    poly = NCPolynomial.word("p", "q", "q")
    out = normal_order(poly, "h1")
    hbar = sp.Symbol("hbar", positive=True)
    want = NCPolynomial.word("q", "q", "p") + NCPolynomial.word(
        "q", coeff=-2 * sp.I * hbar
    )
    assert out == want


def test_normal_order_is_idempotent():
    poly = NCPolynomial.word("p", "p", "q") + 3 * NCPolynomial.word("q", "p")
    once = normal_order(poly, "h1")
    assert normal_order(once, "h1") == once


def test_normal_order_rejects_unknown_generators():
    with pytest.raises(ValueError):
        normal_order(NCPolynomial.word("a", "b"), "h1")


def test_spin21_reordering_preserved_by_matrices():
    basis = boost_triple().basis
    assignment = {
        name: sp.Matrix([[sp.Rational(x) for x in row] for row in m])
        for name, m in zip(("q", "p", "r"), basis)
    }
    poly = NCPolynomial.word("p", "r", "q") + 2 * NCPolynomial.word("r", "q")
    ordered = normal_order(poly, "spin21")
    assert evaluate_nc(poly, assignment) == evaluate_nc(ordered, assignment)


def test_spin3_reordering_preserved_by_matrices():
    half = sp.Rational(1, 2)
    jx = half * sp.Matrix([[0, 1], [1, 0]])
    jy = half * sp.Matrix([[0, -sp.I], [sp.I, 0]])
    jz = half * sp.Matrix([[1, 0], [0, -1]])
    assignment = {"jx": jx, "jy": jy, "jz": jz}
    poly = NCPolynomial.word("jz", "jy", "jx")
    ordered = normal_order(poly, "spin3")
    assert evaluate_nc(poly, assignment) == evaluate_nc(ordered, assignment)


def test_polynomial_algebra():
    a = NCPolynomial.word("x")
    b = NCPolynomial.word("y")
    prod = a * b
    assert prod != b * a
    assert (a + b) * a == a * a + b * a
    assert (a - a).is_zero()
    two_a = 2 * a
    assert two_a == a + a


@pytest.mark.parametrize("two_j", range(1, 33))
def test_exclusion_past_int64_is_exact(two_j):
    # adag^N has the entry N!, past 2^63 from N = 21 on
    report = PalevMode(two_j).exclusion_report()
    assert report == (factorial(two_j), 0)
    assert all(type(x) is Fraction for x in report)
