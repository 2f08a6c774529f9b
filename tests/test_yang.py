from fractions import Fraction

import numpy as np
import pytest

from qsetalg.liecore import boost_triple, rotation_boost6
from qsetalg.yang import (
    ACCUMULATION_PRESETS,
    PRESETS,
    UnitTag,
    accumulate_coordinate,
    accumulate_preset,
    build_yang,
    contract_to_hp,
    gauge_defect,
    total_matrix,
    toy_frame,
    unit_tags,
)

from helpers import load_oracle

from functools import lru_cache


@lru_cache(maxsize=None)
def _frame(preset):
    return build_yang(preset)


def test_toy_triple_equals_the_ladder_construction():
    toy = toy_frame().structure_constants()
    ladder = boost_triple().structure_constants()
    assert toy.labels == ladder.labels
    assert toy.c == ladder.c


def test_presets_cover_three_signatures():
    assert set(PRESETS) == {"4-2", "3-3", "5-1"}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_full_frames_close_with_vanishing_defects(preset):
    fr = _frame(preset)
    sc = fr.structure_constants()
    assert sc.dim == 15
    assert np.array_equal(sc.C, -sc.C.transpose(1, 0, 2))
    assert sc.jacobi_defect() == 0
    assert sc.classify() == "semisimple"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_killing_determinants_match_sympy(preset):
    fr = _frame(preset)
    frozen = load_oracle("oracle_killing")
    assert str(fr.structure_constants().killing_det()) == frozen[f"yang-{preset}"]


def test_mu_signatures():
    assert _frame("4-2").mu_signature() == (4, 0)
    assert _frame("3-3").mu_signature() == (3, 1)
    assert _frame("5-1").mu_signature() == (4, 0)


def test_labels_partition():
    fr = _frame("4-2")
    labels = fr.labels
    assert labels[:6] == ("L12", "L13", "L14", "L23", "L24", "L34")
    assert labels[6:10] == ("x1", "x2", "x3", "x4")
    assert labels[10:14] == ("p1", "p2", "p3", "p4")
    assert labels[14] == "z"


def test_weights_are_half_integer_staircase():
    fr = _frame("4-2")
    assert fr.weights == (Fraction(0),) * 6 + (Fraction(1, 2),) * 8 + (Fraction(1),)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_contraction_reaches_the_flat_target(preset):
    fr = _frame(preset)
    fam, target = contract_to_hp(fr)
    assert target.central_charge
    assert target.coordinates_commute
    assert target.momenta_commute
    assert target.heisenberg_pairing
    assert target.killing_degenerate
    assert target.all_hold()
    assert target.constants.killing_det() == 0
    assert target.constants.classify() == "non-semisimple (mixed)"
    for _, _, _, _, e in fam.describe():
        assert e == int(e) and e >= 0


def test_gauge_defect_is_half_eps_exactly():
    fr = _frame("4-2")
    for root in (10, 100, 1000):
        rep = gauge_defect(fr, Fraction(1, root))
        n = root * root
        assert rep.eps == Fraction(1, n)
        assert rep.worst == Fraction(1, 2 * n)
    assert len(rep.by_pair) == 20


def test_gauge_defect_matches_float_oracle_within_measure_change():
    # the frozen oracle measures refit coefficients, the package measures
    # matrix entries; generators have entries +-1/2, so the two differ by 2
    frozen = load_oracle("oracle_scaling")
    fr = _frame("4-2")
    for n_text, worst_coeff in frozen["yang_defect_worst"].items():
        root = int(float(n_text) ** 0.5)
        rep = gauge_defect(fr, Fraction(1, root))
        assert abs(float(rep.worst) * 2 - worst_coeff) < 1e-9
    for ratio in frozen["yang_defect_ratios"]:
        assert abs(ratio - 1e-2) < 1e-12


def test_decay_is_linear_in_eps():
    frozen = load_oracle("oracle_scaling")["so21_decay"]
    assert abs(frozen["0.001"] - 1e-3) < 1e-12
    assert abs(frozen["1e-06"] - 1e-6) < 1e-12


def test_unit_tags_compose():
    tags = unit_tags()
    assert tags["coordinate"] * tags["momentum"] == tags["action"]
    assert str(tags["action"]) == "N^-1*ebar*xbar"
    assert str(tags["coordinate"]) == "N^-1/2*xbar"


def test_unit_tag_still_resolves_from_yang_and_palev():
    from qsetalg import palev, scalars, yang

    assert yang.UnitTag is scalars.UnitTag
    assert palev.UnitTag is scalars.UnitTag


def test_unit_tag_algebra():
    a = UnitTag.single("u")
    b = UnitTag.single("v") ** 2
    assert str(a * b) == "u*v^2"
    assert str(b / a) == "u^-1*v^2"
    assert (a * a) ** Fraction(1, 2) == a
    assert (a / a).is_one()
    assert UnitTag.one().is_one()
    assert str(a ** Fraction(3, 2)) == "u^3/2"


def test_accumulation_spectra_match_oracle():
    frozen = load_oracle("oracle_spectra")
    for n in range(1, 9):
        for square in (1, -1):
            res = accumulate_coordinate(n, square)
            assert [list(t) for t in res.spectrum] == frozen[str(n)]
            assert sum(m for _, m in res.spectrum) == 2 ** n


def test_accumulation_against_live_eigenvalues():
    for n in (1, 3, 5):
        m = total_matrix(n, 1)
        vals = np.linalg.eigvalsh(m.astype(float))
        got = np.round(vals).astype(int)
        want = [lvl for lvl, mult in accumulate_coordinate(n, 1).spectrum for _ in range(mult)]
        assert sorted(got.tolist()) == sorted(want)


def test_accumulation_units():
    res = accumulate_coordinate(3, -1)
    assert str(res.unit) == "i*lstep"
    assert res.square == -1


def test_accumulation_presets():
    out = accumulate_preset("feynman", 2)
    assert set(out) == {"s1", "s2", "s3", "t"}
    assert out["t"].square == -1
    assert out["s1"].square == 1
    with pytest.raises(ValueError):
        accumulate_preset("nosuch", 2)
    assert set(ACCUMULATION_PRESETS) == {"penrose", "feynman"}


def test_accumulation_guards():
    with pytest.raises(ValueError):
        accumulate_coordinate(0)
    with pytest.raises(ValueError):
        accumulate_coordinate(13)
    with pytest.raises(ValueError):
        accumulate_coordinate(3, square=2)


def test_bad_preset_rejected():
    with pytest.raises(ValueError):
        build_yang("6-0")


def _slot_pairs():
    """Direction-slot pairs (a, b) of M(a, b) in the frame's label order."""
    rot = [(mu, nu) for mu in range(1, 5) for nu in range(mu + 1, 5)]
    return rot + [(5, mu) for mu in range(1, 5)] + [(6, mu) for mu in range(1, 5)] + [(6, 5)]


def _closed_form_constants(eta):
    """[M(a,b), M(c,d)] = eta_bc M(a,d) - eta_ac M(b,d) - eta_bd M(a,c)
    + eta_ad M(b,c), from the direction metric alone."""
    pairs = _slot_pairs()
    index = {}
    for k, (a, b) in enumerate(pairs):
        index[(a, b)] = (k, 1)
        index[(b, a)] = (k, -1)
    n = len(pairs)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]

    def g(x, y):
        return eta[x - 1] if x == y else 0

    for i, (a, b) in enumerate(pairs):
        for j, (cc, d) in enumerate(pairs):
            for coeff, x, y in ((g(b, cc), a, d), (-g(a, cc), b, d), (-g(b, d), a, cc), (g(a, d), b, cc)):
                if coeff and x != y:
                    k, sign = index[(x, y)]
                    c[i][j][k] += coeff * sign
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_constants_match_the_closed_form_bracket(preset):
    plus, minus = (int(x) for x in preset.split("-"))
    eta = (1,) * plus + (-1,) * minus
    fr = _frame(preset)
    assert fr.eta6 == eta
    assert fr.structure_constants().c == _closed_form_constants(eta)


def _ref_gauge_rows(basis, weights, labels, lim, eps_sqrt):
    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    xs = [[[eps_sqrt ** int(2 * w) * x for x in row] for row in m] for m, w in zip(basis, weights)]
    rows = []
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            ab, ba = mul(xs[i], xs[j]), mul(xs[j], xs[i])
            d = [
                [ab[r][s] - ba[r][s] - sum(lim[i][j][k] * xs[k][r][s] for k in range(n)) for s in range(len(ab))]
                for r in range(len(ab))
            ]
            m = max(abs(x) for row in d for x in row)
            if m:
                rows.append((labels[i], labels[j], m))
    return tuple(rows)


def test_gauge_defect_on_a_huge_basis_takes_the_python_int_route(numpy_dtypes):
    from types import SimpleNamespace

    from qsetalg import linalg
    from qsetalg.liecore import ContractionFamily, MatrixAlgebra, catalog
    from helpers import smul

    ent = catalog()["so21"]
    big = linalg.int_scaled([smul(2 ** 31, m) for m in ent.algebra.basis])
    alg = MatrixAlgebra("so21-big", *big, labels=ent.algebra.labels)
    frame = SimpleNamespace(
        algebra=alg, weights=ent.weights, labels=alg.labels, structure_constants=alg.structure_constants
    )
    lim = ContractionFamily(alg.structure_constants(), ent.weights).limit()
    eps_sqrt = Fraction(-3, 7)
    numpy_dtypes["matmul"].clear()
    rep = gauge_defect(frame, eps_sqrt)
    assert any(np.dtype(object) in dtypes for dtypes in numpy_dtypes["matmul"])
    want = _ref_gauge_rows(alg.basis, ent.weights, alg.labels, lim.c, eps_sqrt)
    assert rep.by_pair == want
    assert rep.worst == max(m for _, _, m in want)
    assert rep.eps == eps_sqrt * eps_sqrt


@pytest.mark.parametrize(
    "build",
    [*(lambda p=p: build_yang(p) for p in sorted(PRESETS)), toy_frame, rotation_boost6],
    ids=[*sorted(PRESETS), "toy", "so4"],
)
def test_a_frame_gathers_its_generators_in_one_antisym_call(monkeypatch, build):
    from qsetalg.cliff import GammaSet

    calls = []
    real = GammaSet.antisym
    monkeypatch.setattr(GammaSet, "antisym", lambda gs, pairs: calls.append(1) or real(gs, pairs))
    build()
    assert len(calls) == 1


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_frame_commutators_take_the_float64_route(numpy_dtypes, preset):
    alg = build_yang(preset).algebra
    i, j = np.triu_indices(alg.dim, 1)
    a, b = alg.stack[i].astype(object), alg.stack[j].astype(object)
    numpy_dtypes["matmul"].clear()
    comm = alg.commutators()
    assert numpy_dtypes == {"einsum": [], "matmul": [[np.dtype(np.float64)] * 2]}
    assert comm.dtype == np.int64
    assert comm.tolist() == (a @ b - b @ a).tolist()


FRAME_OPS = {
    "structure": lambda fr: fr.structure_constants(),
    "jacobi": lambda fr: fr.structure_constants().jacobi_defect(),
    "killing": lambda fr: fr.structure_constants().killing_det(),
    "classify": lambda fr: fr.structure_constants().classify(),
    "contract": lambda fr: contract_to_hp(fr),
    "gauge": lambda fr: gauge_defect(fr, Fraction(1, 10 ** 6)),
}


@pytest.mark.parametrize("op", sorted(FRAME_OPS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_frame_operations_stay_in_integer_arrays(monkeypatch, preset, op):
    """No Fraction round trip from the gamma products to the result."""
    from qsetalg import linalg

    calls = []
    for name in ("int_scaled", "from_scaled"):
        monkeypatch.setattr(linalg, name, lambda *args, _name=name: calls.append(_name))
    FRAME_OPS[op](build_yang(preset))
    assert calls == []
