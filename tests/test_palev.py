import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import sympy as sp

from qsetalg import palev
from qsetalg.cli import main
from qsetalg.liecore import boost_triple
from qsetalg.palev import (
    MAX_CAPACITY,
    NCPolynomial,
    PalevMode,
    QiHbar,
    REWRITE_PRESETS,
    bose_deviation,
    carrier_triple,
    evaluate_nc,
    normal_order,
)

from helpers import (
    commutator,
    dense_commutator,
    load_oracle,
    madd,
    mode_matrices,
    mode_vectors,
    msub,
    smul,
    sympy_nc_text,
    sympy_normal_order,
    sympy_rewrite_rules,
)

HBAR = sp.Symbol("hbar", positive=True)


def weyl_closed_form(k: int) -> NCPolynomial:
    """p^k q^k = sum_j j! C(k,j)^2 (-i hbar)^j q^{k-j} p^{k-j} in the Weyl
    algebra [p, q] = -i hbar (Blasiak et al., Am. J. Phys. 75 (2007))."""
    minus_i_hbar = QiHbar({1: (0, -1)})
    terms = {}
    for j in range(k + 1):
        c = QiHbar({0: (factorial(j) * comb(k, j) ** 2, 0)})
        for _ in range(j):
            c = c * minus_i_hbar
        terms[("q",) * (k - j) + ("p",) * (k - j)] = c
    return NCPolynomial(terms)


# -- capped modes ------------------------------------------------------------


def test_mode_shapes_and_bounds():
    m = PalevMode(4)
    assert m.dim == 5
    assert m.j == 2
    with pytest.raises(ValueError):
        PalevMode(0)


def test_a_capacity_is_an_int_proper():
    with pytest.raises(ValueError, match="two_j must be a positive integer"):
        PalevMode(True)


def test_capacity_limit():
    assert MAX_CAPACITY == 4096
    assert PalevMode(MAX_CAPACITY).dim == MAX_CAPACITY + 1
    with pytest.raises(ValueError, match=f"capacity {MAX_CAPACITY + 1} is past"):
        PalevMode(MAX_CAPACITY + 1)


@pytest.mark.parametrize("what", ["ladder", "deviation", "exclusion", "carriers"])
def test_capacity_past_the_limit_is_bad_input_exit_two(capsys, what):
    code = main(["palev", what, "--capacity", str(MAX_CAPACITY + 1)])
    out = capsys.readouterr()
    assert code == 2
    assert len(out.out.splitlines()) == 1 and out.out.startswith("# qsetalg palev |")
    assert out.err.splitlines() == [f"error: capacity {MAX_CAPACITY + 1} is past the largest supported capacity, {MAX_CAPACITY}"]


# The peak is read as VmHWM, the high-water mark of this process's own
# memory: Linux carries the ru_maxrss of the process that called exec over
# into the new program, so a child started from the test process would
# report at least the test process's size.
LARGEST_MODE = """
from fractions import Fraction
from qsetalg.palev import PalevMode, carrier_triple
mode = PalevMode(4096)
for preset in ("spin3", "spin21"):
    _, checks = carrier_triple(mode, preset)
    assert all(checks.values()), preset
assert mode.exclusion_report()[1] == 0
assert all(mode.bose_deviation(n) == Fraction(2 * n, 4096) for n in range(mode.dim))
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def test_largest_mode_builds_no_square_array():
    # a dense (N + 1)^2 int64 array at N = 4096 is 134 MB on its own
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", LARGEST_MODE], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100 * 1024  # KiB


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
        assert mode_matrices(m)[2][k][k] == 2 * k - 4


@pytest.mark.parametrize("two_j", [1, 2, 5, 12])
def test_exclusion_report_is_the_power_of_the_raising_matrix(two_j):
    # exclusion_report reads its weights from a range, and the hand-built
    # ladder of helpers.mode_vectors from np.arange: both must give the same A
    m = PalevMode(two_j)
    a = np.diag(mode_vectors(m)[0], -1)
    at_n = np.linalg.matrix_power(a, two_j)
    beyond = np.linalg.matrix_power(a, two_j + 1)
    assert m.exclusion_report() == (Fraction(int(abs(at_n).max())), Fraction(int(abs(beyond).max())))


@pytest.mark.parametrize("n", range(1, 33))
def test_closed_form_charge_is_the_ladder_commutator(n):
    m = PalevMode(n)
    a, b, z = mode_matrices(m)
    assert z == commutator(a, b)


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
    a, b, z = mode_matrices(m)
    half = Fraction(1, 2)
    if preset == "spin3":
        want = (madd(a, b), msub(a, b), smul(-1, z))
    else:
        want = (smul(half, z), smul(half, msub(a, b)), smul(half, madd(a, b)))
    triple, checks = carrier_triple(m, preset)
    assert (triple.q, triple.p, triple.r) == want
    q, p, r = (repr(x) for x in want)
    assert repr(triple).startswith(f"CarrierTriple(preset={preset!r}, q={q}, p={p}, r={r}, tags=(")
    assert all(checks.values())
    # a wrong charge breaks every relation that involves it: Z is r in
    # spin3 and q in spin21
    q, p, r = triple.parts
    q, p, r = (q, p, scaled(2, r)) if preset == "spin3" else (scaled(2, q), p, r)
    assert not any(palev._relation_holds(x, y, w) for x, y, w in ((q, p, r), (p, r, q), (q, r, p)))


def carrier_parts(n, preset):
    triple, _ = carrier_triple(PalevMode(n), preset)
    return triple.parts


def scaled(c, band):
    return {o: tuple(c * x for x in v) for o, v in band.items()}


def bend(band, o, i, by):
    """The band with entry (i, i + o) moved by `by`, diagonal o added if absent."""
    v = list(band.get(o, (0,) * len(next(iter(band.values())))))
    v[i] += by
    return {**band, o: tuple(v)}


def dense(band):
    """The matrix of a band: M[i, i + o] = band[o][i]."""
    d = len(next(iter(band.values())))
    m = np.zeros((d, d), dtype=np.int64)
    for o, v in band.items():
        for i in range(max(-o, 0), d - max(o, 0)):
            m[i, i + o] = v[i]
    return m


@pytest.mark.parametrize("preset", ["spin3", "spin21"])
def test_band_relations_match_the_dense_commutator(preset):
    rng = random.Random(f"bands:{preset}")
    for n in (1, 2, 3, 7, 16):
        q, p, r = carrier_parts(n, preset)
        for x, y, w in ((q, p, r), (p, r, q), (q, r, p)):
            assert palev._relation_holds(x, y, w)
            for _ in range(5):
                bent = [x, y, w]
                k = rng.randrange(3)
                o = rng.choice((-1, 0, 1))
                i = rng.randrange(max(-o, 0), n + 1 - max(o, 0))
                bent[k] = bend(bent[k], o, i, rng.choice((-1, 1)))
                mats = [dense(b) for b in bent]
                want = np.array_equal(dense_commutator(mats[0], mats[1]), 2 * mats[2])
                assert palev._relation_holds(*bent) == want


def test_unit_band_brackets_match_the_dense_commutator():
    # whether [E, F] vanishes, for unit bands E and F on three levels, is read
    # on all five diagonals: E_01 E_12 = E_02 lies on the outer diagonal 2
    d = 3
    units = [{o: tuple(int(k == i) for k in range(d))} for o in (-1, 0, 1) for i in range(max(-o, 0), d - max(o, 0))]
    zero = {0: (0,) * d}
    for x, y in itertools.product(units, repeat=2):
        assert palev._relation_holds(x, y, zero) == (not dense_commutator(dense(x), dense(y)).any())


def test_band_relations_past_int64_take_python_ints():
    q, p, r = carrier_parts(6, "spin21")
    c = 1 << 40
    # [cQ, cP] = c^2 [Q, P] = 2 c^2 R, entries past 2^63
    x, y, w = scaled(c, q), scaled(c, p), scaled(c * c, r)
    assert max(abs(v) for v in w[-1]) > 2 ** 63
    assert palev._relation_holds(x, y, w)
    assert not palev._relation_holds(x, y, bend(w, -1, 3, 1))  # entry (3, 2)


def test_carrier_views_are_built_on_first_read(monkeypatch):
    calls = []
    real = palev.CarrierTriple._view
    monkeypatch.setattr(palev.CarrierTriple, "_view", lambda self, k: calls.append(k) or real(self, k))
    triple, checks = carrier_triple(PalevMode(1024), "spin3")
    assert all(checks.values()) and not calls
    assert len(triple.q) == 1025 and calls == [0]
    assert triple.q is triple.q and calls == [0]


def test_rewrite_budget_is_bad_input_exit_two(capsys, monkeypatch):
    # the merged rewrite takes 35 steps on p^4 q^4 and 148 on p^7 q^7
    monkeypatch.setattr(palev, "_MAX_REWRITE_STEPS", 20)
    with pytest.raises(palev.RewriteBudgetError, match="budget of 20 rewrite steps"):
        normal_order(NCPolynomial.word(*"ppppqqqq"), "h1")
    assert issubclass(palev.RewriteBudgetError, ValueError)
    word = ",".join("p" * 7 + "q" * 7)
    code = main(["palev", "normal-order", "--system", "h1", "--word", word])
    out = capsys.readouterr()
    assert code == 2
    assert len(out.out.splitlines()) == 1 and out.out.startswith("# qsetalg palev |")
    assert out.err.startswith("error: normal ordering exceeded the budget of 20")


def test_rewrite_step_counts_of_the_merged_rewrite(monkeypatch):
    for k, steps in ((4, 35), (7, 148)):
        word = NCPolynomial.word(*("p" * k + "q" * k))
        monkeypatch.setattr(palev, "_MAX_REWRITE_STEPS", steps)
        normal_order(word, "h1")
        monkeypatch.setattr(palev, "_MAX_REWRITE_STEPS", steps - 1)
        with pytest.raises(palev.RewriteBudgetError):
            normal_order(word, "h1")


def test_rewrite_step_counts_of_p_k_q_k_through_k_9(monkeypatch):
    # one pop per distinct word reached, whatever order pops them; k = 4 and
    # k = 7 are the test above
    for k, steps in ((1, 3), (2, 8), (3, 18), (5, 61), (6, 98), (8, 213), (9, 295)):
        word = NCPolynomial.word(*("p" * k + "q" * k))
        monkeypatch.setattr(palev, "_MAX_REWRITE_STEPS", steps)
        assert normal_order(word, "h1") == weyl_closed_form(k)
        monkeypatch.setattr(palev, "_MAX_REWRITE_STEPS", steps - 1)
        with pytest.raises(palev.RewriteBudgetError):
            normal_order(word, "h1")


def test_p7q7_orders_at_the_default_budget(capsys):
    word = ",".join("p" * 7 + "q" * 7)
    code = main(["palev", "normal-order", "--system", "h1", "--word", word])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1] == f"{word.replace(',', '*')} = {weyl_closed_form(7)}"


# -- normal ordering ---------------------------------------------------------


def test_presets_exist():
    # each preset is (order, corrections), with a correction for every
    # out-of-order pair of its generators and for no other pair, each in
    # generators of the preset
    assert set(REWRITE_PRESETS) == {"h1", "spin21", "spin3"}
    for order, corrections in REWRITE_PRESETS.values():
        assert len(set(order)) == len(order)
        out_of_order = {(g, h) for i, h in enumerate(order) for g in order[i + 1 :]}
        assert set(corrections) == out_of_order
        for corr in corrections.values():
            assert isinstance(corr, NCPolynomial)
            assert all(set(w) <= set(order) for w in corr.terms())


def test_unknown_system_is_a_value_error_with_the_cli_text():
    with pytest.raises(ValueError) as exc:
        normal_order(NCPolynomial.word("p"), "nosuch")
    assert str(exc.value) == "unknown rewrite system 'nosuch'; available: h1, spin21, spin3"


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


@pytest.mark.parametrize("capacity", [1558, 1559])
def test_exclusion_prints_factorials_past_the_int_text_limit(capsys, capacity):
    # 1559! is the first factorial longer than Python's default 4300-digit
    # int -> str limit; the CLI prints it in full all the same
    code = main(["palev", "exclusion", "--capacity", str(capacity)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(factorial(capacity))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (len(want) > 4300) == (capacity == 1559)
    assert lines[1:] == [f"|adag^{capacity}| = {want}", f"|adag^{capacity + 1}| = 0"]


# -- exact Q(i)[hbar] coefficients -------------------------------------------


def _sympy_value(parts):
    return sp.expand(sum((sp.Rational(a) + sp.I * sp.Rational(b)) * HBAR ** k for k, (a, b) in parts.items()))


def test_normal_order_matches_the_sympy_reference_on_every_short_word():
    for system, (order, _) in sympy_rewrite_rules().items():
        for length in range(1, 7):
            for word in itertools.product(order, repeat=length):
                want = sympy_nc_text(sympy_normal_order({word: 1}, system))
                assert str(normal_order(NCPolynomial.word(*word), system)) == want, (system, word)


def test_text_of_mixed_sums_matches_sympy():
    rng = random.Random(7)
    values = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3), Fraction(-1, 4)]
    gens = ("q", "p", "r")
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            parts = {k: (rng.choice(values), rng.choice(values)) for k in rng.sample(range(4), rng.randint(1, 3))}
            terms[word] = (terms[word] + _sympy_value(parts)) if word in terms else _sympy_value(parts)
        poly = NCPolynomial(terms)
        assert str(poly) == sympy_nc_text(terms)
        for word, c in terms.items():
            if c != 0:
                assert str(poly.terms()[word]) == str(c)


def test_special_sympy_orders():
    # sympy puts a positive constant first next to one negative real hbar
    # term, and the higher power first otherwise
    cases = {
        1 - HBAR: "1 - hbar",
        sp.Rational(1, 2) - HBAR ** 2 / 3: "1/2 - hbar**2/3",
        2 - sp.I * HBAR: "-I*hbar + 2",
        -1 - HBAR: "-hbar - 1",
        2 + HBAR: "hbar + 2",
        2 * sp.I - HBAR: "-hbar + 2*I",
        1 - 2 * HBAR + HBAR ** 2: "hbar**2 - 2*hbar + 1",
        -sp.I * HBAR / 2: "-I*hbar/2",
    }
    for expr, text in cases.items():
        assert str(expr) == text
        assert str(QiHbar.coerce(expr)) == text


@pytest.mark.parametrize("k", range(15))
def test_pk_qk_equals_the_closed_form(k):
    assert normal_order(NCPolynomial.word(*("p" * k + "q" * k)), "h1") == weyl_closed_form(k)


def test_sympy_values_round_trip():
    expr = 3 * sp.I * HBAR ** 2 / 2 - HBAR + sp.Rational(5, 7)
    c = QiHbar.coerce(expr)
    assert c == QiHbar({2: (0, Fraction(3, 2)), 1: (-1, 0), 0: (Fraction(5, 7), 0)})
    assert sp.sympify(c) == expr
    poly = NCPolynomial({("q",): expr, ("p",): 2, (): sp.I})
    assert poly.terms()[("q",)] == c
    back = NCPolynomial({w: sp.sympify(x) for w, x in poly.terms().items()})
    assert back == poly and str(back) == str(poly)
    for bad in (sp.Symbol("x"), 1 / HBAR, sp.sqrt(2)):
        with pytest.raises(ValueError):
            NCPolynomial.scalar(bad)


def test_coefficients_multiply_sympy_expressions_and_matrices():
    c = QiHbar({1: (0, -2)})
    x = sp.Symbol("x")
    assert sp.expand(c * sp.exp(x)) == -2 * sp.I * HBAR * sp.exp(x)
    assert sp.expand(sp.exp(x) * c) == -2 * sp.I * HBAR * sp.exp(x)
    m = sp.Matrix([[1, 2], [3, 4]])
    assert c * m == -2 * sp.I * HBAR * m
    assert c + sp.Integer(1) == 1 - 2 * sp.I * HBAR
    assert sum([c, c], sp.Integer(0)) == -4 * sp.I * HBAR


def test_qihbar_arithmetic():
    i = QiHbar({0: (0, 1)})
    hbar = QiHbar({1: (1, 0)})
    assert i * i == -1
    assert (i + hbar) * (i - hbar) == -1 - hbar * hbar
    assert 3 * hbar - hbar * 3 == 0
    assert not (hbar - hbar)
    assert Fraction(1, 2) * i == QiHbar({0: (0, Fraction(1, 2))})
    assert hash(QiHbar({0: (3, 0)})) == hash(3) and QiHbar({0: (3, 0)}) == Fraction(3)
    assert str(QiHbar()) == "0"
