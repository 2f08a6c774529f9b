import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsetalg import perfinite, qset
from qsetalg.cliff import build_gammas
from qsetalg.linalg import congruence_signature
from qsetalg.perfinite import PerfiniteSet, bit_positions, decode, enumerate_rank, iota
from qsetalg.qset import (
    Multivector,
    RankFrame,
    berezin_norm,
    beta_form,
    clifford,
    embed,
    grade_op,
    grade_parity,
    gram_matrix,
    grassmann,
    iota_m,
    mv_from_json,
    mv_to_json,
    signature_report,
)

from helpers import beta_gram, label_clifford, label_grassmann, load_oracle, preset_metric, rand_label, rand_mv


def test_embed_is_the_unit_blade():
    for c in range(16):
        x = decode(c)
        mv = embed(x)
        assert mv == Multivector.blade(x)
        assert mv.coeff(x) == 1


def test_items_are_code_sorted():
    mv = Multivector.blade(decode(9)) + Multivector.blade(decode(2)) + Multivector.scalar(3)
    assert [lab.code for lab, _ in mv.items()] == [0, 2, 9]


def test_grassmann_bilinear():
    rng = random.Random(3)
    frame = RankFrame(3)
    for _ in range(25):
        u, v, w = (rand_mv(rng, frame) for _ in range(3))
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert grassmann(u + a * v, w) == grassmann(u, w) + a * grassmann(v, w)
        assert grassmann(w, u + a * v) == grassmann(w, u) + a * grassmann(w, v)


def test_grassmann_associative_on_random_elements():
    rng = random.Random(5)
    frame = RankFrame(3)
    for _ in range(200):
        u, v, w = (rand_mv(rng, frame) for _ in range(3))
        assert grassmann(grassmann(u, v), w) == grassmann(u, grassmann(v, w))


def test_graded_anticommutation():
    frame = RankFrame(3)
    labels = frame.basis_labels()
    for a in labels:
        for b in labels:
            lhs = grassmann(Multivector.blade(a), Multivector.blade(b))
            sign = -1 if (a.grade * b.grade) % 2 else 1
            rhs = sign * grassmann(Multivector.blade(b), Multivector.blade(a))
            assert lhs == rhs


def test_wedge_sign_matches_permutation_parity():
    # multiplying single generators in shuffled order recovers the
    # ascending blade times the permutation sign
    rng = random.Random(13)
    frame = RankFrame(3)
    gens = list(frame.generators)
    for _ in range(30):
        perm = gens[:]
        rng.shuffle(perm)
        prod = Multivector.scalar(1)
        for g in perm:
            prod = grassmann(prod, Multivector.blade(iota(g)))
        inv = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i].code > perm[j].code
        )
        want = (-1) ** inv * Multivector.blade(frame.top_label)
        assert prod == want


def test_self_wedge_vanishes_for_nonempty_labels():
    rng = random.Random(17)
    frame = RankFrame(3)
    seen = 0
    while seen < 100:
        x = rand_label(rng, frame)
        if x.grade == 0:
            continue
        assert grassmann(embed(x), embed(x)).is_zero()
        seen += 1


def test_empty_set_embeds_as_the_unit():
    one = embed(decode(0))
    assert grassmann(one, one) == one
    v = Multivector.blade(decode(6), Fraction(2, 3))
    assert grassmann(one, v) == v


def test_odd_grade_elements_square_to_zero():
    rng = random.Random(19)
    frame = RankFrame(3)
    for _ in range(50):
        mv = rand_mv(rng, frame, terms=5)
        odd = Multivector(
            {lab: c for lab, c in mv.items() if lab.grade % 2 == 1}
        )
        assert grassmann(odd, odd).is_zero()


def test_clifford_with_zero_metric_is_grassmann():
    rng = random.Random(23)
    for metric in ("zero", "berezin"):
        frame = RankFrame(3, metric=metric)
        for _ in range(40):
            u, v = rand_mv(rng, frame), rand_mv(rng, frame)
            assert clifford(u, v, frame) == grassmann(u, v)


def test_clifford_hyperbolic_associative_on_all_basis_triples():
    frame = RankFrame(2, metric="hyperbolic")
    blades = [Multivector.blade(lab) for lab in frame.basis_labels()]
    for u in blades:
        for v in blades:
            for w in blades:
                assert clifford(clifford(u, v, frame), w, frame) == clifford(
                    u, clifford(v, w, frame), frame
                )


def test_clifford_generator_relations_hyperbolic():
    frame = RankFrame(3, metric="hyperbolic")
    gens = [Multivector.blade(iota(g)) for g in frame.generators]
    for i, u in enumerate(gens):
        for j, v in enumerate(gens):
            sym = clifford(u, v, frame) + clifford(v, u, frame)
            want = 2 * preset_metric(frame)[i][j] * Multivector.scalar(1)
            assert sym == want


def test_berezin_norm_of_one_plus_top():
    for r in (1, 2, 3):
        frame = RankFrame(r)
        v = Multivector.scalar(1) + frame.top()
        assert berezin_norm(v, frame) == 2
        assert frame.top() == Multivector.blade(frame.top_label)


def test_beta_form_is_the_polarization():
    rng = random.Random(29)
    frame = RankFrame(3)
    for _ in range(30):
        u, v = rand_mv(rng, frame), rand_mv(rng, frame)
        lhs = 2 * beta_form(u, v, frame)
        rhs = (
            berezin_norm(u + v, frame)
            - berezin_norm(u, frame)
            - berezin_norm(v, frame)
        )
        assert lhs == rhs
        assert beta_form(u, v, frame) == beta_form(v, u, frame)


def test_grade_operator_and_parity():
    mv = Multivector.blade(decode(3)) + 2 * Multivector.blade(decode(4))
    g = grade_op(mv)
    assert g.coeff(decode(3)) == 2
    assert g.coeff(decode(4)) == 2
    assert grade_parity(decode(3)) == 0
    assert grade_parity(decode(7)) == 1


def test_grade_parity_respects_symmetric_difference():
    xs = enumerate_rank(3)
    for x in xs:
        for y in xs:
            assert grade_parity(x ^ y) == grade_parity(x) ^ grade_parity(y)


def test_signature_matches_float_oracle_and_exact_congruence():
    frozen = load_oracle("oracle_signature")
    for r in (1, 2, 3):
        frame = RankFrame(r)
        rep = signature_report(frame)
        row = frozen[str(r)]
        assert rep.as_tuple() == (row["plus"], row["minus"], row["zero"])
        assert rep.dimension == 1 << frame.n
        dense = congruence_signature(gram_matrix(frame))
        assert dense == rep.as_tuple()


def mask_loop_signature(n):
    """(plus, minus, zero) of the Berezin Gram matrix on n generators by
    visiting every blade mask: a blade pairs when g (n - g) is even for its
    grade g, and the pairs are hyperbolic."""
    paired = sum(1 for mask in range(1 << n) if mask.bit_count() * (n - mask.bit_count()) % 2 == 0)
    return paired // 2, paired // 2, (1 << n) - 2 * (paired // 2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_signature_counts_by_grade_as_the_mask_loop_did(r):
    frame = RankFrame(r)
    rep = signature_report(frame)
    assert rep.as_tuple() == mask_loop_signature(frame.n)
    assert rep.dimension == 1 << frame.n


@pytest.mark.parametrize("r", [1, 2, 3])
def test_gram_matrix_reads_beta_form_from_the_wedge_table(r):
    frame = RankFrame(r)
    got = gram_matrix(frame)
    assert got == beta_gram(frame)
    assert isinstance(got, tuple) and all(isinstance(row, tuple) for row in got)
    assert all(type(x) is Fraction for row in got for x in row)
    # only complementary blades pair, at +-1
    top = (1 << frame.n) - 1
    assert {x for row in got for x in row} <= {0, 1, -1}
    assert all(got[a][b] == 0 for a in range(top + 1) for b in range(top + 1) if a ^ b != top)


def test_iota_lifts_selected_grade_one_rank_up():
    frame = RankFrame(2)
    v = (
        Multivector.blade(decode(1), Fraction(2))
        + Multivector.blade(decode(2), Fraction(-3))
        + Multivector.blade(decode(3), Fraction(5))
    )
    img, frame_out = iota_m(v, 1, frame)
    assert frame_out.r == 3
    assert img.coeff(decode(1 << 1)) == 2
    assert img.coeff(decode(1 << 2)) == -3
    assert img.grades() == (1,)
    # distinct source blades stay distinct
    assert len(img.support()) == 2


@pytest.mark.parametrize("metric", [((1, 0), (0, -1)), [[0, 1], [1, 0]], None, "explicit"])
def test_a_metric_is_one_of_three_presets(metric):
    with pytest.raises(ValueError, match="unknown metric preset"):
        RankFrame(2, metric=metric)


def test_a_rank_is_an_int_proper():
    with pytest.raises(ValueError, match="rank frames need integer r >= 1"):
        RankFrame(True)


def test_frame_guards():
    with pytest.raises(ValueError):
        RankFrame(0)
    with pytest.raises(ValueError):
        RankFrame(5)
    with pytest.raises(ValueError):
        RankFrame(1, metric="hyperbolic")  # needs an even generator count
    with pytest.raises(ValueError):
        RankFrame(2, metric="nosuch")


def test_frame_rejects_foreign_labels():
    small = RankFrame(2)
    big = RankFrame(3)
    stranger = Multivector.blade(big.top_label)
    with pytest.raises(ValueError):
        small.validate(stranger)


def test_json_round_trip():
    rng = random.Random(31)
    frame = RankFrame(3)
    for _ in range(20):
        mv = rand_mv(rng, frame)
        assert mv_from_json(mv_to_json(mv)) == mv


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        mv_to_json(Multivector.scalar(0.5))


def test_chop_drops_small_float_terms():
    mv = Multivector.blade(decode(1), 1e-15) + Multivector.blade(decode(2), 1.0)
    out = mv.chop(1e-12)
    assert out.coeff(decode(1)) == 0
    assert out.coeff(decode(2)) == 1.0


# -- the bitmask products against the label-walking reference ----------------


# the hyperbolic metric needs an even generator count, so not at rank 1
@pytest.mark.parametrize(
    "rank,metric",
    [(r, m) for r in (1, 2, 3) for m in ("zero", "berezin", "hyperbolic") if (r, m) != (1, "hyperbolic")],
)
def test_products_match_label_reference(rank, metric):
    rng = random.Random(f"bitmask-reference:{rank}:{metric}")
    frame = RankFrame(rank, metric=metric)
    for _ in range(20):
        u, v = rand_mv(rng, frame), rand_mv(rng, frame)
        assert grassmann(u, v) == label_grassmann(u, v)
        assert clifford(u, v, frame) == label_clifford(u, v, frame)


def _multivectors(frame):
    """Sums of up to five blades of the frame with small rational coefficients."""
    term = st.tuples(st.integers(0, (1 << frame.n) - 1), st.fractions(-9, 9, max_denominator=9))
    return st.lists(term, max_size=5).map(
        lambda terms: sum((Multivector.blade(decode(c), f) for c, f in terms), Multivector.zero())
    )


@settings(max_examples=100)
@given(st.data())
def test_products_match_label_reference_property(data):
    rank = data.draw(st.sampled_from([2, 3]), label="rank")
    frame = RankFrame(rank, metric=data.draw(st.sampled_from(["zero", "berezin", "hyperbolic"]), label="metric"))
    u, v = data.draw(_multivectors(frame), label="u"), data.draw(_multivectors(frame), label="v")
    assert grassmann(u, v) == label_grassmann(u, v)
    assert clifford(u, v, frame) == label_clifford(u, v, frame)


@pytest.mark.parametrize("metric", ["hyperbolic"])
def test_rank_four_products_match_label_reference(metric):
    rng = random.Random(f"bitmask-reference:4:{metric}")
    frame = RankFrame(4, metric=metric)
    for _ in range(8):
        u, v = rand_mv(rng, frame, terms=3), rand_mv(rng, frame, terms=3)
        assert grassmann(u, v) == label_grassmann(u, v)
        assert clifford(u, v, frame) == label_clifford(u, v, frame)


def test_grassmann_matches_label_reference_on_large_element_codes():
    # elements of rank 4 (65535) and rank 5 (65536, 65541, 2**20): label
    # codes run to a million bits, and the sign loops over set bits only
    pool = [decode(c) for c in (0, 3, 15, 255, 65535, 65536, 65541, 1 << 20)]
    rng = random.Random(37)

    def rand_big_mv():
        terms = {}
        for _ in range(3):
            label = PerfiniteSet(rng.sample(pool, rng.randint(0, 4)))
            terms[label] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return Multivector(terms)

    for _ in range(30):
        u, v = rand_big_mv(), rand_big_mv()
        assert grassmann(u, v) == label_grassmann(u, v)


def test_grassmann_of_labels_longer_than_the_recursion_limit():
    # a label's generators are walked in a loop: 1500 of them on each side
    # pass Python's default recursion limit of 1000
    rng = random.Random(53)
    codes = rng.sample(range(4000), 3000)
    u = Multivector.blade(PerfiniteSet([decode(c) for c in codes[:1500]]), Fraction(2, 3))
    v = Multivector.blade(PerfiniteSet([decode(c) for c in codes[1500:]]), Fraction(-5))
    assert grassmann(u, v) == label_grassmann(u, v)
    assert grassmann(u, u).is_zero()


def test_products_construct_no_perfinite_set(monkeypatch):
    # a set is built by its constructor or by decode; spy on both routes
    rng = random.Random(41)
    frame = RankFrame(3, metric="hyperbolic")
    u, v = rand_mv(rng, frame), rand_mv(rng, frame)
    made = []
    real_init, real_decode = PerfiniteSet.__init__, perfinite.decode

    def init_spy(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    def decode_spy(n):
        made.append(n)
        return real_decode(n)

    monkeypatch.setattr(PerfiniteSet, "__init__", init_spy)
    for module in (perfinite, qset):
        monkeypatch.setattr(module, "decode", decode_spy)
    grassmann(u, v)
    clifford(u, v, frame)
    assert made == []
    u.support()  # labels are built at the API edge, where the spy sees them
    assert made


def _floats(mv):
    return Multivector({lab: float(c) for lab, c in mv.items()})


@pytest.mark.parametrize("metric", ["hyperbolic"])
def test_float_products_match_label_reference(metric):
    # the table multiplies in a different order from the reference, so a
    # float coefficient may differ in its last bits
    rng = random.Random(f"float-reference:{metric}")
    frame = RankFrame(3, metric=metric)
    for _ in range(20):
        u, v = _floats(rand_mv(rng, frame)), _floats(rand_mv(rng, frame))
        for got, want in ((grassmann(u, v), label_grassmann(u, v)), (clifford(u, v, frame), label_clifford(u, v, frame))):
            assert all(isinstance(c, float) for _, c in got.items())
            for lab in set(got.support()) | set(want.support()):
                assert abs(got.coeff(lab) - want.coeff(lab)) <= 1e-12 * max(1.0, abs(want.coeff(lab)))


def test_repeated_products_store_no_new_table_entry():
    rng = random.Random(47)
    frame = RankFrame(3, metric="hyperbolic")
    u, v = rand_mv(rng, frame), rand_mv(rng, frame)
    first = clifford(u, v, frame), grassmann(u, v)
    sizes = len(frame._table), len(qset._WEDGE)
    assert (clifford(u, v, frame), grassmann(u, v)) == first
    assert (len(frame._table), len(qset._WEDGE)) == sizes
    # a table is keyed by pairs of rank-3 blades: at most 16 * 16 entries
    assert all(a < 16 and b < 16 for a, b in frame._table)
    assert RankFrame(3, metric="hyperbolic")._table is frame._table


def test_berezin_metric_is_computed_once_per_rank(monkeypatch):
    monkeypatch.setattr(qset, "_preset", functools.cache(qset._preset.__wrapped__))
    calls = []
    real = qset.grassmann

    def spy(v, w):
        calls.append((v, w))
        return real(v, w)

    monkeypatch.setattr(qset, "grassmann", spy)
    frames = [RankFrame(3), RankFrame(3)]
    assert len(calls) == 2 * 4 * 4
    assert frames[0]._table is frames[1]._table is qset._WEDGE


def test_a_nonzero_berezin_polarization_is_an_assertion_error(monkeypatch):
    # the berezin frame runs on the wedge table only because the computed
    # polarization of two generators is zero; a wedge product that reaches
    # the top blade must stop the frame
    monkeypatch.setattr(qset, "_preset", functools.cache(qset._preset.__wrapped__))
    monkeypatch.setattr(qset, "grassmann", lambda v, w: Multivector.scalar(1) + RankFrame(2, "zero").top())
    with pytest.raises(AssertionError, match="Berezin polarization"):
        RankFrame(2)


def _assert_witt_images_multiply(frame, gs, gens):
    # gens holds twice each generator's image, as integer matrices. A blade
    # of grade g maps to the antisymmetrized product of its generators'
    # images, scale[A] * twice[A] with twice[A] the signed sum over orders of
    # the doubled images and scale[A] = 1 / (2^g g!). The images of the 2^n
    # blades must be independent, so the map is an isomorphism, and the
    # image of every product of two blades must be the matrix product
    twice, scale = {}, {}
    for lab in frame.basis_labels():
        idxs = list(bit_positions(lab.code))
        total = np.zeros((gs.dim, gs.dim), dtype=np.int64)
        for perm in itertools.permutations(idxs):
            m = np.eye(gs.dim, dtype=np.int64)
            for i in perm:
                m = m @ gens[i]
            inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
            total += (-1) ** inversions * m
        twice[lab.code] = total
        scale[lab.code] = Fraction(1, 2 ** len(idxs) * math.factorial(len(idxs)))
    flat = np.array([m.ravel() for m in twice.values()], dtype=float)
    assert np.linalg.matrix_rank(flat) == len(twice) == 1 << len(gens)
    for a in frame.basis_labels():
        for b in frame.basis_labels():
            want = scale[a.code] * scale[b.code]
            terms = [(c * scale[lab.code], lab.code) for lab, c in clifford(Multivector.blade(a), Multivector.blade(b), frame).items()]
            den = math.lcm(want.denominator, *(c.denominator for c, _ in terms))
            got = np.zeros((gs.dim, gs.dim), dtype=np.int64)
            for c, code in terms:
                got += int(c * den) * twice[code]
            assert np.array_equal(got, int(want * den) * (twice[a.code] @ twice[b.code]))


def _witt_generators(frame):
    """Twice the images of the frame's generators in Cl(m, m), gamma_1..m
    squaring to 1 and gamma_m+1..2m to -1: x_k = (gamma_k + gamma_m+k)/2
    squares to 0 and y_k = (gamma_k - gamma_m+k)/2 pairs with x_k at 1/2.
    The hyperbolic frame maps e_2k, e_2k+1 to x_k, y_k; a wedge frame maps
    e_k to x_k."""
    n = frame.n
    m = n // 2 if frame.metric_name == "hyperbolic" else n
    gs = build_gammas(m, m)
    gens = []
    for i in range(n):
        k, minus = (i // 2, i & 1) if frame.metric_name == "hyperbolic" else (i, 0)
        assert gs.eta_entry(k + 1) == 1 and gs.eta_entry(k + m + 1) == -1
        a, b = gs.gamma(k + 1).astype(np.int64), gs.gamma(k + m + 1).astype(np.int64)
        gens.append(a - b if minus else a + b)
    return gs, gens


def test_hyperbolic_clifford_equals_witt_basis_products():
    # the rank-3 hyperbolic frame is Cl(2, 2) in a Witt basis
    frame = RankFrame(3, metric="hyperbolic")
    _assert_witt_images_multiply(frame, *_witt_generators(frame))


@pytest.mark.parametrize(
    "rank,metric",
    [(r, m) for r in (1, 2, 3) for m in ("zero", "berezin", "hyperbolic") if (r, m) not in {(1, "hyperbolic"), (3, "hyperbolic")}],
)
def test_clifford_equals_witt_basis_products(rank, metric):
    # the other presets against the same oracle: the rank-2 hyperbolic frame
    # is Cl(1, 1), and a wedge frame on n generators is the exterior algebra
    # spanned by n isotropic, mutually anticommuting x_k in Cl(n, n)
    frame = RankFrame(rank, metric=metric)
    _assert_witt_images_multiply(frame, *_witt_generators(frame))
