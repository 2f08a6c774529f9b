import random
import sys

import numpy as np
import pytest

from qsetalg.cliff import (
    GammaSet,
    _monomial,
    anticommutator_defect,
    build_gammas,
    entries_are_signs,
    point_monomial,
)
from helpers import ORACLE_DIR, dense_commutator, load_oracle, reference_defect

sys.path.insert(0, ORACLE_DIR)
from gamma_digests import digest  # noqa: E402

SIGNATURES = [(p, total - p) for total in range(1, 9) for p in range(total + 1)]


def test_every_tower_anticommutes_exactly():
    for total in range(1, 9):
        for p in range(total + 1):
            gs = build_gammas(p, total - p)
            assert anticommutator_defect(gs) == 0
            assert entries_are_signs(gs)


def test_dimensions_and_top_squares_match_float_oracle():
    frozen = load_oracle("oracle_gamma")["towers"]
    for key, row in frozen.items():
        p, q = (int(t) for t in key.split(","))
        gs = build_gammas(p, q)
        assert gs.dim == row["dim"]
        assert gs.top_square_sign() == row["top_square"]


def test_eta_layout():
    gs = build_gammas(2, 3)
    assert gs.eta == (1, 1, -1, -1, -1)
    assert gs.eta_entry(1) == 1
    assert gs.eta_entry(3) == -1
    assert gs.n == 5


def test_gamma_index_is_one_based():
    gs = build_gammas(1, 1)
    gs.gamma(1)
    gs.gamma(2)
    with pytest.raises(IndexError):
        gs.gamma(0)
    with pytest.raises(IndexError):
        gs.gamma(3)


def test_squares_match_signature():
    gs = build_gammas(3, 2)
    for i in range(1, 6):
        g = np.asarray(gs.gamma(i))
        sq = g @ g
        assert np.array_equal(sq, gs.eta_entry(i) * np.eye(gs.dim, dtype=sq.dtype))


def dense(perm, sign):
    """The dense matrix of the monomial (perm, sign), Python ints."""
    out = np.zeros((len(perm), len(perm)), dtype=object)
    out[np.arange(len(perm)), list(perm)] = list(sign)
    return out


def antisym(gs, pairs):
    """The (k, d, d) stack of A_ab = [gamma_a, gamma_b] / 2 for the 1-based
    pairs: gamma_a gamma_b from one products call off the diagonal a == b,
    zero on it."""
    products = gs.products([(a, b) for a, b in pairs if a != b])
    stack = np.zeros((len(pairs), gs.dim, gs.dim), dtype=np.int64)
    for at, product in zip([i for i, (a, b) in enumerate(pairs) if a != b], products):
        stack[at] = dense(*point_monomial(product, gs.dim))
    return stack


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_antisymmetrized_pairs_close_like_rotations(p, q):
    """[A_ab, A_cd] == 2 (eta_bc A_ad - eta_ac A_bd - eta_bd A_ac + eta_ad A_bc)
    for the stack of every A_ab = gamma_a gamma_b (a != b), over every pair
    of pairs a < b, c < d at once."""
    gs = build_gammas(p, q)
    n = gs.n
    full = antisym(gs, [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]).reshape(n, n, gs.dim, gs.dim)
    eta = np.diag(gs.eta)
    a, b = np.triu_indices(n, 1)
    lhs = dense_commutator(full[a, b][:, None], full[a, b][None])
    a, b, c, d = a[:, None], b[:, None], a[None], b[None]

    def term(x, y, u, v):
        return eta[x, y][..., None, None] * full[u, v]

    rhs = 2 * (term(b, c, a, d) - term(a, c, b, d) - term(b, d, a, c) + term(a, d, b, c))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p, q", [(4, 0), (2, 1), (3, 3)])
def test_antisym_is_antisymmetric(p, q):
    # gamma_a gamma_b == -gamma_b gamma_a off the diagonal, eta_a I on it
    gs = build_gammas(p, q)
    for a in range(1, gs.n + 1):
        (square,) = gs.products([(a, a)])
        assert np.array_equal(dense(*point_monomial(square, gs.dim)), gs.eta_entry(a) * np.eye(gs.dim, dtype=int))
        for b in range(a + 1, gs.n + 1):
            ab, ba = (dense(*point_monomial(x, gs.dim)) for x in gs.products([(a, b), (b, a)]))
            assert np.array_equal(ab, -ba)


def top_element(gs):
    """The dense top element, from the set's (perm, sign) product."""
    return dense(*gs._top())


def test_top_element_anticommutes_in_even_total():
    gs = build_gammas(2, 2)
    top = top_element(gs)
    for i in range(1, 5):
        g = np.asarray(gs.gamma(i))
        assert np.array_equal(top @ g, -(g @ top))


def test_build_guards():
    empty = build_gammas(0, 0)
    assert empty.n == 0 and empty.dim == 1
    with pytest.raises(ValueError):
        build_gammas(-1, 2)
    with pytest.raises(ValueError):
        build_gammas(7, 6)


# -- the signed-permutation kernel -----------------------------------------


def test_digests_of_every_set_through_twelve():
    """gammas_to_json, dim, top square and entries_are_signs for every
    p + q <= 12, against gamma_digests.json (recorded from the dense kernel)."""
    frozen = load_oracle("gamma_digests")
    assert len(frozen) == 91
    for key, want in frozen.items():
        p, q = (int(t) for t in key.split(","))
        assert digest(build_gammas(p, q)) == want, key


def test_every_set_is_a_signed_permutation_stack():
    for p, q in SIGNATURES + [(0, 12), (12, 0), (5, 7)]:
        gs = build_gammas(p, q)
        assert len(gs.perm) == len(gs.sign) == p + q
        assert all(len(row) == gs.dim for row in gs.perm + gs.sign)
        assert all(sorted(row) == list(range(gs.dim)) for row in gs.perm)
        assert {s for row in gs.sign for s in row} <= {-1, 1}
        assert GammaSet(p, q, gs.perm, gs.sign)._points == gs._points


def reference_top(gammas, dim):
    out = np.eye(dim, dtype=np.int64)
    for g in reversed(gammas):
        out = out @ g
    return out


def arrays(gs):
    """The set's dense generators as integer arrays."""
    return [np.array(g) for g in gs.gammas]


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_kernel_matches_the_dense_reference_on_built_sets(p, q):
    gs = build_gammas(p, q)
    assert anticommutator_defect(gs) == reference_defect(arrays(gs), gs.eta) == 0
    assert np.array_equal(top_element(gs), reference_top(arrays(gs), gs.dim))
    pairs = [(a, b) for a in range(1, gs.n + 1) for b in range(1, gs.n + 1)]
    for (a, b), half in zip(pairs, antisym(gs, pairs)):
        ga, gb = np.array(gs.gamma(a)), np.array(gs.gamma(b))
        assert np.array_equal(2 * half, ga @ gb - gb @ ga)


def _from_matrices(p, q, gammas):
    """The GammaSet of integer matrices that are monomial, refused otherwise."""
    return GammaSet(p, q, *zip(*(_monomial(g) for g in gammas)))


def test_antisym_refuses_an_odd_commutator():
    # a 3-cycle and a transposition: their two products are distinct
    # permutations, so the pair neither commutes nor anticommutes and the
    # defect check counts its entries; a set with a sign 3 has no point
    # permutations, so products refuses it
    gs = _from_matrices(2, 0, [np.eye(3, dtype=np.int64)[[1, 2, 0]], np.eye(3, dtype=np.int64)[[1, 0, 2]]])
    assert anticommutator_defect(gs) == reference_defect(arrays(gs), gs.eta) == 2
    with pytest.raises(ValueError, match="signs"):
        _from_matrices(1, 0, [[[3]]]).products([(1, 1)])


def broken_sets(rng, count):
    """Monomial sets that fail the relations: one generator scaled by 3,
    one with two rows swapped, or one generator repeated in place of
    another."""
    for _ in range(count):
        p, q = rng.choice([s for s in SIGNATURES if sum(s) >= 2])
        gammas = arrays(build_gammas(p, q))
        i, j = rng.sample(range(p + q), 2)
        kind = rng.choice(("scaled", "rows", "duplicate"))
        if kind == "scaled":
            gammas[i] = 3 * gammas[i]
        elif kind == "rows" and len(gammas[i]) > 1:
            r, s = rng.sample(range(len(gammas[i])), 2)
            gammas[i][[r, s]] = gammas[i][[s, r]]
        else:
            gammas[j] = gammas[i].copy()
        yield _from_matrices(p, q, gammas)


def test_kernel_matches_the_dense_reference_on_broken_sets():
    seen = set()
    for gs in broken_sets(random.Random(7), 300):
        got = anticommutator_defect(gs)
        assert got == reference_defect(arrays(gs), gs.eta)
        seen.add(got)
    assert 0 not in seen and len(seen) > 2


def test_defect_past_int64_is_exact():
    gammas = arrays(build_gammas(3, 2))
    c = 1 << 40
    gammas[4] = c * gammas[4]
    gs = _from_matrices(3, 2, gammas)
    # gamma_5^2 = -c^2 I, so the defect is |2 c^2 - 2|, past 2^63
    want = reference_defect([g.astype(object) for g in gammas], gs.eta)
    assert anticommutator_defect(gs) == want == 2 * c * c - 2


def test_top_past_int64_is_exact():
    # four generators with signs +-2^20: the top element's signs are +-2^80,
    # exact only because its bound counts all 2n factors of its square
    c = 1 << 20
    gs = _from_matrices(2, 2, [c * g for g in arrays(build_gammas(2, 2))])
    perm, sign = gs._top()
    assert {abs(s) for s in sign} == {c ** 4}
    want = reference_top([g.astype(object) for g in arrays(gs)], gs.dim)
    assert np.array_equal(top_element(gs), want)


def test_non_monomial_set_is_refused():
    gs = build_gammas(2, 1)
    gammas = [np.array(g).tolist() for g in gs.gammas]
    gammas[0] = (np.array(gs.gamma(1)) + np.array(gs.gamma(2))).tolist()
    with pytest.raises(ValueError, match="exactly one nonzero"):
        _from_matrices(2, 1, gammas)
    # the dense product of this matrix wrapped around int64: the diagonal
    # 2^81 - 2 came back as -2, and the defect read 2^42
    big = [[1 << 40, 1], [0, 1 << 40]]
    assert reference_defect([np.array(big, dtype=object)], (1,)) == 2417851639229258349412350
    with pytest.raises(ValueError, match="exactly one nonzero"):
        _from_matrices(1, 0, [big])
    with pytest.raises(ValueError, match="square"):
        _from_matrices(1, 0, [[[1, 0]]])
    assert not entries_are_signs(_from_matrices(2, 1, [[[2, 0], [0, 2]]] * 3))


def test_stored_arrays_are_read_only():
    gs = build_gammas(2, 1)
    for arr in (gs.perm, gs.sign, gs.gammas[0]):
        with pytest.raises(TypeError):
            arr[0][0] = 7


def top_square_rule(p, q):
    """(g_n ... g_1)^2 = (-1)^(n(n-1)/2) g_1^2 ... g_n^2 = (-1)^(n(n-1)/2 + q)."""
    n = p + q
    return -1 if (n * (n - 1) // 2 + q) % 2 else 1


def test_top_square_rule_reproduces_the_float_oracle():
    for key, row in load_oracle("oracle_gamma")["towers"].items():
        assert top_square_rule(*(int(t) for t in key.split(","))) == row["top_square"]


@pytest.mark.parametrize("p, q", [(0, 12), (12, 0), (5, 7)])
def test_largest_sets_anticommute_exactly(p, q):
    gs = build_gammas(p, q)
    assert anticommutator_defect(gs) == 0
    assert entries_are_signs(gs)
    assert gs.top_square_sign() == top_square_rule(p, q)
    assert "gammas" not in vars(gs)  # no dense matrix was built
