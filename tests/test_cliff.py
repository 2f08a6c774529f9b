import random
import sys

import numpy as np
import pytest

from qsetalg.cliff import (
    _QI,
    _QJ,
    _QK,
    _SX,
    _SXZ,
    _SZ,
    MAX_TOTAL,
    GammaSet,
    _close,
    anticommutator_defect,
    build_gammas,
    entries_are_signs,
    signed_points,
    then,
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


def dense(points, d):
    """The dense matrix of a point permutation of 2d points, Python ints:
    row r holds +1 in column x for its point x < d, else -1 in column x - d."""
    out = np.zeros((d, d), dtype=object)
    for r, x in enumerate(points[:d]):
        out[r, x % d] = 1 - 2 * (x >= d)
    return out


def to_points(matrix):
    """The point permutation of a square matrix whose every row holds one
    entry +-1 and zeros."""
    rows = [[int(x) for x in row] for row in matrix]
    cols = [next(c for c, x in enumerate(row) if x) for row in rows]
    return signed_points(cols, [row[c] for row, c in zip(rows, cols)])


def antisym(gs, pairs):
    """The (k, d, d) stack of A_ab = [gamma_a, gamma_b] / 2 for the 1-based
    pairs: gamma_a gamma_b from one products call off the diagonal a == b,
    zero on it."""
    products = gs.products([(a, b) for a, b in pairs if a != b])
    stack = np.zeros((len(pairs), gs.dim, gs.dim), dtype=np.int64)
    for at, product in zip([i for i, (a, b) in enumerate(pairs) if a != b], products):
        stack[at] = dense(product, gs.dim)
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
        assert np.array_equal(dense(square, gs.dim), gs.eta_entry(a) * np.eye(gs.dim, dtype=int))
        for b in range(a + 1, gs.n + 1):
            ab, ba = (dense(x, gs.dim) for x in gs.products([(a, b), (b, a)]))
            assert np.array_equal(ab, -ba)


def top_element(gs):
    """The dense top element, from the set's point product."""
    return dense(gs._top(), gs.dim)


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
    # counts that are not ints, bools included, are refused before any use
    for p, q in [(2.0, 1), (True, 1), (1, False), ("1", 1), (1, None)]:
        with pytest.raises(ValueError, match="integers"):
            build_gammas(p, q)


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
        d = gs.dim
        assert len(gs.points) == p + q
        # a 256-byte table while 2d <= 256, fixing every point past 2d
        if 2 * d <= 256:
            assert all(type(g) is bytes and g[2 * d:] == bytes(range(2 * d, 256)) for g in gs.points)
        else:
            assert all(type(g) is tuple and len(g) == 2 * d for g in gs.points)
        assert all(sorted(g[:2 * d]) == list(range(2 * d)) for g in gs.points)
        # point r + d goes to the negative of point r's image
        assert all(g[r + d] == (g[r] + d) % (2 * d) for g in gs.points for r in range(d))
        assert GammaSet(p, q, [to_points(g) for g in gs.gammas], d).points == gs.points


def test_entries_are_signs_only_for_signed_permutations():
    for total in range(MAX_TOTAL + 1):
        for p in range(total + 1):
            assert entries_are_signs(build_gammas(p, total - p))
    rest = bytes(range(4, 256))
    assert entries_are_signs(GammaSet(2, 0, [bytes([1, 0, 3, 2]) + rest, bytes([2, 1, 0, 3]) + rest], 2))
    # an image repeated: rows 0 and 1 both land in column 0
    assert not entries_are_signs(GammaSet(2, 0, [bytes([0, 0, 2, 2]) + rest, bytes([0, 1, 2, 3]) + rest], 2))
    # a permutation of the 4 points, but point 2 = -0 goes to 3 = -1, not to -0
    assert not entries_are_signs(GammaSet(2, 0, [bytes([0, 1, 2, 3]) + rest, bytes([0, 1, 3, 2]) + rest], 2))
    # past 2d = 256 the tuple layout is checked alike
    d = 129
    minus = tuple(range(d, 2 * d)) + tuple(range(d))
    assert entries_are_signs(GammaSet(1, 0, [minus], d))
    # points d and d + 1 trade images
    assert not entries_are_signs(GammaSet(1, 0, [minus[:d] + (1, 0) + minus[d + 2:]], d))


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
    """The GammaSet of square matrices whose every row holds one entry +-1."""
    return GammaSet(p, q, [to_points(g) for g in gammas], len(gammas[0]))


def test_antisym_refuses_an_odd_commutator():
    # a 3-cycle and a transposition: their two products are distinct
    # permutations, so the pair neither commutes nor anticommutes and the
    # defect check counts its entries
    gs = _from_matrices(2, 0, [np.eye(3, dtype=np.int64)[[1, 2, 0]], np.eye(3, dtype=np.int64)[[1, 0, 2]]])
    assert anticommutator_defect(gs) == reference_defect(arrays(gs), gs.eta) == 2


def broken_sets(rng, count):
    """Signed permutation sets that fail the relations: one generator with
    one row's sign flipped, one with two rows swapped, or one generator
    repeated in place of another."""
    for _ in range(count):
        p, q = rng.choice([s for s in SIGNATURES if sum(s) >= 2])
        gammas = arrays(build_gammas(p, q))
        i, j = rng.sample(range(p + q), 2)
        kind = rng.choice(("sign", "rows", "duplicate"))
        if kind == "sign":
            gammas[i][rng.randrange(len(gammas[i]))] *= -1
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


def test_stored_arrays_are_read_only():
    # bytes tables while 2d <= 256, tuples past it
    for gs in (build_gammas(2, 1), build_gammas(2, 10)):
        for arr in (gs.points, gs.gammas[0]):
            with pytest.raises(TypeError):
                arr[0][0] = 7
        with pytest.raises(TypeError):
            gs.points[0] = gs.points[1]


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


def test_literal_seed_products_match_their_factors():
    # sigma_x sigma_z and the quaternion k = i j are written out as
    # (columns, signs); each must be the product of its two factors
    for a, b, ab in [(_SX, _SZ, _SXZ), (_QI, _QJ, _QK)]:
        assert then(signed_points(*a), signed_points(*b)) == signed_points(*ab)
        d = len(ab[0])
        assert np.array_equal(dense(signed_points(*ab), d), dense(signed_points(*a), d) @ dense(signed_points(*b), d))


@pytest.mark.parametrize("p, q", [(3, 1), (0, 5), (2, 10)])
def test_negation_swaps_the_two_halves_of_points(p, q):
    # -g, the product g (-I), is g with its first and last d points traded
    gs = build_gammas(p, q)
    d = gs.dim
    minus = _close(range(d, 2 * d), d)
    for g in gs.points:
        assert then(g, minus) == g[d:2 * d] + g[:d] + g[2 * d:]
        assert np.array_equal(dense(then(g, minus), d), -dense(g, d))
