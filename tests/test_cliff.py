from fractions import Fraction

import numpy as np
import pytest

from qsetalg.cliff import (
    GammaSet,
    anticommutator_defect,
    build_gammas,
    entries_are_signs,
    gammas_from_json,
    gammas_to_json,
)

from helpers import commutator, load_oracle, smul


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


def _so_bracket_target(gs: GammaSet, a, b, c, d):
    """eta^{bc} M^{ad} - eta^{ac} M^{bd} - eta^{bd} M^{ac} + eta^{ad} M^{bc}."""

    def eta(i, j):
        return Fraction(gs.eta_entry(i)) if i == j else Fraction(0)

    def m(i, j):
        return gs.spin_generator(i, j)

    z = [[Fraction(0)] * gs.dim for _ in range(gs.dim)]
    out = z
    for coeff, mat in (
        (eta(b, c), m(a, d)),
        (-eta(a, c), m(b, d)),
        (-eta(b, d), m(a, c)),
        (eta(a, d), m(b, c)),
    ):
        if coeff:
            out = [
                [out[r][s] + coeff * mat[r][s] for s in range(gs.dim)]
                for r in range(gs.dim)
            ]
    return out


@pytest.mark.parametrize("p,q", [(2, 1), (3, 3)])
def test_spin_generators_close_like_rotations(p, q):
    gs = build_gammas(p, q)
    idx = range(1, p + q + 1)
    for a in idx:
        for b in idx:
            if a == b:
                continue
            for c in idx:
                for d in idx:
                    if c == d:
                        continue
                    lhs = commutator(gs.spin_generator(a, b), gs.spin_generator(c, d))
                    rhs = _so_bracket_target(gs, a, b, c, d)
                    assert all(
                        lhs[r][s] == rhs[r][s]
                        for r in range(gs.dim)
                        for s in range(gs.dim)
                    ), (a, b, c, d)


def test_spin_generator_is_half_antisymmetrized_product():
    gs = build_gammas(4, 0)
    m = gs.spin_generator(1, 3)
    anti = smul(Fraction(1, 2), gs.antisym(1, 3))
    assert all(
        m[r][c] == anti[r][c] for r in range(gs.dim) for c in range(gs.dim)
    )
    neg = gs.spin_generator(3, 1)
    assert all(
        m[r][c] == -neg[r][c] for r in range(gs.dim) for c in range(gs.dim)
    )


def test_top_element_anticommutes_in_even_total():
    gs = build_gammas(2, 2)
    top = np.asarray(gs.top())
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


def test_json_round_trip():
    gs = build_gammas(2, 1)
    again = gammas_from_json(gammas_to_json(gs))
    assert again.p == gs.p and again.q == gs.q
    assert again.dim == gs.dim
    for i in range(1, 4):
        assert np.array_equal(again.gamma(i), gs.gamma(i))
