"""Real gamma matrices for arbitrary signature, entries in {-1, 0, +1}.

build_gammas(p, q) returns matrices g_1 .. g_{p+q} with

    g_i g_j + g_j g_i = 2 eta_i delta_ij I,   eta = (+1,)*p + (-1,)*q,

built by a three-rule recursion over explicit seed representations:

    seeds     Cl(1,0) = [1], Cl(2,0) = (sigma_x, sigma_z),
              Cl(0,1) = rotation by 90 degrees, Cl(0,2) = quaternion
              left-multiplications (i, j) on the basis (1, i, j, k)
    (p,q) -> (p+1,q+1)   tensor doubling with sigma_x / sigma_z / [[0,1],[-1,0]]
    (0,q) -> (q+2,0)     two new plus generators, old ones conjugated through
    (p,0) -> (0,p+2)     two new minus generators via the quaternion pair

Everything stays in int64, so products and anticommutator checks are exact.
The representation dimension is not always the minimal one (for example
Cl(0,8) lands at 64 rather than 16); callers that only need the algebra
relations never notice, and exactness was the goal here.

Indices are 1-based in the public API: gamma(1) .. gamma(p) square to +1,
gamma(p+1) .. gamma(p+q) to -1.
"""

from __future__ import annotations

import numpy as np

from .linalg import from_scaled

_SX = np.array([[0, 1], [1, 0]], dtype=np.int64)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.int64)
_SM = np.array([[0, 1], [-1, 0]], dtype=np.int64)  # squares to -1
_SXZ = _SX @ _SZ

# Left multiplication by i and j on quaternions with basis (1, i, j, k).
_QI = np.array(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=np.int64
)
_QJ = np.array(
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64
)
_QK = _QI @ _QJ

MAX_TOTAL = 12  # largest p + q of a gamma set, and of a gamma vertex


def _recurse(p: int, q: int):
    """Return (plus_list, minus_list) of int64 arrays."""
    if p == 0 and q == 0:
        return [], []
    if p == 1 and q == 0:
        return [np.array([[1]], dtype=np.int64)], []
    if p == 0 and q == 1:
        return [], [_SM.copy()]
    if p == 2 and q == 0:
        return [_SX.copy(), _SZ.copy()], []
    if p == 0 and q == 2:
        return [], [_QI.copy(), _QJ.copy()]
    if p >= 1 and q >= 1:
        plus, minus = _recurse(p - 1, q - 1)
        d = plus[0].shape[0] if plus else (minus[0].shape[0] if minus else 1)
        ident = np.eye(d, dtype=np.int64)
        new_plus = [np.kron(_SX, ident)] + [np.kron(_SZ, g) for g in plus]
        new_minus = [np.kron(_SZ, g) for g in minus] + [np.kron(_SM, ident)]
        return new_plus, new_minus
    if q == 0:  # p >= 3
        _, minus = _recurse(0, p - 2)
        d = minus[0].shape[0] if minus else 1
        ident = np.eye(d, dtype=np.int64)
        new_plus = [np.kron(_SX, ident), np.kron(_SZ, ident)]
        new_plus += [np.kron(_SXZ, g) for g in minus]
        return new_plus, []
    # p == 0, q >= 3
    plus, _ = _recurse(q - 2, 0)
    d = plus[0].shape[0] if plus else 1
    ident = np.eye(d, dtype=np.int64)
    new_minus = [np.kron(_QI, ident), np.kron(_QJ, ident)]
    new_minus += [np.kron(_QK, g) for g in plus]
    return [], new_minus


class GammaSet:
    """Concrete real representation of the generators for signature (p, q)."""

    def __init__(self, p: int, q: int, gammas):
        self.p = p
        self.q = q
        self.n = p + q
        self.eta = (1,) * p + (-1,) * q
        self.gammas = tuple(gammas)
        self.dim = self.gammas[0].shape[0] if self.gammas else 1

    def gamma(self, i: int) -> np.ndarray:
        """1-based: indices 1..p square to +1, p+1..p+q to -1."""
        if not 1 <= i <= self.n:
            raise IndexError(f"gamma index {i} outside 1..{self.n}")
        return self.gammas[i - 1]

    def eta_entry(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"eta index {i} outside 1..{self.n}")
        return self.eta[i - 1]

    def antisym(self, a: int, b: int) -> np.ndarray:
        """[gamma_a, gamma_b] / 2, exact in int64 (equals gamma_a gamma_b off
        the diagonal, zero on it)."""
        ga, gb = self.gamma(a), self.gamma(b)
        comm = ga @ gb - gb @ ga
        half, rem = np.divmod(comm, 2)
        if rem.any():
            raise AssertionError("commutator of gammas must be even")
        return half

    def spin_generator(self, a: int, b: int):
        """Rotation generator antisym(a, b)/2 as an exact Fraction matrix.
        The Lie layer takes antisym(a, b) over scale 2 directly
        (MatrixAlgebra.from_ints) and builds no Fractions.

        With M(a,b) = gamma_a gamma_b / 2 for a != b the commutators close as

            [M(a,b), M(c,d)] = eta_bc M(a,d) - eta_ac M(b,d)
                               - eta_bd M(a,c) + eta_ad M(b,c).
        """
        return from_scaled(self.antisym(a, b), 2)

    def top(self) -> np.ndarray:
        """Product of all generators, highest index first."""
        out = np.eye(self.dim, dtype=np.int64)
        for i in range(self.n, 0, -1):
            out = out @ self.gamma(i)
        return out

    def top_square_sign(self) -> int:
        t = self.top()
        sq = t @ t
        ident = np.eye(self.dim, dtype=np.int64)
        if np.array_equal(sq, ident):
            return 1
        if np.array_equal(sq, -ident):
            return -1
        raise AssertionError("top element must square to +/- identity")

    def __repr__(self):
        return f"GammaSet(p={self.p}, q={self.q}, dim={self.dim})"


def build_gammas(p: int, q: int) -> GammaSet:
    if p < 0 or q < 0:
        raise ValueError("signature counts must be nonnegative")
    if p + q > MAX_TOTAL:
        raise ValueError(f"p + q > {MAX_TOTAL} not supported")
    plus, minus = _recurse(p, q)
    return GammaSet(p, q, plus + minus)


def anticommutator_defect(gs: GammaSet) -> int:
    """max |gamma_i gamma_j + gamma_j gamma_i - 2 eta_i delta_ij I|, exactly.

    Zero for every GammaSet this module builds; kept as a function because the
    acceptance checks sweep it over all signatures.
    """
    ident = np.eye(gs.dim, dtype=np.int64)
    worst = 0
    for i in range(gs.n):
        gi = gs.gammas[i]
        for j in range(i, gs.n):
            gj = gs.gammas[j]
            anti = gi @ gj + gj @ gi
            if i == j:
                anti = anti - 2 * gs.eta[i] * ident
            m = int(np.abs(anti).max()) if anti.size else 0
            worst = max(worst, m)
    return worst


def entries_are_signs(gs: GammaSet) -> bool:
    return all(int(np.abs(g).max(initial=0)) <= 1 for g in gs.gammas)


def gammas_to_json(gs: GammaSet) -> dict:
    return {
        "p": gs.p,
        "q": gs.q,
        "dim": gs.dim,
        "eta": list(gs.eta),
        "gammas": [g.tolist() for g in gs.gammas],
    }


def gammas_from_json(data: dict) -> GammaSet:
    gammas = [np.array(g, dtype=np.int64) for g in data["gammas"]]
    gs = GammaSet(int(data["p"]), int(data["q"]), gammas)
    if gs.dim != int(data["dim"]):
        raise ValueError("dimension field disagrees with matrices")
    return gs
