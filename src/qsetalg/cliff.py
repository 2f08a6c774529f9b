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

Every seed is a signed permutation, and a Kronecker product of monomial
matrices (one nonzero per row) is monomial, so a GammaSet holds its
generators as two int64 stacks of shape (n, d), `perm` and `sign`: row r of
gamma_{i+1} has sign[i, r] in column perm[i, r]. A product of two monomials
is a gather, and the anticommutator, top element and commutator checks run
on these stacks in O(n^2 d). Dense d x d matrices are built only at the
edge, by one builder: on first read of `gammas` (and so of `gamma(i)`,
`gammas_to_json` and the vertex tables of vertexnet), cached, and by
`antisym`, whose whole stack of [gamma_a, gamma_b] / 2 for a list of pairs
(the generators of a rotation frame) is one gather of the cached pair
products made dense at once.

Everything is exact: int64 while a stated bound holds, Python ints past it.
The representation dimension is not always the minimal one (for example
Cl(0,8) lands at 64 rather than 16); callers that only need the algebra
relations never notice, and exactness was the goal here.

Indices are 1-based in the public API: gamma(1) .. gamma(p) square to +1,
gamma(p+1) .. gamma(p+q) to -1.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from .linalg import cast


def _monomial(stack):
    """(perm, sign) stacks of a (k, d, d) integer stack whose every row holds
    exactly one nonzero entry; ValueError for any other stack."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("gamma matrices must be square and of one size")
    nonzero = stack != 0
    if not (nonzero.sum(axis=-1) == 1).all():
        raise ValueError("a gamma matrix has a row without exactly one nonzero entry")
    perm = nonzero.argmax(axis=-1)
    return perm, np.take_along_axis(stack, perm[..., None], axis=-1)[..., 0]


def _mul(a, b):
    """Product of two monomials a = (perm, sign) and b: row r of a b holds
    sign_a[r] sign_b[perm_a[r]] in column perm_b[perm_a[r]]."""
    (pa, sa), (pb, sb) = a, b
    return pb[pa], sa * sb[pa]


def _seed(matrix):
    """(perm, sign) of one monomial matrix."""
    return tuple(x[0] for x in _monomial(np.array([matrix], dtype=np.int64)))


def _stack(*monomials):
    return tuple(np.stack(xs) for xs in zip(*monomials))


def _join(*stacks):
    return tuple(np.concatenate(xs) for xs in zip(*stacks))


_SX = _seed([[0, 1], [1, 0]])
_SZ = _seed([[1, 0], [0, -1]])
_SM = _seed([[0, 1], [-1, 0]])  # squares to -1
# Left multiplication by i and j on quaternions with basis (1, i, j, k).
_QI = _seed([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_QJ = _seed([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
_SXZ = _mul(_SX, _SZ)
_QK = _mul(_QI, _QJ)
_SEEDS = {
    (0, 0): (np.zeros((0, 1), dtype=np.int64),) * 2,
    (1, 0): _stack(_seed([[1]])),
    (0, 1): _stack(_SM),
    (2, 0): _stack(_SX, _SZ),
    (0, 2): _stack(_QI, _QJ),
}

MAX_TOTAL = 12  # largest p + q of a gamma set, and of a gamma vertex


def _kron(a, b):
    """kron(a, g) for the monomial a and every g of the stack b: row (r, s)
    has sign a_r b_s in column perm_a(r) d_b + perm_b(s)."""
    (pa, sa), (pb, sb) = a, b
    k, d = pb.shape
    shape = (k, len(pa) * d)
    perm = pa[None, :, None] * d + pb[:, None, :]
    return perm.reshape(shape), (sa[None, :, None] * sb[:, None, :]).reshape(shape)


def _eye(stack):
    d = stack[0].shape[1]
    return np.arange(d)[None], np.ones((1, d), dtype=np.int64)


def _recurse(p: int, q: int):
    """(perm, sign) stacks of shape (p + q, d), plus generators first."""
    if (p, q) in _SEEDS:
        return _SEEDS[p, q]
    if p >= 1 and q >= 1:
        old = _recurse(p - 1, q - 1)
        return _join(_kron(_SX, _eye(old)), _kron(_SZ, old), _kron(_SM, _eye(old)))
    if q == 0:  # p >= 3
        old = _recurse(0, p - 2)
        return _join(_kron(_SX, _eye(old)), _kron(_SZ, _eye(old)), _kron(_SXZ, old))
    # p == 0, q >= 3
    old = _recurse(q - 2, 0)
    return _join(_kron(_QI, _eye(old)), _kron(_QJ, _eye(old)), _kron(_QK, old))


def _dense(perm, sign):
    """The dense (k, d, d) stack of monomial (perm, sign) stacks."""
    k, d = perm.shape
    out = np.zeros((k, d, d), dtype=sign.dtype)
    out[np.arange(k)[:, None], np.arange(d), perm] = sign
    return out


def _frozen(a):
    a.flags.writeable = False
    return a


class GammaSet:
    """Concrete real representation of the generators for signature (p, q).

    The set holds `perm` and `sign`, (n, d) stacks of its monomial
    generators. Both are read-only: the cached products and the dense view
    are derived from them once."""

    def __init__(self, p: int, q: int, perm, sign):
        self.p = p
        self.q = q
        self.n = p + q
        self.eta = (1,) * p + (-1,) * q
        self.perm = _frozen(perm)
        self.sign = _frozen(sign)
        self.dim = perm.shape[1]

    @cached_property
    def gammas(self) -> tuple:
        """The generators as dense int64 matrices, built on first read."""
        return tuple(_frozen(_dense(self.perm, self.sign)))

    @cached_property
    def _peak(self) -> int:
        """max |sign|, read once: a set's stacks do not change after it is built."""
        return int(np.abs(self.sign).max(initial=0))

    @cached_property
    def _products(self):
        """(perm, sign) of gamma_i gamma_j for every pair (i, j), as (n, n, d)
        stacks, gathered at once; with |sign| <= m the signs are exact for a
        sum of three entries of size up to m^2 and 2 (2 m^2 + 2 < 2^62)."""
        sign = cast(self.sign, 2 * self._peak ** 2 + 2)
        j, after_i = np.arange(len(self.perm))[None, :, None], self.perm[:, None, :]
        return self.perm[j, after_i], sign[:, None, :] * sign[j, after_i]

    def _index(self, i: int, what: str = "gamma") -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"{what} index {i} outside 1..{self.n}")
        return i - 1

    def gamma(self, i: int) -> np.ndarray:
        """1-based: indices 1..p square to +1, p+1..p+q to -1."""
        return self.gammas[self._index(i)]

    def eta_entry(self, i: int) -> int:
        return self.eta[self._index(i, "eta")]

    def antisym(self, pairs) -> np.ndarray:
        """The (k, d, d) stack of A_ab = [gamma_a, gamma_b] / 2 for the k
        1-based pairs (a, b), exact (A_ab equals gamma_a gamma_b off the
        diagonal a == b, zero on it): one gather of the products gamma_a gamma_b
        and gamma_b gamma_a, made dense at once. Over scale 2 these are the
        rotation generators:
        [A_ab, A_cd] = 2 (eta_bc A_ad - eta_ac A_bd - eta_bd A_ac + eta_ad A_bc)."""
        i, j = np.array([[self._index(a), self._index(b)] for a, b in pairs], dtype=np.intp).reshape(-1, 2).T
        perm, sign = self._products
        at, d = ([i, j], [j, i]), self.dim  # gamma_a gamma_b, then gamma_b gamma_a
        ab, ba = _dense(perm[at].reshape(-1, d), sign[at].reshape(-1, d)).reshape(2, -1, d, d)
        half, rem = np.divmod(ab - ba, 2)
        if rem.any():
            raise AssertionError("commutator of gammas must be even")
        return half

    def _top(self):
        """(perm, sign) of the top element, the product of all generators
        highest index first; signs exact for its square: at most 2n factors
        of |sign| <= m."""
        sign = cast(self.sign, self._peak ** (2 * len(self.sign)))
        start = (np.arange(self.dim), np.ones(self.dim, dtype=sign.dtype))
        return reduce(_mul, zip(self.perm[::-1], sign[::-1]), start)

    def top_square_sign(self) -> int:
        top = self._top()
        perm, sign = _mul(top, top)
        ident = (perm == np.arange(self.dim)).all()
        found = [s for s in (1, -1) if ident and (sign == s).all()]
        if not found:
            raise AssertionError("top element must square to +/- identity")
        return found[0]

    def __repr__(self):
        return f"GammaSet(p={self.p}, q={self.q}, dim={self.dim})"


def build_gammas(p: int, q: int) -> GammaSet:
    if p < 0 or q < 0:
        raise ValueError("signature counts must be nonnegative")
    if p + q > MAX_TOTAL:
        raise ValueError(f"p + q > {MAX_TOTAL} not supported")
    return GammaSet(p, q, *(a.copy() for a in _recurse(p, q)))


def anticommutator_defect(gs: GammaSet) -> int:
    """max |gamma_i gamma_j + gamma_j gamma_i - 2 eta_i delta_ij I|, exactly.

    Zero for every GammaSet this module builds; kept as a function because the
    acceptance checks sweep it over all signatures. All pairs are checked at
    once over the (n, n, d) stacks of pair products:
    row r of pair (i, j) has nonzero entries only in column c1 of
    gamma_i gamma_j, column c2 of gamma_j gamma_i and column r of the
    diagonal target, and each entry is the sum of those values whose columns
    coincide. Column c2 of (i, j) is column c1 of (j, i), so the entries at
    c1 and at r cover every pair. With |sign| <= m no entry exceeds
    2 m^2 + 2, so the stacks stay int64 while that is under 2^62 and take
    Python ints past it.
    """
    c1, v1 = gs._products
    c2, v2 = c1.transpose(1, 0, 2), v1.transpose(1, 0, 2)
    c3, v3 = np.arange(gs.dim), (-2 * np.diag(gs.eta))[:, :, None]
    at_c1 = v1 + np.where(c2 == c1, v2, 0) + np.where(c3 == c1, v3, 0)
    at_c3 = v3 + np.where(c1 == c3, v1, 0) + np.where(c2 == c3, v2, 0)
    return int(max(np.abs(at_c1).max(initial=0), np.abs(at_c3).max(initial=0)))


def entries_are_signs(gs: GammaSet) -> bool:
    return gs._peak <= 1


def gammas_to_json(gs: GammaSet) -> dict:
    return {
        "p": gs.p,
        "q": gs.q,
        "dim": gs.dim,
        "eta": list(gs.eta),
        "gammas": [g.tolist() for g in gs.gammas],
    }

