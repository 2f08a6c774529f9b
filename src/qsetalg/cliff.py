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
generators as tuples of Python ints, `perm` and `sign`: row r of
gamma_{i+1} has sign[i][r] in column perm[i][r]. With signs +-1 a
generator is also a permutation of 2d points (signed_points): row r goes to
point perm[r] or perm[r] + d by its sign, and point r + d to the other one.
The matrix product a b is then the point map a, then b (then): one
bytes.translate while 2d <= 256, so the recursion, the pair products and
the anticommutator check run on these. Dense matrices are built only on
first read of `gammas`. Everything is exact on Python ints; the
representation dimension is not always the minimal one (Cl(0,8) lands at
64 rather than 16).

Indices are 1-based in the public API: gamma(1) .. gamma(p) square to +1,
gamma(p+1) .. gamma(p+q) to -1.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import chain
from operator import add, mul, neg


def _monomial(matrix) -> tuple:
    """(perm, sign) of one square integer matrix whose every row holds
    exactly one nonzero entry; ValueError for any other matrix."""
    perm, sign = [], []
    for row in matrix:
        if len(row) != len(matrix):
            raise ValueError("gamma matrices must be square and of one size")
        cols = [c for c, x in enumerate(row) if x]
        if len(cols) != 1:
            raise ValueError("a gamma matrix has a row without exactly one nonzero entry")
        perm.append(cols[0])
        sign.append(int(row[cols[0]]))
    return tuple(perm), tuple(sign)


def _mul(a, b) -> tuple:
    """Product of two monomials a = (perm, sign) and b: row r of a b holds
    sign_a[r] sign_b[perm_a[r]] in column perm_b[perm_a[r]]."""
    (pa, sa), (pb, sb) = a, b
    return tuple(map(pb.__getitem__, pa)), tuple(map(mul, sa, map(sb.__getitem__, pa)))


def signed_points(perm, sign):
    """The monomial (perm, sign) as a permutation of 2d points (see the
    module text); KeyError when a sign is not +-1."""
    return _close(map(add, perm, map({1: 0, -1: len(perm)}.__getitem__, sign)), len(perm))


def _close(head, d: int):
    """The point permutation whose first d points go to `head`: point r + d
    goes to the negative of head[r]. A 256-byte translation table while
    2d <= 256, else a tuple."""
    swap, rest = _swap(d)
    if rest is None:
        head = tuple(head)
        return head + tuple(map(swap.__getitem__, head))
    head = bytes(head)
    return head + head.translate(swap) + rest


@cache
def _swap(d: int) -> tuple:
    """(table sending point x to its negative, padding to 256 bytes or None
    past 2d = 256)."""
    swap = [*range(d, 2 * d), *range(d)]
    if 2 * d > 256:
        return swap, None
    rest = bytes(range(2 * d, 256))
    return bytes(swap) + rest, rest


def then(a, b):
    """The point permutation of the matrix product a b: a, then b."""
    if isinstance(a, bytes) and isinstance(b, bytes):
        return a.translate(b)
    return tuple(map(b.__getitem__, a))


def point_monomial(pts, d: int) -> tuple:
    """(perm, sign) of a point permutation of 2d points."""
    cols, signs = _unpoint(d)
    return tuple(map(cols.__getitem__, pts[:d])), tuple(map(signs.__getitem__, pts[:d]))


@cache
def _unpoint(d: int) -> tuple:
    """(column, sign) of each of 2d points."""
    return (*range(d), *range(d)), (1,) * d + (-1,) * d


_SX = _monomial([[0, 1], [1, 0]])
_SZ = _monomial([[1, 0], [0, -1]])
_SM = _monomial([[0, 1], [-1, 0]])  # squares to -1
# Left multiplication by i and j on quaternions with basis (1, i, j, k).
_QI = _monomial([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_QJ = _monomial([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
_SXZ = _mul(_SX, _SZ)
_QK = _mul(_QI, _QJ)
_SEEDS = {
    (0, 0): (),
    (1, 0): (_monomial([[1]]),),
    (0, 1): (_SM,),
    (2, 0): (_SX, _SZ),
    (0, 2): (_QI, _QJ),
}

MAX_TOTAL = 12  # largest p + q of a gamma set, and of a gamma vertex


def _kron(a, old, d: int) -> tuple:
    """The point permutations of kron(a, g) for the seed a = (perm, sign),
    signs +-1, and each point permutation g of d rows in old: row (r, s) has
    sign a_r b_s in column perm_a(r) d + perm_b(s), so block r of the head
    is g's head sent through one table per row r of a (_blocks)."""
    size, tables = len(a[0]) * d, _blocks(a, d)
    if isinstance(tables[0], bytes):
        return tuple(_close(b"".join([g[:d].translate(t) for t in tables]), size) for g in old)
    return tuple(_close(chain.from_iterable(then(g[:d], t) for t in tables), size) for g in old)


@cache
def _blocks(a, d: int) -> tuple:
    """For each row r of the seed a, the table sending a point of d rows to
    its point in block r of kron(a, g): bytes while the product has at most
    128 rows, else tuples."""
    size, tables = len(a[0]) * d, []
    for c, s in zip(*a):
        lo, hi = c * d + (size if s < 0 else 0), c * d + (0 if s < 0 else size)
        cols = [*range(lo, lo + d), *range(hi, hi + d)]
        tables.append(tuple(cols) if 2 * size > 256 else bytes(cols + [0] * (256 - 2 * d)))
    return tuple(tables)


def _recurse(p: int, q: int) -> tuple:
    """(point permutations, dimension) of signature (p, q), plus generators
    first."""
    if (p, q) in _SEEDS:
        seeds = _SEEDS[p, q]
        return tuple(signed_points(*m) for m in seeds), len(seeds[0][0]) if seeds else 1
    if p >= 1 and q >= 1:
        (old, d), lead, mid, tail = _recurse(p - 1, q - 1), (_SX,), _SZ, (_SM,)
    elif q == 0:  # p >= 3
        (old, d), lead, mid, tail = _recurse(0, p - 2), (_SX, _SZ), _SXZ, ()
    else:  # p == 0, q >= 3
        (old, d), lead, mid, tail = _recurse(q - 2, 0), (_QI, _QJ), _QK, ()
    eye = (_close(range(d), d),)
    gens = (*(_kron(s, eye, d)[0] for s in lead), *_kron(mid, old, d), *(_kron(s, eye, d)[0] for s in tail))
    return gens, len(mid[0]) * d


class GammaSet:
    """Concrete real representation of the generators for signature (p, q).

    The set holds `perm` and `sign`, one tuple of Python ints per monomial
    generator; the dense view and, where every sign is +-1, the point
    permutations are derived from them on first read (a built set starts
    with the point permutations it was built as)."""

    def __init__(self, p: int, q: int, perm, sign):
        self.p = p
        self.q = q
        self.n = p + q
        self.eta = (1,) * p + (-1,) * q
        self.perm = tuple(map(tuple, perm))
        self.sign = tuple(map(tuple, sign))
        self.dim = len(self.perm[0]) if self.perm else 1

    @cached_property
    def gammas(self) -> tuple:
        """The generators as dense integer matrices, tuples of rows, built on
        first read."""
        zero = (0,) * self.dim
        return tuple(
            tuple(zero[:c] + (s,) + zero[c + 1:] for c, s in zip(perm, sign)) for perm, sign in zip(self.perm, self.sign)
        )

    @cached_property
    def _points(self):
        """The generators as point permutations, or None when a sign is not
        +-1."""
        try:
            return tuple(map(signed_points, self.perm, self.sign))
        except KeyError:
            return None

    def _index(self, i: int, what: str = "gamma") -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"{what} index {i} outside 1..{self.n}")
        return i - 1

    def gamma(self, i: int) -> tuple:
        """1-based: indices 1..p square to +1, p+1..p+q to -1."""
        return self.gammas[self._index(i)]

    def eta_entry(self, i: int) -> int:
        return self.eta[self._index(i, "eta")]

    def products(self, pairs) -> tuple:
        """The point permutations of gamma_a gamma_b for the 1-based pairs
        (a, b); ValueError when a sign is not +-1. For a != b in a set that
        anticommutes gamma_a gamma_b is [gamma_a, gamma_b] / 2, and over
        scale 2 these are the rotation generators: with A_ab = gamma_a gamma_b,
        [A_ab, A_cd] = 2 (eta_bc A_ad - eta_ac A_bd - eta_bd A_ac + eta_ad A_bc)."""
        pts = self._points
        if pts is None:
            raise ValueError("products of gammas need signs +-1")
        return tuple(then(pts[self._index(a)], pts[self._index(b)]) for a, b in pairs)

    def _top(self) -> tuple:
        """(perm, sign) of the top element, the product of all generators
        highest index first."""
        start = (tuple(range(self.dim)), (1,) * self.dim)
        return reduce(_mul, zip(self.perm[::-1], self.sign[::-1]), start)

    def top_square_sign(self) -> int:
        perm, sign = _mul(self._top(), self._top())
        found = [s for s in (1, -1) if perm == tuple(range(self.dim)) and sign == (s,) * self.dim]
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
    points, dim = _recurse(p, q)
    monomials = [point_monomial(g, dim) for g in points]
    gs = GammaSet(p, q, [m[0] for m in monomials], [m[1] for m in monomials])
    gs._points = points
    return gs


def _pair_defect(gs: GammaSet, i: int, j: int) -> int:
    """max |entry| of gamma_i gamma_j + gamma_j gamma_i - 2 eta_i delta_ij I
    (0-based): row r holds the first product's entry in column c1, the
    second's in c2 and the target's in r, summed where columns coincide."""
    gi, gj = (gs.perm[i], gs.sign[i]), (gs.perm[j], gs.sign[j])
    (c1, v1), (c2, v2) = _mul(gi, gj), _mul(gj, gi)
    t = 2 * gs.eta[i] if i == j else 0
    worst = 0
    for r, (a, x, b, y) in enumerate(zip(c1, v1, c2, v2)):
        row = {r: -t}
        row[a] = row.get(a, 0) + x
        row[b] = row.get(b, 0) + y
        worst = max(worst, *map(abs, row.values()))
    return worst


def anticommutator_defect(gs: GammaSet) -> int:
    """max |gamma_i gamma_j + gamma_j gamma_i - 2 eta_i delta_ij I|, exactly.

    Zero for every GammaSet this module builds; kept as a function because the
    acceptance checks sweep it over all signatures. On a set of signs +-1 a
    pair whose point permutations show gamma_i gamma_j == -gamma_j gamma_i
    (gamma_i^2 == eta_i I for i == j) has no nonzero entry; every other pair
    is counted entry by entry (_pair_defect).
    """
    pairs, pts, d = [(i, j) for i in range(gs.n) for j in range(i, gs.n)], gs._points, gs.dim
    if pts is not None:
        square = {1: _close(range(d), d), -1: _close(range(d, 2 * d), d)}  # I and -I
        want = {(i, j): square[gs.eta[i]] if i == j else then(then(pts[j], pts[i]), square[-1]) for i, j in pairs}
        pairs = [(i, j) for i, j in pairs if then(pts[i], pts[j]) != want[i, j]]
    return max((_pair_defect(gs, i, j) for i, j in pairs), default=0)


def entries_are_signs(gs: GammaSet) -> bool:
    return max(map(abs, chain.from_iterable(gs.sign)), default=0) <= 1


def gammas_to_json(gs: GammaSet) -> dict:
    return {
        "p": gs.p,
        "q": gs.q,
        "dim": gs.dim,
        "eta": list(gs.eta),
        "gammas": [[list(row) for row in g] for g in gs.gammas],
    }
