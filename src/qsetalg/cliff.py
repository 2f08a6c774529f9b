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

Every seed is a signed permutation, written as (columns, signs), and a
Kronecker product of signed permutations is one, so a GammaSet holds each
generator as a permutation of 2d points, its `points`: row r, holding sign
s in column c, sends point r to point c (s = +1) or c + d (s = -1), and
point r + d to the other one. The matrix product a b is the point map a,
then b (then): one bytes.translate while 2d <= 256. The recursion, the pair
products, the top element and the anticommutator check run on these; -g
is g with its two halves of points swapped. Dense matrices are built only
on first read of `gammas`. Everything is exact on Python ints; the
representation dimension is not always the minimal one (Cl(0,8) lands at
64 rather than 16).

Indices are 1-based in the public API: gamma(1) .. gamma(p) square to +1,
gamma(p+1) .. gamma(p+q) to -1.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import chain
from operator import add


def signed_points(columns, signs):
    """The signed permutation with signs[r] = +-1 in column columns[r] of
    row r as a permutation of 2d points (see the module text)."""
    return _close(map(add, columns, map({1: 0, -1: len(columns)}.__getitem__, signs)), len(columns))


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


# Seeds as (columns, signs): row r holds signs[r] in column columns[r].
_SX = ((1, 0), (1, 1))
_SZ = ((0, 1), (1, -1))
_SM = ((1, 0), (1, -1))  # squares to -1
_SXZ = ((1, 0), (-1, 1))  # sigma_x sigma_z
# Left multiplication by i, j and k = i j on quaternions with basis (1, i, j, k).
_QI = ((1, 0, 3, 2), (-1, 1, -1, 1))
_QJ = ((2, 3, 0, 1), (-1, 1, 1, -1))
_QK = ((3, 2, 1, 0), (-1, -1, 1, 1))
_SEEDS = {
    (0, 0): (),
    (1, 0): (((0,), (1,)),),
    (0, 1): (_SM,),
    (2, 0): (_SX, _SZ),
    (0, 2): (_QI, _QJ),
}

MAX_TOTAL = 12  # largest p + q of a gamma set, and of a gamma vertex


def _kron(a, old, d: int) -> tuple:
    """The point permutations of kron(a, g) for the seed a = (columns,
    signs) and each point permutation g of d rows in old: row (r, s) has
    sign a_r b_s in column col_a(r) d + col_b(s), so block r of the head
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

    The set holds `points`, one point permutation of 2 dim points per
    generator (a 256-byte table while 2 dim <= 256, a tuple past that); the
    dense view is derived from them on first read."""

    def __init__(self, p: int, q: int, points, dim: int):
        self.p = p
        self.q = q
        self.n = p + q
        self.eta = (1,) * p + (-1,) * q
        self.points = tuple(points)
        self.dim = dim

    @cached_property
    def gammas(self) -> tuple:
        """The generators as dense integer matrices, tuples of rows, built
        from the points on first read."""
        d = self.dim
        zero = (0,) * d
        return tuple(tuple(zero[:x % d] + (1 - 2 * (x >= d),) + zero[x % d + 1:] for x in g[:d]) for g in self.points)

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
        (a, b). For a != b in a set that anticommutes gamma_a gamma_b is
        [gamma_a, gamma_b] / 2, and over scale 2 these are the rotation
        generators: with A_ab = gamma_a gamma_b,
        [A_ab, A_cd] = 2 (eta_bc A_ad - eta_ac A_bd - eta_bd A_ac + eta_ad A_bc)."""
        return tuple(then(self.points[self._index(a)], self.points[self._index(b)]) for a, b in pairs)

    def _top(self):
        """The point permutation of the top element, the product of all
        generators highest index first."""
        return reduce(then, self.points[::-1], _close(range(self.dim), self.dim))

    def top_square_sign(self) -> int:
        top, d = self._top(), self.dim
        head = [*then(top, top)[:d]]
        found = [s for s, x in ((1, 0), (-1, d)) if head == [*range(x, x + d)]]
        if not found:
            raise AssertionError("top element must square to +/- identity")
        return found[0]

    def __repr__(self):
        return f"GammaSet(p={self.p}, q={self.q}, dim={self.dim})"


def build_gammas(p: int, q: int) -> GammaSet:
    if type(p) is not int or type(q) is not int:
        raise ValueError("signature counts must be integers")
    if p < 0 or q < 0:
        raise ValueError("signature counts must be nonnegative")
    if p + q > MAX_TOTAL:
        raise ValueError(f"p + q > {MAX_TOTAL} not supported")
    return GammaSet(p, q, *_recurse(p, q))


def _pair_defect(gs: GammaSet, i: int, j: int) -> int:
    """max |entry| of gamma_i gamma_j + gamma_j gamma_i - 2 eta_i delta_ij I
    (0-based): row r holds each product's sign in the column of its point
    and the target's in r, summed where columns coincide."""
    (gi, gj), d = (gs.points[i], gs.points[j]), gs.dim
    t = 2 * gs.eta[i] if i == j else 0
    worst = 0
    for r, pair in enumerate(zip(then(gi, gj)[:d], then(gj, gi)[:d])):
        row = {r: -t}
        for x in pair:
            row[x % d] = row.get(x % d, 0) + 1 - 2 * (x >= d)
        worst = max(worst, *map(abs, row.values()))
    return worst


def anticommutator_defect(gs: GammaSet) -> int:
    """max |gamma_i gamma_j + gamma_j gamma_i - 2 eta_i delta_ij I|, exactly.

    Zero for every GammaSet this module builds; kept as a function because the
    acceptance checks sweep it over all signatures. A pair whose point
    permutations show gamma_i gamma_j == -gamma_j gamma_i (gamma_i^2 ==
    eta_i I for i == j) has no nonzero entry; every other pair is counted
    entry by entry (_pair_defect).
    """
    pts, d = gs.points, gs.dim
    minus_eta = {1: _close(range(d, 2 * d), d), -1: _close(range(d), d)}  # -eta_i I, so gamma_i^2 == -(-eta_i I)
    pairs = [
        (i, j) for i in range(gs.n) for j in range(i, gs.n)
        if then(pts[i], pts[j])[:d] != (minus_eta[gs.eta[i]] if i == j else then(pts[j], pts[i]))[d:2 * d]
    ]
    return max((_pair_defect(gs, i, j) for i, j in pairs), default=0)


def entries_are_signs(gs: GammaSet) -> bool:
    """Whether every generator is a signed permutation: its points are a
    permutation of the 2d points that sends point r + d to the negative of
    r's image."""
    d = gs.dim
    swap = _swap(d)[0]
    return all(sorted(g[:2 * d]) == [*range(2 * d)] and [*g[d:2 * d]] == [swap[x] for x in g[:d]] for g in gs.points)


def gammas_to_json(gs: GammaSet) -> dict:
    return {
        "p": gs.p,
        "q": gs.q,
        "dim": gs.dim,
        "eta": list(gs.eta),
        "gammas": [[list(row) for row in g] for g in gs.gammas],
    }
