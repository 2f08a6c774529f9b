"""Exact rational matrix kernel.

The same exact numbers appear in two forms:

- an integer-scaled array (A, d): integers A over one common denominator d,
  so the numbers are A / d; the only working form, from gamma product to
  Killing determinant, and the only input the Lie layer takes;
- a Matrix, an immutable tuple of tuples of Fraction: an output view that
  reports and tests read (the Lie layer builds its views with from_scaled on
  first read), and otherwise only the input of congruence_signature and
  mmul. int_scaled and from_scaled convert between the two, for matrices
  and higher tensors alike.

All bulk arithmetic runs on integer-scaled arrays through two routines, and
each states its bound before it runs:

- int_matmul(a, b): a @ b with matmul broadcasting. An output entry is a sum
  of k products (k the inner dimension), so every product and every partial
  sum is at most k * max|a| * max|b| in absolute value. A contraction that
  is not a matrix product (vertexnet's tensor merges) reshapes its operands
  to one first.
- int_combine((c, a), ...): bounded by sum(|c| * max|a|).

int_matmul takes the first of three tiers its bound fits; int_combine takes
the first of the last two. A caller that sums products itself casts them
into the tier (tier()) of its sum's bound: the Lie layer's commutators
S_i S_j - S_j S_i, within 2 * d * max|S|^2, so the difference fits too.

- float64 through np.matmul (BLAS) while the bound is under 2^53. Every
  integer of magnitude up to 2^53 is a float64, and a sum or product of
  float64s is rounded only when its exact value is not itself a float64.
  Here every operand entry, every product and every partial sum, in
  whatever order the BLAS adds them (a fused multiply-add included), is an
  integer under the bound, so none is ever rounded and the result is exact.
  (This rests on the BLAS summing the products a_ij b_jk themselves; it
  forms no sums of operand entries, as Strassen's scheme would.)
- int64 while the bound is under 2^62.
- Python ints (dtype=object) otherwise, which cannot overflow.

There is no separate Fraction loop: mmul, commutators, structure constants,
Jacobi and Killing sums all take these routines. Nothing here rounds: the
float64 tier only ever holds integers it represents exactly, and to_float is
the only way out to floating point, for the numeric cross-checks.

All exact elimination is one row step, _eliminate, and one echelon,
RationalSpan: primitive, fully reduced integer rows, with the product of the
factors the rows were scaled by kept. det, ColumnSolver's Gram inverse and
the central series are spans; congruence_signature updates rows with the same
step, dividing by the previous pivot (Bareiss 1968). det takes an integer
array with its denominator, and returns a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]


class LinalgError(ValueError):
    pass


def shape(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if len(a) else 0)


# ---------------------------------------------------------------------------
# integer-scaled arrays

_LIMIT = 1 << 62  # int64 bound with a bit to spare for one sign flip or difference
_EXACT = 1 << 53  # every integer up to 2^53 in magnitude is a float64


def peak(a) -> int:
    """max |entry| of an integer array, as a Python int (0 when empty), read
    off its max and min, so no array of |a| is made."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def cast(a, bound: int):
    """a as int64 when `bound`, a stated bound on every value computed from
    it, is under 2^62, else as Python ints: the one int64 tier rule."""
    return a.astype(np.int64 if bound < _LIMIT else object, copy=False)


def tier(a, bound: int):
    """a in the first tier `bound` fits: float64 under 2^53, else as cast."""
    return a.astype(np.float64) if bound < _EXACT else cast(a, bound)


def fit(a):
    """a as int64 if every entry fits comfortably, else as Python ints."""
    return cast(a, peak(a))


def int_scaled(a):
    """(A, d) with a == A / d exactly: A an integer array of a's shape, d the
    least common denominator of the entries (ints, Fractions, or anything
    Fraction accepts)."""
    arr = np.array(a, dtype=object)
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in arr.flat]
    den = lcm(*(x.denominator for x in vals))
    ints = np.array([x.numerator * (den // x.denominator) for x in vals], dtype=object)
    return fit(ints.reshape(arr.shape)), den


def from_scaled(a, den: int) -> tuple:
    """Nested tuples of Fraction equal to the integer array a divided by den."""
    memo = {}

    def entry(x):
        f = memo.get(x)
        if f is None:
            f = memo[x] = Fraction(x, den)
        return f

    def build(v, depth):
        if depth == 1:
            return tuple(map(entry, v))
        return tuple(build(r, depth - 1) for r in v)

    return build(a.tolist(), a.ndim)


def int_combine(*terms):
    """sum(c * a for c, a in terms) exactly, for Python ints c and integer
    arrays a (broadcast). int64 while sum(|c| * max|a|) < 2^62."""
    bound = sum(max(abs(c), 1) * max(peak(a), 1) for c, a in terms)
    return sum(c * cast(a, bound) for c, a in terms)


def int_matmul(a, b):
    """Exact a @ b for integer arrays, with np.matmul's broadcasting, in the
    tier its bound k * max|a| * max|b| picks (each factor taken as at least
    1): float64 BLAS under 2^53, int64 under 2^62, Python ints otherwise. The
    result is int64 or Python ints."""
    bound = max(a.shape[-1], 1) * max(peak(a), 1) * max(peak(b), 1)
    out = np.matmul(tier(a, bound), tier(b, bound))
    return out.astype(np.int64) if bound < _EXACT else out


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product: one int_matmul over the integer-scaled operands."""
    k, k2 = shape(a)[1], shape(b)[0]
    if k != k2:
        raise LinalgError(f"shape mismatch {shape(a)} @ {shape(b)}")
    (ia, da), (ib, db) = int_scaled(a), int_scaled(b)
    return from_scaled(int_matmul(ia, ib), da * db)


def to_float(a, den: int) -> np.ndarray:
    """a / den as floats, each correctly rounded (as float(Fraction) is)."""
    return (a.astype(object) / den).astype(float)


def det(a, den: int) -> Fraction:
    """Exact determinant of the integer array a divided by den. a's rows go
    into one RationalSpan; when all n enlarge it they end as a permuted
    diagonal, and det(a) * num / d == sign * prod(pivots) for the span's
    scale num / d."""
    n, m = a.shape
    if n != m:
        raise LinalgError("determinant of non-square matrix")
    span = RationalSpan(n)
    if not all(span.add(row) for row in a.tolist()):
        return Fraction(0)
    leads = [lead for _, lead in span.rows]
    flips = sum(x > y for i, x in enumerate(leads) for y in leads[i + 1:])
    num, d = span._scale
    pivots = prod(row[lead] for row, lead in span.rows)
    return Fraction((-1) ** flips * pivots * d, num * den ** n)


def _eliminate(v: list, w: list, lead: int, div: int = 0) -> tuple[list, int]:
    """(u, g): integer row v with its entry at `lead` cleared against w
    (w[lead] != 0) fraction-free, u = (w[lead] * v - v[lead] * w) / g. g is
    div when given (an exact divisor: Bareiss's previous pivot), else the gcd
    of the entries, which leaves u primitive."""
    p, f = w[lead], v[lead]
    out = [p * x - f * y for x, y in zip(v, w)]
    g = div or gcd(*out)
    return (out if g in (0, 1) else [x // g for x in out]), g


class ColumnSolver:
    """Solves M X = B exactly for a fixed integer matrix M (m x k) of full
    column rank, for any number of right-hand sides at once.

    One RationalSpan over the rows of [G | I], G = M^T M the Gram matrix,
    reduces them to (p_c e_c | p_c inv(G)_c), one for each column c, so the
    inverse is kept scaled to integers: inv(G) = A / den, den > 0. A reduced
    row whose lead falls in the right half means G, hence M's columns, is
    singular (LinalgError). solve(B) forms y = M^T B and X = A y, and b is in
    the span exactly when den |b|^2 == y_b . x_b: P = M inv(G) M^T projects
    orthogonally onto the span, so den |b|^2 - y_b . x_b = den |(I - P) b|^2.
    """

    def __init__(self, m):
        self.m = m
        k = m.shape[1]
        span = RationalSpan(2 * k)
        for c, row in enumerate(int_matmul(m.T, m).tolist()):
            span.add(row + [int(c == j) for j in range(k)])
        if any(lead >= k for _, lead in span.rows):
            raise LinalgError("columns are linearly dependent")
        pivots = [row for row, _ in sorted(span.rows, key=lambda item: item[1])]
        self.den = lcm(*(row[c] for c, row in enumerate(pivots)))
        self.a = fit(np.array([[x * (self.den // p[c]) for x in p[k:]] for c, p in enumerate(pivots)], dtype=object))

    def solve(self, b):
        """For an integer array B (m x r), return (X, inside): M X == den * B
        for every column of B inside the span of M's columns (inside[r]). y is
        formed in two halves, so no float copy of all of B is made; |b|^2 and
        y_b . x_b run in int64 while den * m * max|B|^2 and
        k * max|y| * max|x| are under 2^62."""
        half = b.shape[1] // 2
        y = np.concatenate([int_matmul(self.m.T, part) for part in (b[:, :half], b[:, half:])], axis=1)
        x = int_matmul(self.a, y)
        norms = _column_dots(b, b, self.den * len(b) * max(peak(b), 1) ** 2)
        return x, self.den * norms == _column_dots(y, x, len(y) * max(peak(y), 1) * max(peak(x), 1))


def _column_dots(a, b, bound: int):
    """sum(a * b, axis=0), in int64 while `bound` is under 2^62."""
    return np.matmul(cast(a, bound).T[:, None], cast(b, bound).T[:, :, None])[:, 0, 0]


class RationalSpan:
    """The span over the rationals of integer vectors, kept as a reduced
    echelon of integer rows: `rows` holds (row, lead) pairs in insertion
    order, every row primitive (gcd 1) and zero in every other row's lead
    column. Every step multiplies one row by a rational factor (w[lead] / g in
    _eliminate, 1 / gcd when a row is inserted); _scale = (num, den) is the
    product of the factors applied to inserted rows, so the determinant of the
    inserted vectors is den / num times that of the rows."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[list[int], int]] = []
        self._scale = (1, 1)

    def add(self, vec) -> bool:
        """Insert an integer vector; True if it enlarged the span."""
        v, num, den = list(vec), 1, 1
        for w, lead in self.rows:
            if v[lead]:
                num *= w[lead]
                v, g = _eliminate(v, w, lead)
                den *= g
        lead = next((j for j in range(self.dim) if v[j]), None)
        if lead is None:
            return False
        g = gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        den *= g
        for idx, (w, wlead) in enumerate(self.rows):
            if w[lead]:
                num *= v[lead]
                w, g = _eliminate(w, v, lead)
                den *= g
                self.rows[idx] = (w, wlead)
        self.rows.append((v, lead))
        self._scale = (self._scale[0] * num, self._scale[1] * den)
        return True


def congruence_signature(a: Matrix) -> tuple[int, int, int]:
    """Exact (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Lagrange congruence diagonalization of the integer-scaled matrix:
    simultaneous row and column operations preserve the signature, zero
    diagonals are repaired with the classic row+row / col+col trick before
    elimination. Rows are updated by _eliminate, divided exactly by the
    previous pivot (Bareiss), so the trailing block stays symmetric and equals
    that pivot times the rational one: pivot d is positive iff d * prev > 0.
    """
    n, m = shape(a)
    if n != m:
        raise LinalgError("signature of non-square matrix")
    w = int_scaled(a)[0].tolist()
    if any(w[i][j] != w[j][i] for i in range(n) for j in range(i)):
        raise LinalgError("signature of non-symmetric matrix")
    pos = neg = zero = 0
    prev = 1
    for i in range(n):
        if w[i][i] == 0:
            swap_j = next((j for j in range(i + 1, n) if w[j][j] != 0), None)
            if swap_j is not None:
                w[i], w[swap_j] = w[swap_j], w[i]
                for row in w:
                    row[i], row[swap_j] = row[swap_j], row[i]
            else:
                off_j = next((j for j in range(i + 1, n) if w[i][j] != 0), None)
                if off_j is None:
                    zero += 1
                    continue
                w[i] = [x + y for x, y in zip(w[i], w[off_j])]
                for row in w:
                    row[i] += row[off_j]
        d = w[i][i]
        if d * prev > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            w[r] = _eliminate(w[r], w[i], i, prev)[0]
        prev = d
    return pos, neg, zero
