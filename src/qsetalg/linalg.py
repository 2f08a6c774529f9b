"""Exact rational linear algebra on Python ints.

Numbers are held as integers over one common denominator, or as Fraction.
A Matrix, an immutable tuple of tuples of Fraction, is the form reports and
tests read, and the input of congruence_signature and mmul.

All exact elimination is one row step, _eliminate, and one echelon,
RationalSpan: primitive, fully reduced integer rows, with the product of the
factors the rows were scaled by kept. det, ColumnSolver's Gram inverse and
the Lie layer's central series are spans; congruence_signature updates rows
with the same step, dividing by the previous pivot (Bareiss 1968). det takes
integer rows with their denominator, and returns a Fraction.

Nothing here imports numpy: Python ints cannot overflow, so no step states
or checks a bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]


class LinalgError(ValueError):
    pass


def shape(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if len(a) else 0)


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product of two Fraction matrices."""
    if shape(a)[1] != shape(b)[0]:
        raise LinalgError(f"shape mismatch {shape(a)} @ {shape(b)}")
    cols = tuple(zip(*b))
    return tuple(tuple(Fraction(sum(map(mul, row, col))) for col in cols) for row in a)


def det(a, den: int) -> Fraction:
    """Exact determinant of the integer rows a divided by den. a's rows go
    into one RationalSpan; when all n enlarge it they end as a permuted
    diagonal, and det(a) * num / d == sign * prod(pivots) for the span's
    scale num / d."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise LinalgError("determinant of non-square matrix")
    span = RationalSpan(n)
    if not all(span.add(row) for row in a):
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
    """Coordinates of integer vectors in the span of k fixed, independent
    integer vectors, exactly.

    Vectors are sparse: dicts from a position to a nonzero int. The Gram
    matrix G (g_ab = v_a . v_b, summed over the positions two vectors share)
    is inverted once, inv(G) = A / den with integer A and den > 0. Where G
    is diagonal, the coordinates are read off the trace form: A is diagonal
    with den / g_aa. Otherwise one RationalSpan over the rows of [G | I]
    reduces them to (p_c e_c | p_c inv(G)_c), one for each c, and a reduced
    row whose lead falls in the right half means G, hence the vectors, is
    singular (LinalgError). solve(b) forms y = (v_a . b) and x = A y, and b
    is in the span exactly when den |b|^2 == y . x: P, the orthogonal
    projection onto the span, has den |b|^2 - y . x = den |(I - P) b|^2.
    """

    def __init__(self, vectors):
        k = len(vectors)
        self._at = at = {}  # position -> [(a, v_a[position])]
        for a, vec in enumerate(vectors):
            for pos, x in vec.items():
                at.setdefault(pos, []).append((a, x))
        gram = [[0] * k for _ in range(k)]
        for hits in at.values():
            for a, x in hits:
                row = gram[a]
                for b, y in hits:
                    row[b] += x * y
        diag = [gram[a][a] for a in range(k)]
        if all(row.count(0) == k - 1 for row in gram) and all(diag):
            self.den, self.a = lcm(*diag), [[0] * k for _ in range(k)]
            for a, g in enumerate(diag):
                self.a[a][a] = self.den // g
            return
        span = RationalSpan(2 * k)
        for c, row in enumerate(gram):
            span.add(row + [int(c == j) for j in range(k)])
        if any(lead >= k for _, lead in span.rows):
            raise LinalgError("columns are linearly dependent")
        pivots = [row for row, _ in sorted(span.rows, key=lambda item: item[1])]
        self.den = lcm(*(row[c] for c, row in enumerate(pivots)))
        self.a = [[x * (self.den // p[c]) for x in p[k:]] for c, p in enumerate(pivots)]

    def solve(self, b) -> tuple[list, bool]:
        """(x, inside) for a sparse integer vector b: x the integer
        coordinates over den, inside whether b lies in the span, so that
        b == sum(x_a v_a) / den exactly when inside."""
        y = [0] * len(self.a)
        for pos, value in b.items():
            for a, x in self._at.get(pos, ()):
                y[a] += x * value
        x = [sum(map(mul, row, y)) for row in self.a]
        return x, self.den * sum(v * v for v in b.values()) == sum(map(mul, y, x))


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

    Lagrange congruence diagonalization of the matrix scaled to integers by
    the least common denominator of its entries: simultaneous row and column
    operations preserve the signature, zero diagonals are repaired with the
    classic row+row / col+col trick before elimination. Rows are updated by
    _eliminate, divided exactly by the previous pivot (Bareiss), so the
    trailing block stays symmetric and equals that pivot times the rational
    one: pivot d is positive iff d * prev > 0.
    """
    n, m = shape(a)
    if n != m:
        raise LinalgError("signature of non-square matrix")
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in a]
    den = lcm(*{x.denominator for row in rows for x in row})
    w = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
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
