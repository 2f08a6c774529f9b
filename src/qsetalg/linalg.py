"""Exact rational matrix kernel.

The same exact numbers appear in two forms:

- a Matrix, an immutable tuple of tuples of Fraction: the public form that
  reports, tests and the small elimination loops read;
- an integer-scaled array (A, d): integers A over one common denominator d,
  so the numbers are A / d. int_scaled and from_scaled convert between the
  two, for matrices and for higher tensors alike.

All bulk arithmetic runs on integer-scaled arrays through two routines, and
each states its bound before it runs:

- int_einsum(spec, *ops): an output entry is a sum of `terms` products (the
  sizes of the summed indices multiplied together), so
  terms * prod(max|op|) < 2^62 keeps every partial sum inside int64;
- int_combine((c, a), ...): sum(|c| * max|a|) < 2^62.

When the bound fails, the same numpy call runs on dtype=object arrays of
Python ints, which cannot overflow. There is no separate Fraction loop: mmul,
commutators, structure constants, Jacobi and Killing sums all take this one
path. Nothing here rounds; to_float is the only way out to floating point,
for the numeric cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]


class LinalgError(ValueError):
    pass


def mat(rows) -> Matrix:
    """Canonicalize nested iterables of ints/Fractions into an exact matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise LinalgError("ragged rows")
    return out


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def smul(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


# ---------------------------------------------------------------------------
# integer-scaled arrays

_LIMIT = 1 << 62  # int64 bound with a bit to spare for one sign flip or difference


def peak(a) -> int:
    """max |entry| of an integer array, as a Python int (0 when empty)."""
    return int(np.abs(a).max(initial=0))


def _cast(a, bound: int):
    """a as int64 when `bound` is under 2^62, else as Python ints."""
    return a.astype(np.int64 if bound < _LIMIT else object, copy=False)


def fit(a):
    """a as int64 if every entry fits comfortably, else as Python ints."""
    return _cast(a, peak(a))


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


def int_einsum(spec: str, *ops):
    """Exact np.einsum over integer arrays, explicit "->" form without
    ellipsis. int64 while terms * prod(max|op|) < 2^62, where terms is the
    number of products summed into one output entry; Python ints otherwise."""
    inputs, out = spec.split("->")
    size = {}
    for letters, op in zip(inputs.split(","), ops):
        size.update(zip(letters, op.shape))
    bound = prod(size[x] for x in size if x not in out)
    bound *= prod(max(peak(op), 1) for op in ops)
    return np.einsum(spec, *(_cast(op, bound) for op in ops))


def int_combine(*terms):
    """sum(c * a for c, a in terms) exactly, for Python ints c and integer
    arrays a (broadcast). int64 while sum(|c| * max|a|) < 2^62."""
    bound = sum(max(abs(c), 1) * max(peak(a), 1) for c, a in terms)
    return sum(c * _cast(a, bound) for c, a in terms)


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product: one int_einsum over the integer-scaled operands."""
    k, k2 = shape(a)[1], shape(b)[0]
    if k != k2:
        raise LinalgError(f"shape mismatch {shape(a)} @ {shape(b)}")
    (ia, da), (ib, db) = int_scaled(a), int_scaled(b)
    return from_scaled(int_einsum("ij,jk->ik", ia, ib), da * db)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return msub(mmul(a, b), mmul(b, a))


def to_float(a: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with partial pivoting."""
    n, m = shape(a)
    if n != m:
        raise LinalgError("determinant of non-square matrix")
    rows = [list(r) for r in a]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / pivot
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return sign * result


def _eliminate(v: list, w: list, lead: int) -> list:
    """Integer row v with its entry at `lead` cleared against w (w[lead] != 0),
    fraction-free, divided by the gcd of its entries."""
    f = v[lead]
    if not f:
        return v
    p = w[lead]
    out = [p * x - f * y for x, y in zip(v, w)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


class ColumnSolver:
    """Solves M X = B exactly for a fixed integer matrix M (m x k) of full
    column rank, for any number of right-hand sides at once.

    One fraction-free elimination over M's rows finds k pivot rows P with M[P]
    invertible (LinalgError when the columns are dependent), and a second one
    inverts M[P] with the inverse kept scaled to integers: inv(M[P]) = A / den.
    Rows are divided by their gcd as they go, so the integers stay small.
    """

    def __init__(self, m):
        self.m = m
        rows = m.tolist()
        k = m.shape[1]
        reduced, pivot_rows = [], []
        for i, row in enumerate(rows):
            for w, lead in reduced:
                row = _eliminate(row, w, lead)
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is not None:
                reduced.append((row, lead))
                pivot_rows.append(i)
                if len(pivot_rows) == k:
                    break
        if len(pivot_rows) < k:
            raise LinalgError("columns are linearly dependent")
        self.pivot_rows = pivot_rows
        # Gauss-Jordan on [M[P] | I]; row i ends as (p_i e_i | p_i inv(M[P])_i)
        aug = [rows[r] + [int(i == j) for j in range(k)] for i, r in enumerate(pivot_rows)]
        for col in range(k):
            piv = next(r for r in range(col, k) if aug[r][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            for r in range(k):
                if r != col:
                    aug[r] = _eliminate(aug[r], aug[col], col)
        self.den = lcm(*(row[i] for i, row in enumerate(aug)))
        self.inv = fit(np.array(
            [[x * (self.den // row[i]) for x in row[k:]] for i, row in enumerate(aug)],
            dtype=object,
        ).reshape(k, k))

    def solve(self, b):
        """For an integer array B (m x r), return (X, inside): M X == den * B
        for every column of B inside the span of M's columns, which one exact
        residual check over all rows decides (inside[r])."""
        x = int_einsum("ij,jr->ir", self.inv, b[self.pivot_rows])
        resid = int_combine((1, int_einsum("ij,jr->ir", self.m, x)), (-self.den, b))
        return x, ~(resid != 0).any(axis=0)


class RationalSpan:
    """Incrementally maintained row echelon span of exact vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[list[Fraction], int]] = []

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for row, lead in self.rows:
            if v[lead] != 0:
                f = v[lead] / row[lead]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self._reduce(vec)
        lead = next((j for j in range(self.dim) if v[j] != 0), None)
        if lead is None:
            return False
        self.rows.append((v, lead))
        return True

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self._reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


def congruence_signature(a: Matrix) -> tuple[int, int, int]:
    """Exact (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Lagrange congruence diagonalization: simultaneous row and column operations
    preserve the signature, zero diagonals are repaired with the classic
    row+row / col+col trick before elimination.
    """
    n, m = shape(a)
    if n != m:
        raise LinalgError("signature of non-square matrix")
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise LinalgError("signature of non-symmetric matrix")
    w = [list(row) for row in a]
    pos = neg = zero = 0

    def add_rowcol(dst, src, f=Fraction(1)):
        for j in range(n):
            w[dst][j] += f * w[src][j]
        for i in range(n):
            w[i][dst] += f * w[i][src]

    def swap_rowcol(i, j):
        w[i], w[j] = w[j], w[i]
        for row in w:
            row[i], row[j] = row[j], row[i]

    for i in range(n):
        if w[i][i] == 0:
            swap_j = next((j for j in range(i + 1, n) if w[j][j] != 0), None)
            if swap_j is not None:
                swap_rowcol(i, swap_j)
            else:
                off_j = next((j for j in range(i + 1, n) if w[i][j] != 0), None)
                if off_j is None:
                    zero += 1
                    continue
                add_rowcol(i, off_j)
        d = w[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if w[r][i] != 0:
                add_rowcol(r, i, -w[r][i] / d)
    return pos, neg, zero
