"""Exact Lie-algebra machinery: structure constants, Killing forms, gradings,
and one-parameter contractions, on Python ints.

A MatrixAlgebra is a basis of integer matrices G_i over one scale s
(basis_i = G_i / s), assumed (and verified) to close under commutators,
each held sparse as {r * d + c: entry}. A linalg.ColumnSolver inverts the
basis's Gram matrix once: it reads coordinates off the trace form where
that matrix is diagonal (16 I on the frames, 2 I on so3, I on h1,
diag(8, 10, 10) on so21, 8 I on so4) and goes through a RationalSpan for
any other basis, refuses a dependent basis, and finds every bracket outside
the span by an exact Pythagorean check rather than a least-squares fit.

A basis of signed permutations with signs +-1 (MatrixAlgebra.of_points:
the gamma products of the frames, so4 and the toy triple) is also held as
cliff point permutations. Two such generators that commute or anticommute,
as gamma products do, have G_i G_j == +-G_j G_i, one bytes.translate each:
the bracket is 0 or 2 G_i G_j, and a lookup by the first d points finds
the one generator +-G_k it lands on (-G_k is G_k with its two halves of
points swapped). Any other pair goes through the solver.

StructureConstants hold the constants as one sparse table over one
denominator D: table[i, j] = {k: C} for i < j, c_ijk = C / D in lowest
terms. Jacobi sums, the Killing form, the derived and lower central series
and contractions run over its nonzero entries; killing_det eliminates the
integer Killing form over D^2 (linalg.det). MatrixAlgebra.basis,
StructureConstants.c and killing_form are Fraction views for reports.
numeric_contraction_check, an independent float refit of the same basis
(one batched commutator product and one least-squares call), is a
cross-check rather than the source of truth, and the one numpy user here.

Contractions follow the graded-rescaling pattern: assign each basis element a
weight w_i, scale x_i -> eps^{w_i} x_i, and watch

    c_ijk(eps) = eps^(w_i + w_j - w_k) * c_ijk

as eps -> 0. Nonzero constants with negative exponent diverge (rejected),
zero-exponent ones survive, positive ones decay. The limit is again a Lie
algebra (Jacobi holds at every eps, hence in the limit) but usually a
non-isomorphic, non-semisimple one; killing_det of the limit going to zero
while the original is nonzero is the signature of a genuine contraction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index

from .cliff import then
from .linalg import ColumnSolver, LinalgError, RationalSpan, det


class LieError(ValueError):
    """Ill-posed algebra or contraction input; the CLI exits 2 on it."""


class ClosureError(LieError):
    """A commutator left the span of the basis."""


class ContractionError(LieError):
    """Divergent or ill-posed contraction request."""


class MatrixAlgebra:
    """Lie algebra presented by an independent basis of integer matrices
    over one scale: basis_i == matrices[i] / scale."""

    def __init__(self, name: str, matrices, scale: int, labels=None):
        """The algebra spanned by matrices[i] / scale, for square integer
        matrices of one size (sequences of rows) and an integer scale > 0."""
        d = len(matrices[0]) if len(matrices) else 0
        if any(len(m) != d or any(len(row) != d for row in m) for m in matrices):
            raise ValueError("basis matrices must be square and same size")
        entries = [{r * d + c: index(x) for r, row in enumerate(m) for c, x in enumerate(row) if x} for m in matrices]
        self._setup(name, entries, d, scale, labels)
        self._points = None

    @classmethod
    def of_points(cls, name: str, points, d: int, scale: int, labels=None) -> "MatrixAlgebra":
        """The algebra spanned by signed permutations over scale, each given
        as a cliff point permutation of 2d points."""
        alg = cls.__new__(cls)
        alg._setup(name, [{r * d + x % d: 1 - 2 * (x >= d) for r, x in enumerate(g[:d])} for g in points], d, scale, labels)
        alg._points = tuple(points)
        return alg

    def _setup(self, name: str, entries, d: int, scale: int, labels) -> None:
        if type(scale) is not int or scale <= 0:
            raise ValueError(f"the scale of {name} must be a positive int, not {scale!r}")
        n = len(entries)
        if not n:
            raise ValueError("empty basis")
        try:
            self._solver = ColumnSolver(entries)
        except LinalgError:
            raise ValueError(f"basis of {name} is linearly dependent") from None
        self.name, self.entries, self.matrix_dim, self.scale = name, tuple(entries), d, scale
        self.labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(n))
        if len(self.labels) != n:
            raise ValueError("one label per basis element")
        self._sc = None

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def matrices(self) -> tuple:
        """The integer matrices G_i, dense tuples of rows, built on first read."""
        d = self.matrix_dim
        return tuple(tuple(tuple(m.get(r * d + c, 0) for c in range(d)) for r in range(d)) for m in self.entries)

    @cached_property
    def basis(self) -> tuple:
        """The basis as Fraction matrices, G_i / scale, built on first read."""
        return tuple(tuple(tuple(Fraction(x, self.scale) for x in row) for row in m) for m in self.matrices)

    def _commutator(self, i: int, j: int) -> dict:
        """G_i G_j - G_j G_i, sparse over r * d + c."""
        (a, b), d = (self.matrices[i], self.matrices[j]), self.matrix_dim
        out = {}
        for r in range(d):
            for c in range(d):
                x = sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(d))
                if x:
                    out[r * d + c] = x
        return out

    def _point_brackets(self) -> dict:
        """{(i, j): {k: x}}, x over the solver's den, for the pairs of a basis
        of points whose products G_i G_j and G_j G_i are equal (bracket 0)
        or opposite with G_i G_j == +-G_k (bracket 2 G_i G_j), found by a
        lookup by the first d points, where -G has G's last d; every other
        pair is left out."""
        pts, d, n = self._points, self.matrix_dim, self.dim
        compose = bytes.translate if isinstance(pts[0], bytes) else then
        lookup, out = {}, {}
        for k, g in enumerate(pts):
            lookup[g[:d]], lookup[g[d:2 * d]] = (k, 1), (k, -1)
        for i, gi in enumerate(pts):
            for j in range(i + 1, n):
                ij, ji = compose(gi, pts[j]), compose(pts[j], gi)
                if ij == ji:
                    out[i, j] = {}
                elif ij[:d] == ji[d:2 * d] and ij[:d] in lookup:
                    k, sign = lookup[ij[:d]]
                    out[i, j] = {k: 2 * sign * self._solver.den}
        return out

    def structure_constants(self) -> "StructureConstants":
        """Solve every [basis_i, basis_j], i < j, against the basis. The
        solver gives G_i G_j - G_j G_i == sum_k x_k G_k / den, with
        ClosureError when it leaves the span; the basis is G / scale and the
        brackets (G_i G_j - G_j G_i) / scale^2, so the constants are
        x / (den * scale)."""
        if self._sc is None:
            n = self.dim
            table = self._point_brackets() if self._points is not None else {}
            for i in range(n):
                for j in range(i + 1, n):
                    if (i, j) not in table:
                        x, inside = self._solver.solve(self._commutator(i, j))
                        if not inside:
                            raise ClosureError(f"[{i},{j}] leaves the span of the basis")
                        table[i, j] = dict(enumerate(x))
            self._sc = StructureConstants(n, table, self._solver.den * self.scale, labels=self.labels)
        return self._sc

    def __repr__(self):
        return f"MatrixAlgebra({self.name!r}, dim={self.dim}, matrices {self.matrix_dim}x{self.matrix_dim})"


class StructureConstants:
    """c[i][j][k] with [x_i, x_j] = sum_k c[i][j][k] x_k, held as the sparse
    table {(i, j): {k: C}}, i < j, of nonzero integers C and one
    denominator D > 0 with c_ijk == C / D in lowest terms; the Fraction
    table c is a view built on first read. Pairs are held in sorted order,
    and nonzero() sorts each pair's k."""

    def __init__(self, n: int, table, D: int = 1, labels=None):
        """Constants table[i, j][k] / D for pairs i < j < n and k < n, D != 0;
        a pair left out commutes."""
        if D == 0:
            raise ValueError("structure constants need a nonzero denominator D")
        rows = {}
        for (i, j), row in sorted(table.items()):
            row = {k: v for k, v in row.items() if v}
            if not 0 <= i < j < n or row and not 0 <= min(row) <= max(row) < n:
                raise ValueError("structure constants take pairs i < j < n and indices k < n")
            if row:
                rows[i, j] = row
        g = gcd(D, *(v for row in rows.values() for v in row.values())) * (-1 if D < 0 else 1)
        if g != 1:
            rows = {ij: {k: v // g for k, v in row.items()} for ij, row in rows.items()}
        self.table, self.D, self.n = rows, D // g, n
        self.labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(n))

    @cached_property
    def c(self) -> tuple:
        """Nested tuples of Fraction, the table over D, built on first read."""
        n, both = self.n, self._both
        return tuple(tuple(tuple(Fraction(both.get((i, j), {}).get(k, 0), self.D) for k in range(n)) for j in range(n)) for i in range(n))

    @property
    def dim(self) -> int:
        return self.n

    def bracket(self, i: int, j: int) -> dict:
        """{k: C} with [x_i, x_j] = sum_k C x_k / D, for any i, j."""
        return dict(self._both.get((i, j), {}))

    @cached_property
    def _both(self) -> dict:
        """The table with its antisymmetric half: (i, j) and (j, i)."""
        out = dict(self.table)
        for (i, j), row in self.table.items():
            out[j, i] = {k: -v for k, v in row.items()}
        return out

    def jacobi_defect(self) -> Fraction:
        """max |[[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j]| coordinate
        over i < j < k. Each of the three terms is a nested bracket
        [[x_a,x_b],x_c], a < b, with c the largest, smallest or middle
        index (sign +, +, -), so the sums gather C_abm C_mcl over the
        nonzero constants, keyed by the sorted triple and l."""
        after, sums = {}, {}  # m -> [(c, l, C_mcl)]
        for (m, c), inner in self._both.items():
            after.setdefault(m, []).extend((c, l, y) for l, y in inner.items())
        for (a, b), row in self.table.items():
            for m, x in row.items():
                for c, l, y in after.get(m, ()):
                    if c < a:
                        key, f = (c, a, b, l), x
                    elif a < c < b:
                        key, f = (a, c, b, l), -x
                    elif c > b:
                        key, f = (a, b, c, l), x
                    else:
                        continue
                    sums[key] = sums.get(key, 0) + f * y
        return Fraction(max(map(abs, sums.values()), default=0), self.D ** 2)

    def _killing(self) -> list:
        """The integer Killing form: killing_form() == _killing() / D^2.
        K_ab = sum over (m, l) of c_aml c_blm, gathered by (m, l)."""
        at = {}  # (m, l) -> [(a, C_aml)]
        for (a, m), row in self._both.items():
            for l, x in row.items():
                at.setdefault((m, l), []).append((a, x))
        out = [[0] * self.n for _ in range(self.n)]
        for (m, l), left in at.items():
            for b, y in at.get((l, m), ()):
                for a, x in left:
                    out[a][b] += x * y
        return out

    def killing_form(self):
        """K[i][j] = trace(ad x_i . ad x_j), exact."""
        den = self.D ** 2
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._killing())

    def killing_det(self) -> Fraction:
        return det(self._killing(), self.D ** 2)

    def is_semisimple(self) -> bool:
        return self.killing_det() != 0

    def _bracket_vector(self, u, v) -> list:
        """D [u, v] for coordinate vectors u and v."""
        out = [0] * self.n
        for (i, j), row in self.table.items():
            f = u[i] * v[j] - u[j] * v[i]
            if f:
                for k, x in row.items():
                    out[k] += f * x
        return out

    def _series_vanishes(self, derived: bool) -> bool:
        """Descending series test. Each term is an ideal inside the previous
        one, so a step that fails to drop the dimension has stabilized; a
        strict drop can happen at most dim times. Vectors are integer rows:
        a common scale does not change a span."""
        n = self.n
        basis = current = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n + 1):
            span = RationalSpan(n)
            brackets = (self._bracket_vector(u, v) for u in (current if derived else basis) for v in current)
            vecs = [w for w in brackets if any(w) and span.add(w)]
            if not vecs or len(vecs) == len(current):
                return not vecs
            current = vecs
        return False

    def is_nilpotent(self) -> bool:
        return self._series_vanishes(derived=False)

    def is_solvable(self) -> bool:
        return self._series_vanishes(derived=True)

    def is_abelian(self) -> bool:
        return not self.table

    def classify(self) -> str:
        if self.is_abelian():
            return "abelian"
        if self.is_semisimple():
            return "semisimple"
        if self.is_nilpotent():
            return "nilpotent"
        if self.is_solvable():
            return "solvable"
        return "non-semisimple (mixed)"

    def nonzero(self):
        """Sorted (i, j, k, c) with i < j and c != 0."""
        return [(i, j, k, Fraction(row[k], self.D)) for (i, j), row in self.table.items() for k in sorted(row)]

    def __repr__(self):
        return f"StructureConstants(dim={self.dim})"


class ContractionFamily:
    """Weighted rescaling x_i -> eps^{w_i} x_i of a structure-constant table."""

    def __init__(self, sc: StructureConstants, weights):
        self.sc = sc
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != sc.dim:
            raise ContractionError("one weight per basis element")
        self._wden = lcm(*(w.denominator for w in self.weights))
        w = [x.numerator * (self._wden // x.denominator) for x in self.weights]
        # exponents w_i + w_j - w_k of every nonzero constant, times _wden
        self._exp = {(i, j): {k: w[i] + w[j] - w[k] for k in row} for (i, j), row in sc.table.items()}
        bad = [(i, j, k) for (i, j), row in self._exp.items() for k, e in row.items() if e < 0]
        if bad:  # name the first in sorted order
            (i, j, k), labels = min(bad), sc.labels
            e = self.exponent(i, j, k)
            raise ContractionError(f"constant ({labels[i]},{labels[j]})->{labels[k]} diverges: exponent {e} < 0")

    def _indices(self):
        """(i, j, k) of the nonzero constants, i < j, sorted."""
        return ((i, j, k) for (i, j), row in self.sc.table.items() for k in sorted(row))

    def exponent(self, i: int, j: int, k: int) -> Fraction:
        return self.weights[i] + self.weights[j] - self.weights[k]

    def decaying(self):
        return [(i, j, k, c, self.exponent(i, j, k)) for i, j, k, c in self.sc.nonzero() if self._exp[i, j][k] > 0]

    def at(self, eps: Fraction) -> StructureConstants:
        """Exact table at a finite parameter value; exponents must be integers.
        With eps = p/q and exponents e in lo..top, c_ijk eps^e is
        C * p^(e - lo) * q^(top - e) over D * q^top * p^(-lo)."""
        eps = Fraction(eps)
        for i, j, k in self._indices():
            if self._exp[i, j][k] % self._wden:
                raise ContractionError(
                    f"exponent {self.exponent(i, j, k)} is not an integer; evaluate with a "
                    f"rational square root of eps instead"
                )
        exps = {ij: {k: e // self._wden for k, e in row.items()} for ij, row in self._exp.items()}
        every = [e for row in exps.values() for e in row.values()]
        lo, top = min([0, *every]), max([0, *every])
        p, q = eps.numerator, eps.denominator
        table = {
            ij: {k: v * p ** (exps[ij][k] - lo) * q ** (top - exps[ij][k]) for k, v in row.items()}
            for ij, row in self.sc.table.items()
        }
        return StructureConstants(self.sc.dim, table, self.sc.D * q ** top * p ** -lo, labels=self.sc.labels)

    def limit(self) -> StructureConstants:
        """Keep the constants c_ijk, i < j, with exponent zero (and c_jik = -c_ijk)."""
        table = {ij: {k: v for k, v in row.items() if not self._exp[ij][k]} for ij, row in self.sc.table.items()}
        return StructureConstants(self.sc.dim, table, self.sc.D, labels=self.sc.labels)

    def describe(self):
        """(label_i, label_j, label_k, constant, exponent) rows, sorted."""
        labels = self.sc.labels
        return [(labels[i], labels[j], labels[k], v, self.exponent(i, j, k)) for i, j, k, v in self.sc.nonzero()]


# cond * 2^-52 within the refit's 1e-9 tolerance (see numeric_contraction_check)
_MAX_REFIT_COND = 1e-9 * 2**52


def numeric_contraction_check(algebra: MatrixAlgebra, weights, eps: float) -> float:
    """Re-derive the structure constants of the eps-scaled basis in float
    arithmetic via least squares and compare against the exact family.

    Every bracket i < j comes from one batched product of the scaled stack,
    and all of them are solved in one np.linalg.lstsq call with one column
    per bracket. The stack and the exact table are scattered from the sparse
    algebra.entries and sc.table. eps^w is Python's **, so a negative eps with
    a fractional weight scales by a complex number where numpy's ** gives NaN.

    Returns the largest relative deviation over all (i, j) brackets, where the
    denominator is max(1, |exact coordinate vector|_inf). Independent of the
    exact path: uses numpy only, on floats of the integer matrices and of
    C / D, each correctly rounded. A value past float range raises
    (OverflowError or FloatingPointError) rather than turning into inf. The
    solve loses about cond * 2^-52 of relative accuracy, cond the condition
    number of the scaled basis read off lstsq's singular values; past
    _MAX_REFIT_COND that exceeds the 1e-9 the refit is judged at, so it
    raises ContractionError instead of a verdict.
    """
    import numpy as np

    sc = algebra.structure_constants()
    ws = np.array([float(w) for w in ContractionFamily(sc, weights).weights])
    n, d = algebra.dim, algebra.matrix_dim
    i, j = np.array([(a, b) for a in range(n) for b in range(a + 1, n)], dtype=np.intp).reshape(-1, 2).T
    with np.errstate(over="raise"):
        # each nonzero entry over the scale by Python's /, correctly rounded at any size
        at = {g * d * d + r: x / algebra.scale for g, m in enumerate(algebra.entries) for r, x in m.items()}
        stack = np.zeros(n * d * d)
        stack[list(at)] = list(at.values())
        mats = stack.reshape(n, d, d) * _powers(eps, ws)[:, None, None]
        cols = mats.reshape(n, -1).T
        comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(len(i), len(cols))
        coords, _, _, sv = np.linalg.lstsq(cols, comm.T, rcond=None)
        hi, lo = sv[[0, -1]].tolist()
        cond = hi / lo if lo else float("inf")
        if not cond <= _MAX_REFIT_COND:
            raise ContractionError(
                f"the float refit cannot resolve eps={eps:g}: condition number {cond:.3g} > {_MAX_REFIT_COND:.3g}"
            )
        coords = coords.T
        exps = ws[i, None] + ws[j, None] - ws[None, :]
        # the constants C / D; pair a < b is row a (2n - a - 3) / 2 + b - 1
        at = {(a * (2 * n - a - 3) // 2 + b - 1) * n + k: C / sc.D for (a, b), row in sc.table.items() for k, C in row.items()}
        exact = np.zeros(len(i) * n)
        exact[list(at)] = list(at.values())
        exact = exact.reshape(len(i), n) * _powers(eps, exps)
        scale = np.maximum(1.0, np.abs(exact).max(axis=1))
        return float((np.abs(coords - exact).max(axis=1) / scale).max(initial=0.0))


def _powers(eps: float, exps):
    """eps ** e for every float e in exps, by Python's **, once per value."""
    import numpy as np

    flat = exps.ravel().tolist()
    power = {e: eps ** e for e in set(flat)}
    return np.array([power[e] for e in flat]).reshape(exps.shape)


# ---------------------------------------------------------------------------
# catalog


# a built catalog algebra, its default weights (or None) and a note
CatalogEntry = namedtuple("CatalogEntry", "algebra weights note")


def rotation3() -> MatrixAlgebra:
    """so(3): (L_a)_bc = -epsilon_abc, [L1, L2] = L3 cyclically."""
    l1 = ((0, 0, 0), (0, 0, -1), (0, 1, 0))
    l2 = ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
    l3 = ((0, -1, 0), (1, 0, 0), (0, 0, 0))
    return MatrixAlgebra("so3", (l1, l2, l3), 1, labels=("L1", "L2", "L3"))


def heisenberg3() -> MatrixAlgebra:
    """Strictly upper-triangular 3x3: [P, Q] = Z, Z central, Killing form 0."""
    p = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    q = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    c = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    return MatrixAlgebra("h1", (p, q, c), 1, labels=("P", "Q", "Z"))


def boost_triple() -> MatrixAlgebra:
    """so(2,1) in the symmetric presentation [q,p] = r, [p,r] = q, [q,r] = p,
    realized rationally on three levels as (q, p, r) =
    ([A,B]/2, (A-B)/2, (A+B)/2) for the integer ladder pair
    A e_k = (2-k) e_{k+1}, B e_k = k e_{k-1}, whose bracket [A, B] is
    diagonal with entries 2k - 2, written here in closed form."""
    a = ((0, 0, 0), (2, 0, 0), (0, 1, 0))
    b = ((0, 1, 0), (0, 0, 2), (0, 0, 0))
    ab = ((-2, 0, 0), (0, 0, 0), (0, 0, 2))
    diff, total = (tuple(tuple(x + s * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)) for s in (-1, 1))
    return MatrixAlgebra("so21", (ab, diff, total), 2, labels=("q", "p", "r"))


def rotation_boost6() -> MatrixAlgebra:
    """so(4) split into three rotations and three boosts (last coordinate)."""
    from .cliff import build_gammas

    gs = build_gammas(4, 0)
    pairs = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    labels = ("r12", "r13", "r23", "b1", "b2", "b3")
    return MatrixAlgebra.of_points("so4", gs.products(pairs), gs.dim, 2, labels=labels)


# key -> (builder, default contraction weights, note); nothing is built here
CATALOG = {
    "so3": (rotation3, None, "compact rotations"),
    "h1": (heisenberg3, None, "nilpotent; Killing form vanishes"),
    "so21": (
        boost_triple,
        (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
        "symmetric triple; contracts onto h1",
    ),
    "so4": (
        rotation_boost6,
        (Fraction(0),) * 3 + (Fraction(1),) * 3,
        "rotations kept, boosts decay: contracts onto iso(3)",
    ),
}


def catalog_entry(key: str) -> CatalogEntry:
    """Build the one catalog algebra named key."""
    build, weights, note = CATALOG[key]
    return CatalogEntry(build(), weights, note)
