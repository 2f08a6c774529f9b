"""Exact Lie-algebra machinery: structure constants, Killing forms, gradings,
and one-parameter contractions.

A MatrixAlgebra is a basis of exact rational matrices assumed (and verified)
to close under commutators, taken and held as an integer stack G over one
scale s (basis_i = G_i / s), as its builders make it: gamma products and
ladder pairs over 2, the small catalog matrices over 1. The commutators are
formed for one i against all j > i at a time, in the tier of their bound
2 * d * max|G|^2 for d x d matrices (linalg.tier), and all of them are
solved at once against the basis by one linalg.ColumnSolver (the basis's
Gram matrix inverted once per algebra), whose exact Pythagorean check finds
every bracket outside the span. So closure failures are detected exactly
rather than hidden under a least-squares fit;
a float refit of the same stack (numeric_contraction_check: one batched
commutator product and one least-squares call for every bracket) is an
independent cross-check, not the source of truth.

StructureConstants hold the constants as one integer array C of shape
(n, n, n) and one common denominator D: c_ijk = C[i, j, k] / D. Jacobi sums,
the Killing form, the derived and lower central series, and contractions are
integer products and array operations on C. The matrix products among them
are linalg.int_matmul, whose bound for a @ b with inner dimension k is
B = k * max|a| * max|b|: float64 while B < 2^53, int64 while B < 2^62. The
sums are linalg.int_combine, int64 while its bound is < 2^62, and a
contraction's factors eps^e multiply C elementwise on Python ints:

    Jacobi   [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j], three
             products of C with C summed in blocks of one i in the tier
             their sum's bound 3 * n * max|C|^2 picks (linalg.tier)
    Killing  C.reshape(n, n^2) @ C.transpose(2, 1, 0).reshape(n^2, n),
             B = n^2 * max|C|^2
    series   U @ C.reshape(n, n^2), B = n * max|U| * max|C|, for the rows U
             of the current term (or the basis), then V @ that, reshaped
             to a stack of n x n, B = n * max|V| * max|U C|

and when a bound fails the same product runs on Python ints; killing_det
eliminates the integer Killing form over D^2. MatrixAlgebra.basis,
StructureConstants.c and killing_form are Fraction views for reports; the
first two are built on first read and cached.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

import numpy as np

from . import linalg
from .linalg import ColumnSolver, LinalgError, RationalSpan


class LieError(ValueError):
    """Ill-posed algebra or contraction input; the CLI exits 2 on it."""


class ClosureError(LieError):
    """A commutator left the span of the basis."""


class ContractionError(LieError):
    """Divergent or ill-posed contraction request."""


class MatrixAlgebra:
    """Lie algebra presented by an independent basis of rational matrices,
    kept as an integer stack over one scale: basis_i == stack[i] / scale."""

    def __init__(self, name: str, stack, scale: int, labels=None):
        """The algebra spanned by stack[i] / scale, for an integer array stack
        of shape (n, d, d) and an integer scale > 0."""
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("basis matrices must be square and same size")
        n = len(stack)
        if not n:
            raise ValueError("empty basis")
        self.stack, self.scale = linalg.fit(stack), scale
        try:
            self._solver = ColumnSolver(self.stack.reshape(n, -1).T)
        except LinalgError:
            raise ValueError(f"basis of {name} is linearly dependent") from None
        self.name = name
        self.matrix_dim = stack.shape[1]
        self.labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(n))
        if len(self.labels) != n:
            raise ValueError("one label per basis element")
        self._sc = self._comm = None

    @property
    def dim(self) -> int:
        return len(self.stack)

    @cached_property
    def basis(self) -> tuple:
        """The basis as Fraction matrices, stack / scale, built on first read."""
        return linalg.from_scaled(self.stack, self.scale)

    def commutators(self):
        """Integer array K of shape (pairs, d, d) over pairs(n): [basis_i,
        basis_j] == K[pair] / scale^2. Formed for one i against all j > i at
        a time, in the tier of 2 * d * max|G|^2 (a difference of two sums of
        d products), and cast once, as each block is written into K."""
        if self._comm is None:
            n, d = self.dim, self.matrix_dim
            bound = 2 * d * max(linalg.peak(self.stack), 1) ** 2
            g = linalg.tier(self.stack, bound)
            self._comm = linalg.cast(np.zeros((len(pairs(n)[0]), d, d), dtype=np.int64), bound)
            # K's rows split after n - 1, n - 2, ... pairs: one block of (i, j > i) per i
            for i, block in enumerate(np.split(self._comm, np.cumsum(range(n - 1, 1, -1)))):
                np.subtract(np.matmul(g[i], g[i + 1:]), np.matmul(g[i + 1:], g[i]), out=block, casting="unsafe")
        return self._comm

    def structure_constants(self) -> "StructureConstants":
        """Solve every [basis_i, basis_j], i < j, against the basis at once.
        With the stack flattened into columns M, the solver gives X with
        M X == den * K; the basis is M / scale and the commutators K / scale^2,
        so the constants are X / (den * scale)."""
        if self._sc is None:
            n = self.dim
            i, j = pairs(n)
            comm = self.commutators().reshape(len(i), self.matrix_dim ** 2).T
            x, inside = self._solver.solve(comm)
            if not inside.all():
                bad = int(np.argmin(inside))
                raise ClosureError(f"[{i[bad]},{j[bad]}] leaves the span of the basis")
            c = np.zeros((n, n, n), dtype=x.dtype)
            c[i, j] = x.T
            c[j, i] = -x.T
            self._sc = StructureConstants(c, self._solver.den * self.scale, labels=self.labels)
        return self._sc

    def __repr__(self):
        return f"MatrixAlgebra({self.name!r}, dim={self.dim}, matrices {self.matrix_dim}x{self.matrix_dim})"


class StructureConstants:
    """c[i][j][k] with [x_i, x_j] = sum_k c[i][j][k] x_k, held as the integer
    array C and denominator D with c == C / D; the Fraction table c is a view
    built on first read."""

    def __init__(self, C, D: int, labels=None):
        """Constants C / D for an integer array C of shape (n, n, n), D != 0."""
        n = C.shape[0]
        if C.shape != (n, n, n):
            raise ValueError("structure constants must be n x n x n")
        g = gcd(D, int(np.gcd.reduce(C, axis=None))) * (-1 if D < 0 else 1)
        self.C, self.D = linalg.fit(C // g), D // g
        self.labels = tuple(labels) if labels else tuple(f"x{i+1}" for i in range(n))

    @cached_property
    def c(self) -> tuple:
        """Nested tuples of Fraction, C / D, built on first read."""
        return linalg.from_scaled(self.C, self.D)

    @property
    def dim(self) -> int:
        return len(self.C)

    def jacobi_defect(self) -> Fraction:
        """max |[[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j]| coordinate
        over i < j < k, for one i at a time, in the tier of the sum's bound
        3 * n * max|C|^2 (each term is a sum of n products)."""
        n, (pi, pj) = self.dim, pairs(self.dim)
        bound = 3 * n * max(linalg.peak(self.C), 1) ** 2
        c = linalg.tier(self.C, bound)
        flat, col = c.reshape(n, n * n), c.transpose(1, 0, 2)  # col[i][k] = C[k, i]
        worst = 0
        for i in range(n - 2):
            j, k = (x[len(pi) - (n - i - 1) * (n - i - 2) // 2:] for x in (pi, pj))  # the pairs i < j < k
            cyclic = np.matmul(c[j, k], col[i])  # D^2 [[x_j,x_k],x_i], a row per (j, k)
            cyclic += np.matmul(c[i], flat).reshape(n, n, n)[j, k]  # [[x_i,x_j],x_k]
            cyclic += np.matmul(col[i], flat).reshape(n, n, n)[k, j]  # [[x_k,x_i],x_j]
            worst = max(worst, linalg.peak(cyclic))
        return Fraction(worst, self.D ** 2)

    def _killing(self):
        """The integer Killing form: killing_form() == _killing() / D^2."""
        n = self.dim
        return linalg.int_matmul(self.C.reshape(n, n * n), self.C.transpose(2, 1, 0).reshape(n * n, n))

    def killing_form(self):
        """K[i][j] = trace(ad x_i . ad x_j), exact."""
        return linalg.from_scaled(self._killing(), self.D ** 2)

    def killing_det(self) -> Fraction:
        return linalg.det(self._killing(), self.D ** 2)

    def is_semisimple(self) -> bool:
        return self.killing_det() != 0

    def _series_vanishes(self, derived: bool) -> bool:
        """Descending series test. Each term is an ideal inside the previous
        one, so a step that fails to drop the dimension has stabilized; a
        strict drop can happen at most dim times. Vectors are integer rows:
        a common scale does not change a span."""
        n = self.dim
        basis_vecs = np.eye(n, dtype=np.int64)
        current = basis_vecs
        prev_dim = n
        for _ in range(n + 1):
            span = RationalSpan(n)
            left = current if derived else basis_vecs
            brackets = linalg.int_matmul(left, self.C.reshape(n, n * n)).reshape(-1, n, n)
            brackets = linalg.int_matmul(current, brackets)
            vecs = [w for w in brackets.reshape(-1, n).tolist() if any(w) and span.add(w)]
            if not vecs:
                return True
            if len(vecs) == prev_dim:
                return False
            prev_dim = len(vecs)
            current = linalg.fit(np.array(vecs, dtype=object))
        return False

    def is_nilpotent(self) -> bool:
        return self._series_vanishes(derived=False)

    def is_solvable(self) -> bool:
        return self._series_vanishes(derived=True)

    def is_abelian(self) -> bool:
        return not (self.C != 0).any()

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
        idx = np.argwhere(_upper(self.dim) & (self.C != 0))
        vals = self.C[tuple(idx.T)].tolist()
        return [(i, j, k, Fraction(v, self.D)) for (i, j, k), v in zip(idx.tolist(), vals)]

    def __repr__(self):
        return f"StructureConstants(dim={self.dim})"


@cache
def pairs(n: int):
    """(i, j), the pairs i < j < n in np.triu_indices order, read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@cache
def _upper(n: int):
    """Read-only mask of the (i, j, k) with i < j, shape (n, n, 1)."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
    mask.flags.writeable = False
    return mask


class ContractionFamily:
    """Weighted rescaling x_i -> eps^{w_i} x_i of a structure-constant table."""

    def __init__(self, sc: StructureConstants, weights):
        self.sc = sc
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != sc.dim:
            raise ContractionError("one weight per basis element")
        self._wden = lcm(*(w.denominator for w in self.weights))
        w = linalg.fit(np.array([int(x * self._wden) for x in self.weights], dtype=object))
        # exponents w_i + w_j - w_k of every constant, times _wden
        self._exp = linalg.int_combine(
            (1, w[:, None, None]), (1, w[None, :, None]), (-1, w[None, None, :])
        )
        diverging = np.argwhere(_upper(sc.dim) & (sc.C != 0) & (self._exp < 0))
        if len(diverging):
            i, j, k = diverging[0].tolist()
            raise ContractionError(
                f"constant ({self.sc.labels[i]},{self.sc.labels[j]})->"
                f"{self.sc.labels[k]} diverges: exponent "
                f"{self.exponent(i, j, k)} < 0"
            )

    def exponent(self, i: int, j: int, k: int) -> Fraction:
        return self.weights[i] + self.weights[j] - self.weights[k]

    def decaying(self):
        return [
            (i, j, k, c, self.exponent(i, j, k))
            for i, j, k, c in self.sc.nonzero()
            if self.exponent(i, j, k) > 0
        ]

    def at(self, eps: Fraction) -> StructureConstants:
        """Exact table at a finite parameter value; exponents must be integers.
        With eps = p/q and exponents e in lo..top, c_ijk eps^e is
        C * p^(e - lo) * q^(top - e) over D * q^top * p^(-lo). The product
        runs in int64 while its bound max|C| * max|factor| is under 2^62."""
        eps = Fraction(eps)
        C, live = self.sc.C, self.sc.C != 0
        fractional = np.argwhere(live & (self._exp % self._wden != 0)).tolist()
        if fractional:
            e = self.exponent(*fractional[0])
            raise ContractionError(
                f"exponent {e} is not an integer; evaluate with a "
                f"rational square root of eps instead"
            )
        e = np.where(live, self._exp // self._wden, 0).astype(np.int64)
        lo, top = int(e.min(initial=0)), int(e.max(initial=0))
        p, q = eps.numerator, eps.denominator
        factor = np.array([p ** (x - lo) * q ** (top - x) for x in range(lo, top + 1)], dtype=object)
        bound = linalg.peak(C) * linalg.peak(factor)
        return StructureConstants(
            linalg.cast(C, bound) * linalg.cast(factor, bound)[e - lo],
            self.sc.D * q ** top * p ** -lo,
            labels=self.sc.labels,
        )

    def limit(self) -> StructureConstants:
        """Keep the constants c_ijk, i < j, with exponent zero (and c_jik = -c_ijk)."""
        kept = np.where(_upper(self.sc.dim) & (self._exp == 0), self.sc.C, 0)
        return StructureConstants(kept - kept.transpose(1, 0, 2), self.sc.D, labels=self.sc.labels)

    def describe(self):
        """(label_i, label_j, label_k, constant, exponent) rows, sorted."""
        out = []
        for i, j, k, v in self.sc.nonzero():
            out.append(
                (
                    self.sc.labels[i],
                    self.sc.labels[j],
                    self.sc.labels[k],
                    v,
                    self.exponent(i, j, k),
                )
            )
        return out


# cond * 2^-52 within the refit's 1e-9 tolerance (see numeric_contraction_check)
_MAX_REFIT_COND = 1e-9 * 2**52


@np.errstate(over="raise")
def numeric_contraction_check(
    algebra: MatrixAlgebra, weights, eps: float
) -> float:
    """Re-derive the structure constants of the eps-scaled basis in float
    arithmetic via least squares and compare against the exact family.

    Every bracket i < j comes from one batched product of the scaled stack,
    and all of them are solved in one np.linalg.lstsq call with one column
    per bracket. eps^w is Python's **, so a negative eps with a fractional
    weight scales by a complex number where numpy's ** would give NaN.

    Returns the largest relative deviation over all (i, j) brackets, where the
    denominator is max(1, |exact coordinate vector|_inf). Independent of the
    exact path: uses numpy only, on floats of the integer stack and of C / D.
    A value past float range raises (OverflowError or FloatingPointError)
    rather than turning into inf. The solve loses about cond * 2^-52 of
    relative accuracy, cond the condition number of the scaled basis read off
    lstsq's singular values; past _MAX_REFIT_COND that exceeds the 1e-9 the
    refit is judged at, so it raises ContractionError instead of a verdict.
    """
    sc = algebra.structure_constants()
    fam = ContractionFamily(sc, weights)
    ws = np.array([float(w) for w in fam.weights])
    i, j = pairs(algebra.dim)
    mats = linalg.to_float(algebra.stack, algebra.scale) * _powers(eps, ws)[:, None, None]
    cols = mats.reshape(len(ws), -1).T
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
    exact = linalg.to_float(sc.C, sc.D)[i, j] * _powers(eps, exps)
    scale = np.maximum(1.0, np.abs(exact).max(axis=1))
    return float((np.abs(coords - exact).max(axis=1) / scale).max(initial=0.0))


def _powers(eps: float, exps):
    """eps ** e for every float e in exps, by Python's **, once per value."""
    vals, where = np.unique(exps, return_inverse=True)
    return np.array([eps ** e for e in vals.tolist()])[where.reshape(exps.shape)]


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    algebra: MatrixAlgebra
    weights: tuple | None
    note: str


def rotation3() -> MatrixAlgebra:
    """so(3): (L_a)_bc = -epsilon_abc, [L1, L2] = L3 cyclically."""
    l1 = ((0, 0, 0), (0, 0, -1), (0, 1, 0))
    l2 = ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
    l3 = ((0, -1, 0), (1, 0, 0), (0, 0, 0))
    return MatrixAlgebra("so3", np.array((l1, l2, l3)), 1, labels=("L1", "L2", "L3"))


def heisenberg3() -> MatrixAlgebra:
    """Strictly upper-triangular 3x3: [P, Q] = Z, Z central, Killing form 0."""
    p = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    q = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    c = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    return MatrixAlgebra("h1", np.array((p, q, c)), 1, labels=("P", "Q", "Z"))


def boost_triple() -> MatrixAlgebra:
    """so(2,1) in the symmetric presentation [q,p] = r, [p,r] = q, [q,r] = p,
    realized rationally on three levels as (q, p, r) =
    ([A,B]/2, (A-B)/2, (A+B)/2) for the integer ladder pair
    A e_k = (2-k) e_{k+1}, B e_k = k e_{k-1}, whose bracket [A, B] is
    diagonal with entries 2k - 2, written here in closed form."""
    k = np.arange(3)
    a, b = np.diag(2 - k[:2], -1), np.diag(k[1:], 1)
    stack = np.stack([np.diag(2 * k - 2), a - b, a + b])
    return MatrixAlgebra("so21", stack, 2, labels=("q", "p", "r"))


def rotation_boost6() -> MatrixAlgebra:
    """so(4) split into three rotations and three boosts (last coordinate)."""
    from .cliff import build_gammas

    gs = build_gammas(4, 0)
    pairs = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    return MatrixAlgebra("so4", gs.antisym(pairs), 2, labels=("r12", "r13", "r23", "b1", "b2", "b3"))


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
