"""Linearization of the finite set algebra over rank frames.

A rank frame at rank r takes every set of rank <= r-1 as a generator (the
generator "is" the monad wrapping that set). Multivectors are finite maps from
basis labels to scalars, where the label of the blade e_{s1} ^ ... ^ e_{sm}
(factors in ascending Ackermann code order) is simply the classical set
{s1,...,sm}. embed() therefore sends a classical set to its blade with
coefficient +1, and the blade basis is ordered by code.

Generator i of a rank frame has code i, so the code of a blade label is the
bitmask of its generators, and a Multivector is keyed by that integer: the
bitmap blade representation (Dorst, Fontijne & Mann, Geometric Algebra for
Computer Science, ch. 19). Labels appear as PerfiniteSet only at the API edge
(the constructor, items, coeff, support, JSON, repr, error text).

Products:

    grassmann(v, w)        exterior product; metric-free, e ^ e = 0: masks
                           that share a bit annihilate, others meet in a | b
    clifford(v, w, frame)  geometric product against the frame's generator
                           metric; e_i e_j + e_j e_i = 2 beta(i, j)

The frame metric has presets "zero" (pure Grassmann), "berezin" (the
restriction of the Berezin polarization to generators, computed on the spot;
it vanishes identically, so clifford coincides with grassmann -- lone
generators are null), and "hyperbolic" (generator 2k pairs with 2k+1 at 1/2,
so the anticommutator of a pair is exactly 1). An explicit symmetric matrix is
also accepted.

The Berezin pairing itself lives on the whole algebra: berezin_norm(w) is the
coefficient of the top blade in w ^ w, and beta_form polarizes it. Both divide
by the frame's top_scale so rescaling the top element rescales norms inversely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .perfinite import (
    PerfiniteSet, bit_positions, decode, enumerate_rank, format_set_text, iota, parse_set_text,
)

_METRIC_PRESETS = ("zero", "berezin", "hyperbolic")


class Multivector:
    """Sparse multivector: finite map from basis label (a set) to scalar,
    held as a map from label code to scalar."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        if not all(isinstance(label, PerfiniteSet) for label in terms):
            raise TypeError("labels must be PerfiniteSet")
        self._terms = {label.code: c for label, c in terms.items() if c != 0}

    @classmethod
    def _of(cls, terms: dict) -> "Multivector":
        """From a map keyed by label code; zero coefficients are dropped."""
        mv = cls.__new__(cls)
        mv._terms = {k: c for k, c in terms.items() if c != 0}
        return mv

    @classmethod
    def zero(cls) -> "Multivector":
        return cls()

    @classmethod
    def scalar(cls, c) -> "Multivector":
        return cls._of({0: c})

    @classmethod
    def blade(cls, label: PerfiniteSet, c=Fraction(1)) -> "Multivector":
        return cls({label: c})

    def coeff(self, label: PerfiniteSet):
        return self._terms.get(label.code, Fraction(0))

    def items(self):
        """(label, coeff) in ascending label-code order (deterministic everywhere)."""
        return [(decode(k), c) for k, c in sorted(self._terms.items())]

    def support(self):
        return tuple(decode(k) for k in sorted(self._terms))

    def grades(self) -> tuple:
        return tuple(sorted({k.bit_count() for k in self._terms}))

    def is_zero(self) -> bool:
        return not self._terms

    def chop(self, tol: float) -> "Multivector":
        """Drop float coefficients below tol; exact coefficients are kept."""
        return Multivector._of(
            {k: c for k, c in self._terms.items() if not (isinstance(c, float) and abs(c) <= tol)}
        )

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return Multivector._of(out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Multivector._of({k: -c for k, c in self._terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, float, Fraction)):
            return Multivector._of({k: c * v for k, v in self._terms.items()})
        return NotImplemented

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "Multivector(0)"
        bits = " + ".join(f"{c}*[{format_set_text(lab)}]" for lab, c in self.items())
        return f"Multivector({bits})"


def embed(x: PerfiniteSet) -> Multivector:
    """Classical set -> its blade, coefficient +1 (code-ordered factors)."""
    return Multivector.blade(x)


class RankFrame:
    """Generator family, metric, and top element for rank r."""

    def __init__(self, r: int, metric="berezin", top_scale=1):
        if not isinstance(r, int) or r < 1:
            raise ValueError("rank frames need integer r >= 1")
        if r > 4:
            raise ValueError("r > 4 needs more generators than fit in memory")
        self.r = r
        self.generators = enumerate_rank(r - 1)
        self.n = len(self.generators)
        self.top_label = decode((1 << self.n) - 1)
        self.top_scale = Fraction(top_scale)
        if self.top_scale == 0:
            raise ValueError("top_scale must be nonzero")
        if isinstance(metric, str):
            if metric not in _METRIC_PRESETS:
                raise ValueError(f"unknown metric preset {metric!r}")
            self.metric_name = metric
            self.beta = self._preset_metric(metric)
        else:
            rows = tuple(tuple(Fraction(x) for x in row) for row in metric)
            if len(rows) != self.n or any(len(row) != self.n for row in rows):
                raise ValueError(f"metric must be {self.n}x{self.n}")
            if any(rows[i][j] != rows[j][i] for i in range(self.n) for j in range(i)):
                raise ValueError("metric must be symmetric")
            self.metric_name = "explicit"
            self.beta = rows

    def _preset_metric(self, name: str):
        zero = Fraction(0)
        if name == "zero":
            return tuple(tuple(zero for _ in range(self.n)) for _ in range(self.n))
        if name == "berezin":
            # Restriction of the Berezin polarization to generators. Computed
            # rather than assumed: generator pairs have grade 2 and the
            # symmetrized product never reaches the top blade, so this is the
            # zero matrix for every rank, which is exactly the point -- lone
            # generators are null and clifford degenerates to grassmann.
            rows = []
            for i in range(self.n):
                gi = Multivector.blade(iota(self.generators[i]))
                row = []
                for j in range(self.n):
                    gj = Multivector.blade(iota(self.generators[j]))
                    sym = grassmann(gi, gj) + grassmann(gj, gi)
                    row.append(sym.coeff(self.top_label) / Fraction(2))
                rows.append(tuple(row))
            return tuple(rows)
        if name == "hyperbolic":
            if self.n % 2:
                raise ValueError(
                    "hyperbolic metric pairs generators; generator count is odd"
                )
            half = Fraction(1, 2)
            rows = [[zero] * self.n for _ in range(self.n)]
            for k in range(0, self.n, 2):
                rows[k][k + 1] = half
                rows[k + 1][k] = half
            return tuple(tuple(row) for row in rows)
        raise AssertionError(name)

    def validate(self, mv: Multivector) -> None:
        for k in mv._terms:
            stray = k >> self.n
            if stray:
                elem = decode(next(bit_positions(stray)) + self.n)
                raise ValueError(
                    f"label {format_set_text(decode(k))} uses {format_set_text(elem)}, "
                    f"not a generator of the rank-{self.r} frame"
                )

    def top(self) -> Multivector:
        return Multivector.blade(self.top_label, self.top_scale)

    def basis_labels(self) -> tuple:
        """All 2**n blade labels in code order (the rank <= r sets)."""
        return tuple(decode(c) for c in range(1 << self.n))

    def __repr__(self):
        return f"RankFrame(r={self.r}, n={self.n}, metric={self.metric_name!r})"


def _wedge_sign(a: int, b: int) -> int:
    """Sign of e_a ^ e_b -> e_(a|b) for disjoint masks: the parity of the
    pairs x in a, y in b with x > y, counted over the set bits of b."""
    inv = 0
    for y in bit_positions(b):
        inv += (a >> y).bit_count()
    return -1 if inv & 1 else 1


def grassmann(v: Multivector, w: Multivector) -> Multivector:
    """Exterior product on blade masks; shared generators annihilate."""
    out: dict = {}
    for a, ca in v._terms.items():
        for b, cb in w._terms.items():
            if a & b:
                continue
            k = a | b
            out[k] = out.get(k, 0) + _wedge_sign(a, b) * ca * cb
    return Multivector._of(out)


def _contraction(a: int, k: int, beta_row):
    """e_a -| blade k as (mask, coefficient) pairs: (-1)^t beta(a, i_t) for
    the t-th generator i_t of k, which it removes."""
    for t, i in enumerate(bit_positions(k)):
        b = beta_row[i]
        if b:
            yield k ^ (1 << i), -b if t & 1 else b


def _gen_times(a: int, terms: dict, beta) -> dict:
    """Clifford product e_a terms = wedge part + contraction part."""
    bit = 1 << a
    out: dict = {}
    for k, c in terms.items():
        if not k & bit:
            sgn = -1 if (k & (bit - 1)).bit_count() & 1 else 1
            out[k | bit] = out.get(k | bit, 0) + sgn * c
        for rest, b in _contraction(a, k, beta[a]):
            out[rest] = out.get(rest, 0) + b * c
    return out


def _blade_times(k: int, terms: dict, beta) -> dict:
    # blade(a0, rest) = e_a0 ^ blade(rest) = e_a0 blade(rest) - e_a0 -| blade(rest),
    # so left-multiplying terms splits into a generator product and smaller
    # recursions. Exact for any symmetric metric, diagonal or not.
    if not k:
        return terms
    a0 = (k & -k).bit_length() - 1
    rest = k ^ (1 << a0)
    out = _gen_times(a0, _blade_times(rest, terms, beta), beta)
    corr: dict = {}
    for k2, b in _contraction(a0, rest, beta[a0]):
        for m, c in _blade_times(k2, terms, beta).items():
            corr[m] = corr.get(m, 0) + b * c
    for m, c in corr.items():
        out[m] = out.get(m, 0) - c
    return out


def clifford(v: Multivector, w: Multivector, frame: RankFrame) -> Multivector:
    """Geometric product against frame.beta. Reduces to grassmann when beta = 0."""
    frame.validate(v)
    frame.validate(w)
    out: dict = {}
    for k, c in v._terms.items():
        for m, x in _blade_times(k, w._terms, frame.beta).items():
            out[m] = out.get(m, 0) + c * x
    return Multivector._of(out)


def berezin_norm(w: Multivector, frame: RankFrame):
    """Coefficient of the top element in w ^ w."""
    frame.validate(w)
    return grassmann(w, w).coeff(frame.top_label) / frame.top_scale


def beta_form(v: Multivector, w: Multivector, frame: RankFrame):
    """Polarization of the Berezin norm: top part of (v ^ w + w ^ v)/2."""
    frame.validate(v)
    frame.validate(w)
    sym = grassmann(v, w) + grassmann(w, v)
    return sym.coeff(frame.top_label) / Fraction(2) / frame.top_scale


def grade_op(w: Multivector) -> Multivector:
    """Number operator: multiply each blade by its grade."""
    return Multivector._of({k: k.bit_count() * c for k, c in w._terms.items()})


def grade_parity(x: PerfiniteSet) -> int:
    """Exchange parity of a classical set: grade mod 2."""
    return x.grade & 1


def iota_m(w: Multivector, m: int, frame: RankFrame, frame_out: RankFrame | None = None):
    """Grade-m part of w, re-expressed one rank up: each grade-m blade label x
    becomes the single generator labeled x (blade label iota(x)). Other grades
    are annihilated. Returns (image, frame_out)."""
    frame.validate(w)
    if frame_out is None:
        if frame.metric_name == "explicit":
            raise ValueError("explicit-metric frames need an explicit frame_out")
        frame_out = RankFrame(frame.r + 1, metric=frame.metric_name)
    if frame_out.r != frame.r + 1:
        raise ValueError("frame_out must sit exactly one rank above frame")
    mv = Multivector._of({1 << k: c for k, c in w._terms.items() if k.bit_count() == m})
    frame_out.validate(mv)
    return mv, frame_out


@dataclass(frozen=True)
class SignatureReport:
    n_plus: int
    n_minus: int
    n_zero: int
    dimension: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def gram_matrix(frame: RankFrame):
    """Dense exact Gram matrix of beta_form on the full blade basis (small n)."""
    if frame.n > 8:
        raise ValueError("dense Gram limited to n <= 8; use signature_report")
    labels = frame.basis_labels()
    blades = [Multivector.blade(lab) for lab in labels]
    return tuple(
        tuple(beta_form(bi, bj, frame) for bj in blades) for bi in blades
    )


def signature_report(frame: RankFrame) -> SignatureReport:
    """Exact eigen-signature of the Berezin Gram matrix on the whole algebra.

    The polarization pairs each blade with its complementary blade and nothing
    else; the symmetrization survives exactly when the two grades multiply to
    an even number. Each surviving pair is hyperbolic (one +, one -); the rest
    is radical. That combinatorial structure gives the signature without
    materializing the 2^n x 2^n matrix; tests cross-check it against dense
    exact congruence diagonalization and a float eigenvalue oracle.
    """
    n = frame.n
    dim = 1 << n
    if dim > 1 << 16:
        raise ValueError("signature_report guards at dimension 2^16")
    paired = 0
    for mask in range(dim):
        g = mask.bit_count()
        if (g * (n - g)) % 2 == 0:
            paired += 1
    pairs = paired // 2
    return SignatureReport(pairs, pairs, dim - 2 * pairs, dim)


def mv_to_json(mv: Multivector) -> list:
    """[set text, numerator, denominator] triples in code order; exact only."""
    out = []
    for lab, c in mv.items():
        if isinstance(c, float):
            raise ValueError("JSON multivector export is exact-mode only")
        f = Fraction(c)
        out.append([format_set_text(lab), f.numerator, f.denominator])
    return out


def mv_from_json(data) -> Multivector:
    terms: dict = {}
    for entry in data:
        text, num, den = entry
        lab = parse_set_text(text)
        terms[lab] = terms.get(lab, 0) + Fraction(int(num), int(den))
    return Multivector(terms)
