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

    grassmann(v, w)        exterior product: the zero metric, e ^ e = 0;
                           masks that share a bit annihilate
    clifford(v, w, frame)  geometric product against the frame's generator
                           metric; e_i e_j + e_j e_i = 2 beta(i, j)

Both run one loop over term pairs; each blade product e_a e_b is a closed
form, stored in no table. The wedge of disjoint masks is one reordering sign
times e_(a|b) (0 if they share a bit). The hyperbolic algebra is the graded
tensor product of its pairs' Cl(1,1) (Lounesto, Clifford Algebras and
Spinors): e_a e_b is the product over pairs of a fixed 4x4 table, _PAIR,
times (-1)^(sum over k > l of |A_k| |B_l|), A_k and B_l the pair parts of a
and b; products of two pairs are cached, at most 16 * 16.

A frame's metric is one of three presets: "zero" (pure Grassmann), "berezin"
(the restriction of the Berezin polarization to generators, computed once per
rank; it vanishes identically, so clifford coincides with grassmann -- lone
generators are null), and "hyperbolic" (generator 2k pairs with 2k+1 at 1/2,
so the anticommutator of a pair is exactly 1).

The Berezin pairing itself lives on the whole algebra: berezin_norm(w) is the
coefficient of the top blade in w ^ w, and beta_form polarizes it. The frame's
top element is that blade with coefficient 1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from math import comb

from .perfinite import (
    PerfiniteSet, bit_positions, decode, enumerate_rank, format_set_text, parse_set_text,
)


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

    def __init__(self, r: int, metric="berezin"):
        if type(r) is not int or r < 1:
            raise ValueError("rank frames need integer r >= 1")
        if r > 4:
            raise ValueError("r > 4 needs more generators than fit in memory")
        if not (isinstance(metric, str) and metric in _PRESETS):
            raise ValueError(f"unknown metric preset {metric!r}")
        self.r = r
        self.generators = enumerate_rank(r - 1)
        self.n = len(self.generators)
        self.top_label = decode((1 << self.n) - 1)
        self.metric_name = metric
        self._blade = _preset(self.n, metric)

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
        return Multivector.blade(self.top_label)

    def basis_labels(self) -> tuple:
        """All 2**n blade labels in code order (the rank <= r sets)."""
        return tuple(decode(c) for c in range(1 << self.n))

    def __repr__(self):
        return f"RankFrame(r={self.r}, n={self.n}, metric={self.metric_name!r})"


_PRESETS = ("zero", "berezin", "hyperbolic")


@cache
def _preset(n: int, name: str):
    """The blade product of a preset on n generators, checked once: the
    hyperbolic pairing needs whole pairs, and the zero metric is the wedge."""
    if name == "hyperbolic":
        if n % 2:
            raise ValueError("hyperbolic metric pairs generators; generator count is odd")
        return partial(_graded, _block, 4)  # two pairs at a time
    if name == "berezin":
        # The Berezin polarization on generators, computed, not assumed: the
        # symmetrized product of two generators never reaches the top blade,
        # so it vanishes at every rank -- lone generators are null.
        top = (1 << n) - 1
        gens = [Multivector._of({1 << i: 1}) for i in range(n)]
        if any((grassmann(gi, gj) + grassmann(gj, gi))._terms.get(top) for gi in gens for gj in gens):
            raise AssertionError("the Berezin polarization of two generators is nonzero")
    return _wedge


def _wedge(a: int, b: int) -> tuple:
    """e_a ^ e_b as ((mask, sign),), or () when a and b share a generator:
    (-1)^s e_(a|b), s the pairs (i in a, j in b) with i > j, counted over
    the set bits of b alone, as labels can have million-bit codes."""
    if a & b:
        return ()
    ab, s = a | b, 0
    while b:  # j the lowest set bit of b: count the generators of a above j
        s += (a & -(b & -b)).bit_count()
        b &= b - 1
    return ((ab, -1 if s & 1 else 1),)


# e_a e_b in one hyperbolic pair x, y (x^2 = y^2 = 0, xy + yx = 1), in the
# blade basis 0: 1, 1: x, 2: y, 3: x^y, as ((mask, coefficient), ...)
_PAIR = (
    (((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),)),
    (((1, 1),), (), ((3, 1), (0, Fraction(1, 2))), ((1, Fraction(-1, 2)),)),
    (((2, 1),), ((3, -1), (0, Fraction(1, 2))), (), ((2, Fraction(1, 2)),)),
    (((3, 1),), ((1, Fraction(1, 2)),), ((2, Fraction(-1, 2)),), ((0, Fraction(1, 4)),)),
)


def _graded(digit, width: int, a: int, b: int) -> list:
    """e_a e_b in a graded tensor product of algebras on width-bit digits,
    digit(da, db) the product within one digit: the digit products
    multiplied out, times (-1)^(sum over k > l of |A_k| |B_l|) for moving
    each digit of b left past the higher digits of a."""
    low = (1 << width) - 1
    out, shift = digit(a & low, b & low), width
    while (a | b) >> shift:
        da, db = a >> shift & low, b >> shift & low
        sign = -1 if da.bit_count() * (b & (1 << shift) - 1).bit_count() & 1 else 1
        out = [(m | g << shift, sign * x * y) for m, x in out for g, y in digit(da, db)]
        shift += width
    return out


@cache
def _block(a: int, b: int) -> tuple:
    """e_a e_b for two hyperbolic pairs: a, b < 16, so at most 16 * 16 entries."""
    return tuple(_graded(lambda i, j: _PAIR[i][j], 2, a, b))


def _product(v: Multivector, w: Multivector, blade) -> Multivector:
    """sum of c_a c_b e_a e_b over the terms of v and w, blade(a, b) giving
    e_a e_b as (mask, coefficient) pairs."""
    out: dict = {}
    for a, ca in v._terms.items():
        for b, cb in w._terms.items():
            ab = blade(a, b)
            if ab:
                c = ca * cb
                for m, x in ab:  # a first term goes in as is: 0 + Fraction is a slow reflected add
                    out[m] = out[m] + c * x if m in out else c * x
    return Multivector._of(out)


def grassmann(v: Multivector, w: Multivector) -> Multivector:
    """Exterior product: the zero-metric product, where shared generators
    annihilate."""
    return _product(v, w, _wedge)


def clifford(v: Multivector, w: Multivector, frame: RankFrame) -> Multivector:
    """Geometric product against the frame's metric preset; grassmann for
    the zero and berezin frames."""
    frame.validate(v)
    frame.validate(w)
    return _product(v, w, frame._blade)


def berezin_norm(w: Multivector, frame: RankFrame):
    """Coefficient of the top element in w ^ w."""
    frame.validate(w)
    return grassmann(w, w).coeff(frame.top_label)


def beta_form(v: Multivector, w: Multivector, frame: RankFrame):
    """Polarization of the Berezin norm: top part of (v ^ w + w ^ v)/2."""
    frame.validate(v)
    frame.validate(w)
    sym = grassmann(v, w) + grassmann(w, v)
    return sym.coeff(frame.top_label) / Fraction(2)


def grade_op(w: Multivector) -> Multivector:
    """Number operator: multiply each blade by its grade."""
    return Multivector._of({k: k.bit_count() * c for k, c in w._terms.items()})


def grade_parity(x: PerfiniteSet) -> int:
    """Exchange parity of a classical set: grade mod 2."""
    return x.grade & 1


def iota_m(w: Multivector, m: int, frame: RankFrame):
    """Grade-m part of w, re-expressed one rank up: each grade-m blade label x
    becomes the single generator labeled x (blade label iota(x)). Other grades
    are annihilated. Returns (image, frame_out), frame_out the frame of rank
    r + 1 with the same preset metric."""
    frame.validate(w)
    frame_out = RankFrame(frame.r + 1, metric=frame.metric_name)
    return Multivector._of({1 << k: c for k, c in w._terms.items() if k.bit_count() == m}), frame_out


class SignatureReport(namedtuple("SignatureReport", "n_plus n_minus n_zero dimension")):
    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def gram_matrix(frame: RankFrame):
    """Dense exact Gram matrix of beta_form on the full blade basis (small n):
    e_a pairs only with its complement e_b, at the mean of the wedge signs
    of e_a ^ e_b and e_b ^ e_a, one Fraction per distinct value."""
    if frame.n > 8:
        raise ValueError("dense Gram limited to n <= 8; use signature_report")
    top = (1 << frame.n) - 1
    value = {s: Fraction(s, 2) for s in (-2, 0, 2)}
    pair = [value[_wedge(a, top ^ a)[0][1] + _wedge(top ^ a, a)[0][1]] for a in range(top + 1)]
    return tuple(tuple(pair[a] if a ^ b == top else value[0] for b in range(top + 1)) for a in range(top + 1))


def signature_report(frame: RankFrame) -> SignatureReport:
    """Exact eigen-signature of the Berezin Gram matrix on the whole algebra.

    The polarization pairs each blade with its complementary blade and nothing
    else; the symmetrization survives exactly when the two grades multiply to
    an even number. Each surviving pair is hyperbolic (one +, one -); the rest
    is radical. So the blades that pair are the C(n, g) of each grade g with
    g (n - g) even, and the signature is counted grade by grade, without
    materializing the 2^n x 2^n matrix; tests cross-check it against dense
    exact congruence diagonalization and a float eigenvalue oracle.
    """
    n = frame.n
    dim = 1 << n
    pairs = sum(comb(n, g) for g in range(n + 1) if g * (n - g) % 2 == 0) // 2
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
    """The multivector of mv_to_json's triples; a ValueError names the first
    entry that is not [set text, integer, nonzero integer]."""
    if not isinstance(data, list):
        raise ValueError(f"a multivector is a JSON list, not {type(data).__name__}")
    terms: dict = {}
    for entry in data:
        text, num, den = entry if isinstance(entry, list) and len(entry) == 3 else (None,) * 3
        if not (isinstance(text, str) and type(num) is type(den) is int and den):
            raise ValueError(f"entry {entry!r} is not [set text, integer, nonzero integer]")
        try:
            lab = parse_set_text(text)
        except ValueError as e:
            raise ValueError(f"entry {entry!r}: {e}") from None
        terms[lab] = terms.get(lab, 0) + Fraction(num, den)
    return Multivector(terms)
