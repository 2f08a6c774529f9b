"""Truncated oscillator modes: ladder pairs on finitely many levels, their
deviation from Bose statistics, and normal-ordering calculus.

A mode with 2j quanta of capacity (N = 2j an integer) carries the integer
ladder pair on N+1 levels

    A e_k = (N - k) e_{k+1},   B e_k = k e_{k-1},   Z = [A, B] = diag(2k - N).

Dividing by sqrt(N) gives annihilation/creation operators a = B/sqrt(N),
adag = A/sqrt(N) whose commutator is diagonal with entries (N - 2k)/N: exactly
1 on the ground level, and short of 1 by the exact fraction 2n/N = n/j on
level n. That fraction is the Bose deviation: it halves every time j doubles,
and vanishes only in the infinite-capacity limit. The ladder also enforces an
exclusion principle: adag^N is nonzero but adag^{N+1} annihilates everything.

Entries of a and adag live in Q(sqrt(N)); the QuadExt scalar type keeps them
exact (and collapses to plain rationals whenever N is a perfect square).

Carrier triples package the mode as a Lie triple:

    spin3   (default)  q = (A+B)/sqrt(2),  p = i (A-B)/sqrt(2),  r = -i Z
                       with [q,p] = r, [p,r] = -2q, [q,r] = 2p;
                       the sqrt(2) and i factors stay in unit tags and the
                       identities are checked on the rational carrier parts
                       [A+B, A-B] = -2Z, [Z, A-B] = 2(A+B), [Z, A+B] = 2(A-B).
    spin21             q = Z/2, p = (A-B)/2, r = (A+B)/2 with the symmetric
                       relations [q,p] = r, [p,r] = q, [q,r] = p; everything
                       rational, no reality claims.

normal_order() rewrites words in noncommuting generators into a canonical
order using the bracket rules of a preset (h1, spin21, spin3), collecting the
lower-order corrections with sympy coefficients. sympy is imported only by
the code that builds or reads those coefficients, so the rest of the module
(and the CLI) loads without it; REWRITE_PRESETS is built on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import linalg
from .liecore import ladder_pair
from .yang import UnitTag

# ---------------------------------------------------------------------------
# quadratic extension scalars


class QuadExt:
    """Exact number a + b*sqrt(rad) with rational a, b and integer rad >= 1.

    Square factors are pulled out of rad on construction, so a perfect-square
    radical collapses to a plain rational (rad == 1)."""

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b=0, rad=1):
        a = Fraction(a)
        b = Fraction(b)
        rad = int(rad)
        if rad < 1:
            raise ValueError("radical must be a positive integer")
        if b:
            s = 1
            d = 2
            while d * d <= rad:
                while rad % (d * d) == 0:
                    rad //= d * d
                    s *= d
                d += 1
            b *= s
        if rad == 1:
            a += b
            b = Fraction(0)
        if not b:
            rad = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, *_):
        raise AttributeError("QuadExt is immutable")

    def _compatible(self, other: "QuadExt") -> int:
        if self.rad == 1:
            return other.rad
        if other.rad == 1 or other.rad == self.rad:
            return self.rad
        raise ValueError(f"mixed radicals {self.rad} and {other.rad}")

    @classmethod
    def coerce(cls, x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        return cls(Fraction(x))

    def __add__(self, other):
        other = QuadExt.coerce(other)
        rad = self._compatible(other)
        return QuadExt(self.a + other.a, self.b + other.b, rad)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        return self + (-QuadExt.coerce(other))

    def __rsub__(self, other):
        return QuadExt.coerce(other) + (-self)

    def __mul__(self, other):
        other = QuadExt.coerce(other)
        rad = self._compatible(other)
        return QuadExt(
            self.a * other.a + self.b * other.b * rad,
            self.a * other.b + self.b * other.a,
            rad,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        den = self.a * self.a - self.b * self.b * self.rad
        if den == 0:
            raise ZeroDivisionError("QuadExt has no inverse")
        return QuadExt(self.a / den, -self.b / den, self.rad)

    def __truediv__(self, other):
        return self * QuadExt.coerce(other).inverse()

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def __eq__(self, other):
        try:
            other = QuadExt.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and (self.rad == other.rad or not self.b)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.rad if self.b else 1))

    def __float__(self):
        return float(self.a) + float(self.b) * self.rad ** 0.5

    def __str__(self):
        if not self.b:
            return str(self.a)
        root = f"sqrt({self.rad})"
        bpart = root if self.b == 1 else (f"-{root}" if self.b == -1 else f"{self.b}*{root}")
        if not self.a:
            return bpart
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bpart}"

    def __repr__(self):
        return f"QuadExt({self})"


# ---------------------------------------------------------------------------
# the mode


class PalevMode:
    """One oscillator mode truncated at 2j quanta (N = 2j, N + 1 levels)."""

    def __init__(self, two_j: int):
        if not isinstance(two_j, int) or two_j < 1:
            raise ValueError("two_j must be a positive integer")
        if two_j > 4096:
            raise ValueError("two_j > 4096 is outside the supported range")
        self.two_j = two_j
        self.dim = two_j + 1
        # the integer ladder pair, and [A, B] in closed form: A B and B A are
        # diagonal with entries k (N - k + 1) and (k + 1)(N - k), whose
        # difference is 2k - N
        self._raise, self._lower = ladder_pair(two_j)
        self._charge = np.diag(2 * np.arange(self.dim, dtype=np.int64) - two_j)

    @cached_property
    def raise_op(self):
        """A as a Fraction matrix."""
        return linalg.from_scaled(self._raise, 1)

    @cached_property
    def lower_op(self):
        """B as a Fraction matrix."""
        return linalg.from_scaled(self._lower, 1)

    @cached_property
    def charge(self):
        """Z = [A, B] = diag(2k - N) as a Fraction matrix."""
        return linalg.from_scaled(self._charge, 1)

    @property
    def j(self) -> Fraction:
        return Fraction(self.two_j, 2)

    def ladder_commutator_diagonal(self):
        """Diagonal of [a, adag] = [B, A]/N = -charge/N, exact rationals."""
        return tuple(Fraction(self.two_j - 2 * k, self.two_j) for k in range(self.dim))

    def ground_commutator_value(self) -> Fraction:
        return self.ladder_commutator_diagonal()[0]

    def bose_deviation(self, n: int) -> Fraction:
        """How far [a, adag] falls short of 1 on level n; exactly n/j."""
        if not 0 <= n <= self.two_j:
            raise ValueError(f"level must lie in 0..{self.two_j}")
        return Fraction(1) - self.ladder_commutator_diagonal()[n]

    def exclusion_report(self):
        """(max |entry| of A^N, max |entry| of A^{N+1}): the first is
        positive, the second exactly zero. Computed on the integer pair; the
        sqrt(N) normalization of adag = A / sqrt(N) cannot change vanishing.
        The power stays an integer array; int_einsum moves it to Python ints
        past int64."""
        power = np.eye(self.dim, dtype=np.int64)
        for _ in range(self.two_j):
            power = linalg.int_einsum("ij,jk->ik", power, self._raise)
        at_n = Fraction(linalg.peak(power))
        power = linalg.int_einsum("ij,jk->ik", power, self._raise)
        return at_n, Fraction(linalg.peak(power))

    def __repr__(self):
        return f"PalevMode(two_j={self.two_j}, dim={self.dim})"


def bose_deviation(two_j: int, n: int) -> Fraction:
    return PalevMode(two_j).bose_deviation(n)


# ---------------------------------------------------------------------------
# carrier triples


@dataclass(frozen=True)
class CarrierTriple:
    """Lie triple wrapping a mode. The matrices are the rational carrier
    parts; tags carry the irrational/imaginary normalizations; relations are
    the target brackets among the tagged generators."""

    preset: str
    q: tuple
    p: tuple
    r: tuple
    tags: tuple  # UnitTag for (q, p, r)
    relations: str


def carrier_triple(mode: PalevMode, preset: str = "spin3"):
    """Build the (q, p, r) triple for a mode and verify its bracket relations
    exactly on the rational carrier parts. Returns (triple, checks) where
    checks maps relation text to bool.

    The carrier parts are integer matrices (Q, P, R) over a scale s: spin3
    takes (A+B, A-B, -Z) over 1, so [q,p] = r reads (i/2) [Q, P] = i R;
    spin21 takes (Z, A-B, A+B) over 2, so [q,p] = r reads [Q, P] / 4 = R / 2.
    In both, the three relations read [Q, P] = 2 R, [P, R] = 2 Q and
    [Q, R] = 2 P, checked with integer commutators of the ladder pair.
    """
    A, B, Z = mode._raise, mode._lower, mode._charge
    if preset == "spin3":
        q, p, r, scale = A + B, A - B, -Z, 1
        tags = (
            UnitTag({"sqrt2": -1}),
            UnitTag({"i": 1, "sqrt2": -1}),
            UnitTag({"i": 1}),
        )
        names = ("[q,p] = r", "[p,r] = -2q", "[q,r] = 2p")
        relations = "[q,p]=r, [p,r]=-2q, [q,r]=2p"
    elif preset == "spin21":
        q, p, r, scale = Z, A - B, A + B, 2
        tags = (UnitTag.one(),) * 3
        names = ("[q,p] = r", "[p,r] = q", "[q,r] = p")
        relations = "[q,p]=r, [p,r]=q, [q,r]=p"
    else:
        raise ValueError(f"unknown carrier preset {preset!r}")
    checks = {
        name: np.array_equal(linalg.int_commutator(x, y), 2 * w)
        for name, (x, y, w) in zip(names, ((q, p, r), (p, r, q), (q, r, p)))
    }
    q, p, r = (linalg.from_scaled(m, scale) for m in (q, p, r))
    return CarrierTriple(preset, q, p, r, tags, relations), checks


# ---------------------------------------------------------------------------
# normal ordering


class NCPolynomial:
    """Polynomial in noncommuting generators: map word-tuple -> sympy coeff."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        import sympy as sp

        clean = {}
        for word, c in (terms or {}).items():
            word = tuple(word)
            c = sp.expand(sp.sympify(c))
            if c == 0:
                continue
            if word in clean:
                c = sp.expand(clean[word] + c)
            if c != 0:
                clean[word] = c
        self._terms = clean

    @classmethod
    def word(cls, *gens, coeff=1) -> "NCPolynomial":
        return cls({tuple(gens): coeff})

    @classmethod
    def scalar(cls, c) -> "NCPolynomial":
        return cls({(): c})

    def terms(self):
        return dict(self._terms)

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __add__(self, other):
        import sympy as sp

        if not isinstance(other, NCPolynomial):
            other = NCPolynomial.scalar(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = sp.expand(out.get(w, 0) + c)
        return NCPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPolynomial):
            other = NCPolynomial.scalar(other)
        return self + (-other)

    def __mul__(self, other):
        import sympy as sp

        if not isinstance(other, NCPolynomial):
            return NCPolynomial({w: c * sp.sympify(other) for w, c in self._terms.items()})
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = sp.expand(out.get(w, 0) + c1 * c2)
        return NCPolynomial(out)

    def __rmul__(self, other):
        # scalars commute; only scalars arrive here
        return self * other

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        import sympy as sp

        if not isinstance(other, NCPolynomial):
            return NotImplemented
        diff = self - other
        return all(sp.simplify(c) == 0 for c in diff._terms.values())

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for w, c in self.items_sorted():
            name = "*".join(w) if w else "1"
            bits.append(f"({c})*{name}" if w else f"({c})")
        return " + ".join(bits)

    def __repr__(self):
        return f"NCPolynomial({self})"


@dataclass(frozen=True)
class RewriteSystem:
    """Canonical generator order plus correction rules g*h = h*g + corr for
    each out-of-order adjacent pair (g later in the order than h)."""

    name: str
    order: tuple
    corrections: dict

    def rank(self, g: str) -> int:
        try:
            return self.order.index(g)
        except ValueError:
            raise ValueError(f"generator {g!r} unknown to system {self.name!r}") from None


@cache
def _presets() -> dict:
    import sympy as sp

    hbar = sp.Symbol("hbar", positive=True)
    i = sp.I
    h1 = RewriteSystem(
        "h1",
        ("q", "p"),
        {("p", "q"): NCPolynomial.scalar(-i * hbar)},
    )
    spin21 = RewriteSystem(
        "spin21",
        ("q", "p", "r"),
        {
            # [q,p] = r, [p,r] = q, [q,r] = p
            ("p", "q"): NCPolynomial.word("r", coeff=-1),
            ("r", "p"): NCPolynomial.word("q", coeff=-1),
            ("r", "q"): NCPolynomial.word("p", coeff=-1),
        },
    )
    spin3 = RewriteSystem(
        "spin3",
        ("jx", "jy", "jz"),
        {
            # [jx,jy] = i jz, [jy,jz] = i jx, [jz,jx] = i jy
            ("jy", "jx"): NCPolynomial.word("jz", coeff=-i),
            ("jz", "jy"): NCPolynomial.word("jx", coeff=-i),
            ("jz", "jx"): NCPolynomial.word("jy", coeff=i),
        },
    )
    return {"h1": h1, "spin21": spin21, "spin3": spin3}


def __getattr__(name):
    # REWRITE_PRESETS holds sympy coefficients: build it on first access
    if name == "REWRITE_PRESETS":
        return _presets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_MAX_REWRITE_STEPS = 200_000


class RewriteBudgetError(ValueError):
    """Normal ordering needed more than _MAX_REWRITE_STEPS rewrite steps."""


def normal_order(poly: NCPolynomial, system) -> NCPolynomial:
    """Rewrite every word so generator ranks ascend left to right, pushing
    bracket corrections down. Leftmost violation first; terminates because
    corrections are strictly shorter words."""
    import sympy as sp

    if isinstance(system, str):
        system = _presets()[system]
    pending = list(poly.terms().items())
    done: dict = {}
    steps = 0
    while pending:
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise RewriteBudgetError(
                f"normal ordering exceeded the budget of {_MAX_REWRITE_STEPS} "
                "rewrite steps; try a shorter word"
            )
        word, coeff = pending.pop()
        spot = -1
        for i in range(len(word) - 1):
            if system.rank(word[i]) > system.rank(word[i + 1]):
                spot = i
                break
        if spot < 0:
            done[word] = sp.expand(done.get(word, 0) + coeff)
            continue
        g, h = word[spot], word[spot + 1]
        swapped = word[:spot] + (h, g) + word[spot + 2 :]
        pending.append((swapped, coeff))
        corr = system.corrections.get((g, h))
        if corr is None:
            raise ValueError(f"system {system.name!r} has no rule for {g}*{h}")
        for cw, cc in corr.terms().items():
            pending.append((word[:spot] + cw + word[spot + 2 :], sp.expand(coeff * cc)))
    return NCPolynomial(done)


def evaluate_nc(poly: NCPolynomial, assignment: dict):
    """Substitute sympy matrices for generators and sum the words; the scalar
    word contributes a multiple of the identity."""
    import sympy as sp

    mats = dict(assignment)
    some = next(iter(mats.values()))
    dim = some.shape[0]
    total = sp.zeros(dim, dim)
    for word, c in poly.terms().items():
        m = sp.eye(dim)
        for g in word:
            m = m * mats[g]
        total = total + c * m
    return sp.simplify(total)
