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

Entries of a and adag live in Q(sqrt(N)); every computation here runs on the
integer pair (A, B), which keeps it exact, and the sqrt(N) stays symbolic.
A mode is held as its capacity N alone; only a carrier triple builds the
bands of A, B and Z, for itself.

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
lower-order corrections with exact coefficients in Q(i)[hbar] (QiHbar).
Pending words are merged by word before they are rewritten, so each word is
rewritten once: p^7 q^7 takes 148 steps and lands on the closed form
sum_j j! C(k,j)^2 (-i hbar)^j q^{k-j} p^{k-j}.

sympy is not needed to run any of it. It is imported only at the edge: when
NCPolynomial is handed a sympy coefficient, when a QiHbar is converted to
sympy (_sympy_), and by evaluate_nc, which takes sympy matrices. numpy is
never imported: the carrier bands are tuples of Python ints, so every path,
carrier triples included, runs on plain Python, exact at any size.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import add, mul, sub

from .scalars import UnitTag

# ---------------------------------------------------------------------------
# the mode


MAX_CAPACITY = 4096  # largest capacity N = 2j of a mode


class PalevMode:
    """One oscillator mode truncated at 2j quanta (N = 2j, N + 1 levels),
    held as its capacity alone: its deviation and exclusion figures are
    closed forms in N, and carrier_triple builds the bands of A, B and
    Z = [A, B] from N for each triple."""

    def __init__(self, two_j: int):
        if type(two_j) is not int or two_j < 1:
            raise ValueError("two_j must be a positive integer")
        if two_j > MAX_CAPACITY:
            raise ValueError(f"capacity {two_j} is past the largest supported capacity, {MAX_CAPACITY}")
        self.two_j = two_j
        self.dim = two_j + 1

    @property
    def j(self) -> Fraction:
        return Fraction(self.two_j, 2)

    def ladder_commutator_diagonal(self):
        """Diagonal of [a, adag] = [B, A]/N = -charge/N, exact rationals."""
        return tuple(Fraction(self.two_j - 2 * k, self.two_j) for k in range(self.dim))

    def ground_commutator_value(self) -> Fraction:
        return 1 - self.bose_deviation(0)

    def bose_deviation(self, n: int) -> Fraction:
        """How far [a, adag] falls short of 1 on level n; exactly 2n/N = n/j."""
        if not 0 <= n <= self.two_j:
            raise ValueError(f"level must lie in 0..{self.two_j}")
        return Fraction(2 * n, self.two_j)

    def exclusion_report(self):
        """(max |entry| of A^N, max |entry| of A^{N+1}): the first is
        positive, the second exactly zero. A^m e_k is the product of the
        raising weights k .. k + m - 1 times e_{k+m}, taken in exact ints; the
        sqrt(N) normalization of adag = A / sqrt(N) cannot change vanishing."""
        weights = range(self.two_j, 0, -1)

        def peak(m):
            return max((abs(prod(weights[k : k + m])) for k in range(len(weights) - m + 1)), default=0)

        return Fraction(peak(self.two_j)), Fraction(peak(self.two_j + 1))

    def __repr__(self):
        return f"PalevMode(two_j={self.two_j}, dim={self.dim})"


def bose_deviation(two_j: int, n: int) -> Fraction:
    return PalevMode(two_j).bose_deviation(n)


# ---------------------------------------------------------------------------
# carrier triples


class CarrierTriple:
    """Lie triple wrapping a mode. `parts` are the integer carrier parts, as
    bands, over `scale`; q, p and r are their rational values as Fraction
    matrices, built on first read. Tags, UnitTags for (q, p, r), carry the
    irrational/imaginary normalizations; relations are the target brackets
    among the tagged generators. Triples compare by identity."""

    def __init__(self, preset: str, parts: tuple, scale: int, tags: tuple, relations: str):
        self.preset, self.parts, self.scale, self.tags, self.relations = preset, parts, scale, tags, relations

    def _view(self, k: int) -> tuple:
        band = self.parts[k]
        d = len(next(iter(band.values())))
        rows = [[Fraction(0)] * d for _ in range(d)]
        for o, values in band.items():
            for i, x in enumerate(values):
                if x:
                    rows[i][i + o] = Fraction(x, self.scale)
        return tuple(map(tuple, rows))

    q = cached_property(lambda self: self._view(0))
    p = cached_property(lambda self: self._view(1))
    r = cached_property(lambda self: self._view(2))

    def __repr__(self):
        """The rational values, not the integer parts: the text of a triple
        does not depend on how it is stored."""
        shown = ("preset", "q", "p", "r", "tags", "relations")
        return f"CarrierTriple({', '.join(f'{f}={getattr(self, f)!r}' for f in shown)})"


def _relation_holds(x, y, w) -> bool:
    """Whether [X, Y] == 2 W exactly, for tridiagonal X, Y and W given by
    their bands, compared on all five diagonals s = -2..2 of [X, Y]: entry
    (i, i + a + b) of X Y gains X[i, i + a] Y[i + a, i + a + b] for each
    offset a of X and b of Y. Python ints throughout, so no entry can wrap."""
    d = len(next(iter(x.values())))
    comm = {s: [0] * d for s in range(-2, 3)}
    for left, right, op in ((x, y, add), (y, x, sub)):
        for a, u in left.items():
            for b, v in right.items():
                v = v[a:] + (0,) * a if a >= 0 else (0,) * -a + v[:a]  # v[i + a]
                comm[a + b] = list(map(op, comm[a + b], map(mul, u, v)))
    return comm == {s: [2 * v for v in w[s]] if s in w else [0] * d for s in comm}


def carrier_triple(mode: PalevMode, preset: str = "spin3"):
    """Build the (q, p, r) triple for a mode and verify its bracket relations
    exactly on the rational carrier parts. Returns (triple, checks) where
    checks maps relation text to bool.

    The carrier parts are integer matrices (Q, P, R) over a scale s: spin3
    takes (A+B, A-B, -Z) over 1, so [q,p] = r reads (i/2) [Q, P] = i R;
    spin21 takes (Z, A-B, A+B) over 2, so [q,p] = r reads [Q, P] / 4 = R / 2.
    In both, the three relations read [Q, P] = 2 R, [P, R] = 2 Q and
    [Q, R] = 2 P. A and B are weighted shifts and Z is diagonal, so every
    part is tridiagonal: each is built as a band, {o: (M[i, i + o] for
    i = 0..N)} over its nonzero diagonals o, of Python ints (zero where
    i + o leaves the matrix), straight from the ladder weights and charges
    of the mode's capacity, and each relation is checked on five diagonals.
    """
    n = mode.two_j
    lower = (0, *range(n, 0, -1))  # A e_k = (N - k) e_{k+1}: A[i, i - 1] = N - i + 1
    upper = (*range(1, n + 1), 0)  # B e_{k+1} = (k + 1) e_k: B[i, i + 1] = i + 1
    charge = tuple(range(-n, n + 1, 2))  # Z e_k = (2k - N) e_k
    plus = {-1: lower, 1: upper}  # A + B
    minus = {-1: lower, 1: tuple(-x for x in upper)}  # A - B
    if preset == "spin3":
        q, p, r, scale = plus, minus, {0: tuple(-x for x in charge)}, 1
        tags = (
            UnitTag({"sqrt2": -1}),
            UnitTag({"i": 1, "sqrt2": -1}),
            UnitTag({"i": 1}),
        )
        names = ("[q,p] = r", "[p,r] = -2q", "[q,r] = 2p")
        relations = "[q,p]=r, [p,r]=-2q, [q,r]=2p"
    elif preset == "spin21":
        q, p, r, scale = {0: charge}, minus, plus, 2
        tags = (UnitTag.one(),) * 3
        names = ("[q,p] = r", "[p,r] = q", "[q,r] = p")
        relations = "[q,p]=r, [p,r]=q, [q,r]=p"
    else:
        raise ValueError(f"unknown carrier preset {preset!r}")
    checks = {name: _relation_holds(x, y, w) for name, (x, y, w) in zip(names, ((q, p, r), (p, r, q), (q, r, p)))}
    return CarrierTriple(preset, (q, p, r), scale, tags, relations), checks


# ---------------------------------------------------------------------------
# normal ordering


class QiHbar:
    """Exact element of Q(i)[hbar]: a sum of (re + i im) hbar^k over powers k,
    with rational re and im. The coefficient ring of the rewrite presets.

    Held as a map from hbar power to the pair (re, im) of exact rationals,
    zero pairs dropped. Integral input is held as int, so integer work never
    builds a Fraction; the rest is held as Fraction. str() prints the
    same text as sympy's str of the expanded expression; _sympy_() builds
    that expression, importing sympy only then."""

    __slots__ = ("_parts",)

    def __init__(self, parts=None):
        clean = {}
        for k, pair in (parts or {}).items():
            re, im = (x.numerator if x.denominator == 1 else x for x in map(Fraction, pair))
            if re or im:
                clean[int(k)] = (re, im)
        self._parts = clean

    @classmethod
    def _of(cls, parts: dict) -> "QiHbar":
        # parts already hold ints and Fractions; only zero pairs still need dropping
        out = object.__new__(cls)
        out._parts = {k: v for k, v in parts.items() if v[0] or v[1]}
        return out

    @classmethod
    def coerce(cls, x) -> "QiHbar":
        """A QiHbar from a QiHbar, an int, a Fraction, or a sympy expression in
        I and hbar (read through sympy, imported only for that case)."""
        lifted = cls._lift(x)
        return _qihbar_from_sympy(x) if lifted is None else lifted

    @staticmethod
    def _lift(x):
        if isinstance(x, QiHbar):
            return x
        if isinstance(x, (int, Fraction)):
            return QiHbar({0: (x, 0)})
        return None

    def parts(self) -> dict:
        """{hbar power: (re, im)}, nonzero pairs only."""
        return dict(self._parts)

    def __bool__(self):
        return bool(self._parts)

    def __add__(self, other):
        other = QiHbar._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self._parts)
        for k, (c, d) in other._parts.items():
            a, b = out.get(k, (0, 0))
            out[k] = (a + c, b + d)
        return QiHbar._of(out)

    __radd__ = __add__

    def __neg__(self):
        return QiHbar._of({k: (-a, -b) for k, (a, b) in self._parts.items()})

    def __sub__(self, other):
        other = QiHbar._lift(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = QiHbar._lift(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = QiHbar._lift(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for k1, (a, b) in self._parts.items():
            for k2, (c, d) in other._parts.items():
                re, im = out.get(k1 + k2, (0, 0))
                out[k1 + k2] = (re + a * c - b * d, im + a * d + b * c)
        return QiHbar._of(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = QiHbar._lift(other)
        return NotImplemented if other is None else self._parts == other._parts

    def __hash__(self):
        if not self._parts:
            return hash(0)
        if len(self._parts) == 1 and 0 in self._parts and not self._parts[0][1]:
            return hash(self._parts[0][0])  # equal to its rational value
        return hash(frozenset(self._parts.items()))

    def __str__(self):
        # sympy's order for an expanded sum: higher hbar power first, and
        # within a power the real term before the imaginary one; except that
        # a positive rational plus one negative real multiple of a power of
        # hbar prints with the constant first ("1 - hbar")
        terms = [
            (k, c, imag)
            for k in sorted(self._parts, reverse=True)
            for c, imag in zip(self._parts[k], (False, True))
            if c
        ]
        if not terms:
            return "0"
        if (
            len(terms) == 2
            and terms[1][0] == 0 and not terms[1][2] and terms[1][1] > 0
            and not terms[0][2] and terms[0][1] < 0
        ):
            terms.reverse()
        text = []
        for k, c, imag in terms:
            factors = [str(abs(c.numerator))] if abs(c.numerator) != 1 else []
            if imag:
                factors.append("I")
            if k:
                factors.append("hbar" if k == 1 else f"hbar**{k}")
            body = "*".join(factors or ["1"])
            if c.denominator != 1:
                body += f"/{c.denominator}"
            if not text:
                text.append(f"-{body}" if c < 0 else body)
            else:
                text.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(text)

    def __repr__(self):
        return f"QiHbar({self})"

    def _sympy_(self):
        import sympy as sp

        hbar = sp.Symbol("hbar", positive=True)
        return sp.expand(
            sp.Add(
                *(
                    (sp.Rational(a.numerator, a.denominator) + sp.I * sp.Rational(b.numerator, b.denominator))
                    * hbar ** k
                    for k, (a, b) in self._parts.items()
                )
            )
        )


def _qihbar_from_sympy(x) -> QiHbar:
    """Read a sympy value (or anything sympify accepts) that is a polynomial
    in hbar with Gaussian rational coefficients."""
    import sympy as sp

    expr = sp.expand(sp.sympify(x))
    free = expr.free_symbols
    if len(free) > 1 or any(s.name != "hbar" for s in free):
        raise ValueError(f"coefficient {expr} is not a polynomial in I and hbar")
    if not free:
        terms = [((0,), expr)]
    else:
        try:
            terms = sp.Poly(expr, *free).terms()
        except sp.PolynomialError:
            raise ValueError(f"coefficient {expr} is not a polynomial in I and hbar") from None
    parts = {}
    for (k,), c in terms:
        re, im = sp.re(c), sp.im(c)
        if not (re.is_Rational and im.is_Rational):
            raise ValueError(f"coefficient {expr} has a part {c} outside Q(i)")
        parts[k] = (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return QiHbar(parts)


def _collect(pairs) -> dict:
    """Sum the coefficients of equal words; drop the zero sums."""
    out: dict = {}
    for w, c in pairs:
        out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if c}


class NCPolynomial:
    """Polynomial in noncommuting generators: map word-tuple -> QiHbar
    coefficient. Coefficients given as ints, Fractions or sympy values are
    converted on entry."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = _collect((tuple(w), QiHbar.coerce(c)) for w, c in (terms or {}).items())

    @classmethod
    def _of(cls, terms: dict) -> "NCPolynomial":
        # terms already map word tuples to nonzero QiHbar coefficients
        out = object.__new__(cls)
        out._terms = terms
        return out

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
        if not isinstance(other, NCPolynomial):
            other = NCPolynomial.scalar(other)
        return NCPolynomial._of(_collect([*self._terms.items(), *other._terms.items()]))

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial._of({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPolynomial):
            other = NCPolynomial.scalar(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, NCPolynomial):
            c = QiHbar.coerce(other)
            return NCPolynomial._of({w: x * c for w, x in self._terms.items()} if c else {})
        return NCPolynomial._of(
            _collect((w1 + w2, c1 * c2) for w1, c1 in self._terms.items() for w2, c2 in other._terms.items())
        )

    def __rmul__(self, other):
        # scalars commute; only scalars arrive here
        return self * other

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self._terms == other._terms

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


_I = QiHbar({0: (0, 1)})
_MINUS_I_HBAR = QiHbar({1: (0, -1)})

# name -> (canonical generator order, corrections): g*h = h*g + corr for each
# out-of-order adjacent pair (g later in the order than h)
REWRITE_PRESETS = {
    "h1": (("q", "p"), {("p", "q"): NCPolynomial.scalar(_MINUS_I_HBAR)}),
    "spin21": (
        ("q", "p", "r"),
        {
            # [q,p] = r, [p,r] = q, [q,r] = p
            ("p", "q"): NCPolynomial.word("r", coeff=-1),
            ("r", "p"): NCPolynomial.word("q", coeff=-1),
            ("r", "q"): NCPolynomial.word("p", coeff=-1),
        },
    ),
    "spin3": (
        ("jx", "jy", "jz"),
        {
            # [jx,jy] = i jz, [jy,jz] = i jx, [jz,jx] = i jy
            ("jy", "jx"): NCPolynomial.word("jz", coeff=-_I),
            ("jz", "jy"): NCPolynomial.word("jx", coeff=-_I),
            ("jz", "jx"): NCPolynomial.word("jy", coeff=_I),
        },
    ),
}

_MAX_REWRITE_STEPS = 200_000


class RewriteBudgetError(ValueError):
    """Normal ordering needed more than _MAX_REWRITE_STEPS rewrite steps."""


def normal_order(poly: NCPolynomial, system: str) -> NCPolynomial:
    """Rewrite every word so the generator ranks of the preset named system
    ascend left to right, pushing bracket corrections down. The rules are
    built on each call from the preset's REWRITE_PRESETS entry, with every
    generator replaced by its place in the order.

    Pending words sit in one dict keyed by word (as a tuple of ranks), so
    equal words merge their coefficients before they are rewritten. Each
    step pops the longest pending word, and among equal lengths the last in
    word order, and rewrites its leftmost out-of-order pair: the swapped word
    comes earlier in word order and every correction is shorter, so every
    word that can produce a word is popped before it, no word comes back once
    popped, and a popped ordered word is final. Every pop counts as one step
    against _MAX_REWRITE_STEPS."""
    if system not in REWRITE_PRESETS:
        raise ValueError(f"unknown rewrite system {system!r}; available: {', '.join(sorted(REWRITE_PRESETS))}")
    order, corrections = REWRITE_PRESETS[system]
    rank = {g: i for i, g in enumerate(order)}

    def ranks(word):
        try:
            return tuple(rank[g] for g in word)
        except KeyError as e:
            raise ValueError(f"generator {e.args[0]!r} unknown to system {system!r}") from None

    rules = {ranks(gh): [(ranks(w), c) for w, c in corr.terms().items()] for gh, corr in corrections.items()}
    pending: dict = {}
    heap: list = []

    def push(word, coeff):
        if word in pending:
            pending[word] = pending[word] + coeff
        else:
            pending[word] = coeff
            heapq.heappush(heap, (-len(word), tuple(-r for r in word), word))

    for w, c in poly.terms().items():
        push(ranks(w), c)
    done: dict = {}
    steps = 0
    while heap:
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise RewriteBudgetError(
                f"normal ordering exceeded the budget of {_MAX_REWRITE_STEPS} "
                "rewrite steps; try a shorter word"
            )
        word = heapq.heappop(heap)[2]
        coeff = pending.pop(word)
        if not coeff:
            continue
        spot = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if spot is None:
            done[word] = coeff
            continue
        g, h = word[spot], word[spot + 1]
        corr = rules[g, h]
        head, tail = word[:spot], word[spot + 2 :]
        push(head + (h, g) + tail, coeff)
        for cw, cc in corr:
            push(head + cw + tail, coeff * cc)
    return NCPolynomial._of(
        {tuple(order[r] for r in w): c for w, c in done.items()}
    )


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
        total = total + sp.sympify(c) * m
    return sp.simplify(total)
