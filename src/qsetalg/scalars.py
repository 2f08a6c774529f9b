"""Scalar conventions shared across the package.

Exact mode works over fractions.Fraction (integers are accepted and promoted).
Float mode uses Python floats with an explicit zero tolerance. Formatting is
centralized here so every surface (CLI tables, JSON, reports) prints the same
way: rationals as n or n/d, floats with 17 significant digits.

RunConfig (the seed, mode and tolerance every command echoes) and UnitTag
(symbolic unit exponents) live here too: both are plain Python, so the CLI
and the oscillator layer reach them without loading numpy.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache

DEFAULT_TOLERANCE = 1e-12

_MODES = ("exact", "float")


class RunConfig:
    """Seed, mode and tolerance of a run, checked once as it is made. A plain
    slotted class, so the CLI loads no dataclasses (and with it inspect) on
    its way to the commands that need neither."""

    __slots__ = ("seed", "mode", "tolerance")

    def __init__(self, seed: int = 0, mode: str = "exact", tolerance: float = DEFAULT_TOLERANCE):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not tolerance > 0:
            raise ValueError("tolerance must be positive")
        self.seed, self.mode, self.tolerance = seed, mode, tolerance

    def describe(self) -> str:
        return f"seed={self.seed} mode={self.mode} tolerance={self.tolerance:.17g}"


def parse_int(text: str) -> int:
    """int(text), also past int()'s sys.get_int_max_str_digits() limit: a
    longer run of ASCII digits is read by halves, each part under it."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise
    limit = sys.get_int_max_str_digits()
    pow10 = cache(lambda k: 10**k)

    def read(s: str) -> int:
        if len(s) <= limit:
            return int(s)
        half = len(s) // 2
        return read(s[:-half]) * pow10(half) + read(s[-half:])

    return read(digits)


def _int_text(n: int) -> str:
    # str() refuses ints past sys.get_int_max_str_digits() (4300 digits by
    # default, passed by N! from N = 1559); Decimal converts with no limit
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def fmt_scalar(x) -> str:
    """Format a scalar for reports: exact rationals verbatim, floats at 17 sig digits."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _int_text(x.numerator)
        return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"
    if isinstance(x, int):
        return _int_text(x)
    if isinstance(x, float):
        return f"{x:.17g}"
    raise TypeError(f"cannot format {type(x).__name__} as a scalar")


class UnitTag:
    """Multiplicative unit bookkeeping: a map symbol -> rational exponent.

    Tags multiply and divide; they never turn into numbers. The point is to
    keep statements like "the pairing scale is xbar*ebar/N" exact and visible
    instead of burying them in floating-point prefactors.
    """

    __slots__ = ("_exps",)

    def __init__(self, exps=None):
        clean = {}
        for sym, e in (exps or {}).items():
            e = Fraction(e)
            if e:
                clean[str(sym)] = e
        self._exps = dict(sorted(clean.items()))

    @classmethod
    def one(cls) -> "UnitTag":
        return cls()

    @classmethod
    def single(cls, sym: str, exp=1) -> "UnitTag":
        return cls({sym: exp})

    def __mul__(self, other: "UnitTag") -> "UnitTag":
        out = dict(self._exps)
        for s, e in other._exps.items():
            out[s] = out.get(s, Fraction(0)) + e
        return UnitTag(out)

    def __truediv__(self, other: "UnitTag") -> "UnitTag":
        out = dict(self._exps)
        for s, e in other._exps.items():
            out[s] = out.get(s, Fraction(0)) - e
        return UnitTag(out)

    def __pow__(self, k) -> "UnitTag":
        k = Fraction(k)
        return UnitTag({s: e * k for s, e in self._exps.items()})

    def __eq__(self, other):
        return isinstance(other, UnitTag) and self._exps == other._exps

    def __hash__(self):
        return hash(tuple(self._exps.items()))

    def is_one(self) -> bool:
        return not self._exps

    def __str__(self):
        if not self._exps:
            return "1"
        bits = []
        for s, e in self._exps.items():
            if e == 1:
                bits.append(s)
            else:
                bits.append(f"{s}^{e}")
        return "*".join(bits)

    def __repr__(self):
        return f"UnitTag({self})"
