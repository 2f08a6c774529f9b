"""Scalar conventions shared across the package.

Exact mode works over fractions.Fraction (integers are accepted and promoted).
Float mode uses Python floats with an explicit zero tolerance. Formatting is
centralized here so every surface (CLI tables, JSON, reports) prints the same
way: rationals as n or n/d, floats with 17 significant digits.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache

DEFAULT_TOLERANCE = 1e-12


def is_zero(x, tol: float = DEFAULT_TOLERANCE) -> bool:
    if isinstance(x, float):
        return abs(x) <= tol
    return x == 0


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
