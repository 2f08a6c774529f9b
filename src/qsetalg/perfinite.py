"""Hereditarily finite sets with exact Ackermann coding.

The code of a set is sum(2**code(e) for e in elements), with the empty set at
0. That map is a bijection between naturals and hereditarily finite sets, and
the codes 0..T(k)-1 (T the iterated-exponential tower 1, 2, 4, 16, 65536, ...)
are exactly the sets of rank <= k. So a set is held as its code alone: its
elements are the set bits of the code, in ascending order (the canonical
element order everywhere), its grade is the popcount, membership is a bit
test, and decode is free.

Two binary operations matter downstream:

    xor_union   symmetric difference, the xor of the codes; the empty set is
                the unit and every set is its own inverse (x ^ x is empty)
    por         union (the or of the codes) when the operands are disjoint,
                else the absorbing sentinel OM -- a genuine "undefined",
                distinct from the empty set

Codes of rank-5 sets already need tens of kilobits, so enumeration is
guarded; nothing in this package needs rank above 4. A set whose code would
pass 2**24 bits (2 MB) is refused with ValueError: every set of rank <= 5
fits, a rank-6 set fits while its elements' codes stay below 2**24, and rank
7 never does (a rank-6 element has a code of at least 2**65536).
"""

from __future__ import annotations

import operator

_TOWER = [1, 2, 4, 16, 65536]
# a code has at most this many bits, so every element code lies below it
MAX_CODE_BITS = 1 << 24
_TOO_LARGE = "set not representable: an element code of 2**24 or more makes a code past 2 MB"


class _OmType:
    """Absorbing 'undefined' produced by a clashing partial-or."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OM"

    def __xor__(self, other):
        return self

    __rxor__ = __xor__

    def __or__(self, other):
        return self

    __ror__ = __or__


OM = _OmType()


def _singleton_code(c: int) -> int:
    """Code of {x} for the set x coded c."""
    if c >= MAX_CODE_BITS:
        raise ValueError(_TOO_LARGE)
    return 1 << c


def bit_positions(n: int):
    """Positions of the set bits of n, ascending: the element codes of the
    set coded n, and the generator indices of a rank-frame blade."""
    while n:
        low = n & -n
        yield low.bit_length() - 1
        n ^= low


class PerfiniteSet:
    """Immutable hereditarily finite set, held as its code alone."""

    __slots__ = ("_code",)

    def __init__(self, elems=()):
        code = 0
        for e in elems:
            if not isinstance(e, PerfiniteSet):
                raise TypeError(f"elements must be PerfiniteSet, got {type(e).__name__}")
            code |= _singleton_code(e._code)
        self._code = code

    @property
    def code(self) -> int:
        return self._code

    @property
    def grade(self) -> int:
        """Cardinality; doubles as the grading that drives exchange parity."""
        return self._code.bit_count()

    @property
    def rank(self) -> int:
        # rank grows with code (codes below T(k) are the sets of rank <= k),
        # so the top bit names an element of the highest rank
        n, r = self._code, 0
        while n:
            n, r = n.bit_length() - 1, r + 1
        return r

    def __iter__(self):
        return map(decode, bit_positions(self._code))

    def __len__(self):
        return self.grade

    def __contains__(self, item):
        return isinstance(item, PerfiniteSet) and bool(self._code >> item._code & 1)

    def __eq__(self, other):
        if not isinstance(other, PerfiniteSet):
            return NotImplemented
        return self._code == other._code

    def __hash__(self):
        return hash(self._code)

    def __xor__(self, other):
        return xor_union(self, other)

    def __or__(self, other):
        return por(self, other)

    def isdisjoint(self, other: "PerfiniteSet") -> bool:
        return not self._code & other._code

    def __str__(self):
        return format_set_text(self)

    def __repr__(self):
        return f"PerfiniteSet({format_set_text(self)!r})"


EMPTY = PerfiniteSet()


def iota(x: PerfiniteSet) -> PerfiniteSet:
    """Singleton brace: x -> {x}. Raises rank by exactly one."""
    if not isinstance(x, PerfiniteSet):
        raise TypeError("iota takes a PerfiniteSet")
    return decode(_singleton_code(x.code))


def xor_union(x, y):
    """Symmetric difference. Empty set is the unit; x ^ x is empty. OM absorbs."""
    if x is OM or y is OM:
        return OM
    return decode(x.code ^ y.code)


def por(x, y):
    """Partial or: union if disjoint, else the absorbing OM sentinel."""
    if x is OM or y is OM or x.code & y.code:
        return OM
    return decode(x.code | y.code)


def decode(n: int) -> PerfiniteSet:
    """Inverse Ackermann coding: the unique set with code n."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("codes are non-negative")
    s = PerfiniteSet.__new__(PerfiniteSet)
    s._code = n
    return s


def enumerate_rank(max_rank: int, *, allow_large: bool = False) -> tuple:
    """All sets of rank <= max_rank in code order (codes 0 .. T(max_rank)-1).

    Growth is a power tower, so max_rank <= 3 (16 sets) by default; max_rank 4
    (65536 sets) needs allow_large=True; max_rank >= 5 is refused outright.
    """
    if max_rank < 0:
        raise ValueError("rank is non-negative")
    if max_rank >= 5:
        raise ValueError("rank >= 5 enumeration is astronomically large; refusing")
    if max_rank == 4 and not allow_large:
        raise ValueError(
            "rank 4 enumerates 65536 sets; pass allow_large=True if you mean it"
        )
    count = _TOWER[max_rank]
    return tuple(decode(c) for c in range(count))


def format_set_text(x: PerfiniteSet) -> str:
    """Brace text, elements in code order: {}, {{}}, {{},{{}}} ..."""
    if not isinstance(x, PerfiniteSet):
        raise TypeError("format_set_text takes a PerfiniteSet")
    return _text(x._code)


def _text(n: int) -> str:
    if n < len(_SMALL_TEXTS):
        return _SMALL_TEXTS[n]
    return "{" + ",".join(map(_text, bit_positions(n))) + "}"


def _small_texts() -> tuple:
    """Texts of the 16 sets of rank <= 3, by code."""
    texts = []
    for n in range(16):
        texts.append("{" + ",".join(texts[e] for e in bit_positions(n)) + "}")
    return tuple(texts)


_SMALL_TEXTS = _small_texts()


def parse_set_text(text: str) -> PerfiniteSet:
    """Parse brace text. Whitespace is tolerated; output of format round-trips.

    One pass over the characters. `codes` holds the codes of the sets opened
    and not yet closed, innermost last; a set gets -1 once it has an element
    past the code limit, and raises when it closes. `state` says what the
    next non-space character may be: 0 '{' (at the start and after ','),
    1 '{' or '}' (after '{'), 2 ',' or '}' (after an element), 3 nothing
    (after the outermost '}').
    """
    codes = []
    state = 0
    for pos, ch in enumerate(text):
        if ch == "{" and state < 2:
            codes.append(0)
            state = 1
        elif ch == "}" and 0 < state < 3:
            c = codes.pop()
            if c < 0:
                raise ValueError(_TOO_LARGE)
            if not codes:
                result, state = c, 3
            else:
                codes[-1] = -1 if c >= MAX_CODE_BITS else codes[-1] | 1 << c
                state = 2
        elif ch == "," and state == 2:
            state = 0
        elif ch.isspace():
            continue
        elif state == 3:
            raise ValueError(f"trailing input at position {pos} in {text!r}")
        elif state == 2:
            raise ValueError(f"expected ',' or '}}' at position {pos} in {text!r}")
        else:
            raise ValueError(f"expected '{{' at position {pos} in {text!r}")
    if state == 3:
        return decode(result)
    if state == 2:
        raise ValueError(f"unterminated set in {text!r}")
    raise ValueError(f"expected '{{' at position {len(text)} in {text!r}")
