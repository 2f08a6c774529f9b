import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsetalg.perfinite import (
    EMPTY,
    MAX_CODE_BITS,
    OM,
    PerfiniteSet,
    decode,
    enumerate_rank,
    format_set_text,
    iota,
    parse_set_text,
    por,
    xor_union,
)
from qsetalg.qset import Multivector, mv_from_json, mv_to_json

from helpers import load_oracle, recursive_format_set_text, recursive_parse_set_text


def test_code_table_matches_independent_derivation():
    table = load_oracle("oracle_sets")["table16"]
    for row in table:
        x = decode(row["code"])
        assert format_set_text(x) == row["text"]
        assert x.grade == row["grade"]
        assert x.rank == row["rank"]
        assert x.code == row["code"]


def test_decode_spot_values():
    spot = load_oracle("oracle_sets")["decode_spot"]
    for c, text in spot.items():
        assert format_set_text(decode(int(c))) == text


def test_round_trip_sample():
    rng = random.Random(11)
    sample = {0, 1, 15, 16, 255, 65535} | {rng.randrange(65536) for _ in range(400)}
    for c in sample:
        assert decode(c).code == c


def test_rank_tier_sizes():
    counts = load_oracle("oracle_sets")["rank_counts"]
    for r in range(4):
        assert len(enumerate_rank(r)) == counts[r]
    assert len(enumerate_rank(4, allow_large=True)) == counts[4]


def test_enumeration_is_code_ordered():
    xs = enumerate_rank(3)
    assert [x.code for x in xs] == list(range(16))


def test_large_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_rank(4)
    with pytest.raises(ValueError):
        enumerate_rank(5, allow_large=True)


def test_xor_group_laws():
    rng = random.Random(7)
    pool = [decode(rng.randrange(65536)) for _ in range(60)]
    for i in range(0, 57, 3):
        a, b, c = pool[i], pool[i + 1], pool[i + 2]
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ b == b ^ a
        assert a ^ EMPTY == a
        assert a ^ a == EMPTY
        # coded, symmetric difference is bitwise xor
        assert (a ^ b).code == a.code ^ b.code


def test_partial_or():
    a = decode(5)   # elements coded 0 and 2
    b = decode(10)  # elements coded 1 and 3
    assert por(a, b) == decode(15)
    assert (a | b) == decode(15)
    assert por(a, decode(1)) is OM          # both contain the empty set
    assert por(OM, a) is OM
    assert xor_union(OM, a) is OM


def test_iota_raises_rank_by_one():
    for c in range(16):
        x = decode(c)
        assert iota(x).code == 1 << c
        assert iota(x).rank == x.rank + 1
        assert iota(x).grade == 1


def test_parse_format_round_trip():
    for x in enumerate_rank(3):
        assert parse_set_text(format_set_text(x)) == x
    assert parse_set_text(" { { } , { { } } } ") == decode(3)


@settings(max_examples=300)
@given(st.data())
def test_set_text_round_trip_property(data):
    """format_set_text agrees with the recursive reference, and parse_set_text
    reads it back, also with whitespace at up to eight places, for codes
    below 2^16 (every set of rank 4) and up to 2^64."""
    x = decode(data.draw(st.integers(0, (1 << 16) - 1) | st.integers(0, 1 << 64), label="code"))
    text = format_set_text(x)
    assert text == recursive_format_set_text(x)
    assert parse_set_text(text) == x
    spaced = list(text)
    for at in data.draw(st.lists(st.integers(0, len(text)), max_size=8), label="spaces"):
        spaced.insert(at, data.draw(st.sampled_from([" ", "\n\t"])))
    assert parse_set_text("".join(spaced)) == x


@pytest.mark.parametrize("bad", ["", "{", "}{", "{{}", "{,}", "{{}}x", "0"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_set_text(bad)


def _parsed(parse, text):
    try:
        return parse(text).code
    except ValueError as e:
        return str(e)


def test_set_text_matches_the_recursive_reference():
    rng = random.Random(20250611)
    codes = [*range(300), *rng.sample(range(1 << 16), 300), 1 << 65536, (1 << 65536) | 65535]
    for c in codes:
        text = format_set_text(decode(c))
        assert text == recursive_format_set_text(decode(c))
        spaced = "".join(ch + " " * rng.choice((0, 0, 1, 2)) for ch in text)
        assert parse_set_text(text).code == parse_set_text(spaced).code == c
    # malformed texts: the same ValueError message, position included
    for _ in range(3000):
        text = format_set_text(decode(rng.randrange(1 << 16)))
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and chars:
                del chars[min(i, len(chars) - 1)]
            elif op == 1:
                chars.insert(i, rng.choice("{},x "))
            else:
                chars = chars[:i] if rng.random() < 0.5 else chars[i:]
        bad = "".join(chars)
        assert _parsed(parse_set_text, bad) == _parsed(recursive_parse_set_text, bad)
    # an element past the code limit, and a syntax error after it
    for bad in ("{{{{{{{{}}}}}}}}", "{{{{{{{{}}}}}}},{}}", "{{{{{{{{}}}}}}}x}", "{{{{{{{{}}}}}}},"):
        assert _parsed(parse_set_text, bad) == _parsed(recursive_parse_set_text, bad)


def test_elements_are_deduplicated_and_sorted():
    x = decode(1)
    y = decode(2)
    s = PerfiniteSet((y, x, y))
    assert s.code == 6
    assert [e.code for e in s] == [1, 2]


def test_sets_hash_and_compare_by_extension():
    a = PerfiniteSet((decode(0), decode(1)))
    b = decode(3)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "text,code,rank",
    [("{{{{{{}}}}}}", 65536, 5), ("{{{{{{{}}}}}}}", 1 << 65536, 6)],
    ids=["rank5", "rank6"],
)
def test_rank_and_grade_of_deep_singletons(text, code, rank):
    x = parse_set_text(text)
    assert x.code == code
    assert x.rank == rank
    assert x.grade == 1
    assert decode(code) == x
    assert [e.rank for e in x] == [rank - 1]
    assert format_set_text(x) == text


def test_code_cannot_be_reassigned():
    x = decode(5)
    with pytest.raises(AttributeError):
        x.code = 6
    assert x.code == 5


def test_sets_past_the_code_size_limit_are_refused():
    # rank 7: the element {{{{{{{}}}}}}} has code 2**65536, and {x} would
    # need a code of 2**(2**65536) bits; an element coded 2**36 would need 8 GB
    deep = parse_set_text("{{{{{{{}}}}}}}")
    for make in (lambda: iota(deep), lambda: PerfiniteSet((deep,)), lambda: iota(decode(1 << 36))):
        with pytest.raises(ValueError, match="not representable"):
            make()
    with pytest.raises(ValueError):
        parse_set_text("{{{{{{{{}}}}}}}}")
    assert iota(decode((1 << 24) - 1)).code == 1 << ((1 << 24) - 1)


def test_decode_refuses_what_set_text_and_json_refuse():
    # a code at the limit (one element, coded 2**24 - 1) round-trips through
    # set text and multivector JSON; one past it (one element coded 2**24) is
    # refused by decode with the message parse_set_text gives for its text
    edge = decode(1 << (MAX_CODE_BITS - 1))
    assert parse_set_text(format_set_text(edge)) == edge
    mv = Multivector.blade(edge, Fraction(-2, 3))
    assert mv_from_json(mv_to_json(mv)) == mv
    with pytest.raises(ValueError) as refused:
        decode(1 << MAX_CODE_BITS)
    past = "{" + format_set_text(decode(MAX_CODE_BITS)) + "}"
    with pytest.raises(ValueError) as parsed:
        parse_set_text(past)
    assert str(refused.value) == str(parsed.value)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        mv_from_json([[past, 1, 1]])
