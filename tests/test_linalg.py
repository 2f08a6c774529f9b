from fractions import Fraction

import numpy as np

from qsetalg import linalg


def _fraction_product(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def test_mmul_beyond_int64_equals_the_fraction_product():
    a = linalg.mat([[2 ** 70, Fraction(1, 3)], [5, -(2 ** 69)]])
    b = linalg.mat([[7, 2 ** 70], [Fraction(-1, 2), 3]])
    assert linalg.mmul(a, b) == _fraction_product(a, b)


def test_mmul_just_past_the_bound_equals_the_fraction_product():
    # every entry fits int64, but k * max|a| * max|b| >= 2^62
    big = 2 ** 31
    a = linalg.mat([[big, big], [-big, 1]])
    b = linalg.mat([[big, -1], [Fraction(big, 7), big]])
    assert 2 * big * big >= 2 ** 62
    assert linalg.mmul(a, b) == _fraction_product(a, b)


def test_int_scaled_round_trip_and_dtype():
    small, den = linalg.int_scaled([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]])
    assert den == 6 and small.dtype == np.int64
    assert small.tolist() == [[3, 18], [-4, 0]]
    huge, den = linalg.int_scaled([2 ** 70, Fraction(1, 3)])
    assert den == 3 and huge.dtype == object
    assert linalg.from_scaled(huge, den) == (Fraction(2 ** 70), Fraction(1, 3))


def test_int_einsum_falls_back_to_python_ints():
    a = np.array([[2 ** 40, -3], [5, 2 ** 40]], dtype=np.int64)
    got = linalg.int_einsum("ij,jk->ik", a, a)
    assert got.dtype == object
    ref = [[sum(int(a[i, m]) * int(a[m, k]) for m in range(2)) for k in range(2)] for i in range(2)]
    assert got.tolist() == ref
    assert linalg.int_einsum("ij,jk->ik", a // 2 ** 30, a // 2 ** 30).dtype == np.int64


def test_int_combine_falls_back_to_python_ints():
    a = np.array([2 ** 61, -(2 ** 61), 7], dtype=np.int64)
    got = linalg.int_combine((1, a), (1, a), (-3, a))
    assert got.dtype == object
    assert got.tolist() == [-(2 ** 61), 2 ** 61, -7]
    assert linalg.int_combine((1, a // 4), (1, a // 4)).dtype == np.int64
