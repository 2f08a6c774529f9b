"""Shared test utilities: frozen oracle loading, seeded random elements, and
elementwise Fraction matrix helpers (the package itself works on integer
arrays)."""

import json
import os
from fractions import Fraction

from qsetalg import linalg
from qsetalg.perfinite import decode
from qsetalg.qset import Multivector

ORACLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles")


def load_oracle(name: str):
    with open(os.path.join(ORACLE_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def smul(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def commutator(a, b):
    return msub(linalg.mmul(a, b), linalg.mmul(b, a))


def rand_label(rng, frame):
    """Uniform basis blade label of the frame."""
    return decode(rng.randrange(1 << frame.n))


def rand_mv(rng, frame, terms=4) -> Multivector:
    """Sparse multivector with small rational coefficients."""
    mv = Multivector.zero()
    for _ in range(terms):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        mv = mv + Multivector.blade(rand_label(rng, frame), c)
    return mv


def lagrange_signature(a):
    """(n_plus, n_minus, n_zero) of a symmetric matrix by Lagrange congruence
    diagonalization over Fractions: the reference linalg.congruence_signature
    is checked against. A zero pivot is replaced by a later nonzero diagonal,
    or else repaired by adding a row+column with a nonzero off-diagonal."""
    n = len(a)
    w = [[Fraction(x) for x in row] for row in a]
    pos = neg = zero = 0

    def add_rowcol(dst, src, f=Fraction(1)):
        for j in range(n):
            w[dst][j] += f * w[src][j]
        for i in range(n):
            w[i][dst] += f * w[i][src]

    def swap_rowcol(i, j):
        w[i], w[j] = w[j], w[i]
        for row in w:
            row[i], row[j] = row[j], row[i]

    for i in range(n):
        if w[i][i] == 0:
            swap_j = next((j for j in range(i + 1, n) if w[j][j] != 0), None)
            if swap_j is not None:
                swap_rowcol(i, swap_j)
            else:
                off_j = next((j for j in range(i + 1, n) if w[i][j] != 0), None)
                if off_j is None:
                    zero += 1
                    continue
                add_rowcol(i, off_j)
        d = w[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if w[r][i] != 0:
                add_rowcol(r, i, -w[r][i] / d)
    return pos, neg, zero
