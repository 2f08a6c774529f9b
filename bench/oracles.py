"""Independent reference routes the benchmark checks qsetalg results against.

Nothing here calls the code path it checks. Set codes are decoded from the
Ackermann bit pattern, blades are wedged as generator bitmasks, frame
structure constants come from the closed-form so(p, q) bracket, ring networks
collapse through gamma_m gamma_m = eta_m, and normal-ordered words are
compared by evaluating both sides on matrices or differential operators.
Frozen values come from the repository's own oracle files under
tests/oracles, which were derived by independent scripts.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from math import factorial

import numpy as np


class Mismatch(Exception):
    """A job's result disagrees with its independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def load_oracle(root: str, name: str):
    with open(os.path.join(root, "tests", "oracles", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# input ranges shared by the small-exact and cli workloads
GAMMA_SIGNATURES = tuple((p, n - p) for n in range(1, 9) for p in range(n + 1))
RING_SIGNATURES = tuple((p, q) for p in range(2, 5) for q in range(1, 5))
SYSTEMS = {"h1": ("q", "p"), "spin21": ("q", "p", "r"), "spin3": ("jx", "jy", "jz")}


# ---------------------------------------------------------------------------
# hereditarily finite sets by their codes

TOWER = (1, 2, 4, 16, 65536)


def set_text(code: int) -> str:
    """Brace text of the set whose Ackermann code is `code`."""
    bits = []
    i = 0
    while code >> i:
        if (code >> i) & 1:
            bits.append(set_text(i))
        i += 1
    return "{" + ",".join(bits) + "}"


def text_code(text: str) -> int:
    """Ackermann code of brace text (no whitespace)."""
    code, pos = _parse(text, 0)
    expect(pos == len(text), f"trailing text in {text!r}")
    return code


def _parse(s: str, pos: int):
    expect(s[pos] == "{", f"expected '{{' at {pos}")
    pos += 1
    code = 0
    if s[pos] == "}":
        return 0, pos + 1
    while True:
        elem, pos = _parse(s, pos)
        code |= 1 << elem
        if s[pos] == "}":
            return code, pos + 1
        expect(s[pos] == ",", f"expected ',' at {pos}")
        pos += 1


# ---------------------------------------------------------------------------
# blades as generator bitmasks: in a rank frame generator i has code i, so a
# blade label's code is the bitmask of its generators.


def _merge_sign(a: int, b: int) -> int:
    swaps = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            swaps += (a >> (i + 1)).bit_count()
    return -1 if swaps & 1 else 1


def wedge(u: dict, v: dict) -> dict:
    """Exterior product of {bitmask: Fraction} multivectors."""
    out: dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            if a & b:
                continue
            k = a | b
            out[k] = out.get(k, 0) + _merge_sign(a, b) * ca * cb
    return {k: c for k, c in out.items() if c}


def top_coefficient(w: dict, n: int) -> Fraction:
    """Coefficient of the top blade in w ^ w for a frame with n generators."""
    return Fraction(wedge(w, w).get((1 << n) - 1, 0))


# ---------------------------------------------------------------------------
# fifteen-generator frames from the so(p, q) bracket
#
# [M(a,b), M(c,d)] = eta_bc M(a,d) - eta_ac M(b,d) - eta_bd M(a,c)
#                    + eta_ad M(b,c),   M(a,a) = 0, M(b,a) = -M(a,b).

# direction metric of each preset, read off the gamma signature and the
# gamma indices the preset picks for its six directions
FRAME_ETA = {
    "4-2": (1, 1, 1, 1, -1, -1),
    "3-3": (1, 1, 1, -1, -1, -1),
    "5-1": (1, 1, 1, 1, 1, -1),
}

FRAME_LABELS = (
    "L12", "L13", "L14", "L23", "L24", "L34",
    "x1", "x2", "x3", "x4", "p1", "p2", "p3", "p4", "z",
)

# contraction weights: rotations 0, coordinates and momenta 1/2, center 1
FRAME_WEIGHTS = (Fraction(0),) * 6 + (Fraction(1, 2),) * 8 + (Fraction(1),)


def _frame_pairs():
    pairs = [(mu, nu) for mu in range(1, 5) for nu in range(mu + 1, 5)]
    pairs += [(5, mu) for mu in range(1, 5)]
    pairs += [(6, mu) for mu in range(1, 5)]
    pairs.append((6, 5))
    return pairs


def frame_constants(preset: str):
    """c[i][j][k] of the preset's frame, from eta alone."""
    eta = FRAME_ETA[preset]
    pairs = _frame_pairs()
    index = {}
    for k, (a, b) in enumerate(pairs):
        index[(a, b)] = (k, 1)
        index[(b, a)] = (k, -1)
    n = len(pairs)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]

    def g(x, y):
        return eta[x - 1] if x == y else 0

    for i, (a, b) in enumerate(pairs):
        for j, (cc, d) in enumerate(pairs):
            terms = (
                (g(b, cc), a, d),
                (-g(a, cc), b, d),
                (-g(b, d), a, cc),
                (g(a, d), b, cc),
            )
            for coeff, x, y in terms:
                if coeff and x != y:
                    k, sign = index[(x, y)]
                    c[i][j][k] += coeff * sign
    return c


def limit_constants(c, weights):
    """Keep the constants whose contraction exponent w_i + w_j - w_k is 0."""
    n = len(c)
    return [
        [
            [c[i][j][k] if weights[i] + weights[j] - weights[k] == 0 else Fraction(0) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def same_constants(got, want) -> bool:
    return [[list(row) for row in plane] for plane in got] == want


# ---------------------------------------------------------------------------
# capped modes


def exclusion_values(capacity: int):
    """(max entry of adag^N, max entry of adag^(N+1)) on the integer ladder:
    adag^N sends the ground level to the top with weight N!."""
    return Fraction(factorial(capacity)), Fraction(0)


def check_carrier_relations(triple) -> None:
    """Recheck a carrier triple's brackets in integer numpy arithmetic."""
    q, p, r = (np.array([[int(2 * x) for x in row] for row in m], dtype=np.int64) for m in (triple.q, triple.p, triple.r))

    def comm(a, b):
        return a @ b - b @ a

    # matrices are scaled by 2, so a bracket of two of them carries a factor 4
    if triple.preset == "spin3":
        want = ((q, p, 2 * r), (p, r, 2 * q), (q, r, 2 * p))
    else:
        want = ((q, p, r), (p, r, q), (q, r, p))
    for a, b, c in want:
        expect(np.array_equal(comm(a, b), 2 * c), f"{triple.preset} carrier bracket fails")


# ---------------------------------------------------------------------------
# normal ordering


@functools.lru_cache(maxsize=None)
def _nc_matrices(system: str) -> dict:
    import sympy as sp

    from qsetalg import liecore

    if system == "spin21":
        alg, scale, names = liecore.boost_triple(), 1, ("q", "p", "r")
    else:
        alg, scale, names = liecore.rotation3(), sp.I, ("jx", "jy", "jz")
    return {
        name: scale * sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in m])
        for name, m in zip(names, alg.basis)
    }


def normal_order_matches(system: str, word, ordered) -> bool:
    """Both sides of word = ordered agree as operators.

    spin21 is evaluated on the catalog so(2,1) ladder matrices and spin3 on
    i times the catalog so(3) matrices (both through palev.evaluate_nc); h1 is
    evaluated on the Schroedinger pair q = x, p = -i hbar d/dx applied to a
    test function, since no finite matrices satisfy [q, p] = i hbar.
    """
    import sympy as sp

    from qsetalg import palev

    if system == "h1":
        x = sp.Symbol("x")
        hbar = sp.Symbol("hbar", positive=True)
        f = sp.exp(x) + x ** 9 + 2 * x ** 4

        def apply(w, expr):
            for g in reversed(w):
                expr = x * expr if g == "q" else -sp.I * hbar * sp.diff(expr, x)
            return expr

        lhs = apply(word, f)
        rhs = sum((c * apply(w, f) for w, c in ordered.terms().items()), sp.Integer(0))
        return sp.expand(lhs - rhs) == 0
    mats = _nc_matrices(system)
    diff = palev.evaluate_nc(palev.NCPolynomial.word(*word), mats) - palev.evaluate_nc(ordered, mats)
    return diff == sp.zeros(*diff.shape)


# ---------------------------------------------------------------------------
# networks


def ring_layout(size: int, rng):
    """Wiring of a gamma ring: vertex i's spinor feeds vertex i+1's dual; two
    (even size) or three (odd size) vector legs stay open and the other
    vector slots pair up on neighbouring vertices. Returns (edges, open legs
    in ring order, open legs in declared order, number of pairs)."""
    n_open = 2 if size % 2 == 0 else 3
    pairs = (size - n_open) // 2
    tokens = ["open"] * n_open + ["pair"] * pairs
    rng.shuffle(tokens)
    open_ring, edges, v = [], [], 0
    for t in tokens:
        if t == "open":
            open_ring.append(v)
            v += 1
        else:
            edges.append(((v, "vector"), (v + 1, "vector")))
            v += 2
    declared = list(open_ring)
    rng.shuffle(declared)
    edges = [((i, "spinor"), ((i + 1) % size, "dual")) for i in range(size)] + edges
    return edges, open_ring, declared, pairs


def iota_chain_nodes(rng):
    """A chain of rank-raising nodes [(m, rank)] whose neighbouring slot
    sizes match: out of rank r has 2^n(r) entries, in of (m, r+1) has
    C(n(r+1), m)."""
    if rng.random() < 0.5:
        nodes = [(rng.choice((0, 1)), 1), (1, 2)]
        if rng.random() < 0.5:
            nodes.append((rng.choice((1, 3)), 3))
        return nodes
    return [(rng.choice((0, 1, 2)), 2), (rng.choice((1, 3)), 3)]


def ring_value(gammas, eta, pairs: int, open_ring_order, declared_order):
    """Exact contraction of a gamma ring whose paired vector slots sit on
    neighbouring vertices: each pair collapses to sum_m gamma_m gamma_m =
    (p - q) I, leaving (p - q)^pairs times the trace of the open gammas in
    ring order. Returned as a nested list of Python ints in declared order."""
    g = np.stack(gammas).astype(np.int64)
    k = len(open_ring_order)
    if k == 2:
        tr = np.einsum("aij,bji->ab", g, g)
    else:
        tr = np.einsum("aij,bjk,cki->abc", g, g, g)
    # axes of tr follow ring order; move them to the declared open order
    perm = [open_ring_order.index(v) for v in declared_order]
    tr = np.transpose(tr, perm)
    factor = sum(eta) ** pairs
    return (tr.astype(object) * factor).tolist()


def iota_chain_value(nodes):
    """Contraction of a chain of rank-raising nodes, nodes = [(m, rank)],
    with the first node's `in` and the last node's `out` open: a product of
    0/1 inclusion matrices sending the i-th grade-m code to the code itself."""
    out = None
    for m, rank in nodes:
        n = TOWER[rank - 1]
        codes = [c for c in range(1 << n) if c.bit_count() == m]
        inc = np.zeros((1 << n, len(codes)), dtype=np.int64)
        for i, c in enumerate(codes):
            inc[c, i] = 1
        out = inc if out is None else inc @ out
    return out.T.tolist()
