"""Shared test utilities: frozen oracle loading, seeded random elements,
elementwise Fraction matrix helpers (the package itself works on integer
arrays), and the reference implementations the package's faster routes are
checked against."""

import json
import os
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from qsetalg import linalg
from qsetalg.perfinite import PerfiniteSet, decode
from qsetalg.qset import Multivector, beta_form

ORACLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles")


def load_oracle(name: str):
    with open(os.path.join(ORACLE_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def mat(rows):
    """Nested iterables of ints/Fractions as a tuple-of-tuples Fraction matrix."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def smul(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def commutator(a, b):
    return msub(linalg.mmul(a, b), linalg.mmul(b, a))


def dense_commutator(a, b):
    """a b - b a, exact, for integer arrays of square matrices (2-d, or stacks
    multiplied pairwise), by two linalg.int_matmul products: the dense
    reference gamma pairs and carrier bands are checked against."""
    return linalg.int_matmul(a, b) - linalg.int_matmul(b, a)


def fraction_view(vector, offset: int) -> tuple:
    """The Fraction matrix with `vector` on diagonal `offset`, zero elsewhere."""
    return linalg.from_scaled(np.diag(vector, offset), 1)


def mode_vectors(mode):
    """The ladder weights N - k of A e_k = (N - k) e_{k+1} and k + 1 of
    B e_{k+1} = (k + 1) e_k for k < N, and the diagonal 2k - N of
    Z = [A, B], of a PalevMode of capacity N, as int64 arrays."""
    n = mode.two_j
    return np.arange(n, 0, -1), np.arange(1, n + 1), np.arange(-n, n + 1, 2)


def mode_matrices(mode):
    """A, B and Z = [A, B] of a PalevMode as Fraction matrices, from its
    weight and charge vectors."""
    raising, lowering, charge = mode_vectors(mode)
    return fraction_view(raising, -1), fraction_view(lowering, 1), fraction_view(charge, 0)


def scaled_basis(basis, weights, eps_sqrt):
    """Fraction basis matrices rescaled by eps^{w_i}, with eps = eps_sqrt**2
    so that half-integer weights stay exact."""
    return tuple(smul(Fraction(eps_sqrt) ** int(2 * Fraction(w)), m) for m, w in zip(basis, weights))


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


# -- the sympy normal-ordering reference ------------------------------------
#
# The rewrite loop palev used before its exact coefficients: every branch is
# followed on its own, leftmost out-of-order pair first, with sympy
# coefficients passed through expand. It is kept only as the reference the
# merged rewrite and the QiHbar text are checked against.


def sympy_rewrite_rules():
    """{system: (generator order, {(g, h): [(word, sympy coeff)]})}."""
    import sympy as sp

    hbar = sp.Symbol("hbar", positive=True)
    i = sp.I
    return {
        "h1": (("q", "p"), {("p", "q"): [((), -i * hbar)]}),
        "spin21": (
            ("q", "p", "r"),
            {("p", "q"): [(("r",), -1)], ("r", "p"): [(("q",), -1)], ("r", "q"): [(("p",), -1)]},
        ),
        "spin3": (
            ("jx", "jy", "jz"),
            {("jy", "jx"): [(("jz",), -i)], ("jz", "jy"): [(("jx",), -i)], ("jz", "jx"): [(("jy",), i)]},
        ),
    }


def sympy_normal_order(terms, system):
    """Normal-order {word: sympy coeff} in a preset; returns {word: coeff}."""
    import sympy as sp

    order, rules = sympy_rewrite_rules()[system]
    pending = [(tuple(w), sp.sympify(c)) for w, c in terms.items()]
    done = {}
    while pending:
        word, coeff = pending.pop()
        spot = next((i for i in range(len(word) - 1) if order.index(word[i]) > order.index(word[i + 1])), -1)
        if spot < 0:
            done[word] = sp.expand(done.get(word, 0) + coeff)
            continue
        g, h = word[spot], word[spot + 1]
        pending.append((word[:spot] + (h, g) + word[spot + 2 :], coeff))
        for cw, cc in rules[g, h]:
            pending.append((word[:spot] + cw + word[spot + 2 :], sp.expand(coeff * cc)))
    return {w: c for w, c in done.items() if c != 0}


def sympy_nc_text(terms) -> str:
    """NCPolynomial's text format for {word: sympy coeff}: one "(coeff)*word"
    per nonzero term, shorter words first, then by word."""
    items = sorted(((w, c) for w, c in terms.items() if c != 0), key=lambda kv: (len(kv[0]), kv[0]))
    if not items:
        return "0"
    return " + ".join(f"({c})*{'*'.join(w)}" if w else f"({c})" for w, c in items)


# ---------------------------------------------------------------------------
# The products qset used before blades were keyed by their bitmask: labels are
# walked element by element, every term of every product builds its label as
# a PerfiniteSet, and a generator is found by its position in the frame. Kept
# only as the reference the bitmask products are checked against.


def label_merge_sign(codes_a, codes_b) -> int:
    """Sign of sorting the concatenation of two ascending disjoint code lists."""
    inv = 0
    i = 0
    for b in codes_b:
        while i < len(codes_a) and codes_a[i] < b:
            i += 1
        inv += len(codes_a) - i
    return -1 if inv & 1 else 1


def label_grassmann(v, w):
    """Exterior product on blade labels; shared elements annihilate."""
    out = {}
    for lx, cx in v.items():
        ex = tuple(lx)
        codes_x = [e.code for e in ex]
        for ly, cy in w.items():
            if not lx.isdisjoint(ly):
                continue
            sign = label_merge_sign(codes_x, [e.code for e in ly])
            label = PerfiniteSet(ex + tuple(ly))
            out[label] = out.get(label, 0) + sign * cx * cy
    return Multivector(out)


def preset_metric(frame):
    """The generator metric of frame's preset as rows: 1/2 on each pair
    (2k, 2k + 1) of a hyperbolic frame, zero everywhere else."""
    half = Fraction(1, 2) if frame.metric_name == "hyperbolic" else Fraction(0)
    return tuple(tuple(half if j == i ^ 1 else Fraction(0) for j in range(frame.n)) for i in range(frame.n))


def _label_gen_times(a, mv, frame, beta, gen_index):
    """e_a mv = wedge part + contraction part."""
    sa = frame.generators[a]
    beta_row = beta[a]
    out = {}
    for lab, c in mv.items():
        elems = tuple(lab)
        codes = [e.code for e in elems]
        if sa not in lab:
            pos = bisect_left(codes, sa.code)
            wedge = PerfiniteSet(elems + (sa,))
            out[wedge] = out.get(wedge, 0) + (-1 if pos & 1 else 1) * c
        for t, e in enumerate(elems):
            b = beta_row[gen_index[e]]
            if b:
                rest = PerfiniteSet(elems[:t] + elems[t + 1 :])
                out[rest] = out.get(rest, 0) + (-1 if t & 1 else 1) * b * c
    return Multivector(out)


def _label_gen_contract_blade(a, idxs, frame, beta):
    beta_row = beta[a]
    out = {}
    for t, b in enumerate(idxs):
        if beta_row[b]:
            rest = PerfiniteSet(tuple(frame.generators[k] for k in idxs[:t] + idxs[t + 1 :]))
            out[rest] = out.get(rest, 0) + (-1 if t & 1 else 1) * beta_row[b]
    return Multivector(out)


def _label_blade_times(idxs, mv, frame, beta, gen_index):
    # blade(a0, rest) = e_a0 ^ blade(rest) = e_a0 blade(rest) - e_a0 -| blade(rest)
    if not idxs:
        return mv
    a0, rest = idxs[0], idxs[1:]
    part = _label_gen_times(a0, _label_blade_times(rest, mv, frame, beta, gen_index), frame, beta, gen_index)
    corr = _label_gen_contract_blade(a0, rest, frame, beta)
    if corr.is_zero():
        return part
    return part - _label_mv_times(corr, mv, frame, beta, gen_index)


def _label_mv_times(v, w, frame, beta, gen_index):
    total = Multivector.zero()
    for lab, c in v.items():
        idxs = tuple(gen_index[s] for s in lab)
        total = total + c * _label_blade_times(idxs, w, frame, beta, gen_index)
    return total


def label_clifford(v, w, frame):
    """Geometric product against preset_metric(frame) by the contraction
    recursion."""
    frame.validate(v)
    frame.validate(w)
    gen_index = {s: i for i, s in enumerate(frame.generators)}
    return _label_mv_times(v, w, frame, preset_metric(frame), gen_index)


def beta_gram(frame):
    """The Gram matrix of beta_form on the full blade basis, one beta_form
    call (two wedge products) per entry: the reference qset.gram_matrix's
    table reads are checked against."""
    blades = [Multivector.blade(lab) for lab in frame.basis_labels()]
    return tuple(tuple(beta_form(bi, bj, frame) for bj in blades) for bi in blades)


def recursive_parse_set_text(text: str) -> PerfiniteSet:
    """Brace text by recursive descent, one character at a time: the
    reference for perfinite.parse_set_text, error messages included."""
    s = text
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def parse() -> PerfiniteSet:
        nonlocal pos
        skip_ws()
        if pos >= len(s) or s[pos] != "{":
            raise ValueError(f"expected '{{' at position {pos} in {text!r}")
        pos += 1
        skip_ws()
        elems = []
        if pos < len(s) and s[pos] == "}":
            pos += 1
            return decode(0)
        while True:
            elems.append(parse())
            skip_ws()
            if pos >= len(s):
                raise ValueError(f"unterminated set in {text!r}")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == "}":
                pos += 1
                return PerfiniteSet(elems)
            raise ValueError(f"expected ',' or '}}' at position {pos} in {text!r}")

    result = parse()
    skip_ws()
    if pos != len(s):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return result


def recursive_format_set_text(x: PerfiniteSet) -> str:
    """Brace text by recursion over the elements: the reference for
    perfinite.format_set_text."""
    return "{" + ",".join(recursive_format_set_text(e) for e in x) + "}"


def reference_defect(gammas, eta) -> int:
    """max |g_i g_j + g_j g_i - 2 eta_i delta_ij I| over all pairs, by dense
    products in the matrices' own dtype (object arrays stay exact): the pair
    loop cliff.anticommutator_defect ran before generators were held as
    signed permutations, kept as the reference its gather is checked
    against."""
    dim = gammas[0].shape[0] if len(gammas) else 1
    ident = np.eye(dim, dtype=np.int64)
    worst = 0
    for i, gi in enumerate(gammas):
        for j in range(i, len(gammas)):
            gj = gammas[j]
            anti = gi @ gj + gj @ gi
            if i == j:
                anti = anti - 2 * eta[i] * ident
            worst = max(worst, int(np.abs(anti).max()) if anti.size else 0)
    return worst


def reference_refit(algebra, weights, eps: float) -> float:
    """liecore.numeric_contraction_check as one commutator and one lstsq per
    bracket: the loop it ran before it batched both, kept as the reference
    the batched refit is checked against."""
    from qsetalg.liecore import ContractionFamily

    sc = algebra.structure_constants()
    ws = [float(w) for w in ContractionFamily(sc, weights).weights]
    n = algebra.dim
    mats = [m * (eps ** w) for m, w in zip(linalg.to_float(algebra.stack, algebra.scale), ws)]
    cols = np.stack([m.reshape(-1) for m in mats], axis=1)
    consts = linalg.to_float(sc.C, sc.D)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            coords = np.linalg.lstsq(cols, comm.reshape(-1), rcond=None)[0]
            exact = np.array([float(consts[i, j, k]) * eps ** (ws[i] + ws[j] - ws[k]) for k in range(n)])
            scale = max(1.0, float(np.abs(exact).max()))
            worst = max(worst, float(np.abs(coords - exact).max()) / scale)
    return worst
