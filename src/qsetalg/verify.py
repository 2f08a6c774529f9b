"""Fast deterministic self-checks behind the verify-all command.

Every check is seeded, sorted, and timestamp-free, so two runs with the same
RunConfig produce byte-identical reports. These are smoke-depth versions of
the heavyweight test-suite sweeps: each one finishes in at most a couple of
seconds and states concretely what it verified.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .cliff import anticommutator_defect, build_gammas, entries_are_signs
from .liecore import ContractionFamily, boost_triple, catalog_entry, numeric_contraction_check
from .linalg import int_matmul
from .palev import NCPolynomial, PalevMode, QiHbar, carrier_triple, normal_order
from .perfinite import EMPTY, decode, enumerate_rank
from .qset import (
    Multivector,
    RankFrame,
    berezin_norm,
    clifford,
    embed,
    grade_parity,
    gram_matrix,
    grassmann,
    signature_report,
)
from .scalars import RunConfig
from .vertexnet import GammaVertex, IotaNode, VertexNetwork, dense_oracle
from .yang import (
    accumulate_coordinate,
    build_yang,
    contract_to_hp,
    gauge_defect,
    toy_frame,
    total_matrix,
    unit_tags,
)


class _CheckFailure(Exception):
    pass


def _fail(msg: str):
    raise _CheckFailure(msg)


# ---------------------------------------------------------------------------
# checks; each returns a detail string or raises _CheckFailure


def _check_set_codes(cfg: RunConfig) -> str:
    for n in range(256):
        if decode(n).code != n:
            _fail(f"decode({n}).code != {n}")
    return "codes 0..255 decode/encode round-trip"


def _check_set_laws(cfg: RunConfig) -> str:
    rng = random.Random(cfg.seed)
    univ = enumerate_rank(3)
    samples = 60
    for _ in range(samples):
        x = univ[rng.randrange(len(univ))]
        y = univ[rng.randrange(len(univ))]
        z = univ[rng.randrange(len(univ))]
        if (x ^ y) ^ z != x ^ (y ^ z):
            _fail(f"xor not associative on codes {x.code},{y.code},{z.code}")
        if x ^ y != y ^ x:
            _fail("xor not commutative")
        if x ^ x != EMPTY or x ^ EMPTY != x:
            _fail("xor unit/self-inverse broken")
        if grade_parity(x ^ y) != (grade_parity(x) + grade_parity(y)) % 2:
            _fail(f"parity not additive on codes {x.code},{y.code}")
    return f"{samples} sampled xor laws and the grade-parity homomorphism"


def _rand_mv(frame: RankFrame, rng: random.Random, cfg: RunConfig, terms=3):
    labs = frame.basis_labels()
    out = {}
    for _ in range(terms):
        lab = labs[rng.randrange(len(labs))]
        if cfg.mode == "float":
            out[lab] = rng.uniform(-2.0, 2.0)
        else:
            out[lab] = Fraction(rng.randint(-4, 4))
    return Multivector(out)


def _check_product_laws(cfg: RunConfig) -> str:
    rng = random.Random(cfg.seed)
    frame = RankFrame(3, metric="hyperbolic")
    trials = 25
    for _ in range(trials):
        u = _rand_mv(frame, rng, cfg)
        v = _rand_mv(frame, rng, cfg)
        w = _rand_mv(frame, rng, cfg)
        ga = grassmann(grassmann(u, v), w) - grassmann(u, grassmann(v, w))
        ca = clifford(clifford(u, v, frame), w, frame) - clifford(
            u, clifford(v, w, frame), frame
        )
        if cfg.mode == "float":
            ga = ga.chop(cfg.tolerance)
            ca = ca.chop(cfg.tolerance)
        if not ga.is_zero():
            _fail("exterior product not associative on a sampled triple")
        if not ca.is_zero():
            _fail("geometric product not associative on a sampled triple")
        odd = Multivector(
            {lab: c for lab, c in u.items() if lab.grade % 2}
        )
        sq = grassmann(odd, odd)
        if cfg.mode == "float":
            sq = sq.chop(cfg.tolerance)
        if not sq.is_zero():
            _fail("odd multivector does not square to zero under the exterior product")
    for x in enumerate_rank(2):
        if x.grade and not grassmann(embed(x), embed(x)).is_zero():
            _fail(f"embed({x}) ^ itself != 0")
    return f"{trials} associativity triples (rank 3, hyperbolic); odd squares and nonempty blades annihilate"


def _check_berezin(cfg: RunConfig) -> str:
    for r in (2, 3):
        frame = RankFrame(r)
        w = Multivector.scalar(Fraction(1)) + frame.top()
        if berezin_norm(w, frame) != 2:
            _fail(f"norm(1 + top) != 2 at rank {r}")
    expected = {1: (1, 1, 0), 2: (1, 1, 2), 3: (4, 4, 8)}
    for r, want in sorted(expected.items()):
        got = signature_report(RankFrame(r)).as_tuple()
        if got != want:
            _fail(f"signature at rank {r}: {got} != {want}")
    from .linalg import congruence_signature

    frame = RankFrame(2)
    if congruence_signature(gram_matrix(frame)) != (1, 1, 2):
        _fail("dense congruence disagrees with the pairing count at rank 2")
    return "norm(1+top)=2 at ranks 2,3; signatures (1,1,0),(1,1,2),(4,4,8); dense cross-check"


def _check_gammas(cfg: RunConfig) -> str:
    count = 0
    for total in range(1, 5):
        for p in range(total + 1):
            gs = build_gammas(p, total - p)
            if anticommutator_defect(gs) != 0:
                _fail(f"anticommutation broken at ({p},{total - p})")
            if not entries_are_signs(gs):
                _fail(f"entries outside -1,0,1 at ({p},{total - p})")
            count += 1
    return f"{count} signatures with p+q <= 4 anticommute exactly, entries in -1,0,1"


def _check_catalog(cfg: RunConfig) -> str:
    facts = []
    want = {"so3": (Fraction(-8), "semisimple"), "h1": (Fraction(0), "nilpotent"), "so21": (Fraction(-8), "semisimple")}
    for key in sorted(want):
        sc = catalog_entry(key).algebra.structure_constants()
        det, cls = sc.killing_det(), sc.classify()
        if (det, cls) != want[key]:
            _fail(f"{key}: det={det} classify={cls}, wanted {want[key]}")
        if sc.jacobi_defect() != 0:
            _fail(f"{key}: Jacobi identity fails")
        facts.append(f"{key} det={det}")
    return "; ".join(facts)


def _check_contraction(cfg: RunConfig) -> str:
    ent = catalog_entry("so21")
    fam = ContractionFamily(ent.algebra.structure_constants(), ent.weights)
    lim = fam.limit()
    if lim.killing_det() != 0:
        _fail("limit Killing determinant is nonzero")
    if lim.classify() != "nilpotent":
        _fail(f"limit classified as {lim.classify()}")
    eps = Fraction(1, 1000)
    at = fam.at(eps)
    for i, j, k, c, e in fam.decaying():
        if abs(Fraction(int(at.C[i, j, k]), at.D)) != eps:
            _fail(f"decaying bracket not exactly 1/1000 at ({i},{j},{k})")
    rel = numeric_contraction_check(ent.algebra, ent.weights, 1e-3)
    if rel > 1e-9:
        _fail(f"float refit deviates by {rel:.3e}")
    return f"limit nilpotent, Killing det 0, decay exactly 1/1000, float refit {rel:.1e} <= 1e-9"


def _check_toy_frame(cfg: RunConfig) -> str:
    toy = toy_frame().structure_constants()
    ref = boost_triple().structure_constants()
    # (C, D) is in lowest terms with D > 0, so equal tables have equal pairs
    if toy.D != ref.D or not np.array_equal(toy.C, ref.C):
        _fail("toy triple constants differ from the catalog triple")
    return "2x2 toy triple reproduces the symmetric-triple constants exactly"


def _check_full_frame(cfg: RunConfig) -> str:
    fr = build_yang("4-2")
    sc = fr.structure_constants()
    if sc.dim != 15:
        _fail(f"expected 15 generators, got {sc.dim}")
    if not sc.is_semisimple():
        _fail("full frame is not semisimple")
    fam, target = contract_to_hp(fr)
    if not target.all_hold():
        _fail("contraction target invariants fail")
    rep = gauge_defect(fr, Fraction(1, 10))
    if rep.worst != Fraction(1, 200):
        _fail(f"defect at capacity 100 is {rep.worst}, wanted 1/200")
    tags = unit_tags()
    if tags["action"] != tags["coordinate"] * tags["momentum"]:
        _fail("unit tags do not compose")
    return "15 generators close, semisimple; limit invariants hold; defect(100)=1/200; tags compose"


def _check_mode_statistics(cfg: RunConfig) -> str:
    m = PalevMode(4)
    if m.ground_commutator_value() != 1:
        _fail("ground commutator is not 1")
    for n in range(5):
        if m.bose_deviation(n) != Fraction(n, 2):
            _fail(f"deviation at level {n} is not n/j")
    at_n, at_n1 = PalevMode(6).exclusion_report()
    if not (at_n > 0 and at_n1 == 0):
        _fail("exclusion bound violated at capacity 6")
    for preset in ("spin21", "spin3"):
        _, checks = carrier_triple(m, preset)
        for rel in sorted(checks):
            if not checks[rel]:
                _fail(f"{preset} relation {rel} fails")
    return "ground value 1, deviation n/j, exclusion at capacity 6, both carrier triples close"


def _on_stack(poly: NCPolynomial, alg) -> np.ndarray:
    """poly evaluated at the algebra's basis stack[g] / scale, as an array of
    exact rationals; a coefficient outside Q fails the check."""
    mats = dict(zip(alg.labels, alg.stack))
    dim = alg.stack.shape[1]
    total = np.zeros((dim, dim), dtype=object)
    for word, c in poly.terms().items():
        re = c.parts().get(0, (0, 0))[0]
        if c != re:
            _fail(f"spin21: coefficient {c} is not rational")
        m = np.eye(dim, dtype=np.int64)
        for g in word:
            m = int_matmul(m, mats[g])
        total = total + m * Fraction(re, alg.scale ** len(word))
    return total


def _check_normal_order(cfg: RunConfig) -> str:
    got = normal_order(NCPolynomial.word("p", "q", "q"), "h1")
    want = NCPolynomial({("q", "q", "p"): 1, ("q",): QiHbar({1: (0, -2)})})
    if got != want:
        _fail("h1: p*q*q did not normal-order to q*q*p - 2i*hbar*q")
    got21 = normal_order(NCPolynomial.word("r", "p", "q"), "spin21")
    # independent re-derivation by evaluating both sides on the so(2,1) matrices
    alg = boost_triple()
    if not np.array_equal(_on_stack(NCPolynomial.word("r", "p", "q"), alg), _on_stack(got21, alg)):
        _fail("spin21: normal ordering changed the operator")
    return "h1 known answer; spin21 reordering invariant under matrix evaluation"


def _check_accumulation(cfg: RunConfig) -> str:
    from collections import Counter

    for n in range(1, 5):
        for sq in (1, -1):
            res = accumulate_coordinate(n, sq)
            mtx = total_matrix(n, sq).astype(float)
            if sq == 1:
                ev = np.linalg.eigvalsh(mtx)
                vals = [int(round(x)) for x in ev]
            else:
                ev = np.linalg.eigvals(mtx)
                vals = [int(round(x)) for x in ev.imag]
            if Counter(vals) != {lvl: m for lvl, m in res.spectrum}:
                _fail(f"spectrum mismatch at n={n}, square={sq}")
    return "binomial level multiplicities match dense eigenvalues for 1..4 steps"


def _check_networks(cfg: RunConfig) -> str:
    net = VertexNetwork(
        [GammaVertex(2, 1), GammaVertex(2, 1)],
        edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
        open_legs=[(0, "vector"), (1, "vector")],
    )
    got = net.contract()
    if not np.array_equal(got.astype(float), dense_oracle(net)):
        _fail("sparse contraction disagrees with the dense oracle")
    if not np.array_equal(got, net.contract(dense_cutoff=0)):
        _fail("dense and sparse merge paths disagree")
    if not net.parity_check().ok:
        _fail("gauge-only network was flagged")
    chain = VertexNetwork(
        [IotaNode(1, 1), IotaNode(1, 2)],
        edges=[((0, "out"), (1, "in"))],
        open_legs=[(0, "in"), (1, "out")],
    )
    rep = chain.parity_check()
    if rep.ok or len(rep.flags) != 2:
        _fail("rank-raising nodes were not flagged")
    return "gamma loop equals dense einsum on both paths; parity passes gauge, flags rank-raisers"


_REGISTRY = (
    ("set-codes", _check_set_codes),
    ("set-laws", _check_set_laws),
    ("product-laws", _check_product_laws),
    ("berezin-pairing", _check_berezin),
    ("gamma-anticommutation", _check_gammas),
    ("algebra-catalog", _check_catalog),
    ("contraction-triple", _check_contraction),
    ("frame-toy", _check_toy_frame),
    ("frame-full", _check_full_frame),
    ("mode-statistics", _check_mode_statistics),
    ("normal-order", _check_normal_order),
    ("accumulation-spectra", _check_accumulation),
    ("network-contraction", _check_networks),
)


def run_all(config: RunConfig):
    """Run every registered check. Returns (report_text, all_passed)."""
    lines = ["verify-all report", f"config: {config.describe()}"]
    passed = 0
    for name, fn in _REGISTRY:
        try:
            detail = fn(config)
            ok = True
        except _CheckFailure as e:
            detail = str(e)
            ok = False
        except Exception as e:  # a crash is a failure, not a stacktrace
            detail = f"error: {type(e).__name__}: {e}"
            ok = False
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name} | {detail}")
        if ok:
            passed += 1
    lines.append(f"result: {passed}/{len(_REGISTRY)} checks passed")
    return "\n".join(lines) + "\n", passed == len(_REGISTRY)
