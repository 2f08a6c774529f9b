"""Acceptance gate: one test per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines;
each test also fails loudly on its own if the guarantee breaks.
"""

import random
import time
from fractions import Fraction

import numpy as np

from qsetalg.cliff import anticommutator_defect, build_gammas, entries_are_signs
from qsetalg.liecore import CATALOG, ContractionFamily, catalog_entry, numeric_contraction_check
from qsetalg.palev import PalevMode, bose_deviation
from qsetalg.perfinite import EMPTY, decode, enumerate_rank
from qsetalg.qset import (
    Multivector,
    RankFrame,
    berezin_norm,
    embed,
    grade_parity,
    grassmann,
    signature_report,
)
from qsetalg.verify import RunConfig, run_all
from qsetalg.vertexnet import GammaVertex, IotaNode, VertexNetwork, dense_oracle, paths_agree
from qsetalg.spectra import accumulate_coordinate
from qsetalg.yang import build_yang, contract_to_hp, gauge_defect

from helpers import rand_mv


def _report(ok: bool, label: str, detail: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    in_budget = elapsed < budget
    tag = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{tag}] {label} | {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert in_budget, f"{label}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_gamma_towers_anticommute():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for total in range(1, 9):
        for p in range(total + 1):
            gs = build_gammas(p, total - p)
            ok = ok and anticommutator_defect(gs) == 0 and entries_are_signs(gs)
            checked += 1
    _report(ok, "01 gamma-towers", f"{checked} signatures, exact integer anticommutation", t0, 10)


def test_criterion_02_set_codes_round_trip():
    t0 = time.monotonic()
    ok = all(decode(c).code == c for c in range(65536))
    rng = random.Random(2026)
    pool = [decode(rng.randrange(65536)) for _ in range(90)]
    for i in range(0, 87, 3):
        a, b, c = pool[i], pool[i + 1], pool[i + 2]
        ok = ok and (a ^ b) ^ c == a ^ (b ^ c)
        ok = ok and a ^ b == b ^ a and a ^ a == EMPTY and a ^ EMPTY == a
    xs = enumerate_rank(3)
    hom = all(
        grade_parity(x ^ y) == grade_parity(x) ^ grade_parity(y)
        for x in xs
        for y in xs
    )
    ok = ok and hom
    _report(ok, "02 set-codes", "round trip 0..65535, xor group laws, parity morphism", t0, 5)


def test_criterion_03_wedge_algebra():
    t0 = time.monotonic()
    rng = random.Random(2026)
    frame = RankFrame(3)
    mvs = [rand_mv(rng, frame, terms=4) for _ in range(1000)]
    ok = True
    for i in range(0, 998, 2):
        u, v, w = mvs[i], mvs[i + 1], mvs[(i + 2) % 1000]
        ok = ok and grassmann(grassmann(u, v), w) == grassmann(u, grassmann(v, w))
    for mv in mvs:
        odd = Multivector({lab: c for lab, c in mv.items() if lab.grade % 2})
        ok = ok and grassmann(odd, odd).is_zero()
    count = 0
    while count < 1000:
        x = decode(rng.randrange(1, 16))
        ok = ok and grassmann(embed(x), embed(x)).is_zero()
        count += 1
    norm_ok = all(
        berezin_norm(Multivector.scalar(1) + RankFrame(r).top(), RankFrame(r)) == 2
        for r in (1, 2, 3)
    )
    sig_ok = signature_report(RankFrame(1)).as_tuple() == (1, 1, 0)
    ok = ok and norm_ok and sig_ok
    _report(
        ok,
        "03 wedge-algebra",
        "associativity and self-annihilation on 1000 seeded elements; "
        "norm(1+top)=2; rank-1 signature (1,1,0)",
        t0,
        30,
    )


def test_criterion_04_killing_catalog():
    t0 = time.monotonic()
    cat = {key: catalog_entry(key) for key in CATALOG}
    ok = cat["so3"].algebra.structure_constants().killing_det() == -8
    ok = ok and cat["h1"].algebra.structure_constants().killing_det() == 0
    limits = 0
    for ent in cat.values():
        if ent.weights is None:
            continue
        fam = ContractionFamily(ent.algebra.structure_constants(), ent.weights)
        ok = ok and fam.limit().killing_det() == 0
        limits += 1
    _report(
        ok,
        "04 killing-catalog",
        f"det so3 = -8, det h1 = 0, {limits} contraction limits degenerate",
        t0,
        5,
    )


def test_criterion_05_triple_contraction():
    t0 = time.monotonic()
    ent = catalog_entry("so21")
    ok = ent.weights == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    fam = ContractionFamily(ent.algebra.structure_constants(), ent.weights)
    for n in (10 ** 3, 10 ** 6):
        at = fam.at(Fraction(1, n))
        ok = ok and at.c[0][2][1] == Fraction(1, n)
        ok = ok and at.c[1][2][0] == Fraction(1, n)
        ok = ok and at.c[0][1][2] == 1
    rel = numeric_contraction_check(ent.algebra, ent.weights, 1e-3)
    ok = ok and rel <= 1e-9
    ok = ok and fam.limit().classify() == "nilpotent"
    _report(
        ok,
        "05 triple-contraction",
        f"decay exactly 1/N at N=1e3, 1e6; float refit deviation {rel:.2e} <= 1e-9",
        t0,
        5,
    )


def test_criterion_06_full_frame_contraction():
    t0 = time.monotonic()
    ok = True
    for preset in ("4-2", "3-3", "5-1"):
        fr = build_yang(preset)
        sc = fr.structure_constants()
        ok = ok and sc.dim == 15
        c = np.array(sc.c, dtype=object)
        ok = ok and np.array_equal(c, -c.transpose(1, 0, 2)) and sc.jacobi_defect() == 0
        ok = ok and sc.classify() == "semisimple"
        _, target = contract_to_hp(fr)
        ok = ok and target.all_hold()
    fr = build_yang("4-2")
    scaled = []
    for root in (10, 100, 1000):
        rep = gauge_defect(fr, Fraction(1, root))
        scaled.append(rep.worst * root * root)
    ratio = max(scaled) / min(scaled)
    ok = ok and ratio <= 2
    _report(
        ok,
        "06 full-frame",
        "three 15-generator frames close, semisimple, reach the flat target; "
        f"defect*N spread factor {float(ratio):g} <= 2 over N=1e2,1e4,1e6",
        t0,
        60,
    )


def test_criterion_07_accumulation_spectra():
    t0 = time.monotonic()
    from math import comb

    from qsetalg.spectra import total_matrix

    ok = True
    for n in range(1, 9):
        want = [(n - 2 * j, comb(n, j)) for j in range(n + 1)]
        for square in (1, -1):
            res = accumulate_coordinate(n, square)
            ok = ok and list(res.spectrum) == want
        m = total_matrix(n, 1).astype(float)
        vals = np.round(np.linalg.eigvalsh(m)).astype(int)
        flat = sorted(lvl for lvl, mult in want for _ in range(mult))
        ok = ok and sorted(vals.tolist()) == flat
    _report(
        ok,
        "07 accumulation-spectra",
        "binomial level multiplicities, closed form == dense eigenvalues, n=1..8",
        t0,
        30,
    )


def test_criterion_08_mode_statistics():
    t0 = time.monotonic()
    ok = True
    prev = None
    for two_j in (16, 32, 64, 128):
        dev = bose_deviation(two_j, 1)
        if prev is not None:
            ratio = float(prev / dev)
            ok = ok and ratio <= 1.5 * 2 and ratio >= 2 / 1.5
        prev = dev
    for two_j in range(1, 17):
        at_n, beyond = PalevMode(two_j).exclusion_report()
        ok = ok and at_n > 0 and beyond == 0
    _report(
        ok,
        "08 mode-statistics",
        "level-1 deviation halves as capacity doubles (within 1.5x); "
        "raising operator dies exactly one step past capacity, j <= 8",
        t0,
        30,
    )


def test_criterion_09_network_contraction():
    t0 = time.monotonic()
    g21 = GammaVertex(2, 1)
    nets = []
    nets.append(
        VertexNetwork(
            [g21], edges=[((0, "dual"), (0, "spinor"))], open_legs=[(0, "vector")]
        )
    )
    nets.append(
        VertexNetwork(
            [GammaVertex(2, 2), GammaVertex(2, 2)],
            edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
            open_legs=[(0, "vector"), (1, "vector")],
        )
    )
    nets.append(
        VertexNetwork(
            [GammaVertex(2, 1), GammaVertex(2, 1), GammaVertex(2, 1)],
            edges=[
                ((0, "spinor"), (1, "dual")),
                ((1, "spinor"), (2, "dual")),
                ((2, "spinor"), (0, "dual")),
            ],
            open_legs=[(0, "vector"), (1, "vector"), (2, "vector")],
        )
    )
    ok = True
    for net in nets:
        got = net.contract()
        ok = ok and paths_agree(net)
        ok = ok and np.allclose(got.astype(float), dense_oracle(net))
        ok = ok and net.parity_check().ok
    flagged = VertexNetwork(
        [IotaNode(2, 2)], edges=[], open_legs=[(0, "out"), (0, "in")]
    )
    ok = ok and not flagged.parity_check().ok
    flagged_odd = VertexNetwork(
        [IotaNode(1, 3)], edges=[], open_legs=[(0, "out"), (0, "in")]
    )
    ok = ok and not flagged_odd.parity_check().ok
    _report(
        ok,
        "09 network-contraction",
        "network == reversed network == einsum oracle on 1-3 vertex nets; "
        "parity passes gauge nets and flags grade selectors",
        t0,
        30,
    )


def test_criterion_10_deterministic_verification():
    t0 = time.monotonic()
    r1, ok1 = run_all(RunConfig(seed=0))
    r2, ok2 = run_all(RunConfig(seed=0))
    f1, okf1 = run_all(RunConfig(seed=0, mode="float", tolerance=1e-12))
    f2, okf2 = run_all(RunConfig(seed=0, mode="float", tolerance=1e-12))
    ok = ok1 and ok2 and okf1 and okf2 and r1 == r2 and f1 == f2
    _report(
        ok,
        "10 deterministic-verification",
        "verify-all byte-identical across reruns, exact and float modes",
        t0,
        60,
    )
