"""The `frames` workload: fifteen-generator frames, built fresh per job.

Each job builds build_yang(preset) from nothing, as one CLI call would, and
runs one operation on it. A deck holds every (operation, preset) pair once,
in seeded order; the three gauge_defect jobs take N = 10^12 plus two of
10^2, 10^4, 10^6 drawn by the seed, so every deck runs the Fraction fallback
of linalg.mmul (denominators past 2^30) next to its int64 fast path.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from qsetalg import yang

import oracles
from core import Job, deck_rng
from oracles import expect

NAME = "frames"
DECK_SECONDS = 30        # nominal time of one deck on a 2-vCPU sandbox
MODULES = ("qsetalg.yang",)
PRESETS = ("4-2", "3-3", "5-1")
OPS = ("structure", "jacobi", "killing", "classify", "contract", "gauge")
SMALL_N = (10 ** 2, 10 ** 4, 10 ** 6)
LARGE_N = 10 ** 12


class Workload:
    def __init__(self, root: str, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        killing = oracles.load_oracle(root, "oracle_killing")
        self.killing = {p: Fraction(killing[f"yang-{p}"]) for p in PRESETS}
        self.constants = {p: oracles.frame_constants(p) for p in PRESETS}
        self.limits = {p: oracles.limit_constants(self.constants[p], oracles.FRAME_WEIGHTS) for p in PRESETS}

    def deck(self, index: int) -> list:
        rng = deck_rng(NAME, self.seed, index)
        gauge_n = [LARGE_N] + rng.sample(SMALL_N, 2)
        rng.shuffle(gauge_n)
        specs = []
        for op in OPS:
            for k, preset in enumerate(PRESETS):
                specs.append((op, preset, gauge_n[k] if op == "gauge" else None))
        rng.shuffle(specs)
        if self.tiny:
            specs = [("jacobi", "4-2", None), ("gauge", "4-2", LARGE_N)]
        return [self.job(*spec) for spec in specs]

    def job(self, op: str, preset: str, n) -> Job:
        constants, limit = self.constants[preset], self.limits[preset]
        killing = self.killing[preset]

        if op == "structure":
            def call():
                return yang.build_yang(preset).structure_constants()

            def check(sc):
                expect(tuple(sc.labels) == oracles.FRAME_LABELS, "generator labels differ")
                expect(oracles.same_constants(sc.c, constants), "constants differ from the so(p,q) bracket")
        elif op == "jacobi":
            def call():
                return yang.build_yang(preset).structure_constants().jacobi_defect()

            def check(defect):
                expect(defect == 0, f"Jacobi defect {defect}")
        elif op == "killing":
            def call():
                return yang.build_yang(preset).structure_constants().killing_det()

            def check(det):
                expect(det == killing, f"Killing det {det}, oracle {killing}")
        elif op == "classify":
            def call():
                return yang.build_yang(preset).structure_constants().classify()

            def check(kind):
                expect(kind == "semisimple", f"classified {kind}")
        elif op == "contract":
            def call():
                return yang.contract_to_hp(yang.build_yang(preset))[1]

            def check(target):
                expect(target.all_hold(), "limit invariants fail")
                expect(oracles.same_constants(target.constants.c, limit), "limit constants differ")
        else:
            root = isqrt(n)

            def call():
                return yang.gauge_defect(yang.build_yang(preset), Fraction(1, root))

            def check(rep):
                expect(rep.eps == Fraction(1, n), f"eps {rep.eps}")
                expect(rep.worst * n == Fraction(1, 2), f"worst * N = {rep.worst * n}, not 1/2")

        return Job(f"frames.{op}", (op, preset, n), call, check)
