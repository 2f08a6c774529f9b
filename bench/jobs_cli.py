"""The `cli` workload: every job is one cold `python -m qsetalg ...` process.

A deck holds the README quick-tour families in fixed numbers (one sets, qset
and gamma call; structure, killing and contract once on a catalog name and
once on a fifteen-generator frame; five yang, five palev and three net calls;
verify-all in exact and in float mode). The seed draws each call's arguments
and the input files. Output is parsed and checked by an independent route;
a traceback or an exit code other than the expected one fails the job.

`palev exclusion` runs once at capacity 1-20 and once at 21-32 per deck; the
second call hits the known mmul overflow of this commit and exits 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import oracles
from core import Defect, Job, deck_rng
from oracles import GAMMA_SIGNATURES, RING_SIGNATURES, SYSTEMS, expect

NAME = "cli"
DECK_SECONDS = 40        # nominal time of one deck on a 2-vCPU sandbox
MODULES = ("qsetalg.cli",)
FAMILIES = ("sets", "qset", "gamma", "structure", "killing", "contract", "yang", "palev", "net", "verify-all")
CATALOG_CLASS = {"so3": "semisimple", "h1": "nilpotent", "so21": "semisimple", "so4": "semisimple", "toy": "semisimple"}
PRESETS = ("4-2", "3-3", "5-1")
TIMEOUT_S = 150


def _overflow_in_mmul(out) -> bool:
    """Exit 1 with a traceback that passes through linalg.mmul and ends in
    OverflowError."""
    code, _, stderr = out
    lines = stderr.strip().splitlines()
    return (code == 1 and bool(lines) and lines[-1].startswith("OverflowError")
            and any(l.strip().startswith('File "') and l.rstrip().endswith(", in mmul") for l in lines))


EXCLUSION_DEFECT = Defect(
    "palev exclusion capacity>=21: OverflowError in linalg.mmul, exit 1", wrong=_overflow_in_mmul)


def _lines(out: str) -> list:
    """Payload lines: the header echoing the configuration is dropped."""
    return [l for l in out.splitlines() if not l.startswith("# qsetalg ")]


def _value(lines, prefix: str) -> str:
    for l in lines:
        if l.startswith(prefix):
            return l[len(prefix):].strip()
    raise oracles.Mismatch(f"no line starting with {prefix!r}")


def _mv_json(terms: dict) -> list:
    return [[oracles.set_text(code), c.numerator, c.denominator] for code, c in sorted(terms.items())]


def _mv_from_json(data) -> dict:
    return {oracles.text_code(t): Fraction(n, d) for t, n, d in data}


def _rank(code: int) -> int:
    return 0 if code == 0 else 1 + max(_rank(i) for i in range(code.bit_length()) if (code >> i) & 1)


def _tag(text: str) -> dict:
    out = {}
    for part in text.split("*"):
        sym, _, exp = part.partition("^")
        out[sym] = Fraction(exp) if exp else Fraction(1)
    return out


def _split_terms(text: str) -> list:
    """Split `(c1)*w + (c2) + ...` at the top-level ' + '."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            start = i + 3
    parts.append(text[start:])
    return parts


def _parse_nc(text: str):
    import sympy as sp

    from qsetalg import palev

    hbar = sp.Symbol("hbar", positive=True)
    terms = {}
    if text != "0":
        for part in _split_terms(text):
            close = part.rindex(")*") + 1 if ")*" in part else len(part)
            coeff = sp.sympify(part[1:close - 1], locals={"hbar": hbar})
            word = tuple(part[close + 1:].split("*")) if close < len(part) else ()
            terms[word] = coeff
    return palev.NCPolynomial(terms)


class Workload:
    def __init__(self, root: str, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), QSETALG_OUT_DIR=workdir)
        self.gamma = oracles.load_oracle(root, "oracle_gamma")["towers"]
        sig = oracles.load_oracle(root, "oracle_signature")
        self.signature = {int(r): v for r, v in sig.items()}
        killing = oracles.load_oracle(root, "oracle_killing")
        self.killing = {k: Fraction(v) for k, v in killing.items()}
        self.killing["toy"] = self.killing["so21"]
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_digests.json"), encoding="utf-8") as fh:
            self.verify_digests = json.load(fh)
        self.files = 0

    def _write(self, data) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"input-{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def _job(self, cls, argv, check, rc=0, known_defect=None) -> Job:
        """One CLI call; `check` reads its payload lines. cls is
        cli.<family>[.<operation>]."""
        cmd = [sys.executable, "-m", "qsetalg"] + [str(a) for a in argv]

        def call():
            p = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S)
            return p.returncode, p.stdout, p.stderr

        def full_check(out):
            code, stdout, stderr = out
            expect("Traceback" not in stderr, f"traceback: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}")
            expect(code == rc, f"exit code {code}, expected {rc}")
            check(_lines(stdout))

        return Job(cls, tuple(str(a) for a in argv), call, full_check, known_defect)

    # -- deck ----------------------------------------------------------------

    def deck(self, index: int) -> list:
        rng = deck_rng(NAME, self.seed, index)
        presets = list(PRESETS) * 2
        rng.shuffle(presets)
        jobs = [
            self.sets(rng), self.qset(rng), self.gamma_job(*rng.choice(GAMMA_SIGNATURES)),
            self.structure(rng.choice(sorted(CATALOG_CLASS))), self.structure(f"yang-{presets[0]}"),
            self.killing_job(rng.choice(sorted(CATALOG_CLASS))), self.killing_job(f"yang-{presets[1]}"),
            self.contract_catalog(rng), self.contract_yang(presets[2]),
            self.yang_table(presets[3]), self.yang_contract(presets[4]),
            self.yang_defect(presets[5], rng.choice((10 ** 2, 10 ** 4, 10 ** 6, 10 ** 12))),
            self.yang_accumulate(rng.choice(("penrose", "feynman")), rng.randint(1, 12)),
            self.yang_units(),
            self.palev_deviation(rng.randint(1, 32)),
            self.palev_exclusion(rng.randint(1, 20)), self.palev_exclusion(rng.randint(21, 32)),
            self.palev_carriers(rng.randint(1, 32), rng.choice(("spin3", "spin21"))),
            self.palev_normal_order(rng),
            self.net_eval(rng), self.net_parity(rng), self.net_check(rng),
            self.verify_all("exact", rng.randrange(3)), self.verify_all("float", rng.randrange(3)),
        ]
        rng.shuffle(jobs)
        if self.tiny:
            jobs = [self.sets(rng), self.palev_exclusion(rng.randint(21, 32)), self.net_check(rng)]
        return jobs

    # -- families --------------------------------------------------------------

    def sets(self, rng) -> Job:
        op = rng.choice(("decode", "xor", "enumerate", "code", "info"))
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        if op == "decode":
            return self._job("cli.sets.decode", ["sets", "decode", a], lambda ls: expect(ls == [oracles.set_text(a)], f"decode {a}"))
        if op == "xor":
            argv = ["sets", "xor", oracles.set_text(a), oracles.set_text(b)]
            return self._job("cli.sets.xor", argv, lambda ls: expect(ls == [oracles.set_text(a ^ b)], "xor"))
        if op == "enumerate":
            r = rng.randint(0, 3)
            want = [oracles.set_text(c) for c in range(oracles.TOWER[r])]
            return self._job("cli.sets.enumerate", ["sets", "enumerate", r], lambda ls: expect(ls == want, f"enumerate {r}"))
        if op == "code":
            return self._job("cli.sets.code", ["sets", "code", oracles.set_text(a)], lambda ls: expect(ls == [str(a)], "code"))
        want = f"code={a} grade={a.bit_count()} rank={_rank(a)}"
        return self._job("cli.sets.info", ["sets", "info", oracles.set_text(a)], lambda ls: expect(ls == [want], "info"))

    def qset(self, rng) -> Job:
        op = rng.choice(("embed", "grassmann", "norm", "signature"))
        mv = lambda n: {c: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for c in rng.sample(range(1 << n), 4)}
        if op == "embed":
            code = rng.randrange(16)
            want = [[oracles.set_text(code), 1, 1]]
            return self._job("cli.qset.embed", ["qset", "embed", oracles.set_text(code)], lambda ls: expect(json.loads(ls[0]) == want, "embed"))
        if op == "grassmann":
            u, v = mv(4), mv(4)
            want = oracles.wedge(u, v)
            argv = ["qset", "grassmann", self._write(_mv_json(u)), self._write(_mv_json(v))]
            return self._job("cli.qset.grassmann", argv, lambda ls: expect(_mv_from_json(json.loads(ls[0])) == want, "wedge"))
        if op == "norm":
            rank = rng.randint(2, 3)
            n = 1 << (rank - 1)
            w = mv(n)
            want = oracles.top_coefficient(w, n)
            argv = ["qset", "norm", self._write(_mv_json(w)), "--rank", rank]
            return self._job("cli.qset.norm", argv, lambda ls: expect(Fraction(ls[0]) == want, "norm"))
        rank = rng.randint(1, 3)
        s = self.signature[rank]
        want = f"dimension={2 ** s['generators']} plus={s['plus']} minus={s['minus']} zero={s['zero']}"
        return self._job("cli.qset.signature", ["qset", "signature", "--rank", rank], lambda ls: expect(ls == [want], "signature"))

    def gamma_job(self, p: int, q: int) -> Job:
        tower = self.gamma[f"{p},{q}"]
        eta = [1] * p + [-1] * q
        want = [
            f"signature=({p},{q}) dim={tower['dim']} eta={eta}",
            "anticommutator defect=0",
            "entries in -1,0,1: True",
            f"top element squares to {tower['top_square']:+d}",
        ]
        return self._job("cli.gamma", ["gamma", p, q], lambda ls: expect(ls == want, f"gamma {p} {q}"))

    def structure(self, name: str) -> Job:
        def check(ls):
            expect(_value(ls, "jacobi defect:") == "0", "jacobi defect")
            if name.startswith("yang-"):
                expect(_value(ls, "classification:") == "semisimple", "classification")
                c = oracles.frame_constants(name[5:])
                lab = oracles.FRAME_LABELS
                want = {
                    f"[{lab[i]},{lab[j]}] -> {c[i][j][k]} {lab[k]}"
                    for i in range(15) for j in range(i + 1, 15) for k in range(15) if c[i][j][k]
                }
                got = {l for l in ls if l.startswith("[")}
                expect(got == want, "brackets differ from the so(p,q) bracket")
            else:
                expect(_value(ls, "classification:") == CATALOG_CLASS[name], "classification")

        return self._job("cli.structure", ["structure", name], check)

    def killing_job(self, name: str) -> Job:
        want = self.killing[name]
        return self._job("cli.killing", ["killing", name], lambda ls: expect(Fraction(_value(ls, "det =")) == want, "det"))

    def contract_catalog(self, rng) -> Job:
        name = rng.choice(("so21", "so4", "so3"))
        if name == "so3":
            argv = ["contract", "so3", "--weights", "1/2,1/2,1"]
        else:
            argv = ["contract", name, "--eps", f"1/{rng.choice((10, 100, 1000, 10000))}"]

        def check(ls):
            expect(_value(ls, "limit Killing det:") == "0", "limit Killing det")
            if "--eps" in argv:
                expect("(PASS" in _value(ls, "float refit deviation:"), "float refit")

        return self._job("cli.contract", argv, check)

    def contract_yang(self, preset: str) -> Job:
        def check(ls):
            expect(_value(ls, "limit Killing det:") == "0", "limit Killing det")
            expect(_value(ls, "limit classification:") != "semisimple", "limit is semisimple")

        return self._job("cli.contract", ["contract", f"yang-{preset}"], check)

    def yang_table(self, preset: str) -> Job:
        det = self.killing[f"yang-{preset}"]
        want = f"dim=15 killing det={det} classification=semisimple"
        return self._job("cli.yang.table", ["yang", "table", "--preset", preset], lambda ls: expect(want in ls, "table"))

    def yang_contract(self, preset: str) -> Job:
        def check(ls):
            rows = [l for l in ls if l.endswith(": PASS") or l.endswith(": FAIL")]
            expect(len(rows) == 5 and all(l.endswith("PASS") for l in rows), "limit invariants")

        return self._job("cli.yang.contract", ["yang", "contract", "--preset", preset], check)

    def yang_defect(self, preset: str, n: int) -> Job:
        def check(ls):
            expect(_value(ls, "eps =") == f"1/{n}", "eps")
            worst = Fraction(_value(ls, "worst defect:").split()[0])
            expect(worst * n == Fraction(1, 2), f"worst * N = {worst * n}")

        return self._job("cli.yang.defect", ["yang", "defect", "--capacity", n, "--preset", preset], check)

    def yang_accumulate(self, frame: str, steps: int) -> Job:
        levels = ", ".join(f"{steps - 2 * j}:{comb(steps, j)}" for j in range(steps + 1))
        count = 3 if frame == "penrose" else 4

        def check(ls):
            expect(len(ls) == count and all(l.endswith(": " + levels) for l in ls), "binomial spectrum")

        return self._job("cli.yang.accumulate", ["yang", "accumulate", "--frame", frame, "--steps", steps], check)

    def yang_units(self) -> Job:
        def check(ls):
            tags = dict(l.split(": ") for l in ls)
            coord, mom = _tag(tags["coordinate"]), _tag(tags["momentum"])
            prod = {s: coord.get(s, 0) + mom.get(s, 0) for s in set(coord) | set(mom)}
            expect(_tag(tags["action"]) == {s: e for s, e in prod.items() if e}, "action != coordinate * momentum")
            expect(coord == {"N": Fraction(-1, 2), "xbar": 1}, "coordinate scale")

        return self._job("cli.yang.units", ["yang", "units"], check)

    def palev_deviation(self, cap: int) -> Job:
        def check(ls):
            rows = [l for l in ls if l.startswith("level ")]
            expect(len(rows) == cap + 1, "one row per level")
            for n, l in enumerate(rows):
                expect(Fraction(l.split("deviation ")[1]) == Fraction(2 * n, cap), f"level {n}")

        return self._job("cli.palev.deviation", ["palev", "deviation", "--capacity", cap], check)

    def palev_exclusion(self, cap: int) -> Job:
        top, zero = oracles.exclusion_values(cap)
        want = [f"|adag^{cap}| = {top}", f"|adag^{cap + 1}| = {zero}"]
        defect = EXCLUSION_DEFECT if cap >= 21 else None
        return self._job("cli.palev.exclusion", ["palev", "exclusion", "--capacity", cap], lambda ls: expect(ls == want, "exclusion"), 0, defect)

    def palev_carriers(self, cap: int, preset: str) -> Job:
        def check(ls):
            rows = [l for l in ls if l.endswith(": PASS") or l.endswith(": FAIL")]
            expect(len(rows) == 3 and all(l.endswith("PASS") for l in rows), "carrier relations")

        return self._job("cli.palev.carriers", ["palev", "carriers", "--capacity", cap, "--preset", preset], check)

    def palev_normal_order(self, rng) -> Job:
        system = rng.choice(sorted(SYSTEMS))
        word = tuple(rng.choice(SYSTEMS[system]) for _ in range(rng.randint(3, 8)))

        def check(ls):
            lhs, rhs = ls[0].split(" = ", 1)
            expect(lhs == "*".join(word), "echoed word")
            expect(oracles.normal_order_matches(system, word, _parse_nc(rhs)), "ordering changed the operator")

        return self._job("cli.palev.normal-order", ["palev", "normal-order", "--system", system, "--word", ",".join(word)], check)

    def _ring_file(self, rng, size, sig):
        edges, open_ring, declared, pairs = oracles.ring_layout(size, rng)
        data = {
            "vertices": [{"kind": "gamma", "p": sig[0], "q": sig[1]}] * size,
            "edges": [[list(a), list(b)] for a, b in edges],
            "open": [[v, "vector"] for v in declared],
        }
        return self._write(data), (sig, pairs, open_ring, declared)

    def _chain_file(self, rng):
        nodes = oracles.iota_chain_nodes(rng)
        data = {
            "vertices": [{"kind": "iota", "m": m, "rank": r} for m, r in nodes],
            "edges": [[[i, "out"], [i + 1, "in"]] for i in range(len(nodes) - 1)],
            "open": [[0, "in"], [len(nodes) - 1, "out"]],
        }
        return self._write(data), nodes

    def net_eval(self, rng) -> Job:
        if rng.random() < 0.25:
            path, nodes = self._chain_file(rng)
            want = oracles.iota_chain_value(nodes)
        else:
            path, (sig, pairs, open_ring, declared) = self._ring_file(rng, rng.choice((2, 3, 4, 6, 8, 12, 16)), rng.choice(RING_SIGNATURES))
            want = None

        def check(ls):
            got = json.loads(ls[1])
            if want is not None:
                expect(got == want, "iota chain differs from the inclusion product")
                return
            from qsetalg import cliff

            gs = cliff.build_gammas(*sig)
            expect(got == oracles.ring_value(gs.gammas, gs.eta, pairs, open_ring, declared), "ring differs from the closed form")

        return self._job("cli.net.eval", ["net", "eval", path], check)

    def net_parity(self, rng) -> Job:
        if rng.random() < 0.5:
            path, nodes = self._chain_file(rng)
            want, rc = f"parity: FAIL ({len(nodes)} flags)", 1
        else:
            path, _ = self._ring_file(rng, rng.choice((2, 3, 4, 6, 8)), rng.choice(RING_SIGNATURES))
            want, rc = "parity: PASS (0 flags)", 0
        return self._job("cli.net.parity", ["net", "parity", path], lambda ls: expect(ls[-1] == want, "parity verdict"), rc)

    def net_check(self, rng) -> Job:
        small = [s for s in RING_SIGNATURES if self.gamma[f"{s[0]},{s[1]}"]["dim"] <= 4]
        size = rng.choice((2, 3))
        path, _ = self._ring_file(rng, size, rng.choice(small if size == 3 else RING_SIGNATURES))
        want = "contraction paths agree with dense einsum: PASS"
        return self._job("cli.net.check", ["net", "check", path], lambda ls: expect(ls == [want], "net check"))

    def verify_all(self, mode: str, seed: int) -> Job:
        digest = self.verify_digests[f"{mode}:{seed}"]

        def check(ls):
            text = "".join(l + "\n" for l in ls)
            expect(ls[-1] == "result: 13/13 checks passed", ls[-1])
            expect(hashlib.sha256(text.encode()).hexdigest() == digest, "report differs from the reference digest")

        return self._job(f"cli.verify-all.{mode}", ["--mode", mode, "--seed", seed, "verify-all"], check)
