"""The `small-exact` workload: many short exact jobs across the small modules.

A deck holds a fixed number of jobs of each class below; the seed draws each
job's inputs. Discrete parameters are drawn by strata (capacity 1-4, 5-8, ...,
29-32; one ring per size on the ladder), so every deck carries the same mix of
light and heavy cases. Exclusion capacities, the slowest jobs, are not drawn:
each deck runs every capacity 1-32 once.

    perfinite   code round trips and xor laws on codes below 2^16, rank
                enumeration
    qset        wedge and Clifford associativity triples of 4-term rank-3
                multivectors (berezin and hyperbolic metrics), Berezin norms,
                signature_report at ranks 1-3 with a dense congruence route
    cliff       gamma sets for every p + q <= 8
    palev       exclusion_report and bose_deviation at capacity 1-32,
                carrier triples, normal ordering of words of length 3-8
    liecore     the small catalog (so3, h1, so21, so4, toy) and contraction
                families at eps = 1/N with their limits
    vertexnet   two-vertex gamma loops, gamma rings of 3-128 vertices with
                2-3 open legs, chains of rank-raising nodes

Two job classes hit known defects of this commit and are marked as such,
each with the exact way it fails: exclusion_report at capacity >= 21
(linalg.mmul's integer path bounds denominators but not numerators and
raises OverflowError), and 128-vertex rings whose exact entries pass 2^63
(the int64 contraction raises OverflowError in to_dense or, for (3,1),
returns all zeros).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from qsetalg import cliff, liecore, linalg, palev, perfinite, qset, vertexnet, yang

import oracles
from core import Defect, Job, deck_rng
from oracles import GAMMA_SIGNATURES, RING_SIGNATURES, SYSTEMS, expect

NAME = "small-exact"
DECK_SECONDS = 17        # nominal time of one deck on a 2-vCPU sandbox
MODULES = (
    "qsetalg.perfinite", "qsetalg.qset", "qsetalg.cliff", "qsetalg.liecore",
    "qsetalg.palev", "qsetalg.vertexnet", "qsetalg.yang",
)

BALANCED = tuple(s for s in RING_SIGNATURES if abs(s[0] - s[1]) <= 1)
UNBALANCED = tuple(s for s in RING_SIGNATURES if abs(s[0] - s[1]) >= 2)
RING_SIZES = (3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
CAPACITY_STRATA = tuple(range(1, 33, 4))          # 1-4, 5-8, ..., 29-32
CATALOG = {
    "so3": (liecore.rotation3, "semisimple"),
    "h1": (liecore.heisenberg3, "nilpotent"),
    "so21": (liecore.boost_triple, "semisimple"),
    "so4": (liecore.rotation_boost6, "semisimple"),
    "toy": (yang.toy_frame, "semisimple"),
}
CONTRACTION_WEIGHTS = {
    "so21": (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
    "so4": (Fraction(0),) * 3 + (Fraction(1),) * 3,
}
EXCLUSION_DEFECT = Defect(
    "palev.exclusion capacity>=21: OverflowError in linalg.mmul", raises=(OverflowError, "mmul"))
RING_DEFECT = Defect(
    "vertexnet.ring entries past 2^63: int64 contraction overflows or returns 0",
    raises=(OverflowError, "to_dense"), wrong=lambda out: not np.asarray(out[1]).any())


def _mv(rng, n: int, terms: int = 4) -> dict:
    out = {}
    for code in rng.sample(range(1 << n), terms):
        out[code] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return out


def _program_mv(terms: dict):
    return qset.Multivector({perfinite.decode(code): c for code, c in terms.items()})


def _codes(mv) -> dict:
    return {lab.code: c for lab, c in mv.items()}


class Workload:
    def __init__(self, root: str, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.gamma = oracles.load_oracle(root, "oracle_gamma")["towers"]
        sig = oracles.load_oracle(root, "oracle_signature")
        self.signature = {int(r): (v["plus"], v["minus"], v["zero"]) for r, v in sig.items()}
        killing = oracles.load_oracle(root, "oracle_killing")
        self.killing = {k: Fraction(killing["so21" if k == "toy" else k]) for k in CATALOG}

    # -- deck ----------------------------------------------------------------

    def deck(self, index: int) -> list:
        """Four quarters, so that every deck steps each exclusion band
        through all four of its capacities, and a deck runs long enough
        (15-20 s here) that a run's deck count does not flip with the
        machine's speed."""
        jobs = [job for q in range(4 * index, 4 * index + 4) for job in self._quarter(q)]
        deck_rng(NAME, self.seed, index).shuffle(jobs)
        if self.tiny:
            keep = {}
            for job in jobs:
                if job.cls not in keep and job.params[:1] != (128,):
                    keep[job.cls] = job
            jobs = list(keep.values())
        return jobs

    def _quarter(self, quarter: int) -> list:
        rng = deck_rng(f"{NAME}-quarter", self.seed, quarter)
        jobs = []
        for _ in range(10):
            jobs.append(self.roundtrip([rng.randrange(1 << 16) for _ in range(16)]))
            jobs.append(self.xor_laws([tuple(rng.randrange(1 << 16) for _ in range(3)) for _ in range(8)]))
        for r in range(4):
            jobs.append(self.enumerate(r))
        for k in range(8):
            jobs.append(self.wedge([_mv(rng, 4) for _ in range(3)]))
            metric = "berezin" if k % 2 else "hyperbolic"
            jobs.append(self.clifford(metric, [_mv(rng, 4) for _ in range(3)]))
            rank = 2 + k % 2
            jobs.append(self.norm(rank, _mv(rng, 1 << (rank - 1))))
        for r in (1, 2, 3):
            jobs.append(self.signature_job(r))
        for p, q in rng.sample(GAMMA_SIGNATURES, 8):
            jobs.append(self.gammas(p, q))
        for lo in CAPACITY_STRATA:
            # exclusion jobs are the slowest of the workload and set its
            # tail: their capacities step through each band quarter by
            # quarter, so every deck covers 1-32 whatever the seed
            jobs.append(self.exclusion(lo + quarter % 4))
            cap = rng.randint(lo, lo + 3)
            jobs.append(self.deviation(cap, rng.randint(0, cap)))
            jobs.append(self.carriers(rng.randint(lo, lo + 3), rng.choice(("spin3", "spin21"))))
        for system, gens in SYSTEMS.items():
            for length in rng.sample(range(3, 9), 3):
                jobs.append(self.normal_order(system, tuple(rng.choice(gens) for _ in range(length))))
        for key in CATALOG:
            jobs.append(self.catalog(key))
        for key in CONTRACTION_WEIGHTS:
            for n in rng.sample((10, 100, 1000, 10000), 2):
                jobs.append(self.contraction(key, n))
        for _ in range(4):
            jobs.append(self.ring(2, rng.choice(RING_SIGNATURES), rng))
        for size in RING_SIZES:
            jobs.append(self.ring(size, rng.choice(RING_SIGNATURES), rng))
        # |p-q| <= 1 keeps a 128-ring's entries small; |p-q| >= 2 passes 2^63.
        # Twelve 128-rings a deck are the slowest jobs, so job_tail_ms (the
        # 11th largest) falls among them rather than between two job classes
        for sigs in (BALANCED, UNBALANCED, BALANCED):
            jobs.append(self.ring(128, rng.choice(sigs), rng))
        for _ in range(4):
            jobs.append(self.iota_chain(rng))
        return jobs

    # -- perfinite -----------------------------------------------------------

    def roundtrip(self, codes) -> Job:
        def call():
            out = []
            for c in codes:
                text = perfinite.format_set_text(perfinite.decode(c))
                out.append((text, perfinite.parse_set_text(text).code))
            return out

        def check(out):
            for c, (text, back) in zip(codes, out):
                expect(text == oracles.set_text(c), f"decode({c}) printed {text}")
                expect(back == c, f"code {c} came back as {back}")

        return Job("perfinite.roundtrip", tuple(codes), call, check)

    def xor_laws(self, triples) -> Job:
        def call():
            out = []
            for a, b, c in triples:
                x, y, z = (perfinite.decode(v) for v in (a, b, c))
                out.append((
                    ((x ^ y) ^ z).code, (x ^ (y ^ z)).code, (x ^ y).code, (y ^ x).code,
                    (x ^ x).code, (x ^ perfinite.EMPTY).code, qset.grade_parity(x ^ y),
                ))
            return out

        def check(out):
            for (a, b, c), row in zip(triples, out):
                want = (a ^ b ^ c, a ^ b ^ c, a ^ b, a ^ b, 0, a, (a ^ b).bit_count() & 1)
                expect(row == want, f"xor laws fail on codes {a},{b},{c}")

        return Job("perfinite.xor", tuple(triples), call, check)

    def enumerate(self, r: int) -> Job:
        def call():
            return [s.code for s in perfinite.enumerate_rank(r)]

        def check(codes):
            expect(codes == list(range(oracles.TOWER[r])), f"rank {r} enumeration")

        return Job("perfinite.enumerate", (r,), call, check)

    # -- qset ----------------------------------------------------------------

    def wedge(self, mvs) -> Job:
        def call():
            u, v, w = (_program_mv(m) for m in mvs)
            return qset.grassmann(qset.grassmann(u, v), w), qset.grassmann(u, qset.grassmann(v, w))

        def check(out):
            left, right = out
            want = oracles.wedge(oracles.wedge(mvs[0], mvs[1]), mvs[2])
            expect(left == right, "wedge not associative")
            expect(_codes(left) == want, "wedge differs from the bitmask product")

        return Job("qset.wedge", tuple(tuple(sorted(m.items())) for m in mvs), call, check)

    def clifford(self, metric: str, mvs) -> Job:
        def call():
            frame = qset.RankFrame(3, metric=metric)
            u, v, w = (_program_mv(m) for m in mvs)
            left = qset.clifford(qset.clifford(u, v, frame), w, frame)
            right = qset.clifford(u, qset.clifford(v, w, frame), frame)
            return left, right

        def check(out):
            left, right = out
            expect(left == right, f"Clifford product ({metric}) not associative")
            if metric == "berezin":
                # the Berezin metric vanishes on generators: Clifford = wedge
                want = oracles.wedge(oracles.wedge(mvs[0], mvs[1]), mvs[2])
                expect(_codes(left) == want, "berezin Clifford product differs from the wedge")

        return Job(f"qset.clifford-{metric}", tuple(tuple(sorted(m.items())) for m in mvs), call, check)

    def norm(self, rank: int, terms: dict) -> Job:
        n = 1 << (rank - 1)

        def call():
            return qset.berezin_norm(_program_mv(terms), qset.RankFrame(rank))

        def check(value):
            want = oracles.top_coefficient(terms, n)
            expect(value == want, f"norm {value}, bitmask route {want}")

        return Job("qset.norm", (rank, tuple(sorted(terms.items()))), call, check)

    def signature_job(self, rank: int) -> Job:
        want = self.signature[rank]

        def call():
            frame = qset.RankFrame(rank)
            return qset.signature_report(frame).as_tuple(), linalg.congruence_signature(qset.gram_matrix(frame))

        def check(out):
            expect(out[0] == want, f"signature {out[0]}, oracle {want}")
            expect(out[1] == want, f"dense congruence {out[1]}, oracle {want}")

        return Job("qset.signature", (rank,), call, check)

    # -- cliff ---------------------------------------------------------------

    def gammas(self, p: int, q: int) -> Job:
        tower = self.gamma[f"{p},{q}"]

        def call():
            gs = cliff.build_gammas(p, q)
            return gs, cliff.anticommutator_defect(gs)

        def check(out):
            gs, defect = out
            expect(defect == 0, f"anticommutator defect {defect}")
            expect(gs.dim == tower["dim"], f"dim {gs.dim}, oracle {tower['dim']}")
            expect(gs.top_square_sign() == tower["top_square"], "top element square")
            g = np.stack(gs.gammas)
            anti = np.einsum("aij,bjk->abik", g, g)
            anti = anti + anti.transpose(1, 0, 2, 3)
            want = np.einsum("ab,ik->abik", 2 * np.diag(gs.eta), np.eye(gs.dim, dtype=np.int64))
            expect(np.array_equal(anti, want), "gammas do not anticommute")

        return Job("cliff.gammas", (p, q), call, check)

    # -- palev ---------------------------------------------------------------

    def exclusion(self, cap: int) -> Job:
        want = oracles.exclusion_values(cap)

        def call():
            return palev.PalevMode(cap).exclusion_report()

        def check(out):
            expect(tuple(out) == want, f"exclusion at {cap}: {out}")

        return Job("palev.exclusion", (cap,), call, check, EXCLUSION_DEFECT if cap >= 21 else None)

    def deviation(self, cap: int, level: int) -> Job:
        def call():
            return palev.bose_deviation(cap, level)

        def check(value):
            expect(value == Fraction(2 * level, cap), f"deviation {value} at level {level}")

        return Job("palev.deviation", (cap, level), call, check)

    def carriers(self, cap: int, preset: str) -> Job:
        def call():
            return palev.carrier_triple(palev.PalevMode(cap), preset)

        def check(out):
            triple, checks = out
            expect(all(checks.values()), f"{preset} relations fail")
            oracles.check_carrier_relations(triple)

        return Job("palev.carriers", (cap, preset), call, check)

    def normal_order(self, system: str, word) -> Job:
        def call():
            return palev.normal_order(palev.NCPolynomial.word(*word), system)

        def check(poly):
            expect(oracles.normal_order_matches(system, word, poly), f"{system} {word} changed under ordering")

        return Job(f"palev.normal_order-{system}", (system, word), call, check)

    # -- liecore -------------------------------------------------------------

    def catalog(self, key: str) -> Job:
        ctor, kind = CATALOG[key]
        det = self.killing[key]

        def call():
            sc = ctor().structure_constants()
            return sc.jacobi_defect(), sc.killing_det(), sc.classify()

        def check(out):
            expect(out == (0, det, kind), f"{key}: (jacobi, det, class) = {out}")

        return Job("liecore.catalog", (key,), call, check)

    def contraction(self, key: str, n: int) -> Job:
        ctor = CATALOG[key][0]
        weights = CONTRACTION_WEIGHTS[key]
        eps = Fraction(1, n)

        def call():
            alg = ctor()
            sc = alg.structure_constants()
            fam = liecore.ContractionFamily(sc, weights)
            lim = fam.limit()
            refit = liecore.numeric_contraction_check(alg, weights, 1.0 / n)
            return sc, fam.at(eps), lim, lim.killing_det(), refit

        def check(out):
            sc, at, lim, det, refit = out
            d = sc.dim
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        e = weights[i] + weights[j] - weights[k]
                        c = sc.c[i][j][k]
                        want = c * eps ** int(e) if c else 0
                        expect(at.c[i][j][k] == want, f"{key} at 1/{n}: constant ({i},{j},{k})")
            expect(oracles.same_constants(lim.c, oracles.limit_constants(sc.c, weights)), f"{key} limit constants")
            expect(det == 0, f"{key} limit Killing det {det}")
            expect(refit <= 1e-9, f"{key} float refit deviates by {refit}")

        return Job("liecore.contraction", (key, n), call, check)

    # -- vertexnet -------------------------------------------------------------

    def ring(self, size: int, sig, rng) -> Job:
        p, q = sig
        edges, open_ring, declared, pairs = oracles.ring_layout(size, rng)
        open_legs = [(i, "vector") for i in declared]
        dim = self.gamma[f"{p},{q}"]["dim"]
        defect = RING_DEFECT if abs(p - q) ** pairs * dim >= 1 << 63 else None
        cls = "vertexnet.loop" if size == 2 else "vertexnet.ring"

        def call():
            net = vertexnet.VertexNetwork([vertexnet.GammaVertex(p, q) for _ in range(size)], edges, open_legs)
            return net, net.contract(), net.parity_check()

        def check(out):
            net, arr, parity = out
            gs = net.vertices[0].gamma_set
            want = oracles.ring_value(gs.gammas, gs.eta, pairs, open_ring, declared)
            expect(arr.astype(object).tolist() == want, f"{size}-vertex ({p},{q}) ring differs from the closed form")
            if size == 2 or (size <= 4 and dim <= 4):
                expect(np.array_equal(arr.astype(float), vertexnet.dense_oracle(net)), "differs from dense_oracle")
            expect(parity.ok and not parity.flags, "gauge ring flagged by the parity audit")

        return Job(cls, (size, p, q, tuple(open_ring), tuple(declared)), call, check, defect)

    def iota_chain(self, rng) -> Job:
        nodes = oracles.iota_chain_nodes(rng)
        edges = [((i, "out"), (i + 1, "in")) for i in range(len(nodes) - 1)]
        open_legs = [(0, "in"), (len(nodes) - 1, "out")]

        def call():
            net = vertexnet.VertexNetwork([vertexnet.IotaNode(m, r) for m, r in nodes], edges, open_legs)
            return net, net.contract(), net.parity_check()

        def check(out):
            net, arr, parity = out
            want = oracles.iota_chain_value(nodes)
            expect(arr.tolist() == want, f"iota chain {nodes} differs from the inclusion product")
            expect(np.array_equal(arr.astype(float), vertexnet.dense_oracle(net)), "differs from dense_oracle")
            expect(not parity.ok and len(parity.flags) == len(nodes), "rank-raising nodes not all flagged")

        return Job("vertexnet.iota", tuple(nodes), call, check)

