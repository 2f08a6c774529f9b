"""Rotation algebras on six directions and their Heisenberg-type contraction.

Take gamma matrices for six directions of signature (p6, q6) and form the 15
quadratic generators M(a, b) = gamma_a gamma_b / 2. Splitting the directions
as four "spacetime" slots mu = 1..4 plus two auxiliary slots 5, 6 groups the
generators into

    rotations  L(mu, nu)            6    weight 0
    coordinates x(mu) = M(5, mu)    4    weight 1/2
    momenta     p(mu) = M(6, mu)    4    weight 1/2
    center      z     = M(6, 5)     1    weight 1

The bracket of a coordinate with a momentum lands on z with coefficient
eta(mu) delta(mu, nu) and carries contraction exponent zero, so it survives
the weighted limit; coordinate-coordinate and momentum-momentum brackets close
on rotations with exponent one and decay like eps. The limit is the
rotations-plus-Heisenberg algebra: z central, commuting coordinates, commuting
momenta, canonical pairing intact, Killing form degenerate.

The same mechanism in miniature: three directions, signature arranged so that
(x, p, z) close as the symmetric triple [q,p] = r, [p,r] = q, [q,r] = p. The
2x2 toy built here reproduces the catalog triple's structure constants
exactly.

Physical scales are unit tags (symbol -> exponent maps, never floats;
unit_tags()): coordinates carry xbar * N^{-1/2}, momenta ebar * N^{-1/2},
and the surviving pairing therefore carries xbar * ebar / N, the action
quantum of the contracted theory.

accumulate_coordinate() treats one direction's coordinate as a sum of n
commuting two-level steps (Kronecker sum). Each step has spectrum {+1, -1}
(spacelike, symmetric step) or {+i, -i} (timelike, antisymmetric step, the i
kept in the unit tag), so the total has the binomial spectrum
{n - 2j with multiplicity C(n, j)}; the eigenvalues accumulate in integer
rungs around zero instead of filling a continuum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import linalg
from .cliff import build_gammas
from .liecore import ContractionFamily, MatrixAlgebra, StructureConstants
from .scalars import UnitTag

# ---------------------------------------------------------------------------
# unit tags


def unit_tags() -> dict:
    """Scales carried by the contracted generators: coordinates and momenta
    shrink like N^{-1/2}, so their surviving pairing carries the 1/N action
    quantum."""
    coord = UnitTag({"xbar": 1, "N": Fraction(-1, 2)})
    mom = UnitTag({"ebar": 1, "N": Fraction(-1, 2)})
    return {
        "coordinate": coord,
        "momentum": mom,
        "action": coord * mom,
    }


# ---------------------------------------------------------------------------
# toy frame: three directions, 2x2 matrices

# gamma indices (in a (2,1) set) assigned to the three toy directions, chosen
# so the direction metric comes out (-1, +1, +1) and the triple closes
# symmetrically.
TOY_GAMMA_ORDER = (3, 1, 2)


def toy_frame() -> MatrixAlgebra:
    """2x2 realization of the symmetric triple: (q, p, r) with [q,p] = r,
    [p,r] = q, [q,r] = p, built from quadratic elements of a (2,1) gamma set."""
    gs = build_gammas(2, 1)
    s = TOY_GAMMA_ORDER
    pairs = ((s[2], s[0]), (s[2], s[1]), (s[1], s[0]))
    return MatrixAlgebra("toy", gs.antisym(pairs), 2, labels=("q", "p", "r"))


# ---------------------------------------------------------------------------
# full frame: six directions, 15 generators

PRESETS = {
    # six-direction signature -> (gamma signature to build, indices to take)
    "4-2": ((4, 4), (1, 2, 3, 4, 5, 6)),
    "3-3": ((4, 4), (1, 2, 3, 5, 6, 7)),
    "5-1": ((5, 1), (1, 2, 3, 4, 5, 6)),
}


class YangFrame:
    """The 15-generator rotation algebra on six directions with the
    rotations/coordinates/momenta/center split and contraction weights."""

    def __init__(self, preset: str):
        if preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        (gp, gq), picks = PRESETS[preset]
        gs = build_gammas(gp, gq)
        self.preset = preset
        self.eta6 = tuple(gs.eta_entry(i) for i in picks)
        self.eta_mu = self.eta6[:4]

        # generators M(a, b) over 1-based direction slots a, b, in the order
        # rotations L(mu, nu), coordinates M(5, mu), momenta M(6, mu), center
        mus = range(1, 5)
        rot = [(mu, nu) for mu in mus for nu in range(mu + 1, 5)]
        pairs = rot + [(5, mu) for mu in mus] + [(6, mu) for mu in mus] + [(6, 5)]
        labels = [f"L{mu}{nu}" for mu, nu in rot] + [f"x{mu}" for mu in mus]
        labels += [f"p{mu}" for mu in mus] + ["z"]
        self.x_slots, self.p_slots = list(range(6, 10)), list(range(10, 14))
        self.z_slot = 14
        # M(a, b) = gamma_a gamma_b / 2: the integer antisym stack over 2
        stack = gs.antisym([(picks[a - 1], picks[b - 1]) for a, b in pairs])
        self.algebra = MatrixAlgebra(f"yang-{preset}", stack, 2, labels=labels)
        self.weights = (
            (Fraction(0),) * 6
            + (Fraction(1, 2),) * 8
            + (Fraction(1),)
        )

    @property
    def labels(self):
        return self.algebra.labels

    def structure_constants(self) -> StructureConstants:
        return self.algebra.structure_constants()

    def family(self) -> ContractionFamily:
        return ContractionFamily(self.structure_constants(), self.weights)

    def mu_signature(self) -> tuple:
        plus = sum(1 for e in self.eta_mu if e > 0)
        return (plus, 4 - plus)

    def __repr__(self):
        d = self.algebra.matrix_dim
        return f"YangFrame({self.preset!r}, eta6={self.eta6}, matrices {d}x{d})"


def build_yang(preset: str = "4-2") -> YangFrame:
    return YangFrame(preset)


@dataclass(frozen=True)
class HpTarget:
    """Contracted structure constants plus the invariants that make the limit
    a rotations-plus-Heisenberg algebra."""

    constants: StructureConstants
    central_charge: bool
    coordinates_commute: bool
    momenta_commute: bool
    heisenberg_pairing: bool
    killing_degenerate: bool

    def all_hold(self) -> bool:
        return (
            self.central_charge
            and self.coordinates_commute
            and self.momenta_commute
            and self.heisenberg_pairing
            and self.killing_degenerate
        )


def contract_to_hp(frame: YangFrame):
    """Run the weighted contraction and certify the limit. Returns
    (family, HpTarget)."""
    fam = frame.family()
    lim = fam.limit()
    xs, ps, zs = frame.x_slots, frame.p_slots, frame.z_slot
    central = not lim.C[zs].any()
    xx = not lim.C[np.ix_(xs, xs)].any()
    pp = not lim.C[np.ix_(ps, ps)].any()
    # c[x_a, p_b] == eta_a delta_ab z exactly when C[x_a, p_b] == D eta_a delta_ab z
    want = np.zeros((len(xs), len(ps), lim.dim), dtype=object)
    for a, eta in enumerate(frame.eta_mu):
        want[a, a, zs] = lim.D * eta
    pairing = bool((lim.C[np.ix_(xs, ps)] == want).all())
    degenerate = lim.killing_det() == 0
    return fam, HpTarget(lim, central, xx, pp, pairing, degenerate)


@dataclass(frozen=True)
class DefectReport:
    """How far the eps-scaled generators are from satisfying the limit table."""

    eps: Fraction
    worst: Fraction
    by_pair: tuple  # ((label_i, label_j, max-abs entry as Fraction), ...)


def gauge_defect(frame: YangFrame, eps_sqrt) -> DefectReport:
    """D_ij = [X_i(eps), X_j(eps)] - sum_k c-limit_ijk X_k(eps), exactly.

    eps_sqrt is the exact square root of eps, so half-integer weights stay
    rational. The worst entry decays linearly in eps: the decaying brackets
    all carry exponent one onto weight-zero rotations.

    With X_i = eps_sqrt^(2 w_i) G_i / s (the algebra's integer stack, K_ij
    its commutators) and the limit constants L / DL, every term of D_ij
    carries the same power eps_sqrt^(2 w_i + 2 w_j): the limit keeps only
    constants with w_k = w_i + w_j. So D_ij is that power times the integer
    matrix Q_ij = DL K_ij - s sum_k L_ijk G_k over s^2 DL, and one integer
    product (linalg.int_matmul) gives Q for all pairs.
    """
    eps_sqrt = Fraction(eps_sqrt)
    alg = frame.algebra
    lim = ContractionFamily(frame.structure_constants(), frame.weights).limit()
    i, j = np.triu_indices(alg.dim, 1)
    comm = alg.commutators()
    q = linalg.int_combine(
        (lim.D, comm),
        (-alg.scale, linalg.int_matmul(lim.C[i, j], alg.stack.reshape(alg.dim, -1)).reshape(comm.shape)),
    )
    peaks = np.abs(q).reshape(len(i), -1).max(axis=1).tolist()
    den = alg.scale ** 2 * lim.D
    two_w = [2 * x for x in frame.weights]
    powers = {}  # exponent of |eps_sqrt| -> its power; a frame has a few
    rows = []
    worst = Fraction(0)
    for a, b, top in zip(i.tolist(), j.tolist(), peaks):
        if not top:
            continue
        e = int(two_w[a] + two_w[b])
        p = powers.get(e)
        if p is None:
            p = powers[e] = abs(eps_sqrt) ** e
        m = Fraction(p.numerator * top, p.denominator * den)
        if m:
            rows.append((frame.labels[a], frame.labels[b], m))
            worst = max(worst, m)
    return DefectReport(eps_sqrt * eps_sqrt, worst, tuple(rows))


# ---------------------------------------------------------------------------
# coordinate accumulation: Kronecker sums of two-level steps

_MAX_STEPS = 12

ACCUMULATION_PRESETS = {
    # direction label -> step square, per direction
    "penrose": (("s1", 1), ("s2", 1), ("s3", 1)),
    "feynman": (("s1", 1), ("s2", 1), ("s3", 1), ("t", -1)),
}


@dataclass(frozen=True)
class AccumulationResult:
    steps: int
    square: int
    unit: UnitTag
    spectrum: tuple  # ((integer level, multiplicity), ...) descending level


def total_matrix(n: int, square: int) -> np.ndarray:
    """Kronecker sum of n identical two-level steps [[0, 1], [square, 0]],
    each squaring to square * I; dimension 2**n."""
    if not 1 <= n <= _MAX_STEPS:
        raise ValueError(f"steps must lie in 1..{_MAX_STEPS}")
    if square not in (1, -1):
        raise ValueError("step square must be +1 or -1")
    s = np.array([[0, 1], [square, 0]], dtype=np.int64)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.int64)
    for k in range(n):
        left = np.eye(1 << k, dtype=np.int64)
        right = np.eye(1 << (n - k - 1), dtype=np.int64)
        out += np.kron(np.kron(left, s), right)
    return out


def accumulate_coordinate(n: int, square: int = 1) -> AccumulationResult:
    """Spectrum of a coordinate built from n two-level steps.

    Commuting steps with spectrum {+1, -1} (times i for square == -1) add up
    to levels n - 2j, j = 0..n, each with multiplicity C(n, j). The result
    records the integer levels; the unit tag carries the step length and, for
    timelike steps, the factor i.
    """
    if not 1 <= n <= _MAX_STEPS:
        raise ValueError(f"steps must lie in 1..{_MAX_STEPS}")
    if square not in (1, -1):
        raise ValueError("step square must be +1 or -1")
    unit = UnitTag.single("lstep")
    if square == -1:
        unit = unit * UnitTag.single("i")
    spectrum = tuple((n - 2 * j, comb(n, j)) for j in range(n + 1))
    return AccumulationResult(n, square, unit, spectrum)


def accumulate_preset(name: str, n: int) -> dict:
    """Run accumulate_coordinate for every direction of a named frame."""
    if name not in ACCUMULATION_PRESETS:
        raise ValueError(
            f"unknown accumulation preset {name!r}; choose from "
            f"{sorted(ACCUMULATION_PRESETS)}"
        )
    return {
        label: accumulate_coordinate(n, square)
        for label, square in ACCUMULATION_PRESETS[name]
    }
