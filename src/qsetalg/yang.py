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

Each generator M(a, b) is a signed permutation over 2, handed to
MatrixAlgebra.of_points as it comes out of the gamma set, so the frames,
their constants, the contraction and the defect all run on Python ints,
with no numpy. The scales and spectra of the contracted coordinates live in
spectra, which needs none of this.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cliff import build_gammas
from .liecore import ContractionFamily, MatrixAlgebra, StructureConstants
from .scalars import UnitTag  # noqa: F401 (yang.UnitTag is public, as palev.UnitTag is)

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
    return MatrixAlgebra.of_points("toy", gs.products(pairs), gs.dim, 2, labels=("q", "p", "r"))


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
        # M(a, b) = gamma_a gamma_b / 2: signed permutations over 2
        products = gs.products([(picks[a - 1], picks[b - 1]) for a, b in pairs])
        self.algebra = MatrixAlgebra.of_points(f"yang-{preset}", products, gs.dim, 2, labels=labels)
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


class HpTarget(namedtuple(
    "HpTarget", "constants central_charge coordinates_commute momenta_commute heisenberg_pairing killing_degenerate"
)):
    """Contracted structure constants plus the invariants that make the limit
    a rotations-plus-Heisenberg algebra."""

    __slots__ = ()

    def all_hold(self) -> bool:
        return all(self[1:])  # every field after the constants


def contract_to_hp(frame: YangFrame):
    """Run the weighted contraction and certify the limit. Returns
    (family, HpTarget)."""
    fam = frame.family()
    lim = fam.limit()
    xs, ps, z = frame.x_slots, frame.p_slots, frame.z_slot
    central = not any(z in pair for pair in lim.table)
    xx = not any(i in xs and j in xs for i, j in lim.table)
    pp = not any(i in ps and j in ps for i, j in lim.table)
    # c[x_a, p_b] == eta_a delta_ab z exactly when C[x_a, p_b] == D eta_a delta_ab z
    pairing = all(
        lim.bracket(x, p) == ({z: lim.D * eta} if a == b else {})
        for a, (x, eta) in enumerate(zip(xs, frame.eta_mu))
        for b, p in enumerate(ps)
    )
    degenerate = lim.killing_det() == 0
    return fam, HpTarget(lim, central, xx, pp, pairing, degenerate)


# how far the eps-scaled generators are from satisfying the limit table: eps,
# the worst entry and by_pair, ((label_i, label_j, max-abs entry), ...), exact
DefectReport = namedtuple("DefectReport", "eps worst by_pair")


def gauge_defect(frame: YangFrame, eps_sqrt) -> DefectReport:
    """D_ij = [X_i(eps), X_j(eps)] - sum_k c-limit_ijk X_k(eps), exactly.

    eps_sqrt is the exact square root of eps, so half-integer weights stay
    rational. The worst entry decays linearly in eps: the decaying brackets
    all carry exponent one onto weight-zero rotations.

    With X_i = eps_sqrt^(2 w_i) G_i / s, and the limit keeping only the
    constants with w_k = w_i + w_j, D_ij is eps_sqrt^(2 w_i + 2 w_j) times
    sum_k (c_ijk - l_ijk) G_k / s: for c = C / D and l = L / DL, the integer
    matrix sum_k (DL C_ijk - D L_ijk) G_k over s D DL, over the nonzero
    constants only.
    """
    eps_sqrt = Fraction(eps_sqrt)
    alg, sc = frame.algebra, frame.structure_constants()
    lim = ContractionFamily(sc, frame.weights).limit()
    den = alg.scale * sc.D * lim.D
    two_w = [2 * x for x in frame.weights]
    rows = []
    worst = Fraction(0)
    for (a, b), row in sc.table.items():
        kept, entry = lim.table.get((a, b), {}), {}
        for k, v in row.items():
            f = lim.D * v - sc.D * kept.get(k, 0)
            if f:
                for pos, x in alg.entries[k].items():
                    entry[pos] = entry.get(pos, 0) + f * x
        top = max(map(abs, entry.values()), default=0)
        if not top:
            continue
        m = abs(eps_sqrt) ** int(two_w[a] + two_w[b]) * Fraction(top, den)
        if m:
            rows.append((frame.labels[a], frame.labels[b], m))
            worst = max(worst, m)
    return DefectReport(eps_sqrt * eps_sqrt, worst, tuple(rows))
