"""Scales and spectra of the contracted coordinates, on scalars alone.

Physical scales are unit tags (symbol -> exponent maps, never floats;
unit_tags()): coordinates carry xbar * N^{-1/2}, momenta ebar * N^{-1/2},
and the surviving pairing therefore carries xbar * ebar / N, the action
quantum of the contracted theory (see yang).

accumulate_coordinate() treats one direction's coordinate as a sum of n
commuting two-level steps (Kronecker sum). Each step has spectrum {+1, -1}
(spacelike, symmetric step) or {+i, -i} (timelike, antisymmetric step, the i
kept in the unit tag), so the total has the binomial spectrum
{n - 2j with multiplicity C(n, j)}; the eigenvalues accumulate in integer
rungs around zero instead of filling a continuum. total_matrix() builds that
Kronecker sum, a dense array by design and the one place here that imports
numpy; one check serves both: 1..12 steps, each of square +1 or -1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

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
# coordinate accumulation: Kronecker sums of two-level steps

_MAX_STEPS = 12

ACCUMULATION_PRESETS = {
    # direction label -> step square, per direction
    "penrose": (("s1", 1), ("s2", 1), ("s3", 1)),
    "feynman": (("s1", 1), ("s2", 1), ("s3", 1), ("t", -1)),
}


# spectrum is ((integer level, multiplicity), ...), descending level
AccumulationResult = namedtuple("AccumulationResult", "steps square unit spectrum")


def _check_steps(n: int, square: int) -> None:
    if not 1 <= n <= _MAX_STEPS:
        raise ValueError(f"steps must lie in 1..{_MAX_STEPS}")
    if square not in (1, -1):
        raise ValueError("step square must be +1 or -1")


def total_matrix(n: int, square: int):
    """Kronecker sum of n identical two-level steps [[0, 1], [square, 0]],
    each squaring to square * I; dimension 2**n, as an int64 array."""
    import numpy as np

    _check_steps(n, square)
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
    _check_steps(n, square)
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
