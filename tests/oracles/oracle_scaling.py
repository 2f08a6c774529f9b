#!/usr/bin/env python3
"""Float contraction scaling, measured with numpy least squares.

Takes basis matrices from the package constructors, rescales them by hand,
refits bracket coordinates with numpy lstsq, eliminates the limit constants
from two sample scales, and freezes the decay coefficients and worst defects.
No exact package arithmetic is reused.
"""

import json
import os

import numpy as np

from qsetalg.liecore import catalog_entry
from qsetalg.yang import build_yang


def refit(basis, weights, eps):
    """Bracket coordinates of the eps-scaled basis, via float lstsq."""
    scaled = [np.array(m, dtype=float) * eps ** float(w) for m, w in zip(basis, weights)]
    n = len(scaled)
    cols = np.stack([m.ravel() for m in scaled], axis=1)
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            br = scaled[i] @ scaled[j] - scaled[j] @ scaled[i]
            x, res, _, _ = np.linalg.lstsq(cols, br.ravel(), rcond=None)
            c[i, j] = x
    return c


def limit_by_elimination(basis, weights, e1, e2):
    """c(eps) = c_lim + eps * c_decay for integer exponents; solve the pair."""
    c1 = refit(basis, weights, e1)
    c2 = refit(basis, weights, e2)
    c_lim = (e1 * c2 - e2 * c1) / (e1 - e2)
    c_decay = (c1 - c2) / (e1 - e2)
    return c_lim, c_decay


def main() -> None:
    out = {}

    ent = catalog_entry("so21")
    basis = [np.array(m, dtype=float) for m in ent.algebra.basis]
    weights = ent.weights
    c_lim, _ = limit_by_elimination(basis, weights, 1e-2, 1e-3)
    decayed = {}
    for eps in (1e-3, 1e-6):
        c = refit(basis, weights, eps)
        diff = np.abs(c - c_lim)
        decayed[f"{eps:g}"] = float(diff.max())
    out["so21_decay"] = decayed
    print(f"so21 decayed coefficient at 1e-3, 1e-6: {decayed}")

    fr = build_yang("4-2")
    basis = fr.algebra.basis
    weights = fr.weights
    c_lim, c_decay = limit_by_elimination(basis, weights, 1e-2, 1e-3)
    worst = {}
    for n in (100, 10**4, 10**6):
        eps = 1.0 / n
        c = refit(basis, weights, eps)
        worst[str(n)] = float(np.abs(c - c_lim).max())
    ratios = [worst["10000"] / worst["100"], worst["1000000"] / worst["10000"]]
    out["yang_defect_worst"] = worst
    out["yang_defect_ratios"] = ratios
    out["yang_decay_coefficient_max"] = float(np.abs(c_decay).max())
    print(f"yang worst defect per N: {worst}")
    print(f"scaling ratios (expect ~1e-2): {ratios}")

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "oracle_scaling.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)


if __name__ == "__main__":
    main()
