#!/usr/bin/env python3
"""Frozen results of liecore.numeric_contraction_check, the float refit.

For every algebra the CLI contracts (the catalog, the toy triple and the
frame presets), with the weights its goldens use, it records the refit's
largest relative deviation at each eps in EPS. tests/test_liecore.py
replays every entry and requires the same float, compared with ==.

Run from the repository root with the package importable (PYTHONPATH=src);
it writes refit_values.json next to this file as
{algebra: {repr(eps): value}}.
"""

import json
import os
from fractions import Fraction

from qsetalg.liecore import CATALOG, catalog_entry, numeric_contraction_check
from qsetalg.yang import PRESETS, build_yang, toy_frame

EPS = (1e-3, 1 / 7, 3.0, -1 / 100, 1e-4)
HALF = Fraction(1, 2)
# weights for the catalog algebras that have no default contraction weights
FIXED = {"so3": (0, 1, 1), "h1": (1, 1, 1)}


def cases():
    """(name, algebra, weights) of every algebra the CLI contracts."""
    for key in CATALOG:
        ent = catalog_entry(key)
        yield key, ent.algebra, ent.weights or FIXED[key]
    yield "toy", toy_frame(), (HALF, HALF, 1)
    for preset in sorted(PRESETS):
        fr = build_yang(preset)
        yield preset, fr.algebra, fr.family().weights


def main() -> None:
    out = {name: {repr(eps): numeric_contraction_check(alg, weights, eps) for eps in EPS} for name, alg, weights in cases()}
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "refit_values.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"{len(out)} algebras x {len(EPS)} values of eps")


if __name__ == "__main__":
    main()
