#!/usr/bin/env python3
"""Exact Killing determinants recomputed through sympy.

Basis matrices come from the package constructors; everything downstream
(structure constants via rational normal equations, Killing form, determinant)
is redone in sympy so none of the package's linear algebra is trusted.
"""

import json
import os

import sympy as sp

from qsetalg.liecore import CATALOG, catalog_entry
from qsetalg.yang import PRESETS, build_yang


def vec(m: sp.Matrix) -> sp.Matrix:
    return m.reshape(m.rows * m.cols, 1)


def structure_constants(basis):
    """c[i][j] as coordinate vectors, via exact normal equations."""
    b = [sp.Matrix(m) for m in basis]
    n = len(b)
    bmat = sp.Matrix.hstack(*[vec(m) for m in b])
    gram = (bmat.T * bmat).inv()
    proj = gram * bmat.T
    c = {}
    for i in range(n):
        for j in range(n):
            br = b[i] * b[j] - b[j] * b[i]
            x = proj * vec(br)
            resid = bmat * x - vec(br)
            assert all(e == 0 for e in resid), "bracket escapes the span"
            c[i, j] = x
    return n, c


def killing_det(basis) -> sp.Rational:
    n, c = structure_constants(basis)
    ad = [sp.Matrix.hstack(*[c[i, j] for j in range(n)]) for i in range(n)]
    k = sp.Matrix(n, n, lambda i, j: (ad[i] * ad[j]).trace())
    return sp.det(k)


def main() -> None:
    out = {}
    for key in CATALOG:
        d = killing_det(catalog_entry(key).algebra.basis)
        out[key] = str(d)
        print(f"{key}: killing det {d}")
    for preset in sorted(PRESETS):
        fr = build_yang(preset)
        d = killing_det(fr.algebra.basis)
        out[f"yang-{preset}"] = str(d)
        print(f"yang-{preset}: killing det {d}")
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "oracle_killing.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)


if __name__ == "__main__":
    main()
