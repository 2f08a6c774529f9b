#!/usr/bin/env python3
"""Real sign-matrix representations for every signature up to eight directions.

The construction is a doubling recursion on (p, q); every matrix entry is
-1, 0, or +1 and every anticommutator is checked exactly in integers.
The pair products gamma_a gamma_b then close under commutators like rotations do.
"""

from qsetalg.cliff import anticommutator_defect, build_gammas
from qsetalg.liecore import MatrixAlgebra

print("== dimension table ==")
for total in range(1, 9):
    row = []
    for p in range(total + 1):
        gs = build_gammas(p, total - p)
        assert anticommutator_defect(gs) == 0
        row.append(f"({p},{total-p}):{gs.dim}")
    print(f"  p+q={total}: " + "  ".join(row))

print()
gs = build_gammas(2, 1)
print("== the three 2x2 matrices for signature (2,1) ==")
for i in range(1, 4):
    print(f"  gamma_{i} (square {gs.eta_entry(i):+d}):")
    for row in gs.gamma(i):
        print("   ", list(row))

print()
print("== spin generators close on rotation constants ==")
gs = build_gammas(2, 1)
pairs = [(2, 3), (2, 1), (1, 3)]
sc = MatrixAlgebra.of_points("spin21", gs.products(pairs), gs.dim, 2, labels=("q", "p", "r")).structure_constants()
for i, j, k, c in sc.nonzero():
    print(f"  [{sc.labels[i]},{sc.labels[j]}] = {c} {sc.labels[k]}")
print("killing det:", sc.killing_det(), "->", sc.classify())
print()
print("the top element gamma_3 gamma_2 gamma_1 squares to "
      f"{build_gammas(2, 1).top_square_sign():+d}; at (4,4) it squares to "
      f"{build_gammas(4, 4).top_square_sign():+d} in dimension "
      f"{build_gammas(4, 4).dim}.")
