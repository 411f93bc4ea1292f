#!/usr/bin/env python3
# Walkthrough: canonical coordinates, mirror maps and mirror-type maps.
#
# From a form system we expand F (ratio coefficients), the harmonic
# companions G_k and G_L, the canonical coordinates q_k = z_k exp(G_k/F),
# their compositional inverse (the mirror maps), and the mirror-type maps
# q_L = exp(G_L/F).  On the "delta >= 1" branch everything is integral;
# on the zero branch denominators appear early, in both directions.

from mirrorint import build_bundle, integrality_scan
from mirrorint.systems import CUBIC_2D, CUBIC_SPLIT

print("=== the everywhere->=1 branch: all integral ===")
b = build_bundle(CUBIC_2D, 8)
print("F starts with", [(v, str(c)) for v, c in b.F.items()[:3]], "...")
for k in range(2):
    print(f"q_{k+1} integral to order 8:", integrality_scan(b.q[k]).ok)
    print(f"mirror map z_{k+1}(q) integral:", integrality_scan(b.zofq[k]).ok)
print("all", len(b.qL), "mirror-type maps integral:",
      all(integrality_scan(s).ok for s in b.qL.values()))

print()
print("=== the product identity tying both families together ===")
# q_k / z_k = exp(G_k / F) equals a weighted product of mirror-type maps.
# For k = 1: e = (3,3) carries weight 3 on z_1, and f lists (1,0) three times.
unit = (b.G[0] * b.F.reciprocal()).exp()
product = b.qL[(3, 3)] ** 3 * b.qL[(1, 0)] ** -3
print("q_1 / z_1 = q_(3,3)^3 / q_(1,0)^3 to order 8:", unit == product)

print()
print("=== the zero branch: early denominators ===")
b2 = build_bundle(CUBIC_SPLIT, 10)
print("q_2 stays the plain variable:", b2.q[1].items() == [((0, 1), 1)])
rep = integrality_scan(b2.q[0])
first = rep.violations[0]
print(f"q_1 has coefficient {first.coefficient} at z^{first.exponent}:"
      " not a 2-adic integer")
rep_z = integrality_scan(b2.zofq[0])
print("and the mirror map fails in the same place:",
      rep_z.violations[0].exponent == first.exponent)
