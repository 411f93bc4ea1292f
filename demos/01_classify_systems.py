#!/usr/bin/env python3
# Walkthrough: the Landau step function and the integrality dichotomy.
#
# A form system is two lists e, f of nonnegative integer vectors; the
# numbers Q(n) = prod (e_i.n)! / prod (f_j.n)! are integers exactly when
# the step function delta(x) = sum floor(e_i.x) - sum floor(f_j.x) stays
# nonnegative on the unit box.  On the "jump region" (points where some
# form value reaches 1), delta >= 1 everywhere makes every attached map
# integral, while a zero there produces p-adic failures for almost all p.

from fractions import Fraction

from mirrorint import FormSystem, classify, delta_at, in_jump_region
from mirrorint.systems import BUNDLED

print("=== classifying the bundled systems ===")
for name, sys in BUNDLED.items():
    verdict = classify(sys)
    extras = ""
    if verdict.witness is not None:
        extras = f"  witness={tuple(str(c) for c in verdict.witness)}"
    if verdict.coordinate is not None:
        extras = f"  coordinate k={verdict.coordinate}"
    if verdict.certificate is not None:
        extras = f"  certificate on {len(verdict.certificate)} jump-region cells"
    print(f"{name:18s} -> {verdict.tag.value}{extras}")

print()
print("=== the zero that kills integrality ===")
split = BUNDLED["cubic-split"]
w = (Fraction(1, 2), Fraction(0))
print(f"delta at {w} = {delta_at(split, w)}  (in jump region: {in_jump_region(split, w)})")
print("so (3a)!/((2a)! a!) is integral, but its canonical coordinate is not.")

print()
print("=== the Landau function of one variable ===")
# delta of E=(3), F=(2,1) changes only at thirds and halves of the unit interval:
one = FormSystem([(3,)], [(2,), (1,)])
points = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
values = [delta_at(one, (x,)) for x in points]
print(f"delta at {', '.join(map(str, points))}: {values}")
print("the 0 from 1/2 on is the jump-region zero behind cubic-split's CaseII verdict.")
