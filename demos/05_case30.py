#!/usr/bin/env python3
# Walkthrough: a fourth-order operator case study (catalog case 30).
#
# The record bundles a theta-form operator, a two-variable form system, a
# specialization z = (t, 4t) and a closed form for the holomorphic
# solution.  The verification is entirely formal: expand, specialize,
# apply the operator to coefficient lists, compare coefficients.

from mirrorint import classify, integrality_scan
from mirrorint.mirror import build_F, build_Gk
from mirrorint.operators import case30_record
from mirrorint.series import MSeries

rec = case30_record()
print("operator z-degree:", rec.operator.z_degree)
print("theta-polynomial of z^0:", rec.operator.polys[0])

N = 12
F_spec = build_F(rec.system, N).specialize(rec.M, rec.Nexp)
G_spec = build_Gk(rec.system, rec.k, N).specialize(rec.M, rec.Nexp)

print()
print("specialized series starts:", [int(F_spec.coeff((n,))) for n in range(4)])
print("(the n=1 coefficient 144 is 12 * 12: head factor times binomial sum)")

print()
# the operator takes the coefficient lists of A and B in A + B log z and
# returns the regular and log lists, up to order N minus its z-degree
f = [F_spec.coeff((n,)) for n in range(N + 1)]
g = [G_spec.coeff((n,)) for n in range(N + 1)]
regular, _ = rec.operator(f)
print(f"operator annihilates F to order {len(regular) - 1}:", not any(regular))
regular, logpart = rec.operator(g, f)
print(f"operator annihilates G + log(z) F to order {len(regular) - 1}:",
      not any(regular) and not any(logpart))

print()
unit = (G_spec * F_spec.reciprocal()).exp()
q = MSeries.variable(1, N, 0) * unit
print("q-parameter coefficients:", [str(q.coeff((n,))) for n in range(1, 5)])
print("q-parameter integral to order 12:", integrality_scan(q).ok)
print("dichotomy branch of the underlying system:", classify(rec.system).tag.value)
