#!/usr/bin/env python3
# Walkthrough: the p-adic verification engine.
#
# Four layers: (1) valuations of the ratio family via Legendre sums,
# (2) the Dieudonne-Dwork product test deciding p-integrality of exp(G/F),
# (3) the weight/good-residue machinery, (4) the generalized formal
# congruence harness with its exact telescoping identity.

import itertools
import json

from mirrorint import (
    MSeries,
    PadicContext,
    dieudonne_dwork_check,
    good_residues,
    verify_formal_congruences,
    vp_ratio_legendre,
)
from mirrorint.mirror import build_F, build_Gk
from mirrorint.systems import CENTRAL_BINOMIAL, CUBIC_2D, INVERSE_BINOMIAL


def negative_witness(sys, p):
    """The first n in the box [0, p]^d with v_p(Q(n)) <= -1, with that
    valuation; None when the box has none."""
    for n in itertools.product(range(p + 1), repeat=sys.d):
        if (v := vp_ratio_legendre(sys, n, p)) <= -1:
            return n, v
    return None


print("=== valuations without big numbers ===")
print("v_5 of C(6,3) = v_5(20) =", vp_ratio_legendre(CENTRAL_BINOMIAL, (3,), 5))
print("v_5 of 1/C(6,3) =", vp_ratio_legendre(INVERSE_BINOMIAL, (3,), 5))
print("negative-valuation witnesses for 1/C(2n,n):",
      {p: negative_witness(INVERSE_BINOMIAL, p) for p in (5, 7, 11)})

print()
print("=== the product test: exp(z) is not a 2-adic integer series ===")
F, G = MSeries.one(1, 6), MSeries.variable(1, 6, 0)
for rep in dieudonne_dwork_check(F, G, 2)[:2]:
    print("  ", json.dumps(rep.to_dict()))

print()
print("=== ... but the canonical coordinates of the cubic system are ===")
F = build_F(CUBIC_2D, 6)
G1 = build_Gk(CUBIC_2D, 1, 6)
print("all coefficient checks pass for p=2:",
      all(r.passed for r in dieudonne_dwork_check(F, G1, 2)))

print()
print("=== weights and good residues (p = 2, central binomial) ===")
ctx = PadicContext(2, CENTRAL_BINOMIAL)
for m in ((1,), (3,), (4,)):
    mu = ctx.mu(m)
    print(f"  mu({m[0]}) = {mu}, weight = {ctx.p**mu}")
print("good residues mod 4:", good_residues(ctx, 2))

print()
print("=== the formal congruence harness (aggregated worst loci) ===")
for rep in verify_formal_congruences(PadicContext(2, CUBIC_2D)):
    print("  ", json.dumps(rep.to_dict()))
