"""Series families attached to a form system, and integrality scans.

From a :class:`~mirrorint.forms.FormSystem` this module expands

  * ``F``: the generating series with coefficients Q(n);
  * ``G_k``: companions whose coefficients carry the harmonic weight of
    the k-th coordinate (so that G_k + log(z_k) F solves the same system
    of differential equations as F);
  * ``G_L``: companions weighted by H(L.n) for an admissible vector L;
  * canonical coordinates q_k = z_k exp(G_k / F) and their compositional
    inverse, the mirror maps z(q);
  * mirror-type maps q_L = exp(G_L / F).

F, G_k and G_L share the factorial ratio Q(n): ``coefficient_forms`` takes
all of them from one pass over the exponents, which reads each Q(n) once,
on integers, from ``forms.factorial_ratios``.  It returns each series as
numerators over one denominator, keyed on the Kronecker grading of
``kronecker``: F over the least common denominator of the Q(n), the
companions over that times lcm(1..top), with H_m = h_m / lcm(1..top) for
integers h_m.  ``coefficient_series`` wraps these forms as series, for
``dwork``, ``case``, ``build_F/Gk/GL`` and ``build_bundle``.

The canonical coordinate factors through the mirror-type maps: q_k / z_k
equals the product of q_(e_i) to the power e_i[k] divided by the product
of q_(f_j) to the power f_j[k]; the tests check this identity on built
bundles.  ``integrality_scan`` reports coefficients that fail to be
integers (or p-adic integers for a given prime).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from . import kronecker
from .forms import FormSystem, factorial_ratios, require_prime, vp_int
from .landau import enumerate_weight_vectors
from .series import MSeries, invert_diagonal

Exponent = tuple[int, ...]


def coefficient_forms(sys: FormSystem, order: int, ks=(), Ls=()) -> list[tuple[int, dict]]:
    """Integer forms (D, key -> numerator) of F, of G_k for each 0-based k in
    ``ks`` and of G_L for each L in ``Ls``, keyed on the Kronecker grading.

    ``forms.factorial_ratios`` gives every Q(n) from the columns w.n of the
    (w, m) of ``sys.net``, as numerators over their least common
    denominator D_F (1 when all are integers); that is F.  With
    lam = lcm(1..top), top the largest form value, H_j = h_j / lam with
    integers h_j, so over D_F lam the numerators are Q(n) D_F
    sum_w m w[k] h_(w.n) for G_k and Q(n) D_F h_(L.n) for G_L (L.n <= top:
    L is dominated by a form vector).  Only nonzero numerators are kept.
    The exponents are those of the grading's ``key``, lexicographically.
    """
    key = kronecker.grading(sys.d, order).key
    vs = list(key)
    cols = [[sum(map(mul, w, v)) for v in vs] for w, _ in sys.net]
    D, nums = factorial_ratios(sys, cols, len(vs))
    top = order * max(map(max, sys.forms))
    lam = math.lcm(*range(1, top + 1))
    h = list(itertools.accumulate((lam // j for j in range(1, top + 1)), initial=0))
    weights = []  # per companion, its harmonic numerator at each exponent
    for k in ks:
        s = [0] * len(vs)
        for (w, m), col in zip(sys.net, cols):
            if c := m * w[k]:
                s = [x + c * h[y] for x, y in zip(s, col)]
        weights.append(s)
    weights += [[h[sum(map(mul, L, v))] for v in vs] for L in Ls]
    keys = list(key.values())
    Gs = ({k: Q * s for k, Q, s in zip(keys, nums, ws) if s} for ws in weights)
    return [(D, dict(zip(keys, nums))), *(kronecker.reduced(D * lam, G) for G in Gs)]


def coefficient_series(sys: FormSystem, order: int, ks=(), Ls=()) -> list[MSeries]:
    """F, the G_k and the G_L of ``coefficient_forms`` as series."""
    return [MSeries.of_form(sys.d, order, form) for form in coefficient_forms(sys, order, ks, Ls)]


def build_F(sys: FormSystem, order: int) -> MSeries:
    """The series whose coefficient at z^n is the factorial ratio Q(n)."""
    return coefficient_series(sys, order)[0]


def build_Gk(sys: FormSystem, k: int, order: int) -> MSeries:
    """Harmonic companion for coordinate k (1-based): Q(n) times the
    weight sum(e_i[k] H(e_i.n)) - sum(f_j[k] H(f_j.n))."""
    if not 1 <= k <= sys.d:
        raise ValueError(f"coordinate {k} out of range 1..{sys.d}")
    return coefficient_series(sys, order, [k - 1])[1]


def build_GL(sys: FormSystem, L: Sequence[int], order: int) -> MSeries:
    """Companion weighted by H(L.n), for L dominated by some form vector."""
    L = tuple(int(c) for c in L)
    if L not in set(enumerate_weight_vectors(sys)):
        raise ValueError(f"{L} is not dominated by any form vector")
    return coefficient_series(sys, order, Ls=[L])[1]


@dataclass
class MirrorBundle:
    """All series of one system at one truncation order.

    ``q[k]`` is z_k times a unit, ``qL[L]`` a unit with constant term 1,
    and ``zofq`` inverts the q map up to the order.
    """

    sys: FormSystem
    order: int
    F: MSeries
    G: tuple[MSeries, ...]
    GL: dict[Exponent, MSeries]
    q: tuple[MSeries, ...]
    qL: dict[Exponent, MSeries]
    zofq: tuple[MSeries, ...]


def build_bundle(sys: FormSystem, order: int) -> MirrorBundle:
    """Construct every series of the bundle, mutually consistent."""
    Ls = enumerate_weight_vectors(sys)
    F, *companions = coefficient_series(sys, order, range(sys.d), Ls)
    G, GL = tuple(companions[: sys.d]), dict(zip(Ls, companions[sys.d :]))
    recip_F = F.reciprocal()
    q = tuple(
        MSeries.variable(sys.d, order, k) * (G[k] * recip_F).exp()
        for k in range(sys.d)
    )
    qL = {L: (GL[L] * recip_F).exp() for L in Ls}
    zofq = tuple(invert_diagonal(list(q)))
    return MirrorBundle(
        sys=sys,
        order=order,
        F=F,
        G=G,
        GL=GL,
        q=q,
        qL=qL,
        zofq=zofq,
    )


@dataclass(frozen=True)
class ScanViolation:
    exponent: Exponent
    coefficient: Fraction
    valuation: Optional[int] = None


@dataclass(frozen=True)
class ScanReport:
    """Exponents whose coefficients fail integrality, in lexicographic order.

    With no prime, a violation is a coefficient with denominator != 1;
    with a prime p, one with negative p-adic valuation.  At most ``limit``
    violations are stored; ``total`` counts them all.
    """

    prime: Optional[int]
    violations: tuple[ScanViolation, ...]
    total: int
    limit: int = 20

    @property
    def ok(self) -> bool:
        return self.total == 0

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "total": self.total,
            "violations": [
                {
                    "exp": list(v.exponent),
                    "num": str(v.coefficient.numerator),
                    "den": str(v.coefficient.denominator),
                    **({"vp": v.valuation} if v.valuation is not None else {}),
                }
                for v in self.violations
            ],
        }


def integrality_scan(s: MSeries, p: Optional[int] = None, limit: int = 20) -> ScanReport:
    """Report every truncation-order coefficient that is not (p-)integral.

    The numerators over D decide: c / D is integral iff D | c, and
    p-integral iff p^v_p(D) | c; otherwise v_p(c / D) = v_p(c) - v_p(D).
    """
    if p is not None:
        p = require_prime(p)
    D, ints = s.form
    v_D = 0 if p is None else vp_int(D, p)
    divisor = D if p is None else p**v_D
    exp = kronecker.grading(s.d, s.order).exp
    bad = sorted((exp[k], c) for k, c in ints.items() if c % divisor) if divisor > 1 else []
    found = [
        ScanViolation(v, Fraction(c, D), None if p is None else vp_int(c, p) - v_D)
        for v, c in bad[:limit]
    ]
    return ScanReport(prime=p, violations=tuple(found), total=len(bad), limit=limit)
