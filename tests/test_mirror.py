"""Named series families, bundles, factorization identity, scans."""

import copy
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorint import kronecker, mirror
from mirrorint.cli import _manifest
from mirrorint.forms import (
    FormSystem,
    dot,
    factorial_ratio,
    harmonic,
    harmonic_weight,
    vp_of_rational,
)
from mirrorint.landau import enumerate_weight_vectors
from mirrorint.mirror import (
    build_F,
    build_GL,
    build_Gk,
    build_bundle,
    integrality_scan,
)
from mirrorint.series import MSeries, compose
from mirrorint.systems import CENTRAL_BINOMIAL, CUBIC_2D, CUBIC_SPLIT


# ---------------------------------------------------------------------------
# the per-series loops, the oracle the one-pass builder must match: each
# family walks the exponents on its own, takes Q(n) afresh and goes through
# the validating MSeries constructor


def exponents_upto(d, order):
    """All exponent vectors of total degree <= order, lexicographically."""
    for v in itertools.product(range(order + 1), repeat=d):
        if sum(v) <= order:
            yield v


def oracle_build_F(sys, order):
    terms = {v: factorial_ratio(sys, v) for v in exponents_upto(sys.d, order)}
    return MSeries(sys.d, order, terms)


def oracle_build_Gk(sys, k, order):
    terms = {}
    for v in exponents_upto(sys.d, order):
        w = harmonic_weight(sys, k - 1, v)
        if w:
            terms[v] = factorial_ratio(sys, v) * w
    return MSeries(sys.d, order, terms)


def oracle_build_GL(sys, L, order):
    terms = {}
    for v in exponents_upto(sys.d, order):
        m = dot(L, v)
        if m:
            terms[v] = factorial_ratio(sys, v) * harmonic(m)
    return MSeries(sys.d, order, terms)


@st.composite
def family_jobs(draw):
    """A raw system in d = 1 or 2 (zero vectors, overlaps and non-integral
    Q allowed) and an order in 0..8.  In the swapped mode f is the one
    vector sum of e, so Q(n) is one over a multinomial coefficient: not an
    integer once two vectors of e meet n, and D_F > 1."""
    d = draw(st.integers(1, 2))
    vec = st.tuples(*[st.integers(0, 2)] * d)
    e = draw(st.lists(vec, min_size=1, max_size=3))
    if draw(st.booleans()):
        f = [tuple(map(sum, zip(*e)))]
    else:
        f = draw(st.lists(vec, min_size=0, max_size=3))
    return FormSystem(e, f, raw=True), draw(st.integers(0, 8))


def emitted(sys, order, ks=(), Ls=()):
    """The forms of one coefficient pass, as series."""
    forms = mirror.coefficient_forms(sys, order, ks, Ls)
    return [MSeries.of_form(sys.d, order, form) for form in forms]


class TestOnePassAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(family_jobs())
    @example((FormSystem([(1,)], [(2,)]), 8))  # Q(n) = 1 / C(2n, n)
    @example((FormSystem([(2, 1)], [(1, 1), (1, 0)]), 8))
    @example((FormSystem([(1, 0), (0, 1)], [(1, 1)]), 6))  # swapped; L = (1, 0)
    @example((FormSystem([(0, 0), (2, 1), (1, 2)], [(0, 0), (1, 0)], raw=True), 5))
    def test_families_match_per_series_loops(self, job):
        sys, order = job
        F = oracle_build_F(sys, order).to_bytes()
        G = [oracle_build_Gk(sys, k, order).to_bytes() for k in range(1, sys.d + 1)]
        Ls = enumerate_weight_vectors(sys)
        GL = {L: oracle_build_GL(sys, L, order).to_bytes() for L in Ls}
        assert build_F(sys, order).to_bytes() == F
        assert [build_Gk(sys, k, order).to_bytes() for k in range(1, sys.d + 1)] == G
        assert {L: build_GL(sys, L, order).to_bytes() for L in Ls} == GL
        b = build_bundle(sys, order)
        assert b.F.to_bytes() == F
        assert [g.to_bytes() for g in b.G] == G
        assert list(b.GL) == Ls
        assert {L: g.to_bytes() for L, g in b.GL.items()} == GL
        # the pass itself: D_F is the least common denominator of the Q(n)
        D_F = mirror.coefficient_forms(sys, order)[0][0]
        assert D_F == math.lcm(*(int(t["den"]) for t in json.loads(F)["terms"]))
        Fs, *Gs = emitted(sys, order, range(sys.d), Ls)
        assert Fs.to_bytes() == F
        assert [g.to_bytes() for g in Gs] == G + list(GL.values())

    def test_the_swapped_example_has_D_F_above_1_and_an_L_with_a_zero_entry(self):
        swapped = FormSystem([(1, 0), (0, 1)], [(1, 1)])
        assert mirror.coefficient_forms(swapped, 6)[0][0] == 60  # lcm of the C(n, k), n <= 6
        assert (1, 0) in enumerate_weight_vectors(swapped)

    def test_bundle_takes_each_factorial_ratio_once(self, monkeypatch):
        # one coefficient pass per bundle, visiting each exponent once
        calls, seen = count_the_pass(monkeypatch)
        for sys, order in ((CUBIC_2D, 6), (CENTRAL_BINOMIAL, 10)):
            calls.clear(), seen.clear()
            build_bundle(sys, order)
            assert calls == [(sys, order)]
            assert seen == list(exponents_upto(sys.d, order))


def count_the_pass(monkeypatch):
    """Record each call of ``mirror.coefficient_forms`` as (system, order),
    and each exponent the pass visits in the grading's ``key``; returns both
    lists."""
    calls, seen = [], []
    the_pass, grading = mirror.coefficient_forms, kronecker.grading

    def counting(sys, order, *rest):
        calls.append((sys, order))
        return the_pass(sys, order, *rest)

    class Visited(dict):
        def __iter__(self):
            for v in super().__iter__():
                seen.append(v)
                yield v

    def visiting(d, order):
        g = copy.copy(grading(d, order))
        g.key = Visited(g.key)
        return g

    monkeypatch.setattr(mirror, "coefficient_forms", counting)
    # only mirror's own gradings are watched
    watched = SimpleNamespace(**vars(kronecker) | {"grading": visiting})
    monkeypatch.setattr(mirror, "kronecker", watched)
    return calls, seen


class TestBuildF:
    def test_coefficients_are_factorial_ratios(self):
        F = build_F(CUBIC_2D, 5)
        for v in exponents_upto(2, 5):
            assert F.coeff(v) == factorial_ratio(CUBIC_2D, v)

    def test_constant_term(self):
        assert build_F(CUBIC_SPLIT, 4).constant_term == 1

    def test_pure_z2_coefficient_on_split_system(self):
        # no form touches the second variable, so the coefficient is Q((0,1)) = 1
        F = build_F(CUBIC_SPLIT, 4)
        assert F.coeff((0, 1)) == 1
        assert F.coeff((0, 4)) == 1

    def test_main_example_coefficient(self):
        assert build_F(CUBIC_2D, 3).coeff((1, 1)) == 720


class TestBuildG:
    def test_weight_at_unit_vector(self):
        # Q(1,0) = 6 against weight 3 H_3 - 3 H_1 = 5/2
        G1 = build_Gk(CUBIC_2D, 1, 3)
        assert G1.coeff((1, 0)) == 15

    def test_constant_term_zero(self):
        for k in (1, 2):
            assert build_Gk(CUBIC_2D, k, 4).constant_term == 0

    def test_swap_symmetry(self):
        N = 6
        G1 = build_Gk(CUBIC_2D, 1, N)
        G2 = build_Gk(CUBIC_2D, 2, N)
        for v in exponents_upto(2, N):
            assert G1.coeff(v) == G2.coeff((v[1], v[0]))

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            build_Gk(CUBIC_2D, 3, 4)

    def test_weighted_companion_small_values(self):
        G_L1 = build_GL(CENTRAL_BINOMIAL, (1,), 4)
        G_L2 = build_GL(CENTRAL_BINOMIAL, (2,), 4)
        assert G_L1.coeff((1,)) == 2  # C(2,1) H_1
        assert G_L2.coeff((1,)) == 3  # C(2,1) H_2

    def test_weighted_companion_zero_weight_rows(self):
        # L = (1,0) never sees pure-z2 exponents: H_0 = 0 contributions vanish
        G = build_GL(CUBIC_SPLIT, (1, 0), 4)
        assert G.coeff((0, 3)) == 0

    def test_undominated_vector_rejected(self):
        with pytest.raises(ValueError):
            build_GL(CENTRAL_BINOMIAL, (3,), 4)


class TestBundle:
    def test_split_system_second_coordinate_is_plain_variable(self):
        b = build_bundle(CUBIC_SPLIT, 8)
        assert b.q[1] == MSeries.variable(2, 8, 1)
        assert b.zofq[1] == MSeries.variable(2, 8, 1)

    def test_unit_shapes(self):
        b = build_bundle(CUBIC_2D, 6)
        assert b.F.constant_term == 1
        for k in range(2):
            assert b.G[k].constant_term == 0
            assert b.q[k].coeff((0, 0)) == 0
            unit_coeff = b.q[k].coeff(tuple(1 if i == k else 0 for i in range(2)))
            assert unit_coeff == 1
        for L, s in b.qL.items():
            assert s.constant_term == 1

    def test_round_trip(self):
        b = build_bundle(CUBIC_2D, 6)
        for k in range(2):
            assert compose(b.q[k], list(b.zofq)) == MSeries.variable(2, 6, k)
            assert compose(b.zofq[k], list(b.q)) == MSeries.variable(2, 6, k)

    def test_case_i_bundles_are_integral(self):
        b = build_bundle(CUBIC_2D, 6)
        for s in list(b.q) + list(b.zofq) + list(b.qL.values()):
            assert integrality_scan(s).ok

    def test_flagged_regime_builds(self):
        sys = FormSystem([(2,)], [(1,)])
        b = build_bundle(sys, 8)
        # unequal column sums: the cache manifest marks the system flagged
        assert _manifest(sys, 8, {})["flagged"]
        # the theory predicts p-adic failures here; denominators show up
        assert not integrality_scan(b.q[0]).ok


# ---------------------------------------------------------------------------
# the product identity, the oracle that checks build_bundle from outside:
# q_k / z_k is built a second time as exp(G_k / F) and compared with the
# product of the mirror-type maps


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of the product identity check; falsy when a side differs."""

    ok: bool
    coordinate: Optional[int] = None
    exponent: Optional[tuple[int, ...]] = None

    def __bool__(self):
        return self.ok


def check_factorization(bundle) -> FactorizationResult:
    """Verify q_k / z_k = prod q_w^(m w[k]) over the (w, m) of ``sys.net``.

    Both sides are expanded independently as truncated series for every
    coordinate; the first differing coefficient, if any, is reported.  The
    left side is rebuilt as exp(G_k / F) so that both sides carry the full
    truncation order (the stored q_k, being z_k times the unit, only
    determines the unit one order down).
    """
    sys = bundle.sys
    recip_F = bundle.F.reciprocal()
    for k in range(sys.d):
        lhs = (bundle.G[k] * recip_F).exp()
        rhs = MSeries.one(sys.d, bundle.order)
        for w, m in sys.net:
            if w[k]:
                rhs = rhs * bundle.qL[w] ** (m * w[k])
        if lhs != rhs:
            exponent = (lhs - rhs).items()[0][0]
            return FactorizationResult(False, coordinate=k + 1, exponent=exponent)
    return FactorizationResult(True)


class TestFactorization:
    def test_main_system(self):
        assert check_factorization(build_bundle(CUBIC_2D, 6))

    def test_binomial_system(self):
        assert check_factorization(build_bundle(CENTRAL_BINOMIAL, 10))

    def test_degenerate_identity_bundle(self):
        # e = f forces every companion to vanish, q_k = z_k, both sides 1
        sys = FormSystem([(2,)], [(2,)], raw=True)
        b = build_bundle(sys, 6)
        assert not b.G[0]
        assert b.q[0] == MSeries.variable(1, 6, 0)
        assert b.zofq[0] == MSeries.variable(1, 6, 0)
        assert check_factorization(b)

    def test_failure_is_reported_with_location(self):
        b = build_bundle(CUBIC_2D, 4)
        broken = dict(b.qL)
        key = next(iter(sorted(broken)))
        broken[key] = broken[key] + MSeries(2, 4, {(1, 1): Fraction(1, 2)})
        b.qL = broken
        res = check_factorization(b)
        assert not res
        assert res.coordinate in (1, 2)
        assert res.exponent is not None


class TestScan:
    def test_exp_z_first_violation(self):
        rep = integrality_scan(MSeries.variable(1, 6, 0).exp())
        assert not rep.ok
        assert rep.violations[0].exponent == (2,)
        assert rep.violations[0].coefficient == Fraction(1, 2)

    def test_integer_polynomial_clean(self):
        s = MSeries(2, 4, {(1, 0): 3, (0, 2): -7})
        assert integrality_scan(s).ok
        assert integrality_scan(s, 5).ok

    def test_split_system_padic_violation(self):
        # regression fixture: first failure is 9/2 at exponent (2, 0) for p = 2
        b = build_bundle(CUBIC_SPLIT, 10)
        rep = integrality_scan(b.q[0], 2)
        assert not rep.ok
        first = rep.violations[0]
        assert first.exponent == (2, 0)
        assert first.coefficient == Fraction(9, 2)
        assert first.valuation == -1

    def test_limit_respected(self):
        s = MSeries(1, 30, {(k,): Fraction(1, 2) for k in range(1, 31)})
        rep = integrality_scan(s, 2, limit=20)
        assert rep.total == 30
        assert len(rep.violations) == 20

    @settings(max_examples=150, deadline=None)
    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.fractions(max_denominator=5**6).filter(bool),
            max_size=25,
        ),
        p=st.sampled_from([None, 2, 3, 5, 7]),
        limit=st.integers(0, 30),
    )
    def test_denominators_decide_like_valuations(self, terms, p, limit):
        s = MSeries(2, 10, terms)
        rep = integrality_scan(s, p, limit)
        # the oracle: every coefficient in exponent order, valuations taken whole
        bad = [
            (v, c, None if p is None else vp_of_rational(c, p))
            for v, c in s.items()
            if (c.denominator != 1 if p is None else vp_of_rational(c, p) < 0)
        ]
        assert rep.total == len(bad) and rep.ok == (not bad)
        assert rep.prime == p and rep.limit == limit
        assert [(x.exponent, x.coefficient, x.valuation) for x in rep.violations] == bad[:limit]

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
    def test_composite_prime_rejected(self, p):
        for s in (MSeries.zero(1, 4), MSeries(1, 4, {(1,): Fraction(1, 6)})):
            with pytest.raises(ValueError):
                integrality_scan(s, p)

    def test_integrality_equivalence_directions(self):
        # all q integral <=> all mirror maps integral, on both dichotomy branches
        for sys, order in ((CUBIC_2D, 6), (CENTRAL_BINOMIAL, 10), (CUBIC_SPLIT, 10)):
            b = build_bundle(sys, order)
            q_side = all(integrality_scan(s).ok for s in b.q)
            z_side = all(integrality_scan(s).ok for s in b.zofq)
            assert q_side == z_side
