"""Theta operators and the bundled catalog case."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from mirrorint import mirror, operators
from mirrorint.forms import harmonic
from mirrorint.landau import Tag, classify, delta_at, in_jump_region
from mirrorint.mirror import build_Gk, exponents_upto
from mirrorint.operators import (
    CaseRecord,
    ThetaOperator,
    case30_coefficient,
    case30_operator,
    case30_record,
    poly_from_factors,
    verify_annihilation,
)
from mirrorint.series import LogSeries, MSeries
from mirrorint.systems import CASE30

from test_mirror import count_the_pass
from test_series import log_add


def case30_log_coefficient(n: int) -> Fraction:
    """Coefficient of the log companion in closed form: the same binomial
    sum weighted by 4 H(4n) - 2 H(n) - 2 H(2n) + 4 H(2(n-k)) - 4 H(n-k)."""
    head = Fraction(
        math.factorial(4 * n), math.factorial(n) ** 2 * math.factorial(2 * n)
    )
    tail = Fraction(0)
    for k in range(n + 1):
        weight = (
            4 * harmonic(4 * n)
            - 2 * harmonic(n)
            - 2 * harmonic(2 * n)
            + 4 * harmonic(2 * (n - k))
            - 4 * harmonic(n - k)
        )
        tail += 4**k * math.comb(2 * (n - k), n - k) ** 2 * math.comb(2 * k, k) * weight
    return head * tail


def poly_eval(coeffs, x):
    return sum(c * x**j for j, c in enumerate(coeffs))


class TestOperatorConstruction:
    def test_factor_expansion_matches_pointwise_products(self):
        poly = poly_from_factors(-16, [(1, 4), (3, 4), (3, 8, 8)])
        for x in range(-3, 6):
            direct = -16 * (4 * x + 1) * (4 * x + 3) * (8 * x * x + 8 * x + 3)
            assert poly_eval(poly, x) == direct

    def test_case30_polynomials(self):
        op = case30_operator()
        assert op.z_degree == 2
        assert poly_eval(op.polys[0], 1) == 1  # theta^4 at 1
        assert poly_eval(op.polys[1], 0) == -16 * 1 * 3 * 3
        assert poly_eval(op.polys[2], 0) == 4096 * 1 * 3 * 5 * 7

    def test_record_json_round_trip(self):
        rec = case30_record()
        again = CaseRecord.from_dict(rec.to_dict())
        assert again == rec


class TestApplyOperator:
    def test_theta_on_power(self):
        op = ThetaOperator(((0, 1),))
        s = LogSeries.pure(MSeries(1, 5, {(3,): 1}))
        out = op(s)
        assert out.regular == MSeries(1, 5, {(3,): 3})

    def test_theta_squared_on_log(self):
        op = ThetaOperator(((0, 0, 1),))
        s = LogSeries(MSeries.zero(1, 5), MSeries.one(1, 5))
        assert op(s).is_zero()

    def test_theta_kills_constants(self):
        op = ThetaOperator(((0, 1),))
        assert op(LogSeries.pure(MSeries.one(1, 4))).is_zero()

    def test_case30_on_plain_variable(self):
        out = case30_operator()(LogSeries.pure(MSeries.variable(1, 8, 0)))
        assert out.regular.coeff((1,)) == 1  # theta^4 z = z; z P_1(theta) adds z^2 up
        assert not out.logpart

    def test_linearity(self):
        op = case30_operator()
        a = LogSeries(MSeries(1, 8, {(1,): 2}), MSeries(1, 8, {(2,): 1}))
        b = LogSeries(MSeries(1, 8, {(3,): -5}), MSeries(1, 8, {(0,): 1}))
        lhs = log_add(op(a), op(b))
        rhs = op(log_add(a, b))
        assert lhs.regular == rhs.regular and lhs.logpart == rhs.logpart


@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    n=st.integers(0, 6),
)
def test_theta_polynomial_scales_monomials(coeffs, n):
    op = ThetaOperator((tuple(coeffs),))
    out = op(LogSeries.pure(MSeries(1, 6, {(n,): 1})))
    value = sum(c * n**j for j, c in enumerate(coeffs))
    assert out.regular.coeff((n,)) == value
    assert len(out.regular) <= 1 and not out.logpart


class TestCase30:
    def test_closed_form_first_values(self):
        assert case30_coefficient(0) == 1
        assert case30_coefficient(1) == 144

    def test_verification_passes(self):
        rep = verify_annihilation(case30_record(), 10)
        assert rep.ok
        assert [c.name for c in rep.checks] == [
            "closed-form",
            "annihilates-series",
            "annihilates-log-companion",
            "q-parameter-integral",
        ]

    def test_verification_takes_each_factorial_ratio_once(self, monkeypatch):
        # one coefficient pass per verification, visiting each exponent once
        calls, seen = count_the_pass(monkeypatch, mirror, operators)
        assert verify_annihilation(case30_record(), 8).ok
        assert calls == [(CASE30, 8)]
        assert seen == list(exponents_upto(2, 8))

    def test_log_companion_closed_form_matches_construction(self):
        rec = case30_record()
        G_spec = build_Gk(rec.system, 1, 8).specialize(rec.M, rec.Nexp)
        for n in range(9):
            assert G_spec.coeff((n,)) == case30_log_coefficient(n)

    def test_landau_dichotomy(self):
        assert classify(CASE30).tag is Tag.CASE_I

    def test_region_samples(self):
        sys = CASE30
        assert not in_jump_region(sys, (0, 0))
        x = (Fraction(1, 4), Fraction(1, 4))
        assert in_jump_region(sys, x)
        # floor(4x+4y) + 2 floor(2x) + floor(2y) - floor(2x+2y) - 2 floor(x+y)
        # = 2 + 0 + 0 - 1 - 0
        assert delta_at(sys, x) == 1

    def test_mismatching_closed_form_is_caught(self):
        rec = case30_record()
        broken = CaseRecord(
            name="broken",
            operator=rec.operator,
            system=rec.system,
            M=(1, 5),  # wrong multiplier
            Nexp=rec.Nexp,
            k=rec.k,
            closed_form=rec.closed_form,
        )
        rep = verify_annihilation(broken, 6)
        assert not rep.ok
        failed = {c.name for c in rep.checks if not c.passed}
        assert "closed-form" in failed

    def test_wrong_operator_is_caught(self):
        rec = case30_record()
        broken = CaseRecord(
            name="broken-op",
            operator=ThetaOperator(((0, 1),)),  # plain theta does not kill F
            system=rec.system,
            M=rec.M,
            Nexp=rec.Nexp,
            k=rec.k,
            closed_form=rec.closed_form,
        )
        rep = verify_annihilation(broken, 6)
        failed = {c.name for c in rep.checks if not c.passed}
        assert "annihilates-series" in failed
