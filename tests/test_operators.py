"""Theta operators and the bundled catalog case.

``theta`` and ``oracle_theta_operator`` are the direct algorithm: theta
powers of a pair of series (A, B), standing for A + B log z, each P_i(theta)
shifted by z^i through a series product.  The property test checks the
operator's action on coefficient lists against it.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorint import kronecker
from mirrorint.forms import harmonic
from mirrorint.landau import Tag, classify, delta_at, in_jump_region
from mirrorint.mirror import build_Gk
from mirrorint.operators import (
    CaseRecord,
    ThetaOperator,
    case30_coefficient,
    case30_operator,
    case30_record,
    poly_from_factors,
    verify_annihilation,
)
from mirrorint.series import MSeries
from mirrorint.systems import CASE30

from test_mirror import count_the_pass


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


def series(coeffs):
    """The univariate series at order len(coeffs) - 1 with these coefficients."""
    return MSeries(1, len(coeffs) - 1, {(n,): c for n, c in enumerate(coeffs)})


def theta(s):
    """Apply theta = z d/dz to a univariate MSeries or to a pair (A, B).

    On monomials theta(z^n) = n z^n; on the pair, standing for A + B log z,
    the product rule gives theta(A + B log z) = (theta A + B) + (theta B) log z.
    """
    if isinstance(s, tuple):
        a, b = s
        return theta(a) + b, theta(b)
    if s.d != 1:
        raise ValueError("theta acts on univariate series")
    return MSeries(1, s.order, {v: v[0] * c for v, c in s.items()})


def oracle_theta_operator(polys, a, b):
    """sum_i z^i P_i(theta) on the pair (A, B) from theta powers of it, each
    P_i(theta)(A, B) shifted by z^i through a series product, then
    truncated by the z-degree."""
    v, order = len(polys) - 1, a.order
    if order < v:
        raise ValueError("series order too small for this operator")
    powers = [(a, b)]
    for _ in range(max(len(p) for p in polys) - 1):
        powers.append(theta(powers[-1]))
    zero = MSeries.zero(1, order)
    z = MSeries.variable(1, order, 0)
    regular, logpart = zero, zero
    for i, p in enumerate(polys):
        for c, (pa, pb) in zip(p, powers):
            regular += z**i * pa * c
            logpart += z**i * pb * c
    return regular.truncate(order - v), logpart.truncate(order - v)


@st.composite
def operator_inputs(draw):
    """A nonzero operator sum_i z^i P_i (some P_i zero or constant, z-degree
    up to the order) and the coefficient lists of A and B, all ints or all
    Fractions, B sometimes empty."""
    order = draw(st.integers(0, 7))
    poly = st.one_of(
        st.just(()),
        st.lists(st.just(0), min_size=1, max_size=3),
        st.lists(st.integers(-9, 9), min_size=1, max_size=1),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    )
    nonzero = st.lists(poly, min_size=1, max_size=order + 1).filter(lambda ps: any(map(any, ps)))
    op = ThetaOperator(tuple(map(tuple, draw(nonzero))))
    entry = draw(st.sampled_from([st.integers(-99, 99), st.fractions(max_denominator=30)]))
    coeffs = st.lists(entry, min_size=order + 1, max_size=order + 1)
    return op, draw(coeffs), draw(st.one_of(st.just([]), coeffs))


@settings(max_examples=250, deadline=None)
@given(operator_inputs())
@example((ThetaOperator(((1, 2, 3),) * 7), [Fraction(1, 3), 0, 0, 0, 0, 0, 2], []))
@example((ThetaOperator(((), (0, 0), (5,))), [1, 2, 3], [4, 5, 6]))
@example((ThetaOperator(((2,),)), [0], [1]))
def test_theta_operator_matches_the_theta_power_oracle(case):
    op, a, b = case
    r, l = op(a, b)
    want = oracle_theta_operator(op.polys, series(a), series(b or [0] * len(a)))
    assert len(r) == len(l) == len(a) - op.z_degree
    assert (series(r), series(l)) == want
    if all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in r + l)


class TestThetaOps:
    def test_theta_on_monomial(self):
        s = MSeries(1, 5, {(3,): 2})
        assert theta(s) == MSeries(1, 5, {(3,): 6})

    def test_theta_product_rule_with_log(self):
        N = 5
        s = MSeries.zero(1, N), MSeries(1, N, {(2,): 1})  # z^2 log z
        assert theta(s) == (MSeries(1, N, {(2,): 1}), MSeries(1, N, {(2,): 2}))

    def test_theta_squared_kills_log(self):
        zero = MSeries.zero(1, 4)
        assert theta(theta((zero, MSeries.one(1, 4)))) == (zero, zero)  # log z

    def test_theta_is_derivation_on_pure_series(self):
        N = 6
        a = MSeries(1, N, {(1,): 2, (3,): -1})
        b = MSeries(1, N, {(0,): 1, (2,): 5})
        assert theta(a * b) == theta(a) * b + a * theta(b)

    def test_apply_poly_matches_scalar_evaluation(self):
        # P(theta) z^n = P(n) z^n
        poly = (3, -2, 1, 4)
        N = 6
        for n in range(N + 1):
            r, l = ThetaOperator((poly,))([int(m == n) for m in range(N + 1)])
            val = sum(c * n**j for j, c in enumerate(poly))
            assert r == [val * (m == n) for m in range(N + 1)]
            assert l == [0] * (N + 1)

    def test_apply_poly_truncates_by_z_degree(self):
        r, l = ThetaOperator(((0, 1), (1,), (1,)))([1] * 7)
        assert len(r) == len(l) == 5

    def test_linearity(self):
        op = ThetaOperator(((0, 0, 1), (1, 2)))
        a = ([0, 1, 0, 0, 0, 0, 0], [0, 0, 3, 0, 0, 0, 0])
        b = ([2, 0, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0, 0])
        total = [[x + y for x, y in zip(*parts)] for parts in zip(a, b)]
        lhs = [[x + y for x, y in zip(*parts)] for parts in zip(op(*a), op(*b))]
        assert lhs == list(op(*total))


class TestApplyOperator:
    def test_theta_on_power(self):
        r, l = ThetaOperator(((0, 1),))([0, 0, 0, 1, 0, 0])
        assert r == [0, 0, 0, 3, 0, 0] and l == [0] * 6

    def test_theta_squared_on_log(self):
        r, l = ThetaOperator(((0, 0, 1),))([0] * 6, [1, 0, 0, 0, 0, 0])
        assert r == l == [0] * 6

    def test_theta_kills_constants(self):
        r, l = ThetaOperator(((0, 1),))([1, 0, 0, 0, 0])
        assert r == l == [0] * 5

    def test_case30_on_plain_variable(self):
        r, l = case30_operator()([0, 1, 0, 0, 0, 0, 0, 0, 0])
        assert r[1] == 1  # theta^4 z = z; z P_1(theta) adds z^2 up
        assert l == [0] * 7

    def test_linearity(self):
        op = case30_operator()
        a = ([0, 2, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0])
        b = ([0, 0, 0, -5, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0, 0])
        total = [[x + y for x, y in zip(*parts)] for parts in zip(a, b)]
        lhs = [[x + y for x, y in zip(*parts)] for parts in zip(op(*a), op(*b))]
        assert lhs == list(op(*total))

    def test_order_below_z_degree_raises(self):
        with pytest.raises(ValueError):
            case30_operator()([1, 144])
        with pytest.raises(ValueError):
            ThetaOperator(((0, 1),))([])
        with pytest.raises(ValueError):
            verify_annihilation(case30_record(), 1)

    def test_log_part_of_another_order_raises(self):
        with pytest.raises(ValueError):
            ThetaOperator(((0, 1),))([1, 2, 3], [1, 2])

    @pytest.mark.parametrize("polys", [[[0]], [[]], [[], [0, 0]]])
    def test_zero_operator_is_rejected(self, polys):
        # the zero operator kills every series, so it would certify nothing
        with pytest.raises(ValueError):
            ThetaOperator(tuple(map(tuple, polys)))
        with pytest.raises(ValueError):
            CaseRecord.from_dict({**case30_record().to_dict(), "theta_op": polys})


@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
    n=st.integers(0, 6),
)
def test_theta_polynomial_scales_monomials(coeffs, n):
    r, l = ThetaOperator((tuple(coeffs),))([int(m == n) for m in range(7)])
    value = sum(c * n**j for j, c in enumerate(coeffs))
    assert r == [value * (m == n) for m in range(7)]
    assert l == [0] * 7


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
        calls, seen = count_the_pass(monkeypatch)
        assert verify_annihilation(case30_record(), 8).ok
        assert calls == [(CASE30, 8)]
        assert seen == list(kronecker.grading(2, 8).key)

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
        # theta F = 144 t + ... and theta(G + F log t) = F + ... at t^0: each
        # failure names its first nonzero order, not the last order checked
        details = {c.name: c.detail for c in rep.checks}
        assert details["annihilates-series"] == "first nonzero at order 1"
        assert details["annihilates-log-companion"] == "first nonzero at order 0"
        # one report line per check, as `mirrorint case` prints it
        assert rep.lines()[:2] == [
            {"case": "broken-op", "order": 6, "check": "closed-form", "pass": True},
            {"case": "broken-op", "order": 6, "check": "annihilates-series", "pass": False,
             "detail": "first nonzero at order 1"},
        ]
