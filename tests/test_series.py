"""Truncated multivariate series: ring ops, exp/log, substitution, inversion.

The per-monomial ``oracle_compose`` and the degree-by-degree fixed point
``oracle_invert_diagonal`` are the slow, direct algorithms; the property
tests check the grouped composition and the Newton inversion against them.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mirrorint import series
from mirrorint.series import (
    LogSeries,
    MSeries,
    apply_theta_poly,
    compose,
    invert_diagonal,
    theta,
)


def oracle_compose(a, subs):
    """compose() one monomial at a time, each a product of cached powers."""
    if len(subs) != a.d:
        raise ValueError("one substituent per variable is required")
    first = subs[0]
    for s in subs:
        if s.d != first.d or s.order != first.order:
            raise ValueError("substituents must share dimension and order")
        if s.constant_term != 0:
            raise ValueError("substituents must have zero constant term")
    out_d, order = first.d, first.order
    one = MSeries.one(out_d, order)
    powers = [[one] for _ in range(a.d)]

    def power(i, e):
        col = powers[i]
        while len(col) <= e:
            col.append(col[-1] * subs[i])
        return col[e]

    acc = MSeries.zero(out_d, order)
    for v, c in a.items():
        if sum(v) > order:
            continue
        term = MSeries.constant(out_d, order, c)
        for i, e in enumerate(v):
            if e:
                term = term * power(i, e)
        acc = acc + term
    return acc


def oracle_invert_diagonal(qs):
    """invert_diagonal() by the fixed point z_k <- q_k / unit_k(z), one
    degree per round; needs order >= 1 (it reads the unit's constant term)."""
    d = len(qs)
    order = qs[0].order
    units = []
    for k, q in enumerate(qs):
        shifted = {}
        for v, c in q._terms.items():
            assert v[k] >= 1
            shifted[tuple(e - (1 if i == k else 0) for i, e in enumerate(v))] = c
        u = MSeries(d, order, shifted)
        assert u.constant_term == 1
        units.append(u)
    zq = [MSeries.variable(d, order, k) for k in range(d)]
    for _ in range(order + 1):
        new = [
            MSeries.variable(d, order, k) * oracle_compose(units[k], zq).reciprocal()
            for k in range(d)
        ]
        if new == zq:
            break
        zq = new
    return zq


def series_1d(coeffs, order=None):
    order = order if order is not None else len(coeffs) - 1
    return MSeries(1, order, {(i,): c for i, c in enumerate(coeffs)})


class TestRingOps:
    def test_product_of_binomials(self):
        N = 4
        a = MSeries.one(2, N) + MSeries.variable(2, N, 0)
        b = MSeries.one(2, N) + MSeries.variable(2, N, 1)
        prod = a * b
        assert prod == MSeries(2, N, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_multiplication_by_zero(self):
        a = MSeries(2, 3, {(1, 0): 5, (0, 2): Fraction(1, 3)})
        assert a * MSeries.zero(2, 3) == MSeries.zero(2, 3)

    def test_geometric_cancellation(self):
        N = 7
        one_plus = series_1d([1, 1], N)
        geo = MSeries(1, N, {(k,): (-1) ** k for k in range(N + 1)})
        assert one_plus * geo == MSeries.one(1, N)

    def test_incompatible_orders_rejected(self):
        with pytest.raises(ValueError):
            MSeries.one(1, 3) + MSeries.one(1, 4)
        with pytest.raises(ValueError):
            MSeries.one(1, 3) * MSeries.one(2, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            MSeries(1, 2, {(1,): 0.5})

    def test_truncation_drops_high_degrees(self):
        a = MSeries(1, 5, {(k,): 1 for k in range(6)})
        assert len(a.truncate(2)) == 3


class TestUnitOps:
    def test_exp_log_inverse_pair(self):
        z1 = MSeries.variable(2, 5, 0)
        assert (MSeries.one(2, 5) + z1).log().exp() == MSeries.one(2, 5) + z1

    def test_exp_zero(self):
        assert MSeries.zero(2, 4).exp() == MSeries.one(2, 4)

    def test_exp_of_z(self):
        got = MSeries.variable(1, 4, 0).exp()
        assert got == series_1d([1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)])

    def test_reciprocal_times_self(self):
        N = 8
        u = MSeries(2, N, {(0, 0): 1, (1, 0): 2, (0, 1): Fraction(-1, 3), (1, 1): 7})
        assert u * u.reciprocal() == MSeries.one(2, N)

    def test_preconditions(self):
        z = MSeries.variable(1, 3, 0)
        with pytest.raises(ValueError):
            z.reciprocal()
        with pytest.raises(ValueError):
            z.log()
        with pytest.raises(ValueError):
            (MSeries.one(1, 3) + z).exp()

    def test_negative_power_uses_reciprocal(self):
        N = 6
        u = series_1d([1, 1], N)
        assert u ** -2 == (u * u).reciprocal()


class TestSubstitutions:
    def test_pth_power_coordinates(self):
        a = MSeries(2, 4, {(1, 0): 1, (0, 1): 1})
        assert a.substitute_pth_power(2) == MSeries(2, 4, {(2, 0): 1, (0, 2): 1})

    def test_pth_power_constant(self):
        assert MSeries.one(2, 4).substitute_pth_power(3) == MSeries.one(2, 4)

    def test_pth_power_truncates(self):
        a = series_1d([1, 6], 5)
        assert a.substitute_pth_power(3) == MSeries(1, 5, {(0,): 1, (3,): 6})
        assert a.substitute_pth_power(7) == MSeries.one(1, 5)

    def test_specialize_monomial(self):
        a = MSeries(2, 4, {(1, 1): 1})
        assert a.specialize([1, 4], [1, 1]) == MSeries(1, 4, {(2,): 4})

    def test_specialize_is_ring_homomorphism(self):
        N = 6
        a = MSeries(2, N, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 1): Fraction(1, 2)})
        b = MSeries(2, N, {(0, 0): 1, (1, 1): -1, (0, 2): 5})
        M, E = [2, -1], [1, 2]
        lhs = (a * b).specialize(M, E)
        rhs = a.specialize(M, E) * b.specialize(M, E)
        assert lhs == rhs

    def test_specialize_diagonal_collapse_matches_convolution(self):
        # with all multipliers and exponents 1 the coefficient at t^n is
        # the plain sum of coefficients on the diagonal |v| = n
        N = 5
        a = MSeries(
            2, N, {(i, j): Fraction(3 * i - j, i + j + 1) for i in range(N) for j in range(N - i)}
        )
        collapsed = a.specialize([1, 1], [1, 1])
        for n in range(N + 1):
            direct = sum(a.coeff((i, n - i)) for i in range(n + 1))
            assert collapsed.coeff((n,)) == direct

    def test_specialize_validation(self):
        a = MSeries.one(2, 3)
        with pytest.raises(ValueError):
            a.specialize([1], [1, 1])
        with pytest.raises(ValueError):
            a.specialize([0, 1], [1, 1])
        with pytest.raises(ValueError):
            a.specialize([1, 1], [0, 1])


class TestInversion:
    def test_identity_map(self):
        N = 5
        qs = [MSeries.variable(2, N, k) for k in range(2)]
        assert invert_diagonal(qs) == qs

    def test_z_exp_z_lagrange_coefficients(self):
        # compositional inverse of z e^z; Lagrange gives (-n)^(n-1)/n!
        N = 8
        z = MSeries.variable(1, N, 0)
        inv = invert_diagonal([z * z.exp()])[0]
        for n in range(1, N + 1):
            assert inv.coeff((n,)) == Fraction((-n) ** (n - 1), math.factorial(n))

    def test_two_variable_triangular_map(self):
        N = 6
        z1 = MSeries.variable(2, N, 0)
        z2 = MSeries.variable(2, N, 1)
        q = [z1, z2 * (MSeries.one(2, N) + z1)]
        inv = invert_diagonal(q)
        assert inv[0] == z1
        # z2(q) = q2 / (1 + q1) expanded
        expected = z2 * (MSeries.one(2, N) + z1).reciprocal()
        assert inv[1] == expected
        for k, component in enumerate(q):
            assert compose(component, inv) == MSeries.variable(2, N, k)

    def test_round_trip_both_ways(self):
        N = 7
        z = MSeries.variable(1, N, 0)
        q = z * (MSeries.one(1, N) + z + 3 * z * z)
        inv = invert_diagonal([q])
        assert compose(q, inv) == z  # q(z(q)) = q as a series in q
        assert compose(inv[0], [q]) == z  # z(q(z)) = z

    def test_three_variable_map_round_trip(self):
        N = 5
        z = [MSeries.variable(3, N, k) for k in range(3)]
        one = MSeries.one(3, N)
        q = [
            z[0] * (one + z[1] * z[2]),
            z[1] * (one + Fraction(1, 2) * z[0] - z[2] * z[2]),
            z[2] * (z[0] + z[1]).exp(),
        ]
        inv = invert_diagonal(q)
        assert inv == oracle_invert_diagonal(q)
        for k in range(3):
            assert compose(q[k], inv) == z[k]
            assert compose(inv[k], q) == z[k]

    def test_order_zero_and_one(self):
        # at order 0 the map and its inverse are zero series; at order 1
        # both are the identity
        for d in (1, 2):
            assert invert_diagonal([MSeries.zero(d, 0)] * d) == [MSeries.zero(d, 0)] * d
            ident = [MSeries.variable(d, 1, k) for k in range(d)]
            assert invert_diagonal(ident) == ident
        with pytest.raises(ValueError):
            invert_diagonal([MSeries.one(1, 0)])

    def test_failed_final_check_raises(self, monkeypatch):
        # a Newton step that never corrects leaves q(z) != w; the final
        # check must refuse to return it
        def no_correction(qs, zs, n, m):
            return [z.truncate(m) for z in zs]

        monkeypatch.setattr(series, "_newton_step", no_correction)
        z = MSeries.variable(1, 4, 0)
        with pytest.raises(ArithmeticError):
            invert_diagonal([z * z.exp()])

    def test_compose_validation(self):
        z = MSeries.variable(2, 3, 0)
        a = MSeries(2, 3, {(1, 1): 1})
        with pytest.raises(ValueError):
            compose(a, [z])
        with pytest.raises(ValueError):
            compose(a, [z, MSeries.variable(2, 4, 1)])
        with pytest.raises(ValueError):
            compose(a, [z, z + 1])

    def test_wrong_shape_rejected(self):
        N = 4
        with pytest.raises(ValueError):
            invert_diagonal([MSeries.one(1, N)])
        z = MSeries.variable(1, N, 0)
        with pytest.raises(ValueError):
            invert_diagonal([2 * z])


class TestThetaOps:
    def test_theta_on_monomial(self):
        s = MSeries(1, 5, {(3,): 2})
        assert theta(s) == MSeries(1, 5, {(3,): 6})

    def test_theta_product_rule_with_log(self):
        N = 5
        s = LogSeries(MSeries.zero(1, N), MSeries(1, N, {(2,): 1}))  # z^2 log z
        t = theta(s)
        assert t.regular == MSeries(1, N, {(2,): 1})
        assert t.logpart == MSeries(1, N, {(2,): 2})

    def test_theta_squared_kills_log(self):
        s = LogSeries(MSeries.zero(1, 4), MSeries.one(1, 4))  # log z
        assert theta(theta(s)).is_zero()

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
            s = LogSeries.pure(MSeries(1, N, {(n,): 1}))
            out = apply_theta_poly([poly], s)
            val = sum(c * n**j for j, c in enumerate(poly))
            assert out.regular == MSeries(1, N, {(n,): val} if val else {})
            assert not out.logpart

    def test_apply_poly_truncates_by_z_degree(self):
        s = LogSeries.pure(MSeries.one(1, 6))
        out = apply_theta_poly([(0, 1), (1,), (1,)], s)
        assert out.order == 4

    def test_linearity(self):
        N = 6
        polys = [(0, 0, 1), (1, 2)]
        a = LogSeries(MSeries(1, N, {(1,): 1}), MSeries(1, N, {(2,): 3}))
        b = LogSeries(MSeries(1, N, {(0,): 2}), MSeries(1, N, {(1,): -1}))
        lhs = apply_theta_poly(polys, a) + apply_theta_poly(polys, b)
        rhs = apply_theta_poly(polys, a + b)
        assert lhs.regular == rhs.regular and lhs.logpart == rhs.logpart


class TestSerialization:
    def test_round_trip(self):
        s = MSeries(2, 5, {(1, 0): Fraction(-3, 7), (0, 5): 11})
        assert MSeries.from_dict(s.to_dict()) == s

    def test_canonical_order_and_strings(self):
        s = MSeries(2, 3, {(1, 0): 2, (0, 1): Fraction(1, 3)})
        data = s.to_dict()
        assert data["terms"] == [
            {"exp": [0, 1], "num": "1", "den": "3"},
            {"exp": [1, 0], "num": "2", "den": "1"},
        ]
        # deterministic bytes
        assert json.dumps(data) == json.dumps(MSeries.from_dict(data).to_dict())


@st.composite
def small_series(draw, d=2, order=4):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        v = tuple(draw(st.integers(0, order)) for _ in range(d))
        if sum(v) <= order:
            terms[v] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return MSeries(d, order, terms)


@settings(max_examples=60)
@given(a=small_series(), b=small_series(), c=small_series())
def test_ring_axioms_random(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=40)
@given(a=small_series())
def test_exp_log_round_trip_random(a):
    a = a - MSeries.constant(2, a.order, a.constant_term)  # force zero constant
    assert a.exp().log() == a


@settings(max_examples=40)
@given(a=small_series())
def test_reciprocal_random(a):
    u = a - MSeries.constant(2, a.order, a.constant_term) + MSeries.one(2, a.order)
    assert u * u.reciprocal() == MSeries.one(2, a.order)


def fractions_nonintegral():
    return st.builds(
        Fraction, st.integers(-20, 20).filter(bool), st.integers(2, 9)
    ).filter(lambda c: c.denominator != 1)


@st.composite
def sparse_series(draw, d, order, min_degree=0, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        v = tuple(draw(st.integers(0, order)) for _ in range(d))
        if min_degree <= sum(v) <= order:
            terms[v] = draw(fractions_nonintegral())
    return MSeries(d, order, terms)


@st.composite
def diagonal_unit_maps(draw):
    """q_k = z_k * (1 + sparse terms), d = 1, 2, 3, orders 0-8."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    qs = []
    for k in range(d):
        rest = draw(sparse_series(d, order, min_degree=1))
        qs.append(MSeries.variable(d, order, k) * (MSeries.one(d, order) + rest))
    return qs


@settings(max_examples=40, deadline=None)
@given(qs=diagonal_unit_maps())
def test_newton_inversion_matches_fixed_point(qs):
    d, order = qs[0].d, qs[0].order
    got = invert_diagonal(qs)
    if order == 0:
        assert got == [MSeries.zero(d, 0)] * d
    else:
        assert got == oracle_invert_diagonal(qs)


@st.composite
def compositions(draw):
    d = draw(st.integers(1, 3))
    out_d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    a = draw(sparse_series(d, order, max_terms=6))
    subs = [draw(sparse_series(out_d, order, min_degree=1)) for _ in range(d)]
    return a, subs


@settings(max_examples=60, deadline=None)
@given(case=compositions())
def test_grouped_compose_matches_per_monomial(case):
    a, subs = case
    assert compose(a, subs) == oracle_compose(a, subs)
