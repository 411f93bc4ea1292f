"""Truncated multivariate series: ring ops, exp/log, substitution, inversion.

The per-monomial ``oracle_compose`` and the degree-by-degree fixed point
``oracle_invert_diagonal`` are the slow, direct algorithms; the property
tests check the grouped composition and the Newton inversion against them.
Likewise ``oracle_mul`` (every pair of terms, with a degree test per pair)
and the Fraction recursions ``oracle_reciprocal``, ``oracle_exp`` and
``oracle_log`` check the integer kernel (``mirrorint.kronecker``): its
Kronecker products and its integer graded recursions.  ``oracle_scaled``
keeps the recursion on slices scaled by D^k (k! D^k for exp) that the unit
operations ran before they kept lowest terms, as a second oracle.
"""

import contextlib
import copy
import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorint import kronecker, series
from mirrorint.mirror import build_F, build_Gk
from mirrorint.series import MSeries, compose, invert_diagonal
from mirrorint.systems import CENTRAL_BINOMIAL


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


def oracle_mul(a, b):
    """a * b over every pair of terms, dropping pairs past the order."""
    data = {}
    for va, ca in a._terms.items():
        for vb, cb in b._terms.items():
            if sum(va) + sum(vb) <= a.order:
                v = tuple(x + y for x, y in zip(va, vb))
                data[v] = data.get(v, 0) + ca * cb
    return MSeries(a.d, a.order, data)


def _oracle_slices(a):
    out = [{} for _ in range(a.order + 1)]
    for v, c in a._terms.items():
        out[sum(v)][v] = c
    return out


def _oracle_conv(acc, xs, ys, weight):
    for va, ca in xs.items():
        for vb, cb in ys.items():
            v = tuple(x + y for x, y in zip(va, vb))
            acc[v] = acc.get(v, 0) + weight * ca * cb


def _oracle_merge(a, slices):
    return MSeries(a.d, a.order, {v: c for sl in slices for v, c in sl.items()})


def oracle_reciprocal(a):
    """r_k = -sum_(j=1..k) a_j r_(k-j), degree by degree."""
    u = _oracle_slices(a)
    r = [{(0,) * a.d: Fraction(1)}]
    for k in range(1, a.order + 1):
        acc = {}
        for j in range(1, k + 1):
            _oracle_conv(acc, u[j], r[k - j], -1)
        r.append(acc)
    return _oracle_merge(a, r)


def oracle_exp(a):
    """e_k = (1/k) sum_(j=1..k) j a_j e_(k-j), degree by degree."""
    u = _oracle_slices(a)
    e = [{(0,) * a.d: Fraction(1)}]
    for k in range(1, a.order + 1):
        acc = {}
        for j in range(1, k + 1):
            _oracle_conv(acc, u[j], e[k - j], j)
        e.append({v: c / k for v, c in acc.items()})
    return _oracle_merge(a, e)


def oracle_log(a):
    """l_k = (1/k) (k a_k - sum_(j=1..k-1) j l_j a_(k-j)), degree by degree."""
    u = _oracle_slices(a)
    lg = [{}]
    for k in range(1, a.order + 1):
        acc = {v: k * c for v, c in u[k].items()}
        for j in range(1, k):
            _oracle_conv(acc, lg[j], u[k - j], -j)
        lg.append({v: Fraction(c) / k for v, c in acc.items()})
    return _oracle_merge(a, lg)


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
        for terms in ({(1,): 0.5}, {(5,): 0.5}):  # within the order and past it
            with pytest.raises(TypeError):
                MSeries(1, 2, terms)

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
    @pytest.mark.parametrize("d, order", [(1, 5), (2, 4), (3, 6)])
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_pth_power_is_key_scaling(self, d, order, p):
        # z -> z^p on Kronecker keys, as the Dieudonne-Dwork engine applies it:
        # p key(v) is a key below the truncation exactly when p |v| <= order,
        # and then it is the key of p v; the constant's key 0 stays 0
        g = kronecker.grading(d, order)
        cut = g.top * (order + 1)
        for v, k in g.key.items():
            pv = tuple(p * e for e in v)
            assert (p * k < cut) == (sum(pv) <= order)
            if p * k < cut:
                assert g.key[pv] == p * k

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


class TestSerialization:
    def test_round_trip(self):
        s = MSeries(2, 5, {(1, 0): Fraction(-3, 7), (0, 5): 11})
        assert MSeries.from_dict(json.loads(s.to_bytes())) == s

    def test_canonical_order_and_strings(self):
        s = MSeries(2, 3, {(1, 0): 2, (0, 1): Fraction(1, 3)})
        data = json.loads(s.to_bytes())
        assert data["terms"] == [
            {"exp": [0, 1], "num": "1", "den": "3"},
            {"exp": [1, 0], "num": "2", "den": "1"},
        ]
        # deterministic bytes
        assert MSeries.from_dict(data).to_bytes() == s.to_bytes()


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
# order 5 runs 1 -> 2 -> 4 -> 5, a last step with m < 2n
@example(qs=[MSeries(2, 5, {(1, 0): 1, (1, 1): 3}), MSeries(2, 5, {(0, 1): 1, (1, 1): -2})])
def test_newton_inversion_matches_fixed_point(qs):
    d, order = qs[0].d, qs[0].order
    if order == 0:
        assert invert_diagonal(qs) == [MSeries.zero(d, 0)] * d
        return
    want = oracle_invert_diagonal(qs)
    # every step on its own is exact to its order m
    n, zs = 1, [MSeries.variable(d, 1, k) for k in range(d)]
    while n < order:
        m = min(2 * n, order)
        zs = series._newton_step(qs, zs, n, m)
        assert zs == [z.truncate(m) for z in want], (n, m)
        n = m
    assert invert_diagonal(qs) == want


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


@st.composite
def graded_operands(draw):
    """Two series at d = 1-3 and orders 0-6, with non-integral coefficients."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    a = draw(sparse_series(d, order, max_terms=8))
    b = draw(sparse_series(d, order, max_terms=8))
    return a, b


@settings(max_examples=80, deadline=None)
@given(case=graded_operands())
def test_product_matches_pairwise_oracle(case):
    a, b = case
    assert a * b == oracle_mul(a, b)
    assert a * a == oracle_mul(a, a)


@settings(max_examples=80, deadline=None)
@given(case=graded_operands())
def test_unit_operations_match_weighted_recursions(case):
    a, _ = case
    d, order = a.d, a.order
    # a with its constant term removed: exp's argument, and 1 + that a unit
    nil = a - MSeries.constant(d, order, a.constant_term)
    unit = MSeries.one(d, order) + nil
    assert unit.reciprocal() == oracle_reciprocal(unit)
    assert nil.exp() == oracle_exp(nil)
    assert unit.log() == oracle_log(unit)


def _term(**fields):
    """Set ``fields`` on one term (the first unless told otherwise)."""
    return lambda doc, i=0: doc["terms"][i].update(fields)


# edits of a series document into something to_bytes never writes; the
# per-term ones take the index of the term they change
NOT_WRITTEN_BY_TO_DICT = {
    "float num": _term(num=1.5),
    "int num": _term(num=3),
    "decimal num": _term(num="1.5"),
    "plus sign": _term(num="+3"),
    "leading zero": _term(num="03"),
    "space": _term(num=" 3"),
    "zero num": _term(num="0"),
    "zero den": _term(den="0"),
    "negative den": _term(den="-4"),
    "unreduced": _term(num="6", den="8"),
    "short exp": _term(exp=[1]),
    "bool exp": _term(exp=[1, True]),
    "negative exp": _term(exp=[1, -1]),
    "float exp": _term(exp=[1, 1.0]),
    "tuple exp": _term(exp=(1, 1)),
    "exp past order": _term(exp=[4, 0]),
    "no den": lambda doc, i=0: doc["terms"][i].pop("den"),
    "extra term key": _term(extra=1),
    "repeated exp": lambda doc, i=0: doc["terms"].append(dict(doc["terms"][i])),
    "list term": lambda doc, i=0: doc["terms"].append([[0, 0], "1", "1"]),
    "terms object": lambda doc, i=0: doc.update(terms={}),
    "no terms": lambda doc, i=0: doc.pop("terms"),
    "bool d": lambda doc, i=0: doc.update(d=True),
    "zero d": lambda doc, i=0: doc.update(d=0),
    "string order": lambda doc, i=0: doc.update(order="3"),
    "negative order": lambda doc, i=0: doc.update(order=-1),
    "extra key": lambda doc, i=0: doc.update(extra=None),
    "plus five": _term(num="+5"),
    "leading zero five": _term(num="05"),
    "space five": _term(num=" 5"),
    "underscore num": _term(num="1_0"),
    "minus zero": _term(num="-0"),
    "plus den": _term(den="+5"),
    "leading zero den": _term(den="05"),
    "space den": _term(den=" 5"),
    "underscore den": _term(den="1_0"),
    "comma in num": _term(num="1,3"),
    "comma in den": _term(den="5,7"),
    "trailing newline": _term(num="5\n"),
    "non-ascii digit": _term(num="\u0663"),
    "float in exp": _term(exp=[1.0, 0]),
    "true in exp": _term(exp=[True, 0]),
    "degree above order": _term(exp=[2, 2]),
    "exp past order in one variable": _term(exp=[0, 4]),
    # json.dumps escapes the quotes, so a string cannot close its term and open another
    "num carrying a second term": _term(num='1"},{"den":"1","exp":[0,3],"num":"1'),
}


def document(s):
    """The series document of ``s``, built from its terms in exponent order."""
    terms = [{"exp": list(v), "num": str(c.numerator), "den": str(c.denominator)}
             for v, c in s.items()]
    return {"d": s.d, "order": s.order, "terms": terms}


def oracle_from_dict(data):
    """``MSeries.from_dict`` checked one term at a time, as it once was."""
    if not isinstance(data, dict) or set(data) != {"d", "order", "terms"}:
        raise ValueError("a series is an object with exactly d, order and terms")
    d, order, terms = data["d"], data["order"], data["terms"]
    if type(d) is not int or d < 1 or type(order) is not int or order < 0:
        raise ValueError("d must be a positive and order a nonnegative integer")
    if not isinstance(terms, list):
        raise ValueError("terms must be a list")
    out = {}
    for t in terms:
        if not isinstance(t, dict) or set(t) != {"exp", "num", "den"}:
            raise ValueError(f"a term is an object with exactly exp, num and den: {t!r}")
        exp, num, den = t["exp"], t["num"], t["den"]
        if not (
            isinstance(exp, list)
            and len(exp) == d
            and all(type(e) is int and e >= 0 for e in exp)
            and sum(exp) <= order
        ):
            raise ValueError(f"bad exponent {exp!r} for d={d}, order={order}")
        if not (isinstance(num, str) and re.fullmatch(r"-?[1-9][0-9]*", num)):
            raise ValueError(f"num must be a nonzero decimal integer string: {num!r}")
        if not (isinstance(den, str) and re.fullmatch(r"[1-9][0-9]*", den)):
            raise ValueError(f"den must be a positive decimal integer string: {den!r}")
        v, c = tuple(exp), Fraction(int(num), int(den))
        if c.denominator != int(den):
            raise ValueError(f"{num}/{den} is not reduced")
        if v in out:
            raise ValueError(f"exponent {exp} appears twice")
        out[v] = c
    return MSeries(d, order, out)


@st.composite
def series_documents(draw):
    """A series document, at d in 1..3 and order in 0..4, with any
    coefficients and its terms in any order, possibly after one edit at a
    random term."""
    d, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    exps = [v for v in itertools.product(range(order + 1), repeat=d) if sum(v) <= order]
    chosen = draw(st.lists(st.sampled_from(exps), unique=True, max_size=8))
    coeff = st.fractions(max_denominator=10**30).filter(bool) | st.integers().filter(bool)
    doc = json.loads(MSeries(d, order, {v: draw(coeff) for v in chosen}).to_bytes())
    doc["terms"] = draw(st.permutations(doc["terms"]))
    if chosen:
        name = draw(st.none() | st.sampled_from(sorted(NOT_WRITTEN_BY_TO_DICT)))
        if name is not None:
            NOT_WRITTEN_BY_TO_DICT[name](doc, draw(st.integers(0, len(chosen) - 1)))
    return doc


def _outcome(read, doc):
    """What ``read`` makes of ``doc``: d, order and terms, or "rejected"."""
    try:
        s = read(copy.deepcopy(doc))
    except ValueError:
        return "rejected"
    assert_canonical(s)
    return s.d, s.order, s._terms


@settings(max_examples=400, deadline=None)
@given(doc=series_documents())
def test_bulk_checks_match_the_per_term_oracle(doc):
    assert _outcome(MSeries.from_dict, doc) == _outcome(oracle_from_dict, doc)


@pytest.mark.parametrize("name", sorted(NOT_WRITTEN_BY_TO_DICT))
def test_each_edit_is_rejected_at_every_term(name):
    terms = {(0, 0): 1, (1, 0): Fraction(-3, 4), (0, 1): 5, (1, 1): Fraction(7, 9), (0, 2): 2}
    for i in range(len(terms)):
        doc = json.loads(MSeries(2, 3, terms).to_bytes())
        NOT_WRITTEN_BY_TO_DICT[name](doc, i)
        assert _outcome(oracle_from_dict, doc) == "rejected"
        assert _outcome(MSeries.from_dict, doc) == "rejected"


# -- the cache file format: to_bytes and from_bytes ------------------------------


@st.composite
def byte_series(draw):
    """A series at d in 1..3 and order in 0..6, possibly empty, with
    mixed-sign numerators and denominators up to 10^40."""
    d, order = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    exps = [v for v in itertools.product(range(order + 1), repeat=d) if sum(v) <= order]
    chosen = draw(st.lists(st.sampled_from(exps), unique=True, max_size=10))
    coeff = st.fractions(max_denominator=10**40).filter(bool) | st.integers().filter(bool)
    return MSeries(d, order, {v: draw(coeff) for v in chosen})


# bytes a canonical file holds, and a few it never does
EDIT_BYTES = st.sampled_from(b'0123456789-+,:"[]{}dnx \n') | st.integers(0, 255)


@st.composite
def byte_edits(draw, blob):
    """``blob`` after one or two random inserts, deletions and replacements;
    half of them put a digit for a digit, which can leave a series that the
    reader takes."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(blob)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]) | st.just("digit"))
        if kind == "insert":
            blob.insert(i, draw(EDIT_BYTES))
        elif kind == "delete" and i < len(blob):
            del blob[i]
        elif kind == "replace" and i < len(blob):
            blob[i] = draw(EDIT_BYTES)
        elif kind == "digit" and (digits := [j for j, c in enumerate(blob) if chr(c).isdigit()]):
            blob[draw(st.sampled_from(digits))] = draw(st.sampled_from(b"0123456789"))
    return bytes(blob)


@settings(max_examples=200, deadline=None)
@given(s=byte_series())
def test_to_bytes_writes_the_canonical_json_of_to_dict(s):
    blob = s.to_bytes()
    assert blob == (json.dumps(document(s), separators=(",", ":"), sort_keys=True) + "\n").encode()
    assert series.from_bytes(blob, s.d, s.order).form == s.form
    assert series.from_bytes(blob, s.d, s.order, build=False) is None


@settings(max_examples=400, deadline=None)
@given(data=st.data(), s=byte_series())
def test_from_bytes_accepts_only_what_check_dict_accepts(data, s):
    # the per-term reader is the oracle: an edit the reader takes must be a
    # series document it takes too, and both must read the same series from it
    blob = data.draw(byte_edits(s.to_bytes()))
    try:
        got = series.from_bytes(blob, s.d, s.order)
    except ValueError:
        with pytest.raises(ValueError):
            series.from_bytes(blob, s.d, s.order, build=False)
        return
    assert series.from_bytes(blob, s.d, s.order, build=False) is None
    want = oracle_from_dict(json.loads(blob))
    assert (want.d, want.order) == (s.d, s.order)
    assert got.form == want.form
    assert_canonical(got)


def test_from_bytes_checks_the_shape_before_the_grading(monkeypatch):
    blob = MSeries(2, 3, {(1, 1): 1}).to_bytes().replace(b'"order":3', b'"order":1000000')
    monkeypatch.setattr(kronecker, "grading", None)  # any grading made would raise
    with pytest.raises(ValueError, match="with d=2, order=3"):
        series.from_bytes(blob, 2, 3)


class TestAccessAndSerializationChecks:
    def test_coeff_rejects_an_exponent_of_the_wrong_length(self):
        s = MSeries(2, 3, {(1, 0): 1})
        with pytest.raises(ValueError) as from_init:
            MSeries(2, 3, {(1,): 1})
        with pytest.raises(ValueError) as from_coeff:
            s.coeff((1,))
        assert str(from_coeff.value) == str(from_init.value)
        assert s.coeff((1, 0)) == 1 and s.coeff([0, 1]) == 0

    def test_from_dict_reads_what_to_dict_writes(self):
        s = MSeries(3, 4, {(1, 0, 2): Fraction(-5, 12), (0, 0, 0): 7, (4, 0, 0): Fraction(1, 3)})
        assert MSeries.from_dict(document(s)) == s
        assert MSeries.from_dict(json.loads(s.to_bytes())) == s
        assert MSeries.from_dict(document(MSeries.zero(2, 0))) == MSeries.zero(2, 0)

    @pytest.mark.parametrize("edit", NOT_WRITTEN_BY_TO_DICT.values(), ids=NOT_WRITTEN_BY_TO_DICT)
    def test_from_dict_rejects_anything_else(self, edit):
        doc = document(MSeries(2, 3, {(1, 1): Fraction(-3, 4), (0, 2): 2}))
        edit(doc)
        with pytest.raises(ValueError):
            MSeries.from_dict(doc)

    def test_from_dict_rejects_a_non_object(self):
        for doc in ([], None, "series", 3):
            with pytest.raises(ValueError):
                MSeries.from_dict(doc)


# -- the integer kernel: Kronecker products and integer recursions ----------------

KERNEL_ORDERS = {1: 12, 2: 8, 3: 5}


def assert_canonical(s):
    """The form is in lowest terms on the grading of (d, order), with no zero
    numerator, and every term it shows is an exponent of the right shape and
    a nonzero reduced Fraction."""
    D, ints = s.form
    assert set(ints) <= set(kronecker.grading(s.d, s.order).exp)
    assert all(type(c) is int and c != 0 for c in ints.values())
    assert type(D) is int and D > 0 and math.gcd(D, *ints.values()) == 1
    for v, c in s._terms.items():
        assert type(v) is tuple and len(v) == s.d and sum(v) <= s.order
        assert all(type(e) is int and e >= 0 for e in v)
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


@st.composite
def form_cases(draw):
    """Two series at d in 1..3 and order in 0..4 with terms drawn as in
    ``series_documents``, a scalar, a lower and a higher order, and
    specialization data."""
    d, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    exps = [v for v in itertools.product(range(order + 1), repeat=d) if sum(v) <= order]
    coeff = st.fractions(max_denominator=10**30).filter(bool) | st.integers().filter(bool)

    def draw_series():
        chosen = draw(st.lists(st.sampled_from(exps), unique=True, max_size=8))
        return MSeries(d, order, {v: draw(coeff) for v in chosen})

    a, b = draw_series(), draw_series()
    c = draw(coeff | st.just(0))
    orders = draw(st.integers(0, order)), draw(st.integers(order, order + 3))
    M = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=d, max_size=d))
    N = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    return a, b, c, orders, M, N


@settings(max_examples=200, deadline=None)
@given(case=form_cases())
def test_the_form_is_unique_through_every_operation(case):
    a, b, c, orders, M, N = case
    results = [a + b, a * b, a * c, *(a.truncate(n) for n in orders), a.specialize(M, N)]
    for s in (a, b, *results):
        assert_canonical(s)
        # the form of a series is a function of its terms
        assert MSeries(s.d, s.order, dict(s.items())).form == s.form
    terms = dict(a.items())
    for n in orders:
        cut = a.truncate(n)
        assert (cut.d, cut.order) == (a.d, n)
        assert dict(cut.items()) == {v: x for v, x in terms.items() if sum(v) <= n}
    assert MSeries.from_dict(document(a)).form == a.form


def big_fractions():
    """Mixed-sign numerators up to 2^256 over denominators up to 2^64."""
    return st.builds(
        Fraction, st.integers(-(2**256), 2**256).filter(bool), st.integers(1, 2**64)
    )


@st.composite
def kernel_series(draw, d, order, coeffs, min_degree=0):
    """Sparse or dense series at (d, order) with coefficients from ``coeffs``."""
    exps = [
        v for v in itertools.product(range(order + 1), repeat=d) if min_degree <= sum(v) <= order
    ]
    if draw(st.booleans()):
        chosen = exps
    else:
        chosen = draw(st.lists(st.sampled_from(exps), max_size=8)) if exps else []
    return MSeries(d, order, {v: draw(coeffs) for v in chosen})


@st.composite
def kernel_operands(draw):
    """Two series at d = 1-3 up to orders 12, 8 and 5, small or huge coefficients."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, KERNEL_ORDERS[d]))
    coeffs = draw(st.sampled_from([fractions_nonintegral(), big_fractions()]))
    return draw(kernel_series(d, order, coeffs)), draw(kernel_series(d, order, coeffs))


@settings(max_examples=80, deadline=None)
@given(case=kernel_operands())
def test_kernel_product_matches_pairwise_oracle(case):
    a, b = case
    ab = oracle_mul(a, b)
    for got, want in ((a * b, ab), (b * a, ab), (a * a, oracle_mul(a, a))):
        assert got == want
        assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(case=kernel_operands())
def test_kernel_cancelling_products_store_no_zero(case):
    # (f + z_0 g)(f - z_0 g) = f^2 - z_0^2 g^2: every cross term cancels exactly
    f, g = case
    z = MSeries.variable(f.d, f.order, 0)
    got = (f + z * g) * (f - z * g)
    assert got == oracle_mul(f, f) - oracle_mul(oracle_mul(z, z), oracle_mul(g, g))
    assert_canonical(got)
    assert (f - f) * g == MSeries.zero(f.d, f.order)


@settings(max_examples=60, deadline=None)
@given(case=kernel_operands())
def test_kernel_unit_operations_match_weighted_recursions(case):
    a, _ = case
    d, order = a.d, a.order
    nil = a - MSeries.constant(d, order, a.constant_term)
    unit = MSeries.one(d, order) + nil
    for got, want in (
        (unit.reciprocal(), oracle_reciprocal(unit)),
        (nil.exp(), oracle_exp(nil)),
        (unit.log(), oracle_log(unit)),
    ):
        assert got == want
        assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(case=kernel_operands(), c=st.one_of(st.integers(-(2**70), 2**70), big_fractions()))
def test_kernel_scalar_and_zero_products(case, c):
    a, _ = case
    d, order = a.d, a.order
    want = oracle_mul(MSeries.constant(d, order, c), a)
    for got in (a * c, c * a, MSeries.constant(d, order, c) * a):
        assert got == want
        assert_canonical(got)
    zero = MSeries.zero(d, order)
    assert a * 0 == 0 * a == a * zero == zero * a == zero
    assert zero.exp() == MSeries.one(d, order)
    assert MSeries.one(d, order).reciprocal() == MSeries.one(d, order)
    assert MSeries.one(d, order).log() == zero


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
def test_kernel_slots_hold_their_bound_exactly(sign, n):
    # a = M (1 + z + ... + z^n) at order 2n: the product's middle coefficient
    # is sign M^2 (n + 1), exactly max|a| max|b| min(#a, #b); over t = 1..64
    # its bit length meets every residue mod 8, byte boundaries included
    for t in range(1, 65):
        M = 2**t - 1
        a = MSeries(1, 2 * n, {(i,): M for i in range(n + 1)})
        b = sign * a
        got = a * b
        assert got.coeff((n,)) == sign * M * M * (n + 1)
        assert got == oracle_mul(a, b)


def test_kernel_products_past_the_order_vanish():
    # valuations 3 and 3 at order 5: nothing of the product survives
    a = MSeries(2, 5, {(3, 0): 7, (1, 2): Fraction(-1, 2)})
    b = MSeries(2, 5, {(0, 3): 5})
    assert a * b == MSeries.zero(2, 5)
    assert (a * b)._terms == {}


# -- lowest-terms slices in the unit operations ---------------------------------


def _scaled_recurrence(local, v, x0, weight, lead=None):
    """The integer recursion the unit operations ran before their slices were
    kept in lowest terms: x_k = lead_k + sum_(j=1..k) weight(k, j) v_j x_(k-j)
    on integer slices, each step packing every slice it reads at its width."""
    xs, xmax = [x0], [max(map(abs, x0.values()), default=0)]
    vmax = [max(map(abs, sl.values()), default=0) for sl in v]
    for k in range(1, len(v)):
        base = lead[k] if lead else {}
        bound = max(map(abs, base.values()), default=0)
        pairs = []
        for j in range(1, k + 1):
            a, b = v[j], xs[k - j]
            if a and b:
                w = weight(k, j)
                bound += abs(w) * vmax[j] * xmax[k - j] * min(len(a), len(b))
                pairs.append((w, a, b))
        x = {}
        if bound:
            nb = kronecker.width(bound)
            acc = kronecker.pack(base, nb) if base else 0
            for w, a, b in pairs:
                acc += w * (kronecker.pack(a, nb) * kronecker.pack(b, nb))
            x = kronecker.unpack(acc, nb, local[k])
        xs.append(x)
        xmax.append(max(map(abs, x.values()), default=0))
    return xs


def oracle_scaled(a, op):
    """``op`` ("reciprocal", "exp" or "log") of ``a`` on scaled slices: the
    degree-j numerators U_j over D as V_j = D^(j-1) U_j, and slice k of the
    result over D^k, k! D^k or k D^k.  Its slices are keyed within their
    degree: ``local[k]`` lists the degree-k keys less k top."""
    g = kronecker.grading(a.d, a.order)
    D, N = a.D, a.order
    local = [[key - k * g.top for key in g.keys[g.first[k] : g.first[k + 1]]]
             for k in range(N + 1)]
    v = [{} for _ in range(N + 1)]
    for key, c in a.ints.items():
        j = key // g.top
        v[j][key - j * g.top] = c * D ** max(j - 1, 0)
    if op == "reciprocal":
        xs = _scaled_recurrence(local, v, {0: 1}, lambda k, j: -1)
        dens = [D**k for k in range(N + 1)]
    elif op == "exp":
        xs = _scaled_recurrence(local, v, {0: 1}, lambda k, j: j * math.perm(k - 1, j - 1))
        dens = [math.factorial(k) * D**k for k in range(N + 1)]
    else:
        lead = [{i: k * c for i, c in sl.items()} for k, sl in enumerate(v)]
        xs = _scaled_recurrence(local, v, {}, lambda k, j: -1, lead)
        dens = [max(k, 1) * D**k for k in range(N + 1)]
    L = math.lcm(*[den for x, den in zip(xs, dens) if x])
    ints = {k * g.top + i: c * (L // dens[k]) for k, x in enumerate(xs) for i, c in x.items()}
    return MSeries.of_form(a.d, N, (L, ints))


ORACLES = {"reciprocal": oracle_reciprocal, "exp": oracle_exp, "log": oracle_log}


def assert_unit_op(a, op, want=None):
    """``op`` of ``a`` has the form of both oracles (and of ``want``), canonically."""
    got = getattr(a, op)()
    assert got.form == oracle_scaled(a, op).form == ORACLES[op](a).form
    if want is not None:
        assert got.form == want.form
    assert_canonical(got)
    return got


@st.composite
def integral_nils(draw, min_degree=1):
    """An integral series with zero constant term at d = 1-3 (orders 2-12, 2-8, 2-5)."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(2, KERNEL_ORDERS[d]))
    coeffs = st.integers(-(2**40), 2**40).filter(bool)
    return draw(kernel_series(d, order, coeffs, min_degree=min_degree))


@settings(max_examples=40, deadline=None)
@given(a=integral_nils())
def test_unit_operations_with_integral_results_over_a_denominator(a):
    # Case I shape: exp(log(1 + a)) and log(exp(a)) are integral, while with
    # z_0 in a the z_0^2 coefficient of log(1 + a) and exp(a) is c -/+ 1/2
    d, order = a.d, a.order
    a = MSeries(d, order, {**dict(a.items()), (1,) + (0,) * (d - 1): 1})
    unit = MSeries.one(d, order) + a
    lg = assert_unit_op(unit, "log")
    assert_unit_op(lg, "exp", unit)
    e = assert_unit_op(a, "exp")
    assert_unit_op(e, "log", a)
    assert lg.D > 1 and e.D > 1


@settings(max_examples=40, deadline=None)
@given(a=integral_nils(min_degree=2), m=st.integers(2, 9))
def test_unit_operations_whose_denominators_grow_with_the_degree(a, m):
    # Case II shape: with z_0 / m in the argument and no other pure z_0
    # term, the z_0^N coefficient is (-1/m)^N, 1/(N! m^N) or
    # (-1)^(N+1)/(N m^N), so D grows with every degree
    d, order = a.d, a.order
    rest = {v: c for v, c in a.items() if any(v[1:])}
    nil = MSeries(d, order, {**rest, (1,) + (0,) * (d - 1): 1}) * Fraction(1, m)
    unit = MSeries.one(d, order) + nil
    for s, op in ((unit, "reciprocal"), (nil, "exp"), (unit, "log")):
        assert assert_unit_op(s, op).D % m**order == 0


@st.composite
def homogeneous_nils(draw):
    """A series of one degree m >= 1 at an order >= 2m + 1, so slices of
    degree m + 1 .. order that are not multiples of m vanish, and the
    recursions below cancel their degree-2m sums to zero."""
    d = draw(st.integers(1, 3))
    order = draw(st.integers(3, KERNEL_ORDERS[d]))
    m = draw(st.integers(1, (order - 1) // 2))
    exps = [v for v in itertools.product(range(m + 1), repeat=d) if sum(v) == m]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, unique=True))
    coeff = st.sampled_from([fractions_nonintegral(), st.integers(-9, 9).filter(bool)])
    coeffs = draw(coeff)
    return MSeries(d, order, {v: draw(coeffs) for v in chosen}), m


@settings(max_examples=40, deadline=None)
@given(case=homogeneous_nils())
def test_unit_operations_with_slices_that_cancel_to_zero(case):
    # 1/(1/(1 - a)) = 1 - a, exp(log(1 + a)) = 1 + a and log(exp(a)) = a,
    # where a has degree m: every slice past m sums to zero
    a, m = case
    d, order = a.d, a.order
    one = MSeries.one(d, order)
    for s, op, want in (
        (oracle_reciprocal(one - a), "reciprocal", one - a),
        (oracle_log(one + a), "exp", one + a),
        (oracle_exp(a), "log", a),
    ):
        got = assert_unit_op(s, op, want)
        top = kronecker.grading(d, order).top
        assert {k // top for k in got.ints} <= {0, m}
        assert any(k // top == 2 * m for k in s.ints)


@contextlib.contextmanager
def packed_widths():
    """The slot width of each ``kronecker.pack`` call made inside."""
    widths, pack = [], kronecker.pack

    def spy(terms, nb, shift=0):
        widths.append(nb)
        return pack(terms, nb, shift)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kronecker, "pack", spy)
        yield widths


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 2),
    small=st.integers(-3, 3).filter(bool),
    big=st.integers(2**300, 2**400),
    sign=st.sampled_from([1, -1]),
)
def test_unit_operations_across_a_more_than_doubling_width(d, small, big, sign):
    # small slices up to degree 3, then a slice of 38-51 bytes at degree 4:
    # the slot width at step 4 must more than double
    order = 6
    terms = {(i,) + (0,) * (d - 1): small for i in range(1, 4)}
    terms[(4,) + (0,) * (d - 1)] = sign * big
    terms[(0,) * (d - 1) + (1,)] = Fraction(small, 3)
    nil = MSeries(d, order, terms)
    unit = MSeries.one(d, order) + nil
    for s, op in ((unit, "reciprocal"), (nil, "exp"), (unit, "log")):
        with packed_widths() as widths:
            getattr(s, op)()
        assert any(b > 2 * a for a, b in zip(widths, widths[1:]))
        assert_unit_op(s, op)


def test_exp_packs_narrow_slots_on_an_integral_mirror_map():
    # exp(G_1/F) for C(2n, n) at order 100 is integral (Case I).  Over k! D^k
    # its slots reach 1774 bytes in 10100 packs; over lowest terms, 72 in 362.
    arg = build_Gk(CENTRAL_BINOMIAL, 1, 100) * build_F(CENTRAL_BINOMIAL, 100).reciprocal()
    with packed_widths() as widths:
        q = arg.exp()
    assert q.D == 1
    assert max(widths) <= 128 and len(widths) <= 1000


@st.composite
def serializable_series(draw):
    """Series at d = 1-3, order 0-4, with mixed-sign coefficients over
    denominators that share factors, so most terms reduce against D."""
    d, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    exps = [v for v in itertools.product(range(order + 1), repeat=d) if sum(v) <= order]
    chosen = draw(st.lists(st.sampled_from(exps), unique=True, max_size=10))
    numerators = st.integers(-(2**70), 2**70).filter(bool)
    denominators = st.sampled_from([1, 2, 3, 4, 6, 12, 2**64])
    coeff = st.builds(Fraction, numerators, denominators) | st.fractions(
        max_denominator=10**30
    ).filter(bool)
    return MSeries(d, order, {v: draw(coeff) for v in chosen})


@settings(max_examples=200, deadline=None)
@given(s=serializable_series())
def test_to_dict_writes_the_fraction_document(s):
    assert json.loads(s.to_bytes()) == document(s)


def test_to_dict_reduces_each_term_against_D():
    terms = {(0, 0): Fraction(-1, 6), (1, 0): Fraction(3, 4), (0, 1): -5, (1, 1): Fraction(7, 12)}
    s = MSeries(2, 2, terms)
    assert s.D == 12
    assert [(t["num"], t["den"]) for t in json.loads(s.to_bytes())["terms"]] == [
        ("-1", "6"), ("-5", "1"), ("3", "4"), ("7", "12")
    ]
