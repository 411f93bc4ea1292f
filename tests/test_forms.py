"""Exact-arithmetic kernel tests: ratios, unit tables, harmonics, valuations."""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import mul
from sys import getswitchinterval, setswitchinterval
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorint import dwork, forms
from mirrorint.forms import (
    INFINITY,
    FormSystem,
    UnitTables,
    dot,
    factorial_ratio,
    factorial_ratios,
    harmonic,
    is_prime,
    require_prime,
    vp_of_rational,
    vp_ratio_legendre,
)
from mirrorint.landau import delta_at, in_jump_region
from mirrorint.systems import CASE30, CUBIC_2D, CENTRAL_BINOMIAL, CUBIC_SPLIT, INVERSE_BINOMIAL

from test_dwork import oracle_gamma_p


def brute_ratio(sys, n):
    num = math.prod(math.factorial(sum(c * x for c, x in zip(v, n))) for v in sys.e)
    den = math.prod(math.factorial(sum(c * x for c, x in zip(v, n))) for v in sys.f)
    return Fraction(num, den)


class TestFactorialRatio:
    def test_main_example(self):
        # (3*1+3*1)! / (1!^3 1!^3) = 720
        assert factorial_ratio(CUBIC_2D, (1, 1)) == 720

    def test_zero_index(self):
        for sys in (CUBIC_2D, CENTRAL_BINOMIAL, INVERSE_BINOMIAL):
            assert factorial_ratio(sys, (0,) * sys.d) == 1

    def test_raw_half(self):
        sys = FormSystem([(1, 1)], [(2, 0)], raw=True)
        assert factorial_ratio(sys, (1, 0)) == Fraction(1, 2)

    def test_matches_brute_force(self):
        for sys in (CUBIC_2D, CUBIC_SPLIT):
            for a in range(5):
                for b in range(5):
                    assert factorial_ratio(sys, (a, b)) == brute_ratio(sys, (a, b))

    def test_identity_when_e_equals_f(self):
        sys = FormSystem([(2, 1), (1, 1)], [(2, 1), (1, 1)], raw=True)
        for a in range(4):
            for b in range(4):
                assert factorial_ratio(sys, (a, b)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            factorial_ratio(CUBIC_2D, (1,))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            factorial_ratio(CENTRAL_BINOMIAL, (-1,))


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)

    def test_against_direct_sum(self):
        for m in range(40):
            assert harmonic(m) == sum(Fraction(1, i) for i in range(1, m + 1))

    def test_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    def test_threads_get_the_direct_sum(self):
        # indices no other test reaches, each asked for by several threads at
        # once, with a thread switch forced every microsecond
        ms = [m for m in range(300, 360) for _ in range(4)]
        want = {m: sum(Fraction(1, i) for i in range(1, m + 1)) for m in set(ms)}
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(harmonic, ms))
        finally:
            setswitchinterval(interval)
        assert got == [want[m] for m in ms]


class TestValuations:
    def test_binomial_example(self):
        sys = FormSystem([(2,)], [(1,), (1,)])
        assert vp_ratio_legendre(sys, (3,), 5) == 1  # C(6,3) = 20

    def test_zero_index(self):
        for p in (2, 3, 5):
            assert vp_ratio_legendre(CUBIC_2D, (0, 0), p) == 0

    def test_raw_negative(self):
        assert vp_ratio_legendre(INVERSE_BINOMIAL, (3,), 5) == -1  # 1/20

    def test_vp_of_rational_examples(self):
        assert vp_of_rational(20, 5) == 1
        assert vp_of_rational(1, 7) == 0
        assert vp_of_rational(Fraction(1, 20), 2) == -2
        assert vp_of_rational(0, 3) is INFINITY

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            vp_ratio_legendre(CENTRAL_BINOMIAL, (1,), 4)
        with pytest.raises(ValueError):
            vp_of_rational(Fraction(1, 2), 1)

    def test_legendre_equals_exact_valuation(self):
        import itertools

        for sys in (CUBIC_2D, CUBIC_SPLIT, INVERSE_BINOMIAL):
            for p in (2, 3, 5, 7):
                for n in itertools.product(range(5), repeat=sys.d):
                    lhs = vp_ratio_legendre(sys, n, p)
                    rhs = vp_of_rational(factorial_ratio(sys, n), p)
                    if rhs is INFINITY:
                        continue
                    assert lhs == rhs

    def test_legendre_equals_delta_sum(self):
        # v_p(Q(n)) is the sum of the Landau function at n/p^l over l >= 1.
        for sys in (CENTRAL_BINOMIAL, INVERSE_BINOMIAL):
            for p in (2, 3, 5):
                for n in range(1, 12):
                    top = max(v[0] * n for v in sys.forms)
                    total, q = 0, p
                    while q <= top:
                        total += delta_at(sys, (Fraction(n, q),))
                        q *= p
                    assert vp_ratio_legendre(sys, (n,), p) == total


class TestInfinitySentinel:
    def test_ordering(self):
        assert INFINITY > 10**100
        assert INFINITY >= INFINITY
        assert not INFINITY < 0
        assert INFINITY == INFINITY
        assert INFINITY != 5

    def test_arithmetic_fails_loudly(self):
        with pytest.raises(TypeError):
            INFINITY + 1
        with pytest.raises(TypeError):
            1 - INFINITY


class TestFormSystem:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            FormSystem([(0, 0)], [(1, 0)])
        FormSystem([(0, 0)], [(1, 0)], raw=True)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FormSystem([(1, 2)], [(1, 2), (1, 0)])
        FormSystem([(1, 2)], [(1, 2), (1, 0)], raw=True)

    def test_duplicates_within_one_side_allowed(self):
        sys = FormSystem([(2, 0)], [(1, 0), (1, 0)])
        assert sys.f.count((1, 0)) == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            FormSystem([(1, 0)], [(1,)])

    def test_column_sums(self):
        assert CUBIC_2D.sum_e == (3, 3)
        assert CUBIC_2D.sum_f == (3, 3)
        assert CUBIC_SPLIT.sum_e == CUBIC_SPLIT.sum_f == (3, 0)

    def test_equal_column_sums(self):
        assert CUBIC_2D.equal_column_sums and CUBIC_SPLIT.equal_column_sums
        assert not FormSystem([(2, 1)], [(1, 0), (0, 1)]).equal_column_sums
        assert not FormSystem([(2,)], [(1,)]).equal_column_sums

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CUBIC_2D.d = 3

    def test_net_multiplicities(self):
        assert CUBIC_2D.net == (((3, 3), 1), ((1, 0), -3), ((0, 1), -3))
        assert FormSystem([(2,)], [(2,)], raw=True).net == ()
        raw = FormSystem([(1, 0), (2, 1), (1, 0)], [(2, 1), (0, 1)], raw=True)
        assert raw.net == (((1, 0), 2), ((0, 1), -1))

    def test_dict_round_trip(self):
        for sys in (CUBIC_2D, INVERSE_BINOMIAL):
            assert FormSystem.from_dict(sys.to_dict()) == sys
        raw = FormSystem([(1, 0), (0, 0)], [(1, 0)], raw=True)
        assert FormSystem.from_dict(raw.to_dict()) == raw

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            [[[1]], [[1]]],
            {"e": [[2]]},
            {"e": [[2]], "f": [[1]], "x": 1},
            {"e": 2, "f": [[1]]},
            {"e": [2], "f": [[1]]},
            {"e": [[2.0]], "f": [[1]]},
            {"e": [["2"]], "f": [[1]]},
            {"e": [[True]], "f": [[1]]},
            {"e": [[2]], "f": [[1]], "raw": 1},
            {"e": [[2]], "f": [[1, 1]]},
            {"e": [[-2]], "f": [[1]]},
            {"e": [[]], "f": [[]]},
        ],
    )
    def test_from_dict_rejects_anything_else(self, doc):
        with pytest.raises(ValueError):
            FormSystem.from_dict(doc)


@st.composite
def small_raw_systems(draw):
    d = draw(st.integers(1, 2))
    vec = st.tuples(*[st.integers(0, 3)] * d).filter(any)
    e = draw(st.lists(vec, min_size=1, max_size=3))
    f = draw(st.lists(vec, min_size=1, max_size=3))
    return FormSystem(e, f, raw=True)


@given(
    sys=small_raw_systems(),
    p=st.sampled_from([2, 3, 5, 7]),
    data=st.data(),
)
def test_valuation_identity_random(sys, p, data):
    n = data.draw(st.tuples(*[st.integers(0, 9)] * sys.d))
    got = vp_ratio_legendre(sys, n, p)
    exact = vp_of_rational(factorial_ratio(sys, n), p)
    if exact is INFINITY:
        return
    assert got == exact


@st.composite
def raw_system_points(draw):
    """A small raw system and an index n, read also as the point n/12 of [0,1)^d."""
    sys = draw(small_raw_systems())
    return sys, draw(st.tuples(*[st.integers(0, 11)] * sys.d))


@given(raw_system_points())
# a form that e and f share puts n/12 on the jump region, though net drops it
@example((FormSystem([(1, 1)], [(1, 1)], raw=True), (6, 9)))
@example((FormSystem([(2, 1), (1, 0)], [(2, 1), (0, 1)], raw=True), (6, 3)))
def test_net_multiplicities_give_the_factorial_ratio(case):
    sys, n = case
    counts = {w: sys.e.count(w) - sys.f.count(w) for w in dict.fromkeys(sys.forms)}
    assert sys.counts == tuple(counts.items())
    assert sys.net == tuple((w, m) for w, m in counts.items() if m)
    assert factorial_ratio(sys, n) == brute_ratio(sys, n)
    x = tuple(Fraction(c, 12) for c in n)
    assert in_jump_region(sys, x) is any(sum(map(mul, v, x)) >= 1 for v in sys.forms)


@st.composite
def ratio_boxes(draw):
    """(sys, points): a raw system in d = 1..3 and the points a + q x, x over
    a box, lexicographically.  Besides free draws, f is e itself (an empty
    net: Q = 1) or the one vector sum of e (Q is one over a multinomial
    coefficient, so D > 1 once two vectors of e meet a point)."""
    d = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 3)] * d)
    e = draw(st.lists(vec, min_size=1, max_size=3))
    f = draw(st.one_of(st.lists(vec, min_size=1, max_size=3), st.just(e),
                       st.just([tuple(map(sum, zip(*e)))])))
    a = draw(st.tuples(*[st.integers(0, 3)] * d))
    q = draw(st.integers(1, 3))
    hi = draw(st.tuples(*[st.integers(0, 4 - d)] * d))
    xs = itertools.product(*(range(c + 1) for c in hi))
    return FormSystem(e, f, raw=True), [tuple(b + q * c for b, c in zip(a, x)) for x in xs]


@settings(max_examples=200, deadline=None)
@given(ratio_boxes())
@example((FormSystem([(0,)], [(0,)], raw=True), [(0,), (3,)]))  # empty net
@example((FormSystem([(1, 0), (0, 1)], [(1, 1)], raw=True), [(0, 0), (1, 1), (2, 1)]))  # D = 6
def test_factorial_ratios_give_the_values_of_Q(case):
    sys, points = case
    cols = [[sum(map(mul, w, n)) for n in points] for w, _ in sys.net]
    D, nums = factorial_ratios(sys, cols, len(points))
    want = [brute_ratio(sys, n) for n in points]
    assert [Fraction(x, D) for x in nums] == want
    assert D == math.lcm(*[x.denominator for x in want])


def oracle_factorial_ratios(sys, cols, size):
    """``factorial_ratios`` in one piece: every full product of every point,
    then one division over the least common denominator."""
    top = max(itertools.chain(*cols), default=0)
    fact = [math.factorial(N) for N in range(top + 1)]
    num, den = [1] * size, [1] * size
    for (_, m), col in zip(sys.net, cols):
        side = num if m > 0 else den
        side[:] = [x * fact[N] ** abs(m) for x, N in zip(side, col)]
    D = math.lcm(*[y // math.gcd(x, y) for x, y in zip(num, den) if x % y])
    return D, [x * D // y for x, y in zip(num, den)]


@settings(max_examples=200, deadline=None)
@given(ratio_boxes(), st.integers(1, 4))
# 1/C(2n, n) in slices of two: each slice has its own D > 1 (2, 60, 1260, ...)
@example((INVERSE_BINOMIAL, [(n,) for n in range(9)]), 2)
@example((CUBIC_SPLIT, [(0, 0)]), 1)
def test_sliced_factorial_ratios_match_the_unsliced_kernel(case, width):
    sys, points = case
    cols = [[dot(w, n) for n in points] for w, _ in sys.net]
    with patch.object(forms, "_SLICE", width):
        got = factorial_ratios(sys, cols, len(points))
    assert got == oracle_factorial_ratios(sys, cols, len(points))


def _split(x, p):
    """(v_p(x), x / p^v_p(x)) for a nonzero int or Fraction."""
    x = Fraction(x)
    v = vp_of_rational(x, p)
    return v, x / Fraction(p) ** v


class TestUnitTables:
    """``UnitTables`` against exact factorials and Q.  The tables rest on the
    identity that the unit part of N! is the product of
    |Gamma_p(floor(N/p^i) + 1)|."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_unit_tables_match_exact_factorials(self, p):
        # three unit forms with net multiplicities 1, 2 and -1: the tables
        # of N!, (N!)^2 and 1/N!
        sys = FormSystem([(1, 0, 0), (0, 0, 1), (0, 0, 1)], [(0, 1, 0)], raw=True)
        assert [m for _, m in sys.net] == [1, 2, -1]
        top = 3 * p * p + 5
        units = UnitTables(sys, p, top, dwork._R)
        mod = units.mod
        assert mod == p**dwork._R
        # a form of sum 1 reads N <= top, m = +-1 from the shared tables
        assert [(len(V), len(U)) for V, U in units.tables] == [(top + 1, top + 1)] * 3
        (V, U), (V2, U2), (Vi, Ui) = units.tables
        for N in range(top + 1):
            v, u = _split(math.factorial(N), p)
            assert V[N] == v
            assert U[N] == u % mod
            gamma = math.prod(
                abs(oracle_gamma_p(N // p**i + 1, p)) for i in range(N.bit_length())
            )
            assert U[N] == gamma % mod
            assert (Vi[N], U[N] * Ui[N] % mod) == (-v, 1)
            assert (V2[N], U2[N]) == (2 * v, u * u % mod)

    @pytest.mark.parametrize("sys", [CUBIC_2D, CUBIC_SPLIT, INVERSE_BINOMIAL, CASE30])
    def test_unit_parts_of_Q(self, sys):
        # Q(n + q m) over an m box that starts at m = 0, against Q itself
        for p in (2, 3, 5, 7):
            units = UnitTables(sys, p, 12, dwork._R)  # n + q m <= 5 + 7 componentwise
            mod = units.mod
            mbox = list(itertools.product(range(2), repeat=sys.d))
            for n in itertools.product(range(6), repeat=sys.d):
                for q in (1, p):
                    points = [tuple(x + q * y for x, y in zip(n, m)) for m in mbox]
                    cols = [[dot(w, x) for x in points] for w, _ in sys.net]
                    vs, us = units.read(cols, len(mbox))
                    for x, vm, um in zip(points, vs, us):
                        v, u = _split(factorial_ratio(sys, x), p)
                        assert vm == v
                        assert um * u.denominator % mod == u.numerator % mod


@st.composite
def unit_table_cases(draw):
    """(sys, p, digits, points): a raw system in d = 1 or 2 built from
    distinct forms with counts in -3..3, so |m| >= 2, negative m, and a
    zero count (the form put in both e and f) all occur; a prime; a
    precision; and points in [0, 6]^d, where a form with a zero entry,
    or n = 0, gives w.n = 0."""
    d = draw(st.integers(1, 2))
    forms_ = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3,
                           unique=True))
    counts = draw(st.lists(st.integers(-3, 3), min_size=len(forms_), max_size=len(forms_)))
    e = [w for w, m in zip(forms_, counts) for _ in range(max(m, 0) + (m == 0))]
    f = [w for w, m in zip(forms_, counts) for _ in range(max(-m, 0) + (m == 0))]
    p = draw(st.sampled_from([2, 3, 5, 7]))
    points = draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), min_size=1, max_size=8))
    return FormSystem(e, f, raw=True), p, draw(st.integers(1, 6)), points


@settings(max_examples=200, deadline=None)
@given(unit_table_cases())
# 1/C(2n, n) at p = 2: p divides D
@example((INVERSE_BINOMIAL, 2, 3, [(0,), (1,), (5,), (6,)]))
# a shared form (1, 1) of count 0 beside counts 2 and -3; points with w.n = 0
@example((FormSystem([(1, 1), (2, 0), (2, 0)], [(1, 1), (0, 1), (0, 1), (0, 1)], raw=True),
          3, 2, [(0, 0), (0, 4), (5, 0), (6, 6)]))
def test_unit_tables_read_the_valuation_and_unit_part_of_Q(case):
    sys, p, digits, points = case
    units = UnitTables(sys, p, max(map(max, points)), digits)
    cols = [[dot(w, n) for n in points] for w, _ in sys.net]
    vs, us = units.read(cols, len(points))
    D, nums = factorial_ratios(sys, cols, len(points))
    mod = p**digits
    for v, u, x in zip(vs, us, nums):
        vq, unit = _split(Fraction(x, D), p)
        assert v == vq
        assert u * unit.denominator % mod == unit.numerator % mod


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def trial_division(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


@settings(max_examples=500, deadline=None)
@given(st.integers(-10, 10**6))
@example(561)  # Carmichael numbers
@example(41041)
@example(2047)  # the least strong pseudoprime to base 2
@example(999983)  # the largest prime below 10^6
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division(n)


@pytest.mark.parametrize(
    "n, factors",
    [
        (3215031751, (151, 751, 28351)),  # a strong pseudoprime to the bases 2, 3, 5, 7
        (3825123056546413051, (149491, 747451, 34233211)),  # to every base up to 23
        (2**64 - 1, (3, 5, 17, 257, 641, 65537, 6700417)),
    ],
)
def test_is_prime_refuses_strong_pseudoprimes(n, factors):
    assert math.prod(factors) == n and all(map(trial_division, factors))
    assert not is_prime(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 10**12 + 39, 2**64 - 59])
def test_is_prime_decides_large_primes(p):
    assert is_prime(p) and require_prime(p) == p


@pytest.mark.parametrize("n", [2**64, 2**64 + 13, 10**40])
def test_primes_stop_below_2_to_the_64(n):
    for check in (is_prime, require_prime):
        with pytest.raises(ValueError, match="is not below 2\\^64"):
            check(n)
