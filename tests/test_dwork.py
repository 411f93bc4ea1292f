"""p-adic engine: Gamma_p, weights, residues, product test, congruences."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mirrorint import dwork
from mirrorint.dwork import (
    CongruenceRanges,
    CongruenceReport,
    PadicContext,
    _Worst,
    convolution_sum,
    dd_coefficient_L,
    dd_coefficient_k,
    dieudonne_dwork_check,
    excluded_indices,
    gamma_p,
    gamma_p_check,
    good_residues,
    harmonic_obstruction,
    is_good_residue,
    landau_negative_witness,
    obstruction_ratio,
    padic_weight,
    q_ratio_congruence_sweep,
    verify_formal_congruences,
)
from mirrorint.forms import (
    INFINITY,
    FormSystem,
    factorial_ratio,
    vp_of_rational,
    vp_ratio_legendre,
)
from mirrorint.landau import in_jump_region
from mirrorint.mirror import build_F, build_GL, build_Gk, exponents_upto
from mirrorint.series import MSeries
from mirrorint.systems import CENTRAL_BINOMIAL, CUBIC_2D, CUBIC_SPLIT, INVERSE_BINOMIAL


# ---------------------------------------------------------------------------
# the exact harness, the oracle the residue-arithmetic one must match report
# for report: Fraction values of Q, jump-region tests on Fraction points,
# every block summed from its own box


class _OracleContext:
    def __init__(self, p, sys):
        self.p, self.sys = p, sys
        self._q = {}
        self._mu = {}

    def Q(self, n):
        n = tuple(n)
        if n not in self._q:
            self._q[n] = (
                Fraction(0) if any(c < 0 for c in n) else factorial_ratio(self.sys, n)
            )
        return self._q[n]

    def vpQ(self, n):
        return vp_ratio_legendre(self.sys, n, self.p)

    def in_region(self, u, q):
        return in_jump_region(self.sys, tuple(Fraction(c, q) for c in u))

    def mu(self, m):
        m = tuple(m)
        if m not in self._mu:
            top = max((sum(a * b for a, b in zip(v, m)) for v in self.sys.forms), default=0)
            count, q = 0, self.p
            while q <= top:
                count += self.in_region(tuple(c % q for c in m), q)
                q *= self.p
            self._mu[m] = count
        return self._mu[m]

    def good(self, u, s):
        return s == 0 or not self.in_region(u, self.p**s)

    def good_residues(self, s):
        return [
            u
            for u in itertools.product(range(self.p**s), repeat=self.sys.d)
            if self.good(u, s)
        ]

    def excluded_indices(self, t_max):
        p = self.p
        return [
            (n, t)
            for t in range(1, t_max + 1)
            for n in itertools.product(range(p**t), repeat=self.sys.d)
            if all(self.in_region(tuple(c % p**l for c in n), p**l) for l in range(1, t + 1))
        ]


def _obox(hi, lo=None):
    lo = lo or (0,) * len(hi)
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def oracle_verify_formal_congruences(p, sys, ranges):
    ctx = _OracleContext(p, sys)
    d = sys.d
    s_max, k_bound, m_bound = ranges.resolved(p)
    reports = []

    v0 = ctx.vpQ((0,) * d)
    reports.append(CongruenceReport("unit-at-zero", ((0,) * d,), 0, v0, v0 == 0))

    w = _Worst("weight-lower-bound")
    for m in _obox((m_bound,) * d):
        w.update((m,), ctx.mu(m), ctx.vpQ(m))
    reports.append(w.report())

    wa = _Worst("ratio-congruence")
    wa1 = _Worst("ratio-congruence-good")
    wa2 = _Worst("ratio-congruence-excluded")
    for s in range(s_max + 1):
        for u in ctx.good_residues(s):
            qu, vqu = ctx.Q(u), ctx.vpQ(u)
            for v in itertools.product(range(p), repeat=d):
                vup = tuple(x + p * y for x, y in zip(v, u))
                good_next = ctx.good(vup, s + 1)
                mu_vup, vq_vup, q_vup = ctx.mu(vup), ctx.vpQ(vup), ctx.Q(vup)
                for m in _obox((m_bound,) * d):
                    mu_m = ctx.mu(m)
                    locus = (s, u, v, m)
                    top = tuple(x + y * p ** (s + 1) for x, y in zip(vup, m))
                    bot = tuple(x + y * p**s for x, y in zip(u, m))
                    ach = vp_of_rational(ctx.Q(top) / q_vup - ctx.Q(bot) / qu, p)
                    wa.update(locus, s + 1 + mu_m - vq_vup, ach)
                    if good_next:
                        wa1.update(locus, s + 1 + mu_m - mu_vup, ach)
                    else:
                        wa2.update(locus, s + 1 + mu_m - mu_vup, ctx.vpQ(bot) - vqu)
    reports.extend([wa.report(), wa1.report(), wa2.report()])

    w = _Worst("weight-shift")
    for n, t in ctx.excluded_indices(s_max):
        for m in _obox((m_bound,) * d):
            shifted = tuple(x + p**t * y for x, y in zip(n, m))
            w.update((n, t, m), t + ctx.mu(m), ctx.mu(shifted))
    reports.append(w.report())

    wc = _Worst("conclusion")
    wt = _Worst("telescoping")
    zero = Fraction(0)
    for a in itertools.product(range(p), repeat=d):
        for K in _obox((k_bound,) * d):
            table = {}
            for j in _obox(K):
                Kj = tuple(x - y for x, y in zip(K, j))
                table[j] = ctx.Q(tuple(x + p * y for x, y in zip(a, Kj))) * ctx.Q(
                    j
                ) - ctx.Q(Kj) * ctx.Q(tuple(x + p * y for x, y in zip(a, j)))

            def block(s, m):
                q = p**s
                lo = tuple(c * q for c in m)
                hi = tuple(min((c + 1) * q - 1, k) for c, k in zip(m, K))
                if any(h < low for low, h in zip(lo, hi)):
                    return zero
                return sum((table[j] for j in _obox(hi, lo)), zero)

            for s in range(s_max + 1):
                for m in _obox((m_bound,) * d):
                    wc.update((a, K, s, m), s + 1 + ctx.mu(m), vp_of_rational(block(s, m), p))
                T = tuple(c // p**s for c in K)
                total = sum((block(s, m) for m in _obox(T)), zero)
                wt.update((a, K, s), INFINITY, vp_of_rational(total, p))
    reports.extend([wc.report(), wt.report()])
    return reports


def oracle_q_ratio_congruence_sweep(p, sys, s_max, m_bound):
    ctx = _OracleContext(p, sys)
    w = _Worst("unit-ratio-congruence")
    for s in range(s_max + 1):
        for c in itertools.product(range(p**s), repeat=sys.d):
            cp = tuple(x * p for x in c)
            qc, qcp = ctx.Q(c), ctx.Q(cp)
            for m in _obox((m_bound,) * sys.d):
                top = ctx.Q(tuple(x * p + y * p ** (s + 1) for x, y in zip(c, m)))
                bot = ctx.Q(tuple(x + y * p**s for x, y in zip(c, m)))
                w.update((s, c, m), s + 1, vp_of_rational((qc * top) / (qcp * bot) - 1, p))
    return w.report()


class TestGammaP:
    def test_values(self):
        assert gamma_p(0, 5) == 1
        assert gamma_p(1, 5) == -1
        assert gamma_p(3, 2) == -1

    def test_skips_multiples_of_p(self):
        # product over 1..6 coprime to 3 is 1*2*4*5 = 40, sign (+1)^7... odd n
        assert gamma_p(7, 3) == -(1 * 2 * 4 * 5)

    def test_identity_examples(self):
        assert gamma_p_check(1, 0, 1, 2)
        assert gamma_p_check(0, 0, 2, 5)
        assert gamma_p_check(1, 2, 2, 3)

    def test_identities_sweep(self):
        for p in (2, 3, 5):
            for n in range(12):
                assert gamma_p_check(n, 0, 1, p)
        for k in range(8):
            for n in range(4):
                for s in range(3):
                    assert gamma_p_check(n, k, s, 3)

    def test_top_argument_congruence_anomaly_at_two(self):
        # Gamma_2(0 + 1*4) = 3 and Gamma_2(0) = 1 differ by 2, not 0 mod 4:
        # the congruence in the top argument loses one factor of 2 at p = 2.
        assert gamma_p(4, 2) == 3
        assert not gamma_p_check(1, 0, 2, 2)
        # one level down it always holds (all values are odd)
        for k in range(10):
            for n in range(5):
                assert gamma_p_check(n, k, 1, 2)


class TestWeights:
    def test_binomial_weights(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        assert padic_weight(ctx, (1,)) == (1, 2)
        assert padic_weight(ctx, (3,)) == (2, 4)
        assert padic_weight(ctx, (0,)) == (0, 1)

    def test_weight_below_valuation(self):
        for p in (2, 3):
            for sys in (CUBIC_2D, CENTRAL_BINOMIAL):
                ctx = PadicContext(p, sys)
                for m in itertools.product(range(10), repeat=sys.d):
                    assert ctx.mu(m) <= vp_ratio_legendre(sys, m, p)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            PadicContext(6, CENTRAL_BINOMIAL)


class TestGoodResidues:
    def test_level_zero(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        assert good_residues(ctx, 0) == [(0,)]
        assert is_good_residue(ctx, (0,), 0)

    def test_binomial_levels(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        assert is_good_residue(ctx, (0,), 1)
        assert not is_good_residue(ctx, (1,), 1)
        assert not is_good_residue(ctx, (2,), 2)

    def test_out_of_range(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        with pytest.raises(ValueError):
            is_good_residue(ctx, (4,), 2)

    def test_fractional_and_word_criteria_agree(self):
        for p in (2, 3):
            for sys in (CUBIC_2D, CENTRAL_BINOMIAL, CUBIC_SPLIT):
                ctx = PadicContext(p, sys)
                for s in range(3):
                    for u in itertools.product(range(p**s), repeat=sys.d):
                        is_good_residue(ctx, u, s)  # raises on disagreement

    def test_excluded_indices_rescale_into_region(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        for n, t in excluded_indices(ctx, 3):
            for l in range(1, t + 1):
                frac = tuple(Fraction(c % 2**l, 2**l) for c in n)
                from mirrorint.landau import in_jump_region

                assert in_jump_region(ctx.sys, frac)


class TestDieudonneDwork:
    def test_exp_z_fails_at_z_squared(self):
        F = MSeries.one(1, 8)
        G = MSeries.variable(1, 8, 0)
        reps = dieudonne_dwork_check(F, G, 2)
        by_exp = {r.locus[0]: r for r in reps}
        assert not by_exp[(2,)].passed
        assert by_exp[(2,)].achieved == 0
        assert by_exp[(1,)].passed

    def test_zero_companion_passes(self):
        F = build_F(CENTRAL_BINOMIAL, 6)
        reps = dieudonne_dwork_check(F, MSeries.zero(1, 6), 3)
        assert reps == []

    def test_main_system_passes(self):
        F = build_F(CUBIC_2D, 6)
        for p in (2, 3, 5):
            for k in (1, 2):
                G = build_Gk(CUBIC_2D, k, 6)
                assert all(r.passed for r in dieudonne_dwork_check(F, G, p))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dieudonne_dwork_check(MSeries.zero(1, 4), MSeries.zero(1, 4), 2)
        bad_F = MSeries(1, 4, {(0,): 1, (1,): Fraction(1, 2)})
        with pytest.raises(ValueError):
            dieudonne_dwork_check(bad_F, MSeries.zero(1, 4), 2)
        with pytest.raises(ValueError):
            dieudonne_dwork_check(MSeries.one(1, 4), MSeries.one(1, 4), 2)

    def test_report_json_shape(self):
        import json

        F = MSeries.one(1, 4)
        G = MSeries.variable(1, 4, 0)
        line = json.loads(dieudonne_dwork_check(F, G, 2)[0].to_json())
        assert set(line) == {"check", "locus", "required", "achieved", "pass"}


class TestCoefficientFormulas:
    def test_value_against_hand_computation(self):
        # d=1 binomial system, weight vector L=2, p=3, a=0, K=1: -144
        ctx = PadicContext(3, CENTRAL_BINOMIAL)
        assert dd_coefficient_L(ctx, (2,), (0,), (1,)) == -144

    def test_trivial_at_origin(self):
        ctx = PadicContext(3, CUBIC_2D)
        assert dd_coefficient_k(ctx, 1, (0, 0), (0, 0)) == 0
        assert dd_coefficient_L(ctx, (1, 1), (0, 0), (0, 0)) == 0

    def test_matches_extracted_coefficients(self):
        N = 6
        F = build_F(CUBIC_2D, N)
        for p in (2, 3):
            ctx = PadicContext(p, CUBIC_2D)
            G1 = build_Gk(CUBIC_2D, 1, N)
            combo = F * G1.substitute_pth_power(p) - p * F.substitute_pth_power(p) * G1
            GL = build_GL(CUBIC_2D, (2, 1), N)
            comboL = F * GL.substitute_pth_power(p) - p * F.substitute_pth_power(p) * GL
            for w in exponents_upto(2, N):
                a = tuple(c % p for c in w)
                K = tuple((c - r) // p for c, r in zip(w, a))
                assert dd_coefficient_k(ctx, 1, a, K) == combo.coeff(w)
                assert dd_coefficient_L(ctx, (2, 1), a, K) == comboL.coeff(w)

    def test_split_system_residue_formula(self):
        # with K = 0 the double sum collapses to -p Q(a) times the harmonic weight
        p = 7
        ctx = PadicContext(p, CUBIC_SPLIT)
        from mirrorint.forms import factorial_ratio, harmonic

        for a1 in range(p):
            a = (a1, 0)
            expected = (
                -p
                * factorial_ratio(CUBIC_SPLIT, a)
                * (3 * harmonic(3 * a1) - 2 * harmonic(2 * a1) - harmonic(a1))
            )
            assert dd_coefficient_k(ctx, 1, a, (0, 0)) == expected


class TestConvolutionSums:
    def test_zero_extension_makes_negative_K_trivial(self):
        ctx = PadicContext(2, CUBIC_2D)
        assert convolution_sum(ctx, (0, 0), (-1, 2), 1, (0, 0)) == 0

    def test_complete_sum_telescopes_to_zero(self):
        ctx = PadicContext(2, CUBIC_2D)
        for s in (0, 1):
            for K in ((1, 1), (2, 3), (4, 0)):
                q = 2**s
                T = tuple(c // q for c in K)
                total = sum(
                    convolution_sum(ctx, (1, 0), K, s, m)
                    for m in itertools.product(*(range(t + 1) for t in T))
                )
                assert total == 0

    def test_harness_passes_on_main_system(self):
        # quick ranges here; the full sweep runs in the acceptance suite
        for p in (2, 3):
            ctx = PadicContext(p, CUBIC_2D)
            ranges = CongruenceRanges(s_max=1, k_bound=3, m_bound=3)
            reports = verify_formal_congruences(ctx, ranges)
            assert len(reports) == 8
            assert all(r.passed for r in reports), [r for r in reports if not r.passed]

    def test_harness_requires_equal_column_sums(self):
        ctx = PadicContext(2, FormSystem([(2,)], [(1,)]))
        with pytest.raises(ValueError):
            verify_formal_congruences(ctx, CongruenceRanges(1, 2, 2))

    def test_harness_checks_are_labeled(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        reports = verify_formal_congruences(ctx, CongruenceRanges(1, 2, 2))
        names = [r.check for r in reports]
        assert names == [
            "unit-at-zero",
            "weight-lower-bound",
            "ratio-congruence",
            "ratio-congruence-good",
            "ratio-congruence-excluded",
            "weight-shift",
            "conclusion",
            "telescoping",
        ]


class TestUnitRatioCongruence:
    def test_passes_on_equal_sum_systems(self):
        for p in (2, 3):
            for sys in (CUBIC_2D, CENTRAL_BINOMIAL):
                rep = q_ratio_congruence_sweep(PadicContext(p, sys), s_max=1, m_bound=2)
                assert rep.passed

    def test_requires_equal_sums(self):
        with pytest.raises(ValueError):
            q_ratio_congruence_sweep(PadicContext(2, FormSystem([(2,)], [(1,)])))


class TestObstructions:
    def test_zero_floors_give_trivial_values(self):
        x = (Fraction(1, 10), Fraction(1, 10))
        assert harmonic_obstruction(CUBIC_2D, 1, x) == 0
        assert obstruction_ratio(CUBIC_2D, 1, x, 5) == 1

    def test_split_witness(self):
        w = (Fraction(1, 2), Fraction(0))
        assert harmonic_obstruction(CUBIC_SPLIT, 1, w) == 1
        assert obstruction_ratio(CUBIC_SPLIT, 1, w, 1) == Fraction(4, 3)
        assert obstruction_ratio(CUBIC_SPLIT, 1, w, 0) == 1

    def test_second_coordinate_unobstructed(self):
        w = (Fraction(1, 2), Fraction(0))
        assert harmonic_obstruction(CUBIC_SPLIT, 2, w) == 0
        assert obstruction_ratio(CUBIC_SPLIT, 2, w, 3) == 1

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            obstruction_ratio(CUBIC_SPLIT, 1, (Fraction(1, 2), 0), -1)


class TestNegativityWitness:
    def test_concrete_instance(self):
        got = landau_negative_witness(INVERSE_BINOMIAL, 5)
        assert got == ((3,), -1)
        assert vp_ratio_legendre(INVERSE_BINOMIAL, (3,), 5) == -1

    def test_all_primes_in_range(self):
        for p in (5, 7, 11, 13, 17, 19, 23):
            got = landau_negative_witness(INVERSE_BINOMIAL, p)
            assert got is not None and got[1] <= -1

    def test_integral_system_has_no_witness(self):
        assert landau_negative_witness(CENTRAL_BINOMIAL, 5, bound=8) is None


class TestHarnessAgainstOracle:
    """The residue-arithmetic harness against the exact one, report by report."""

    @staticmethod
    def assert_same(p, sys, ranges):
        fast = verify_formal_congruences(PadicContext(p, sys), ranges)
        slow = oracle_verify_formal_congruences(p, sys, ranges)
        assert [r.to_json() for r in fast] == [r.to_json() for r in slow]
        s_max, _, m_bound = ranges.resolved(p)
        fast = q_ratio_congruence_sweep(PadicContext(p, sys), s_max, m_bound)
        assert fast.to_json() == oracle_q_ratio_congruence_sweep(p, sys, s_max, m_bound).to_json()

    @staticmethod
    @st.composite
    def jobs(draw):
        """An equal-column-sum system in d = 1 or 2, a prime and small ranges.

        f splits the column sums of e at random; swapping e and f gives
        Q = 1 / (integral ratio), a system that is not p-integral.
        """
        d = draw(st.integers(1, 2))
        e = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=2))
        f = [[0] * d for _ in range(draw(st.integers(1, 3)))]
        for i in range(d):
            for _ in range(sum(v[i] for v in e)):
                f[draw(st.integers(0, len(f) - 1))][i] += 1
        if draw(st.booleans()):
            e, f = f, e
        p = draw(st.sampled_from((2, 3, 5)))
        ranges = CongruenceRanges(
            draw(st.integers(0, 2 if p == 2 else 1)),
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)),
        )
        return p, FormSystem(e, f, raw=True), ranges

    @settings(max_examples=60, deadline=None)
    @given(jobs())
    def test_drawn_systems(self, job):
        self.assert_same(*job)

    @pytest.mark.parametrize(
        "p, sys, ranges",
        [
            (2, CUBIC_2D, CongruenceRanges()),
            (3, CUBIC_SPLIT, CongruenceRanges(1, 3, 3)),
            (3, INVERSE_BINOMIAL, CongruenceRanges(2, 4, 4)),
            (5, CENTRAL_BINOMIAL, CongruenceRanges(2, 6, 6)),
        ],
    )
    def test_exact_fallback_everywhere(self, monkeypatch, p, sys, ranges):
        # one p-adic digit: every unit difference divisible by p takes the
        # exact path, including every ratio that is right to that digit
        monkeypatch.setattr(dwork, "_R", 1)
        self.assert_same(p, sys, ranges)

    def test_cubic_2d_at_five(self):
        self.assert_same(5, CUBIC_2D, CongruenceRanges(1, 4, 4))

    def test_bundled_systems_at_default_ranges(self):
        for p, sys in ((2, CUBIC_SPLIT), (3, CENTRAL_BINOMIAL), (3, INVERSE_BINOMIAL)):
            self.assert_same(p, sys, CongruenceRanges())
