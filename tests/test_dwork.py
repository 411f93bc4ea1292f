"""p-adic engine: unit tables, weights, residues, product test, congruences."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorint import dwork, kronecker
from mirrorint.dwork import (
    CongruenceRanges,
    CongruenceReport,
    PadicContext,
    _Units,
    _Worst,
    _block_sums,
    _over_box,
    _places,
    dieudonne_dwork_check,
    excluded_indices,
    good_residues,
    harmonic_obstruction,
    landau_negative_witness,
    obstruction_ratio,
    q_ratio_congruence_sweep,
    verify_formal_congruences,
)
from mirrorint.forms import (
    INFINITY,
    FormSystem,
    dot,
    factorial_ratio,
    harmonic,
    harmonic_weight,
    vp_of_rational,
    vp_ratio_legendre,
)
from mirrorint.landau import Tag, classify, delta_at, enumerate_weight_vectors, in_jump_region
from mirrorint.mirror import build_F, build_GL, build_Gk, coefficient_forms
from mirrorint.series import MSeries
from mirrorint.systems import (
    BUNDLED,
    CASE30,
    CENTRAL_BINOMIAL,
    CUBIC_2D,
    CUBIC_SPLIT,
    INVERSE_BINOMIAL,
)

from test_mirror import family_jobs


def report_line(rep):
    """A report as the CLI writes it: its ``to_dict`` in JSON."""
    return json.dumps(rep.to_dict())


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


def _obox_place(m, top):
    """The place of m in the lexicographic listing of the box [0, top]."""
    return list(_obox(top)).index(m)


def oracle_block_table(ctx, a, K):
    """Q(a + p(K-j)) Q(j) - Q(K-j) Q(a + pj) at every j of the box [0, K]."""
    p = ctx.p
    table = {}
    for j in _obox(K):
        Kj = tuple(x - y for x, y in zip(K, j))
        table[j] = ctx.Q(tuple(x + p * y for x, y in zip(a, Kj))) * ctx.Q(j) - ctx.Q(
            Kj
        ) * ctx.Q(tuple(x + p * y for x, y in zip(a, j)))
    return table


def oracle_block(table, p, K, s, m):
    """The sum of ``table`` over the block m p^s <= j <= (m+1) p^s - 1, cut
    to the box [0, K]; zero when the block misses the box."""
    q = p**s
    lo = tuple(c * q for c in m)
    hi = tuple(min((c + 1) * q - 1, k) for c, k in zip(m, K))
    if any(h < low for low, h in zip(lo, hi)):
        return Fraction(0)
    return sum((table[j] for j in _obox(hi, lo)), Fraction(0))


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
    for rows in oracle_weight_shift_rows(ctx, s_max, m_bound):
        for row in rows:
            w.update(*row)
    reports.append(w.report())

    wc = _Worst("conclusion")
    wt = _Worst("telescoping")
    for a in itertools.product(range(p), repeat=d):
        for K in _obox((k_bound,) * d):
            table = oracle_block_table(ctx, a, K)
            for s in range(s_max + 1):
                for m in _obox((m_bound,) * d):
                    block = oracle_block(table, p, K, s, m)
                    wc.update((a, K, s, m), s + 1 + ctx.mu(m), vp_of_rational(block, p))
                T = tuple(c // p**s for c in K)
                total = sum((oracle_block(table, p, K, s, m) for m in _obox(T)), Fraction(0))
                wt.update((a, K, s), INFINITY, vp_of_rational(total, p))
    reports.extend([wc.report(), wt.report()])
    return reports


def oracle_weight_shift_rows(ctx, s_max, m_bound):
    """Per excluded (n, t), its weight-shift rows over the m box, index by
    index: (locus, required t + mu(m), achieved mu(n + p^t m))."""
    p = ctx.p
    for n, t in ctx.excluded_indices(s_max):
        rows = []
        for m in _obox((m_bound,) * ctx.sys.d):
            shifted = tuple(x + p**t * y for x, y in zip(n, m))
            rows.append(((n, t, m), t + ctx.mu(m), ctx.mu(shifted)))
        yield rows


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


def oracle_gamma_p(n, p):
    """Morita's p-adic Gamma at a nonnegative integer: (-1)^n times the
    product of the k < n prime to p."""
    prod = 1
    for k in range(1, n):
        if k % p:
            prod *= k
    return -prod if n % 2 else prod


def oracle_gamma_p_check(n, k, s, p):
    """Both classical Gamma_p identities, exactly: (np)!/n! = p^n |Gamma_p(1+np)|
    and Gamma_p(k + n p^s) = Gamma_p(k) mod p^s."""
    lhs = math.factorial(n * p) // math.factorial(n)
    first = lhs == p**n * abs(oracle_gamma_p(1 + n * p, p))
    second = (oracle_gamma_p(k + n * p**s, p) - oracle_gamma_p(k, p)) % p**s == 0
    return first and second


def oracle_pth_power(s, p):
    """s(z^p): every z_i replaced by z_i^p, terms pushed past the order dropped."""
    return MSeries(s.d, s.order, {tuple(p * e for e in v): c for v, c in s.items()})


def oracle_dieudonne_dwork(F, G, p):
    """The Dieudonne-Dwork reports from the Fraction series F G(z^p) - p F(z^p) G,
    one per nonzero coefficient; the engine must match them report for report."""
    combo = F * oracle_pth_power(G, p) - p * oracle_pth_power(F, p) * G
    return [
        CongruenceReport("dieudonne-dwork", (v,), 1, vp_of_rational(c, p),
                         vp_of_rational(c, p) >= 1)
        for v, c in combo.items()
    ]


def oracle_dd_coefficient_k(p, sys, k, a, K):
    """Coefficient of z^(a+pK) in F(z) G_k(z^p) - p F(z^p) G_k(z), in closed
    form: the sum over 0 <= j <= K of Q(K-j) Q(a+pj) (w(K-j) - p w(a+pj)),
    with w the harmonic weight of coordinate k (1-based)."""
    total = Fraction(0)
    for j in _obox(K):
        Kj = tuple(x - y for x, y in zip(K, j))
        apj = tuple(x + p * y for x, y in zip(a, j))
        w = harmonic_weight(sys, k - 1, Kj) - p * harmonic_weight(sys, k - 1, apj)
        total += factorial_ratio(sys, Kj) * factorial_ratio(sys, apj) * w
    return total


def engine_valuations(F, G, p):
    """exponent -> achieved valuation, from ``dieudonne_dwork_check``."""
    return {r.locus[0]: r.achieved for r in dieudonne_dwork_check(F, G, p)}


def oracle_dd_coefficient_L(p, sys, L, a, K):
    """Coefficient of z^(a+pK) in F(z) G_L(z^p) - p F(z^p) G_L(z): the sum
    over 0 <= j <= K of Q(K-j) Q(a+pj) (H(L.(K-j)) - p H(L.(a+pj)))."""
    total = Fraction(0)
    for j in _obox(K):
        Kj = tuple(x - y for x, y in zip(K, j))
        apj = tuple(x + p * y for x, y in zip(a, j))
        w = harmonic(dot(L, Kj)) - p * harmonic(dot(L, apj))
        total += factorial_ratio(sys, Kj) * factorial_ratio(sys, apj) * w
    return total


def _split(x, p):
    """(v_p(x), x / p^v_p(x)) for a nonzero int or Fraction."""
    x = Fraction(x)
    v = vp_of_rational(x, p)
    return v, x / Fraction(p) ** v


class TestGammaP:
    """The Gamma_p oracle, and the unit tables of Q that rest on its identity:
    the unit part of N! is the product of |Gamma_p(floor(N/p^i) + 1)|."""

    def test_values(self):
        assert oracle_gamma_p(0, 5) == 1
        assert oracle_gamma_p(1, 5) == -1
        assert oracle_gamma_p(3, 2) == -1

    def test_skips_multiples_of_p(self):
        # product over 1..6 coprime to 3 is 1*2*4*5 = 40, sign (+1)^7... odd n
        assert oracle_gamma_p(7, 3) == -(1 * 2 * 4 * 5)

    def test_identity_examples(self):
        assert oracle_gamma_p_check(1, 0, 1, 2)
        assert oracle_gamma_p_check(0, 0, 2, 5)
        assert oracle_gamma_p_check(1, 2, 2, 3)

    def test_identities_sweep(self):
        for p in (2, 3, 5):
            for n in range(12):
                assert oracle_gamma_p_check(n, 0, 1, p)
        for k in range(8):
            for n in range(4):
                for s in range(3):
                    assert oracle_gamma_p_check(n, k, s, 3)

    def test_top_argument_congruence_anomaly_at_two(self):
        # Gamma_2(0 + 1*4) = 3 and Gamma_2(0) = 1 differ by 2, not 0 mod 4:
        # the congruence in the top argument loses one factor of 2 at p = 2.
        assert oracle_gamma_p(4, 2) == 3
        assert not oracle_gamma_p_check(1, 0, 2, 2)
        # one level down it always holds (all values are odd)
        for k in range(10):
            for n in range(5):
                assert oracle_gamma_p_check(n, k, 1, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_unit_tables_match_exact_factorials(self, p):
        # one form (1,) with net multiplicities 1, -1 and 2: the tables of
        # N!, 1/N! and (N!)^2
        top = 3 * p * p + 5
        units = _Units(p, [((1,), 1), ((1,), -1), ((1,), 2)], top)
        mod = units.mod
        assert mod == p**dwork._R
        # a form of sum 1 reads N <= top, k = 1 from the shared tables
        assert [(len(V), len(U)) for _, V, U in units.tables] == [(top + 1, top + 1)] * 3
        (_, V, U), (_, Vi, Ui), (_, V2, U2) = units.tables
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
        # column(n, q) over an m box that starts at m = 0, against Q itself
        for p in (2, 3, 5, 7):
            ctx = PadicContext(p, sys)
            units = ctx._units(12)  # n + q m <= 5 + 7 componentwise
            mod = units.mod
            mbox = list(_obox((1,) * sys.d))
            mdots = [[dot(w, m) for m in mbox] for w, *_ in units.tables]
            for n in _obox((5,) * sys.d):
                for q in (1, p):
                    vs, us = units.column(n, q, mdots, len(mbox))
                    for m, vm, um in zip(mbox, vs, us):
                        shifted = tuple(x + q * y for x, y in zip(n, m))
                        v, u = _split(factorial_ratio(sys, shifted), p)
                        assert vm == v
                        assert um * u.denominator % mod == u.numerator % mod


class TestWeights:
    def test_binomial_weights(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        assert ctx.mu((1,)) == 1
        assert ctx.mu((3,)) == 2
        assert ctx.mu((0,)) == 0

    def test_weight_below_valuation(self):
        for p in (2, 3):
            for sys in (CUBIC_2D, CENTRAL_BINOMIAL):
                ctx = PadicContext(p, sys)
                for m in itertools.product(range(10), repeat=sys.d):
                    assert ctx.mu(m) <= vp_ratio_legendre(sys, m, p)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            PadicContext(6, CENTRAL_BINOMIAL)


def oracle_good_residue_words(sys, p, u, s):
    """The digit-word rule for good residues, on Fraction points.

    u is excluded iff for some t <= s its top t base-p digit vectors form
    an index n whose first t rescalings all land in the jump region.
    """
    for t in range(1, s + 1):
        n = tuple(c // p ** (s - t) for c in u)
        if all(
            in_jump_region(sys, tuple(Fraction(c % p**l, p**l) for c in n))
            for l in range(1, t + 1)
        ):
            return False
    return True


class TestGoodResidues:
    def test_level_zero(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        assert good_residues(ctx, 0) == [(0,)]

    def test_binomial_levels(self):
        ctx = PadicContext(2, CENTRAL_BINOMIAL)
        assert good_residues(ctx, 1) == [(0,)]
        assert (2,) not in good_residues(ctx, 2)

    def test_fractional_and_word_criteria_agree(self):
        for p in (2, 3):
            for sys in BUNDLED.values():
                ctx = PadicContext(p, sys)
                for s in range(3):
                    words = [
                        u
                        for u in itertools.product(range(p**s), repeat=sys.d)
                        if oracle_good_residue_words(sys, p, u, s)
                    ]
                    assert good_residues(ctx, s) == words, (p, sys, s)

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

    @pytest.mark.parametrize(
        "G", [MSeries.zero(2, 4), MSeries.zero(1, 5)], ids=["another d", "another order"]
    )
    def test_series_of_another_shape_are_rejected(self, G):
        with pytest.raises(ValueError, match="incompatible series"):
            dieudonne_dwork_check(MSeries.one(1, 4), G, 2)

    def test_report_json_shape(self):
        F = MSeries.one(1, 4)
        G = MSeries.variable(1, 4, 0)
        line = json.loads(report_line(dieudonne_dwork_check(F, G, 2)[0]))
        assert line == {"check": "dieudonne-dwork", "locus": [[1]], "required": 1,
                        "achieved": 1, "pass": True}

    def test_infinity_is_written_as_inf(self):
        rep = CongruenceReport("c", ((1,),), INFINITY, INFINITY, True)
        assert rep.to_dict() == {"check": "c", "locus": ((1,),), "required": "inf",
                                 "achieved": "inf", "pass": True}


@st.composite
def dd_inputs(draw):
    """(F, G, p, cancel) in d = 1-2 and orders 1-7, for the engine against
    the Fraction oracle.

    F has constant term 1 and p-free denominators; G has no constant term,
    and p may divide its denominators.  Numerators carry up to p^12, so
    valuations run deep.  With ``cancel``, F = 1 and g_v = p g_(pv) wherever
    pv is in range, so the coefficient at every exponent divisible by p,
    g_v - p g_(pv), is exactly zero and gives no line.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    order = draw(st.integers(1, 7))
    cancel = draw(st.booleans())
    exps = list(kronecker.grading(d, order).key)[1:]
    p_free = st.integers(1, 9).filter(lambda x: x % p)

    def coefficient(den):
        num = draw(st.integers(-3, 3).filter(bool)) * p ** draw(st.integers(0, 12))
        return Fraction(num, draw(den))

    def terms(den, least):
        support = draw(st.lists(st.sampled_from(exps), min_size=least, unique=True))
        return {v: coefficient(den) for v in support}

    F = MSeries.one(d, order) + MSeries(d, order, terms(p_free, 0))
    g = terms(st.builds(lambda b, e: b * p**e, st.integers(1, 4), st.integers(0, 3)), 1)
    if cancel:
        F = MSeries.one(d, order)
        for w in sorted(exps, key=sum, reverse=True):
            if all(e % p == 0 for e in w):
                g[tuple(e // p for e in w)] = p * g.get(w, 0)
    return F, MSeries(d, order, g), p, cancel


@settings(max_examples=150, deadline=None)
@given(dd_inputs())
@example((MSeries.one(1, 8), MSeries.variable(1, 8, 0), 2, False))
@example((MSeries.one(2, 0), MSeries.zero(2, 0), 3, False))
@example((MSeries.one(2, 4), MSeries(2, 4, {(1, 0): 2, (2, 0): 1, (4, 0): Fraction(1, 2)}),
          2, True))
def test_dieudonne_dwork_matches_the_fraction_oracle(case):
    F, G, p, cancel = case
    got = dieudonne_dwork_check(F, G, p)
    assert got == oracle_dieudonne_dwork(F, G, p)
    if cancel:
        assert not any(all(e % p == 0 for e in r.locus[0]) for r in got)


def outcome(check, *args):
    """The reports of ``check(*args)``, or the message of its ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(family_jobs(), st.sampled_from([2, 3, 5, 7]))
@example((CUBIC_2D, 6), 2)
@example((INVERSE_BINOMIAL, 4), 2)  # F is not 2-integral
@example((FormSystem([(1, 0), (0, 1)], [(1, 1)]), 5), 3)
def test_integer_path_matches_the_series_check_and_the_oracle(job, p):
    """``dieudonne_dwork_check`` on the forms of one pass, wrapped with
    ``MSeries.of_form``, for every G_k and G_L: the Fraction oracle's
    reports where F passes its checks, else the message the oracle names."""
    sys, order = job
    f, *hs = coefficient_forms(sys, order, range(sys.d), enumerate_weight_vectors(sys))
    F = MSeries.of_form(sys.d, order, f)
    for h in hs:
        G = MSeries.of_form(sys.d, order, h)
        want = oracle_dd_rejection(F, G, p) or oracle_dieudonne_dwork(F, G, p)
        assert outcome(dieudonne_dwork_check, F, G, p) == want


def oracle_dd_rejection(F, G, p):
    """The message of the first input check that F and G fail at the prime p,
    from their Fractions, or None."""
    if F.constant_term != 1:
        return "F must have constant term 1"
    bad = [v for v, c in F.items() if c.denominator % p == 0]
    if bad:
        return f"F has a non p-integral coefficient at {min(bad)}"
    if G.constant_term != 0:
        return "G must have constant term 0"
    return None


def test_a_non_p_integral_F_is_named_before_a_constant_G():
    # D_F = 4: the numerator 2 of z/2 is even, yet z/2 is not 2-integral
    F = MSeries(1, 4, {(0,): 1, (1,): Fraction(1, 2), (3,): Fraction(1, 4)})
    G = MSeries(1, 4, {(0,): 1, (1,): 1})
    assert F.form == (4, {0: 4, 1: 2, 3: 1})
    with pytest.raises(ValueError, match=r"^F has a non p-integral coefficient at \(1,\)$"):
        dieudonne_dwork_check(F, G, 2)


class TestCoefficientFormulas:
    """The closed forms of the combination's coefficients against the
    Fraction series, and the engine's valuation against the closed form."""

    def test_value_against_hand_computation(self):
        # d=1 binomial system, weight vector L=2, p=3, a=0, K=1: -144
        assert oracle_dd_coefficient_L(3, CENTRAL_BINOMIAL, (2,), (0,), (1,)) == -144

    def test_trivial_at_origin(self):
        assert oracle_dd_coefficient_k(3, CUBIC_2D, 1, (0, 0), (0, 0)) == 0
        assert oracle_dd_coefficient_L(3, CUBIC_2D, (1, 1), (0, 0), (0, 0)) == 0
        F, G1 = build_F(CUBIC_2D, 4), build_Gk(CUBIC_2D, 1, 4)
        assert (0, 0) not in engine_valuations(F, G1, 3)

    def test_matches_extracted_coefficients(self):
        N = 6
        F = build_F(CUBIC_2D, N)
        for p in (2, 3):
            G1 = build_Gk(CUBIC_2D, 1, N)
            combo = F * oracle_pth_power(G1, p) - p * oracle_pth_power(F, p) * G1
            GL = build_GL(CUBIC_2D, (2, 1), N)
            comboL = F * oracle_pth_power(GL, p) - p * oracle_pth_power(F, p) * GL
            engine = engine_valuations(F, G1, p)
            for w in kronecker.grading(2, N).key:
                a = tuple(c % p for c in w)
                K = tuple((c - r) // p for c, r in zip(w, a))
                c = oracle_dd_coefficient_k(p, CUBIC_2D, 1, a, K)
                assert c == combo.coeff(w)
                assert engine.get(w) == (vp_of_rational(c, p) if c else None)
                assert oracle_dd_coefficient_L(p, CUBIC_2D, (2, 1), a, K) == comboL.coeff(w)

    def test_split_system_residue_formula(self):
        # with K = 0 the double sum collapses to -p Q(a) times the harmonic weight
        p = 7
        engine = engine_valuations(build_F(CUBIC_SPLIT, 6), build_Gk(CUBIC_SPLIT, 1, 6), p)
        for a1 in range(p):
            a = (a1, 0)
            expected = (
                -p
                * factorial_ratio(CUBIC_SPLIT, a)
                * (3 * harmonic(3 * a1) - 2 * harmonic(2 * a1) - harmonic(a1))
            )
            assert oracle_dd_coefficient_k(p, CUBIC_SPLIT, 1, a, (0, 0)) == expected
            assert engine.get(a) == (vp_of_rational(expected, p) if expected else None)


def box_levels(K, p, s_max):
    """The up maps of ``_block_sums`` and the level boxes [0, K // p^s]."""
    tops = [tuple(c // p**s for c in K) for s in range(s_max + 1)]
    return [_places(T, up, p) for T, up in zip(tops, tops[1:])], tops


class TestConvolutionSums:
    def test_complete_sum_telescopes_to_zero(self):
        ctx = PadicContext(2, CUBIC_2D)
        a = (1, 0)
        for K in ((1, 1), (2, 3), (4, 0)):
            js = list(_obox(K))
            P = [ctx.Q(tuple(c + 2 * y for c, y in zip(a, j))) for j in js]
            levels = _block_sums(P, [ctx.Q(j) for j in js], box_levels(K, 2, 1)[0])
            for s in (0, 1):
                assert sum(levels[s]) == 0

    @pytest.mark.parametrize(
        "p, sys", [(2, CUBIC_2D), (3, CUBIC_2D), (3, CUBIC_SPLIT), (2, INVERSE_BINOMIAL),
                   (5, CENTRAL_BINOMIAL)]
    )
    def test_block_sums_match_direct_sums(self, p, sys):
        # every block of every level, against the oracle harness's table summed
        # block by block; the blocks of one level add up to the whole table,
        # which telescopes to zero
        ctx = _OracleContext(p, sys)
        s_max = 2
        for K in _obox((4,) * sys.d if sys.d == 2 else (12,)):
            js = list(_obox(K))
            ups, tops = box_levels(K, p, s_max)
            for up, T in zip(ups, tops):
                assert up == [_obox_place(tuple(c // p for c in m), tuple(c // p for c in T))
                              for m in _obox(T)]
            for a in itertools.product(range(p), repeat=sys.d):
                P = [ctx.Q(tuple(c + p * y for c, y in zip(a, j))) for j in js]
                levels = _block_sums(P, [ctx.Q(j) for j in js], ups)
                table = oracle_block_table(ctx, a, K)
                assert sum(table.values()) == 0
                for s, (level, top) in enumerate(zip(levels, tops)):
                    assert level == [oracle_block(table, p, K, s, m) for m in _obox(top)]
                    assert sum(level) == 0

    @pytest.mark.parametrize("box, top", [((0,), (0,)), ((3,), (5,)), ((2, 0, 1), (2, 3, 1))])
    def test_places_and_box_sums_follow_the_listing(self, box, top):
        listing = list(_obox(top))
        assert _places(box, top) == [listing.index(j) for j in _obox(box)]
        cols = [[7 * i + c for c in range(b + 1)] for i, b in enumerate(box)]
        assert _over_box(cols) == [sum(col[c] for col, c in zip(cols, j)) for j in _obox(box)]

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
        # the sweep and the harness refuse the system with one message
        ctx = PadicContext(2, FormSystem([(2,)], [(1,)]))
        for check in (q_ratio_congruence_sweep, verify_formal_congruences):
            with pytest.raises(ValueError, match="^the congruence harness needs equal column sums$"):
                check(ctx)


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
        assert [report_line(r) for r in fast] == [report_line(r) for r in slow]
        s_max, _, m_bound = ranges.resolved(p)
        fast = q_ratio_congruence_sweep(PadicContext(p, sys), s_max, m_bound)
        slow = oracle_q_ratio_congruence_sweep(p, sys, s_max, m_bound)
        assert report_line(fast) == report_line(slow)

    @staticmethod
    @st.composite
    def jobs(draw):
        """An equal-column-sum system in d = 1 or 2, a prime and small ranges;
        p = 7 only in d = 1.

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
        p = draw(st.sampled_from((2, 3, 5) if d == 2 else (2, 3, 5, 7)))
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

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_zeros_take_no_fraction(self, monkeypatch, p):
        # where w.m = 0 for every net form, both ratios are 1: no Q is built
        calls = []
        Q = PadicContext.Q
        monkeypatch.setattr(PadicContext, "Q", lambda ctx, n: calls.append(n) or Q(ctx, n))
        ctx = PadicContext(p, CUBIC_SPLIT)
        verify_formal_congruences(ctx)
        q_ratio_congruence_sweep(ctx)
        assert calls == []

    def test_bundled_systems_at_default_ranges(self):
        for p, sys in ((2, CUBIC_SPLIT), (3, CENTRAL_BINOMIAL), (3, INVERSE_BINOMIAL)):
            self.assert_same(p, sys, CongruenceRanges())


# verify_formal_congruences and q_ratio_congruence_sweep on cubic-2d at p=5,
# s_max 2 and k, m <= 20, as the residue-arithmetic harness printed them
# before the flat passes; the default ranges (k, m <= 25) give the same lines
CUBIC_2D_AT_FIVE = """\
{"check": "unit-at-zero", "locus": [[0, 0]], "required": 0, "achieved": 0, "pass": true}
{"check": "weight-lower-bound", "locus": [[0, 0]], "required": 0, "achieved": 0, "pass": true}
{"check": "ratio-congruence", "locus": [0, [0, 0], [0, 1], [1, 0]], "required": 1, "achieved": 1, "pass": true}
{"check": "ratio-congruence-good", "locus": [0, [0, 0], [0, 1], [1, 0]], "required": 1, "achieved": 1, "pass": true}
{"check": "ratio-congruence-excluded", "locus": [0, [0, 0], [0, 2], [0, 0]], "required": 0, "achieved": 0, "pass": true}
{"check": "weight-shift", "locus": [[0, 2], 1, [0, 0]], "required": 1, "achieved": 1, "pass": true}
{"check": "conclusion", "locus": [[0, 1], [1, 0], 0, [0, 0]], "required": 1, "achieved": 1, "pass": true}
{"check": "telescoping", "locus": [[0, 0], [0, 0], 0], "required": "inf", "achieved": "inf", "pass": true}
{"check": "unit-ratio-congruence", "locus": [0, [0, 0], [0, 1]], "required": 1, "achieved": 3, "pass": true}
"""


def test_cubic_2d_at_five_prints_the_recorded_lines():
    ctx = PadicContext(5, CUBIC_2D)
    reports = verify_formal_congruences(ctx, CongruenceRanges(2, 20, 20))
    reports.append(q_ratio_congruence_sweep(ctx, 2, 20))
    assert "".join(report_line(r) + "\n" for r in reports) == CUBIC_2D_AT_FIVE


def tracker_state(w):
    """The held worst and its margin."""
    return (w.locus, w.required, w.achieved, w.margin)


valuations = st.one_of(st.integers(-3, 6), st.just(INFINITY))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(valuations, valuations), max_size=8))
@example([(1, INFINITY), (2, 1), (0, 0)])  # INFINITY first, then finite
@example([(0, 1), (3, 4), (1, 0), (2, 1)])  # ties
@example([(INFINITY, INFINITY), (2, -3), (INFINITY, 5), (INFINITY, 0)])  # infinite demands
def test_report_is_the_first_least_margin_of_the_stream(stream):
    w = _Worst("c")
    for i, (r, a) in enumerate(stream):
        w.update((i,), r, a)

    def rank(i):
        """An infinite achieved value ranks last, a finite one against an
        infinite demand first, and the rest by achieved - required."""
        r, a = stream[i]
        return (2, 0) if a is INFINITY else (0, 0) if r is INFINITY else (1, a - r)

    if stream:
        i = min(range(len(stream)), key=rank)
        r, a = stream[i]
        passed = a is INFINITY or (r is not INFINITY and a >= r)
        assert w.report() == CongruenceReport("c", (i,), r, a, passed)
    else:
        assert w.report() == CongruenceReport("c", (), 0, INFINITY, True)


@st.composite
def tracker_rows(draw):
    """(p, prefix, shift, row): a few ``update`` calls that set a tracker's
    state (none, only infinite ones, or a known margin), a shift, then a row
    of loci with (required, achieved) valuations, required finite, and
    (required, value) pairs, a value x standing for x / p^shift.  Small ranges give ties;
    values include 0, ints deep in p and ints prime to p."""
    p = draw(st.sampled_from([2, 3, 5]))
    prefix = draw(st.lists(st.tuples(valuations, valuations), max_size=3))
    shift = draw(st.integers(0, 4))
    n = draw(st.integers(0, 8))
    value = st.one_of(
        st.just(0),
        st.builds(lambda u, k: u * p**k, st.integers(-4, 4), st.integers(0, 9)),
    )
    row = draw(st.lists(st.tuples(st.integers(-3, 6), valuations, st.integers(-3, 4), value),
                        min_size=n, max_size=n))
    return p, prefix, shift, row


@settings(max_examples=300, deadline=None)
@given(tracker_rows())
@example((2, [], 0, [(1, INFINITY, 1, 0), (1, 0, 1, 2)]))  # INFINITY first, then finite
@example((3, [(0, 1)], 0, [(0, INFINITY, 0, 0), (6, 2, -3, 3), (2, 2, 2, 9)]))
@example((5, [(2, 1)], 1, [(1, 0, 1, 5), (2, 1, 2, 25), (-2, -3, 0, 1)]))  # ties
def test_bulk_updates_match_sequential_ones(case):
    p, prefix, shift, row = case
    head, tails = ("h",), [(i,) for i in range(len(row))]

    def fresh():
        w = _Worst("c")
        for r, a in prefix:
            w.update(("pre",), r, a)
        return w

    bulk, one = fresh(), fresh()
    bulk.update_row(head, tails, [r for r, *_ in row], [a for _, a, *_ in row])
    for tail, (r, a, *_) in zip(tails, row):
        one.update(head + tail, r, a)
    assert tracker_state(bulk) == tracker_state(one)

    bulk, one = fresh(), fresh()
    bulk.update_values(head, tails, [r for *_, r, _ in row], [x for *_, x in row], p, shift)
    for tail, (*_, r, x) in zip(tails, row):
        one.update(head + tail, r, vp_of_rational(Fraction(x, p**shift), p))
    assert tracker_state(bulk) == tracker_state(one)


class TestWeightShift:
    """The weight shift by carry class against the index-by-index sweep."""

    @pytest.mark.parametrize(
        "p, sys",
        [
            (3, CUBIC_2D),
            (3, CUBIC_SPLIT),
            (3, CASE30),
            (5, CENTRAL_BINOMIAL),
            (5, INVERSE_BINOMIAL),
        ],
    )
    def test_report_matches_oracle_at_default_ranges(self, p, sys):
        ranges = CongruenceRanges()
        [fast] = [
            r
            for r in verify_formal_congruences(PadicContext(p, sys), ranges)
            if r.check == "weight-shift"
        ]
        s_max, _, m_bound = ranges.resolved(p)
        slow = _Worst("weight-shift")
        for rows in oracle_weight_shift_rows(_OracleContext(p, sys), s_max, m_bound):
            for row in rows:
                slow.update(*row)
        assert report_line(fast) == report_line(slow.report())

    @settings(max_examples=40, deadline=None)
    @given(TestHarnessAgainstOracle.jobs())
    def test_carry_lemma(self, job):
        # mu(n + p^t m) = t + kappa_c(m) with c_w = floor(w.n / p^t), and the
        # margin kappa_c(m) - mu(m) is never negative
        p, sys, _ = job
        ctx, oracle = PadicContext(p, sys), _OracleContext(p, sys)
        for n, t in oracle.excluded_indices(2):
            c = tuple(dot(w, n) // p**t for w in ctx._forms)
            for m in _obox((2,) * sys.d):
                kappa = ctx._levels(m, c)
                assert oracle.mu(tuple(x + p**t * y for x, y in zip(n, m))) == t + kappa
                assert kappa >= ctx.mu(m) == oracle.mu(m), (n, t, m)

    @settings(max_examples=40, deadline=None)
    @given(TestHarnessAgainstOracle.jobs())
    def test_each_excluded_index_updates_at_its_first_least_margin(self, job):
        # the harness feeds the tracker one update per excluded (n, t), in
        # order, at the first m of the box with the least margin
        p, sys, _ = job
        ranges = CongruenceRanges(2 if p**sys.d <= 9 else 1, 0, 2)
        updates = []

        class Recording(_Worst):
            def update(self, locus, required, achieved):
                if self.check == "weight-shift":
                    updates.append((locus, required, achieved))
                super().update(locus, required, achieved)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dwork, "_Worst", Recording)
            verify_formal_congruences(PadicContext(p, sys), ranges)
        s_max, _, m_bound = ranges.resolved(p)
        rows = oracle_weight_shift_rows(_OracleContext(p, sys), s_max, m_bound)
        assert updates == [min(r, key=lambda row: row[2] - row[1]) for r in rows]


@st.composite
def periodic_systems(draw):
    """Systems of d <= 2 variables with equal column sums: e and f drawn,
    then the smaller side padded with unit vectors.  Half the draws take f
    empty before padding, so Q(n) is a product of multinomials (Case I)."""
    d = draw(st.integers(1, 2))
    vec = st.tuples(*[st.integers(0, 3)] * d).filter(any)
    e = draw(st.lists(vec, min_size=1, max_size=2))
    f = [] if draw(st.booleans()) else draw(st.lists(vec, max_size=3))
    for i in range(d):
        gap = sum(v[i] for v in e) - sum(v[i] for v in f)
        unit = tuple(int(j == i) for j in range(d))
        (f if gap > 0 else e).extend([unit] * abs(gap))
    return FormSystem(e, f, raw=True)


class TestHarnessSizes:
    def test_the_sizes_are_those_of_the_tables_and_boxes_built(self):
        sizes = dwork.harness_sizes(CUBIC_2D, 3, 1, 2, 2)
        # top = 6 (m_bound + 1) p^(s_max + 1); 1 + p^d starts of the K box
        assert sizes == {"unit tables": 6 * 3 * 9 + 1, "m box": 9, "residues": 9,
                         "conclusion": 9 * 10}
        ratios = dwork._Ratios(PadicContext(3, CUBIC_2D), 1, 2)
        # each form's tables reach sum(w) (m_bound + 1) p^(s_max + 1): (3, 3)'s
        # are the unit tables, (1, 0)'s and (0, 1)'s a sixth of them
        assert [(len(V), len(U)) for _, V, U in ratios.units.tables] == [
            (sizes["unit tables"],) * 2, (28, 28), (28, 28)
        ]
        assert len(ratios.mbox) == sizes["m box"]

    def test_a_harness_past_the_bound_is_refused_before_any_table(self, monkeypatch):
        monkeypatch.setattr(dwork, "_Units", None)  # any unit table built would raise
        for p in (1009, 2**61 - 1):
            ctx = PadicContext(p, CENTRAL_BINOMIAL)
            for sweep in (verify_formal_congruences, q_ratio_congruence_sweep):
                with pytest.raises(ValueError, match=f"at p = {p}: the unit tables would pass"):
                    sweep(ctx)
        # with no net form the unit tables stay small, and the residues mod p^s_max
        # pass the bound at an s_max whose power is never formed
        ctx = PadicContext(2, FormSystem([(1,)], [(1,)], raw=True))
        with pytest.raises(ValueError, match="at p = 2: the residues would pass"):
            verify_formal_congruences(ctx, CongruenceRanges(s_max=10**12))

    def test_cubic_2d_at_7_and_cubic_3d_at_5_fit(self):
        cubic_3d = FormSystem([(3, 3, 3)], [(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 3)
        for sys, p in ((CUBIC_2D, 7), (cubic_3d, 5)):
            sizes = dwork.harness_sizes(sys, p, *CongruenceRanges().resolved(p))
            assert max(sizes.values()) <= dwork.HARNESS_BOUND


@settings(max_examples=60, deadline=None)
@given(periodic_systems(), st.sampled_from([2, 3]))
@example(CUBIC_SPLIT, 2)
@example(CUBIC_2D, 3)
def test_weight_lemma(sys, p):
    # v_p(Q(m)) - mu_p(m) = sum_l (delta({m/p^l}) - [{m/p^l} in the jump region])
    ctx = PadicContext(p, sys)
    case_one = classify(sys).tag is Tag.CASE_I
    for m in itertools.product(range(p * p + 1), repeat=sys.d):
        top = max(dot(w, m) for w in sys.forms)
        terms = []
        q = p
        while q <= top:
            x = [Fraction(c % q, q) for c in m]
            terms.append((delta_at(sys, x), in_jump_region(sys, x)))
            q *= p
        gap = vp_ratio_legendre(sys, m, p) - ctx.mu(m)
        assert gap == sum(val - jump for val, jump in terms)
        if gap < 0:  # m fails Q(m) in p^mu(m) Z_p
            assert not case_one
            assert any(val < 0 or (val == 0 and jump) for val, jump in terms)
