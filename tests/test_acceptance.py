"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance = equality of arbitrary-precision
rationals / integers); each criterion also carries a wall-clock budget.
Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.
"""

import time
from fractions import Fraction

from mirrorint import dwork
from mirrorint.dwork import (
    CongruenceRanges,
    PadicContext,
    dieudonne_dwork_check,
    q_ratio_congruence_sweep,
    verify_formal_congruences,
)
from mirrorint.forms import (
    FormSystem,
    UnitTables,
    factorial_ratio,
    vp_of_rational,
    vp_ratio_legendre,
)
from mirrorint.landau import (
    Tag,
    classify,
    delta_at,
    grid_points,
    vertex_candidates,
)
from mirrorint.mirror import (
    build_F,
    build_GL,
    build_Gk,
    build_bundle,
    integrality_scan,
)
from mirrorint.operators import case30_record, verify_annihilation
from mirrorint.series import MSeries, compose
from mirrorint.systems import (
    BUNDLED,
    CASE30,
    CENTRAL_BINOMIAL,
    CUBIC_2D,
    CUBIC_SPLIT,
    INVERSE_BINOMIAL,
)
from test_dwork import (
    negative_witness,
    oracle_dd_coefficient_k,
    oracle_dd_coefficient_L,
    oracle_gamma_p,
    oracle_gamma_p_check,
    oracle_pth_power,
)
from test_landau import oracle_verdict  # the Fraction verdict loop
from test_mirror import check_factorization, exponents_upto  # the product identity


class Criterion:
    """Context manager enforcing a wall-clock budget and printing one line."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {status} ({elapsed:6.2f}s / "
            f"limit {self.budget}s) {self.description}"
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_01_landau_integrality():
    with Criterion(1, "factorial ratios integral / negative witnesses", 5):
        for sys in (CUBIC_2D, CASE30):
            for n in exponents_upto(2, 10):
                assert factorial_ratio(sys, n).denominator == 1
        for p in (5, 7, 11, 13, 17, 19, 23):
            found = negative_witness(INVERSE_BINOMIAL, p)
            assert found is not None and found[1] <= -1
        assert vp_ratio_legendre(INVERSE_BINOMIAL, (3,), 5) == -1


def test_criterion_02_valuation_identity():
    with Criterion(2, "Legendre = exact valuation = Landau-function sum", 10):
        for sys in (CUBIC_2D, CUBIC_SPLIT, CENTRAL_BINOMIAL):
            for p in (2, 3, 5, 7):
                for n in exponents_upto(sys.d, 8):
                    legendre = vp_ratio_legendre(sys, n, p)
                    exact = vp_of_rational(factorial_ratio(sys, n), p)
                    assert legendre == exact
                    top = max(
                        (sum(c * x for c, x in zip(v, n)) for v in sys.forms),
                        default=0,
                    )
                    total, q = 0, p
                    while q <= top:
                        total += delta_at(sys, tuple(Fraction(c, q) for c in n))
                        q *= p
                    assert legendre == total


def test_criterion_03_dichotomy_and_padic_violation():
    with Criterion(3, "dichotomy tags, plain coordinate, p-adic violation", 60):
        assert classify(CUBIC_2D).tag is Tag.CASE_I
        verdict = classify(CUBIC_SPLIT)
        assert verdict.tag is Tag.CASE_II
        assert verdict.witness == (Fraction(1, 2), Fraction(0))
        bundle = build_bundle(CUBIC_SPLIT, 10)
        assert bundle.q[1] == MSeries.variable(2, 10, 1)
        # regression fixture: p = 2 rejects the first coordinate at (2, 0)
        hits = [
            (p, integrality_scan(bundle.q[0], p))
            for p in (2, 3, 5, 7, 11, 13)
        ]
        failing = [(p, rep) for p, rep in hits if not rep.ok]
        assert failing, "no p-adic violation found for p <= 13 at order <= 10"
        p0, rep0 = failing[0]
        assert p0 == 2
        assert rep0.violations[0].exponent == (2, 0)
        assert rep0.violations[0].valuation == -1


def test_criterion_04_mirror_type_integrality_and_factorization():
    with Criterion(4, "all mirror-type maps integral + product identity", 60):
        bundle = build_bundle(CUBIC_2D, 8)
        assert len(bundle.qL) == 15
        for L, series in bundle.qL.items():
            assert integrality_scan(series).ok, L
        assert check_factorization(bundle)


def test_criterion_05_dieudonne_dwork():
    with Criterion(5, "product test: fixture fails, main system passes", 30):
        F1 = MSeries.one(1, 8)
        G1 = MSeries.variable(1, 8, 0)
        reports = {r.locus[0]: r for r in dieudonne_dwork_check(F1, G1, 2)}
        assert not reports[(2,)].passed
        N = 8
        F = build_F(CUBIC_2D, N)
        G = {k: build_Gk(CUBIC_2D, k, N) for k in (1, 2)}
        for p in (2, 3, 5):
            for k in (1, 2):
                assert all(r.passed for r in dieudonne_dwork_check(F, G[k], p))
        # closed coefficient formulas match extracted coefficients everywhere,
        # and the engine's valuations match the closed form's
        for p in (2, 3, 5):
            combo = F * oracle_pth_power(G[1], p) - p * oracle_pth_power(F, p) * G[1]
            GL = build_GL(CUBIC_2D, (1, 1), N)
            comboL = F * oracle_pth_power(GL, p) - p * oracle_pth_power(F, p) * GL
            engine = {r.locus[0]: r.achieved for r in dieudonne_dwork_check(F, G[1], p)}
            for w in exponents_upto(2, N):
                a = tuple(c % p for c in w)
                K = tuple((c - r) // p for c, r in zip(w, a))
                c = oracle_dd_coefficient_k(p, CUBIC_2D, 1, a, K)
                assert c == combo.coeff(w)
                assert engine.get(w) == (vp_of_rational(c, p) if c else None)
                assert oracle_dd_coefficient_L(p, CUBIC_2D, (1, 1), a, K) == comboL.coeff(w)


def test_criterion_06_formal_congruence_harness():
    with Criterion(6, "hypotheses + conclusion + exact telescoping, p in {2,3}", 120):
        for p in (2, 3):
            ctx = PadicContext(p, CUBIC_2D)
            reports = verify_formal_congruences(ctx, CongruenceRanges(s_max=2))
            for r in reports:
                assert r.passed, (p, r.check, r.locus)
            names = {r.check for r in reports}
            assert {"conclusion", "telescoping"} <= names


def test_criterion_07_gamma_identities_and_unit_ratio():
    with Criterion(7, "Gamma_p identities and unit-ratio congruence", 30):
        for p in (2, 3, 5):
            for n in range(31):
                assert oracle_gamma_p_check(n, 0, 1, p)
        # The top-argument congruence Gamma_p(k + n p^s) = Gamma_p(k) mod p^s
        # is a theorem for odd p; at p = 2 it holds only for s <= 1 (the
        # classical Gamma_2 anomaly: Gamma_2(4) = 3 is not 1 mod 4).  The
        # sweep covers the true domain; the counterexample is pinned below.
        for p in (3, 5):
            for k in range(21):
                for n in range(6):
                    for s in range(4):
                        assert oracle_gamma_p_check(n, k, s, p)
        for k in range(21):
            for n in range(6):
                for s in range(2):
                    assert oracle_gamma_p_check(n, k, s, 2)
        assert not oracle_gamma_p_check(1, 0, 2, 2)  # Gamma_2(4) = 3 vs Gamma_2(0) = 1
        # the harness's unit tables rest on the first identity: the unit part
        # of N! is the product of |Gamma_p(floor(N/p^i) + 1)|
        for p in (2, 3, 5):
            units = UnitTables(FormSystem([(1,)], [], raw=True), p, 200, dwork._R)
            (_, U), = units.tables
            for N in range(201):
                gamma = 1
                for i in range(N.bit_length()):
                    gamma *= abs(oracle_gamma_p(N // p**i + 1, p))
                assert U[N] == gamma % units.mod
        for p in (2, 3):
            for sys in (CUBIC_2D, CENTRAL_BINOMIAL):
                rep = q_ratio_congruence_sweep(PadicContext(p, sys), s_max=2, m_bound=4)
                assert rep.passed, (p, rep.locus)


def test_criterion_08_case30():
    with Criterion(8, "catalog case 30: closed form, annihilation, q integral", 120):
        rec = case30_record()
        report = verify_annihilation(rec, 12)
        assert report.ok, report.lines()
        F_spec = build_F(rec.system, 12).specialize(rec.M, rec.Nexp)
        assert F_spec.coeff((1,)) == 144
        # annihilation holds through order 8 (order-12 input, degree margin)
        G_spec = build_Gk(rec.system, 1, 12).specialize(rec.M, rec.Nexp)
        regular, logpart = rec.operator(
            [G_spec.coeff((n,)) for n in range(13)], [F_spec.coeff((n,)) for n in range(13)]
        )
        assert len(regular) - 1 >= 8 and not any(regular) and not any(logpart)
        assert classify(rec.system).tag is Tag.CASE_I
        unit = (G_spec * F_spec.reciprocal()).exp()
        q = MSeries.variable(1, 12, 0) * unit
        assert integrality_scan(q).ok


def test_criterion_09_inversion_round_trips_and_equivalence():
    with Criterion(9, "round trips and integrality equivalence", 60):
        case_i = (
            (CUBIC_2D, 8),
            (CENTRAL_BINOMIAL, 12),
            (CASE30, 8),
        )
        for sys, order in case_i:
            bundle = build_bundle(sys, order)
            for k in range(sys.d):
                var = MSeries.variable(sys.d, order, k)
                assert compose(bundle.q[k], list(bundle.zofq)) == var
                assert compose(bundle.zofq[k], list(bundle.q)) == var
            q_ok = all(integrality_scan(s).ok for s in bundle.q)
            z_ok = all(integrality_scan(s).ok for s in bundle.zofq)
            assert q_ok and z_ok
        # the equivalence also holds on the failing branch
        bundle = build_bundle(CUBIC_SPLIT, 10)
        q_ok = all(integrality_scan(s).ok for s in bundle.q)
        z_ok = all(integrality_scan(s).ok for s in bundle.zofq)
        assert q_ok == z_ok == False  # noqa: E712


def test_criterion_10_strategy_agreement():
    with Criterion(10, "vertex and grid strategies agree on bundled systems", 60):
        for name, sys in BUNDLED.items():
            vertex = oracle_verdict(sys, vertex_candidates(sys))
            grid = oracle_verdict(sys, grid_points(sys))
            assert vertex.tag is grid.tag, name
            assert classify(sys).tag is vertex.tag, name
