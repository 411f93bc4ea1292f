"""Landau function, jump profiles and the dichotomy classifier."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mirrorint.forms import FormSystem, dot
from mirrorint.landau import (
    RANDOM_SAMPLES,
    SAMPLE_SEED,
    BudgetExceededError,
    CriterionVerdict,
    SamplingStrategy,
    Tag,
    classify,
    delta_at,
    enumerate_weight_vectors,
    grid_denominator,
    grid_points,
    in_jump_region,
    jump_criterion_check,
    univariate_jump_profile,
    vertex_candidates,
    _delta_jump,
    _solve_bareiss,
)
from mirrorint.systems import (
    BUNDLED,
    CASE30,
    CENTRAL_BINOMIAL,
    CUBIC_2D,
    CUBIC_SPLIT,
    INVERSE_BINOMIAL,
)

RAW_2D = FormSystem([(1, 1)], [(2, 0)], raw=True)


# ---------------------------------------------------------------------------
# oracles: delta, the arrangement vertices and the classifier evaluated in
# Fractions, the way the integer kernel must reproduce bit for bit


def oracle_delta(sys, x):
    return sum(math.floor(dot(v, x)) for v in sys.e) - sum(math.floor(dot(v, x)) for v in sys.f)


def oracle_in_jump_region(sys, x):
    return any(dot(v, x) >= 1 for v in sys.forms)


def _solve_exact(rows):
    """Solve the d x d rational system given by (normal, offset) rows.

    Returns None when the system is singular.
    """
    d = len(rows)
    mat = [[Fraction(c) for c in normal] + [Fraction(offset)] for normal, offset in rows]
    for col in range(d):
        pivot = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [c * inv for c in mat[col]]
        for r in range(d):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return tuple(mat[r][d] for r in range(d))


def oracle_hyperplanes(sys):
    """Normalized hyperplanes c.x = m crossing [0,1)^d, plus x_i = 0."""
    planes = []
    for i in range(sys.d):
        planes.append((tuple(int(j == i) for j in range(sys.d)), Fraction(0)))
    for v in set(sys.forms):
        if any(v):
            g = math.gcd(*v)
            planes += [(tuple(c // g for c in v), Fraction(m, g)) for m in range(sum(v))]
    return list(dict.fromkeys(planes))


def oracle_vertex_candidates(sys, budget=2_000_000):
    planes = oracle_hyperplanes(sys)
    if math.comb(len(planes), sys.d) > budget:
        raise BudgetExceededError("vertex budget")
    pts = set()
    for subset in itertools.combinations(planes, sys.d):
        x = _solve_exact(list(subset))
        if x is not None and all(0 <= c < 1 for c in x):
            pts.add(x)
    return sorted(pts)


def oracle_random_points(sys):
    rng = random.Random(SAMPLE_SEED)
    base = grid_denominator(sys)
    pts = set()
    for _ in range(RANDOM_SAMPLES):
        den = base * rng.randint(1, 8)
        pts.add(tuple(Fraction(rng.randrange(den), den) for _ in range(sys.d)))
    return sorted(pts)


def oracle_verdict(sys, points, sampled, refuters=()):
    """The verdict delta proves at ``points``, then at ``refuters``; the
    first witness found wins, and a Case I certificate lists ``points`` only."""
    zero_witness = None
    certificate = []
    for x in points:
        val = oracle_delta(sys, x)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=x, sampled=sampled)
        if oracle_in_jump_region(sys, x):
            if val == 0:
                if zero_witness is None:
                    zero_witness = x
            else:
                certificate.append((x, val))
    for k in range(sys.d):
        if sys.sum_e[k] < sys.sum_f[k]:
            corner = tuple(Fraction(int(i == k)) for i in range(sys.d))
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=corner, sampled=sampled)
    for x in refuters:
        val = oracle_delta(sys, x)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=x, sampled=sampled)
        if zero_witness is None and val == 0 and oracle_in_jump_region(sys, x):
            zero_witness = x
    if sys.sum_e != sys.sum_f:
        k = next(i for i in range(sys.d) if sys.sum_e[i] > sys.sum_f[i])
        return CriterionVerdict(Tag.E_STRICTLY_BIGGER, coordinate=k + 1, sampled=sampled)
    if zero_witness is not None:
        return CriterionVerdict(Tag.CASE_II, witness=zero_witness, sampled=sampled)
    return CriterionVerdict(Tag.CASE_I, certificate=tuple(certificate), sampled=sampled)


def oracle_classify(sys, strategy=None):
    """The classifier's contract in Fractions: vertices, closed-box corner,
    then grid; on a blown budget the grid (or the multiplier-1 grid, if the
    full one is too big) plus the seeded random points, marked sampled."""
    strategy = strategy or SamplingStrategy()
    grid_size = grid_denominator(sys) ** sys.d
    if grid_size > strategy.budget:
        if not strategy.allow_fallback:
            raise BudgetExceededError("grid budget")
        coarse = grid_points(sys, 1) if grid_denominator(sys, 1) ** sys.d <= strategy.budget else []
        pts = sorted(set(coarse) | set(oracle_random_points(sys)))
        return oracle_verdict(sys, pts, sampled=True)
    grid = grid_points(sys)
    try:
        vertices = oracle_vertex_candidates(sys, budget=strategy.budget)
    except BudgetExceededError:
        if not strategy.allow_fallback:
            raise
        pts = sorted(set(grid) | set(oracle_random_points(sys)))
        return oracle_verdict(sys, pts, sampled=True)
    return oracle_verdict(sys, vertices, False, grid)


@st.composite
def raw_or_standard_systems(draw, max_d=3, max_entry=4, max_forms=3):
    """Systems of dimension 1..max_d with entries <= max_entry and at most
    max_forms vectors a side; a raw system may hold zero vectors and
    vectors shared by e and f."""
    d = draw(st.integers(1, max_d))
    raw = draw(st.booleans())
    vec = st.tuples(*[st.integers(0, max_entry)] * d)
    if not raw:
        vec = vec.filter(any)
    e = draw(st.lists(vec, min_size=1, max_size=max_forms))
    f = draw(st.lists(vec, min_size=0, max_size=max_forms))
    assume(raw or not set(e) & set(f))
    return FormSystem(e, f, raw=raw)


def _rationals(d):
    """Nonnegative points with mixed denominators and zero coordinates."""
    coord = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(0, 36), st.integers(1, 12)),
    )
    return st.tuples(*[coord] * d)


class TestDelta:
    def test_zero_on_split_system(self):
        assert delta_at(CUBIC_SPLIT, (Fraction(1, 2), 0)) == 0

    def test_zero_point(self):
        for sys in (CUBIC_2D, CUBIC_SPLIT, CASE30):
            assert delta_at(sys, (0,) * sys.d) == 0

    def test_binomial_half(self):
        assert delta_at(CENTRAL_BINOMIAL, (Fraction(1, 2),)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            delta_at(CUBIC_2D, (Fraction(1, 2),))

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            delta_at(CUBIC_2D, (Fraction(-1, 2), 0))

    def test_periodicity_when_sums_equal(self):
        for sys in (CUBIC_2D, CENTRAL_BINOMIAL):
            for num in range(9):
                x = tuple(Fraction(num + 3 * i, 7) for i in range(sys.d))
                frac = tuple(c - math.floor(c) for c in x)
                assert delta_at(sys, x) == delta_at(sys, frac)

    def test_general_shift_identity(self):
        sys = FormSystem([(2,)], [(1,)])  # unequal sums
        for num in range(15):
            x = (Fraction(num, 4),)
            frac = (x[0] - math.floor(x[0]),)
            shift = (sys.sum_e[0] - sys.sum_f[0]) * math.floor(x[0])
            assert delta_at(sys, x) == delta_at(sys, frac) + shift

    def test_vanishes_off_jump_region(self):
        for sys in (CUBIC_2D, CUBIC_SPLIT, CASE30):
            for x in grid_points(sys, 2):
                if not in_jump_region(sys, x):
                    assert delta_at(sys, x) == 0


class TestJumpRegion:
    def test_split_system_boundary(self):
        # region is x1 >= 1/3 for the split cubic
        assert in_jump_region(CUBIC_SPLIT, (Fraction(1, 3), 0))
        assert in_jump_region(CUBIC_SPLIT, (Fraction(1, 2), 0))
        assert not in_jump_region(CUBIC_SPLIT, (Fraction(1, 4), Fraction(9, 10)))

    def test_origin_outside(self):
        for sys in (CUBIC_2D, CASE30):
            assert not in_jump_region(sys, (0,) * sys.d)

    def test_binomial_third(self):
        assert not in_jump_region(CENTRAL_BINOMIAL, (Fraction(1, 3),))

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError):
            in_jump_region(CUBIC_2D, (1, 0))


class TestWeightVectors:
    def test_binomial(self):
        assert enumerate_weight_vectors(CENTRAL_BINOMIAL) == [(1,), (2,)]

    def test_single_unit_form(self):
        sys = FormSystem([(1, 0)], [(0, 1)])
        assert enumerate_weight_vectors(sys) == [(0, 1), (1, 0)]

    def test_split_system(self):
        assert enumerate_weight_vectors(CUBIC_SPLIT) == [(1, 0), (2, 0), (3, 0)]

    def test_main_system_full_box(self):
        got = enumerate_weight_vectors(CUBIC_2D)
        assert len(got) == 15  # everything under (3, 3) except zero


class TestJumpProfile:
    def test_binomial_profile(self):
        prof = univariate_jump_profile([2], [1, 1])
        assert prof.abscissas == (Fraction(1, 2), Fraction(1))
        assert prof.amplitudes == (1, -1)

    def test_single_entry(self):
        prof = univariate_jump_profile([1], [])
        assert prof.abscissas == (Fraction(1),)
        assert prof.amplitudes == (1,)

    def test_three_two_one(self):
        prof = univariate_jump_profile([3], [2, 1])
        assert prof.abscissas == (
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(1),
        )
        assert prof.amplitudes == (1, -1, 1, -1)

    def test_prefix_sums_match_direct_evaluation(self):
        prof = univariate_jump_profile([4, 1, 1], [2, 3])
        for i, g in enumerate(prof.abscissas, start=1):
            direct = sum(math.floor(c * g) for c in (4, 1, 1)) - sum(
                math.floor(c * g) for c in (2, 3)
            )
            assert prof.prefix_value(i) == direct

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            univariate_jump_profile([2, 3], [3])

    def test_criterion_examples(self):
        assert jump_criterion_check([2], [1, 1], 1)
        assert jump_criterion_check([1], [], 1)
        assert jump_criterion_check([4, 1, 1], [2, 2, 2], 1)

    def test_criterion_full_range_on_nonnegative_profile(self):
        prof = univariate_jump_profile([2], [1, 1])
        assert jump_criterion_check([2], [1, 1], len(prof.abscissas))

    def test_criterion_precondition_reported(self):
        # amplitude dips below zero right after 1/4 for this pair
        with pytest.raises(ValueError, match="negative at abscissa"):
            jump_criterion_check([4, 1, 1], [2, 2, 2], 4)


@given(
    e=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    f=st.lists(st.integers(1, 6), min_size=0, max_size=3),
)
def test_profile_prefix_invariant_random(e, f):
    f = [c for c in f if c not in set(e)]
    prof = univariate_jump_profile(e, f)
    assert prof.abscissas == tuple(sorted({Fraction(j, a) for a in e + f for j in range(1, a + 1)}))
    for i, g in enumerate(prof.abscissas, start=1):
        direct = sum(math.floor(c * g) for c in e) - sum(math.floor(c * g) for c in f)
        assert prof.prefix_value(i) == direct


class TestClassifier:
    def test_main_system_case_i(self):
        v = classify(CUBIC_2D)
        assert v.tag is Tag.CASE_I
        assert not v.sampled
        # certificate is self-checking
        for pt, val in v.certificate:
            assert in_jump_region(CUBIC_2D, pt)
            assert delta_at(CUBIC_2D, pt) == val >= 1

    def test_split_system_case_ii_with_witness(self):
        v = classify(CUBIC_SPLIT)
        assert v.tag is Tag.CASE_II
        assert v.witness == (Fraction(1, 2), Fraction(0))
        assert delta_at(CUBIC_SPLIT, v.witness) == 0
        assert in_jump_region(CUBIC_SPLIT, v.witness)

    def test_raw_negative_witness(self):
        v = classify(RAW_2D)
        assert v.tag is Tag.NOT_NONNEGATIVE
        assert v.witness == (Fraction(1, 2), Fraction(0))
        assert delta_at(RAW_2D, v.witness) < 0

    def test_inverse_binomial(self):
        v = classify(INVERSE_BINOMIAL)
        assert v.tag is Tag.NOT_NONNEGATIVE
        assert v.witness == (Fraction(1, 2),)

    def test_case30_case_i(self):
        assert classify(CASE30).tag is Tag.CASE_I

    def test_strictly_bigger_column(self):
        v = classify(FormSystem([(2,)], [(1,)]))
        assert v.tag is Tag.E_STRICTLY_BIGGER
        assert v.coordinate == 1

    def test_smaller_column_is_negative_on_closed_box(self):
        # nonnegative on the half-open box, negative only at a closed corner
        sys = FormSystem([(2, 0)], [(1, 0), (0, 1)])
        v = classify(sys)
        assert v.tag is Tag.NOT_NONNEGATIVE
        assert v.witness == (Fraction(0), Fraction(1))
        assert delta_at(sys, v.witness) < 0

    def test_budget_fallback_and_strict_mode(self):
        tight = SamplingStrategy(budget=2)
        v = classify(CUBIC_2D, tight)
        assert v.sampled
        assert v.tag is Tag.CASE_I
        with pytest.raises(BudgetExceededError):
            classify(CUBIC_2D, SamplingStrategy(budget=2, allow_fallback=False))

    def test_vertex_and_grid_strategies_agree_on_bundled(self):
        for sys in BUNDLED.values():
            vertex = oracle_verdict(sys, vertex_candidates(sys), sampled=False)
            grid = oracle_verdict(sys, grid_points(sys), sampled=False)
            assert vertex.tag is grid.tag

    def test_up_right_constancy_at_candidates(self):
        def up_right_epsilon(sys):
            # diagonal probe step, strictly below any cell width at grid resolution
            dmax = max(sum(v) for v in sys.forms)
            return Fraction(1, 2 * grid_denominator(sys) * dmax)

        for sys in (CUBIC_2D, CUBIC_SPLIT, CASE30):
            eps = up_right_epsilon(sys)
            for x in vertex_candidates(sys):
                probe = tuple(c + eps for c in x)
                assert delta_at(sys, x) == delta_at(sys, probe)

    def test_classifier_agrees_with_dense_grid_oracle(self):
        # brute force: exhaustive denominator-N grid with a larger multiplier
        for sys in BUNDLED.values():
            expected = oracle_verdict(sys, grid_points(sys, 6), sampled=False)
            assert classify(sys).tag is expected.tag

    def test_bundled_verdicts_are_the_vertex_verdicts(self):
        # the grid refutes none of them, so the one-pass verdict keeps its bytes
        for sys in BUNDLED.values():
            vertex = oracle_verdict(sys, vertex_candidates(sys), False)
            assert classify(sys).to_dict() == vertex.to_dict()

    def test_grid_zero_refutes_a_vertex_case_i(self):
        # the vertices miss the delta = 0 cell; the grid's exact zero settles it
        sys = FormSystem([(2, 1)], [(1, 1), (1, 0)])
        assert oracle_verdict(sys, vertex_candidates(sys), False).tag is Tag.CASE_I
        v = classify(sys)
        assert v.tag is Tag.CASE_II
        assert in_jump_region(sys, v.witness) and delta_at(sys, v.witness) == 0

    def test_corner_witness_precedes_grid_negatives(self):
        # no vertex is negative, the grid is; the closed-box corner still wins
        sys = FormSystem([(0, 1)], [(1, 1)])
        assert delta_at(sys, (Fraction(1, 4), Fraction(3, 4))) < 0
        v = classify(sys)
        assert v.tag is Tag.NOT_NONNEGATIVE
        assert v.witness == (Fraction(1), Fraction(0))

    def test_verdict_serialization(self):
        d = classify(CUBIC_SPLIT).to_dict()
        assert d["tag"] == "CaseII"
        assert d["witness"] == ["1/2", "0"]


_STRENGTH = {Tag.CASE_I: 0, Tag.E_STRICTLY_BIGGER: 0, Tag.CASE_II: 1, Tag.NOT_NONNEGATIVE: 2}


def _form_systems(d, max_e, max_f):
    vec = st.tuples(*[st.integers(0, 3)] * d).filter(any)
    return st.tuples(
        st.lists(vec, min_size=1, max_size=max_e), st.lists(vec, min_size=1, max_size=max_f)
    )


def _assert_exact(sys, v):
    if v.tag is Tag.NOT_NONNEGATIVE:
        assert delta_at(sys, v.witness) < 0
    elif v.tag is Tag.CASE_II:
        assert in_jump_region(sys, v.witness) and delta_at(sys, v.witness) == 0
    elif v.tag is Tag.E_STRICTLY_BIGGER:
        assert all(a >= b for a, b in zip(sys.sum_e, sys.sum_f))
        assert sys.sum_e[v.coordinate - 1] > sys.sum_f[v.coordinate - 1]
    else:
        for pt, val in v.certificate:
            assert in_jump_region(sys, pt) and delta_at(sys, pt) == val >= 1


def _check_one_pass(e, f):
    assume(not set(e) & set(f))
    sys = FormSystem(e, f)
    v = classify(sys)  # never raises at the default budget
    assert not v.sampled
    _assert_exact(sys, v)
    for points in (vertex_candidates(sys), grid_points(sys)):
        alone = oracle_verdict(sys, points, False)
        _assert_exact(sys, alone)
        assert _STRENGTH[v.tag] >= _STRENGTH[alone.tag]


@settings(max_examples=40, deadline=None)
@given(_form_systems(2, 2, 3))
@example(([(2, 1)], [(1, 1), (1, 0)]))  # only the grid holds the zero
@example(([(0, 1)], [(1, 1)]))  # only the grid holds a negative point
def test_one_pass_verdict_is_exact_and_never_weaker_2d(ef):
    _check_one_pass(*ef)


# a 3-D grid has up to 24^3 points, so fewer draws
@settings(max_examples=6, deadline=None)
@given(_form_systems(3, 1, 2))
def test_one_pass_verdict_is_exact_and_never_weaker_3d(ef):
    _check_one_pass(*ef)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction oracles


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_evaluation(data):
    sys = data.draw(raw_or_standard_systems())
    x = data.draw(_rationals(sys.d))
    assert delta_at(sys, x) == oracle_delta(sys, x)
    box = tuple(c - math.floor(c) for c in x)
    assert in_jump_region(sys, box) is oracle_in_jump_region(sys, box)
    # any common denominator gives the same values, not only the lcm
    scale = data.draw(st.integers(1, 5))
    D = math.lcm(*(c.denominator for c in box)) * scale
    num = tuple(int(c * D) for c in box)
    assert _delta_jump(sys.e, sys.f, num, D) == (oracle_delta(sys, box), oracle_in_jump_region(sys, box))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bareiss_matches_fraction_elimination(data):
    d = data.draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-4, 4)] * (d + 1))
    rows = data.draw(st.lists(row, min_size=d, max_size=d))
    if data.draw(st.booleans()):  # a repeated row makes the system singular
        rows[-1] = rows[0]
    expected = _solve_exact([(r[:-1], r[-1]) for r in rows])
    got = _solve_bareiss(rows)
    if expected is None:
        assert got is None
    else:
        num, den = got
        assert den > 0 and tuple(Fraction(c, den) for c in num) == expected


# the oracle solves ~10^4 subsets a second, so at most two vectors a side
@settings(max_examples=40, deadline=None)
@given(raw_or_standard_systems(max_forms=2))
@example(FormSystem([(2, 3, 3)], [(1, 1, 1), (1, 2, 2)]))
def test_vertex_candidates_match_oracle(sys):
    assert vertex_candidates(sys) == oracle_vertex_candidates(sys)


# the Fraction oracle costs ~0.1 ms a point, so the exhaustive comparison
# runs on grids of at most this many points
_ORACLE_GRID = 4096


@settings(max_examples=30, deadline=None)
@given(raw_or_standard_systems(max_forms=2))
@example(FormSystem([(2, 1)], [(1, 1), (1, 0)]))  # grid zero refutes the vertices
@example(FormSystem([(0, 1)], [(1, 1)]))  # closed-box corner
@example(RAW_2D)
def test_classify_matches_fraction_oracle(sys):
    # sampled alone, sampled with the multiplier-1 grid, then exhaustive
    budgets = [0, grid_denominator(sys, 1) ** sys.d]
    if grid_denominator(sys) ** sys.d <= _ORACLE_GRID:
        budgets.append(SamplingStrategy().budget)
    for budget in budgets:
        strategy = SamplingStrategy(budget=budget)
        assert classify(sys, strategy).to_dict() == oracle_classify(sys, strategy).to_dict()
    with pytest.raises(BudgetExceededError):
        classify(sys, SamplingStrategy(budget=0, allow_fallback=False))


def test_vertex_budget_fallback_walks_the_full_grid():
    # 66 vertex subsets against an 8 x 8 grid: only the vertices blow a budget of 64
    sys = FormSystem([(1, 2)], [(2, 1), (2, 2)])
    assert math.comb(len(oracle_hyperplanes(sys)), 2) == 66 > grid_denominator(sys) ** 2 == 64
    v = classify(sys, SamplingStrategy(budget=64))
    assert v.sampled
    assert v.to_dict() == oracle_classify(sys, SamplingStrategy(budget=64)).to_dict()
    with pytest.raises(BudgetExceededError, match="candidate systems"):
        classify(sys, SamplingStrategy(budget=64, allow_fallback=False))
