"""Landau function and the dichotomy classifier."""

import hashlib
import io
import itertools
import json
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mirrorint import cli, landau
from mirrorint.forms import FormSystem, dot
from mirrorint.landau import (
    BUDGET,
    BudgetExceededError,
    CriterionVerdict,
    Tag,
    classify,
    delta_at,
    enumerate_weight_vectors,
    grid_denominator,
    grid_points,
    in_jump_region,
    vertex_candidates,
    _Budget,
    _box_vertices,
    _cell_points,
    _charge,
    _delta_jump,
    _planes,
    _scale,
    _solve_bareiss,
    _split,
    _unit_f,
)
from mirrorint.systems import (
    BUNDLED,
    CASE30,
    CENTRAL_BINOMIAL,
    CUBIC_2D,
    CUBIC_SPLIT,
    INVERSE_BINOMIAL,
)

from test_cli import bench_workloads

RAW_2D = FormSystem([(1, 1)], [(2, 0)], raw=True)
# Chebyshev's (30n)! n! / ((15n)! (10n)! (6n)!): delta >= 0, yet no e vector
# has room for f = (6,) once (15,) and (10,) sit in (30,)
CHEBYSHEV = FormSystem([(30,), (1,)], [(15,), (10,), (6,)])


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


def oracle_vertex_candidates(sys):
    planes = oracle_hyperplanes(sys)
    pts = set()
    for subset in itertools.combinations(planes, sys.d):
        x = _solve_exact(list(subset))
        if x is not None and all(0 <= c < 1 for c in x):
            pts.add(x)
    return sorted(pts)


def oracle_box_vertices(planes, k, budget):
    """Every vertex in [0,1]^k of the integer rows ``planes`` and the faces,
    in lowest terms, one elimination per k-subset of rows: the walk's vertex
    path before it grouped the rows by normal.  Charges C(rows, k) first."""
    faces = [(*(int(j == i) for j in range(k)), b) for b in (0, 1) for i in range(k)]
    rows = [*planes, *faces]
    budget.spend(math.comb(len(rows), k))
    pts = set()
    for subset in itertools.combinations(rows, k):
        solved = _solve_bareiss(subset)
        if solved is None:
            continue
        num, den = [row[0] for row in solved[0]], solved[1]
        if all(0 <= c <= den for c in num):
            g = math.gcd(den, *num)
            pts.add((tuple(c // g for c in num), den // g))
    return pts


def _oracle_primitive(normal, offset):
    g = math.gcd(*normal)
    return tuple(c // g for c in normal), offset / g


def oracle_cell_points(sys, budget, ledger):
    """One point in every open cell of [0,1)^d, in lexicographic order, by a
    Fraction slice-and-recurse walk.

    At each level the cut points are the first coordinates of the vertices
    in the closed box of the planes that cross the open box (integer
    normal, Fraction offset) and the faces; the midpoints between them fix
    the first coordinate and the planes are restricted to that slice.  Each
    level appends its subset count to ``ledger`` and raises
    ``BudgetExceededError`` once the counts pass ``budget``; the top level
    is charged before this returns, a slice when the walk reaches it."""

    def cuts(planes, k):
        faces = [(tuple(int(j == i) for j in range(k)), Fraction(b)) for b in (0, 1) for i in range(k)]
        rows = planes + faces
        ledger.append(math.comb(len(rows), k))
        if sum(ledger) > budget:
            raise BudgetExceededError("oracle budget")
        xs = (_solve_exact(list(subset)) for subset in itertools.combinations(rows, k))
        return sorted({x[0] for x in xs if x is not None and all(0 <= c <= 1 for c in x)})

    def walk(planes, k, cut):
        for a, b in zip(cut, cut[1:]):
            c = (a + b) / 2
            if k == 1:
                yield (c,)
                continue
            rest = [(n[1:], o - n[0] * c) for n, o in planes]
            rest = list(dict.fromkeys(
                _oracle_primitive(n, o) for n, o in rest if 0 < o < sum(n)
            ))
            for tail in walk(rest, k - 1, cuts(rest, k - 1)):
                yield (c,) + tail

    planes = list(dict.fromkeys(
        _oracle_primitive(v, Fraction(m)) for v in sys.forms for m in range(1, sum(v))
    ))
    return walk(planes, sys.d, cuts(planes, sys.d))


def oracle_verdict(sys, points, refuters=()):
    """The verdict delta proves at ``points``, then at ``refuters``; the
    first witness found wins, and a Case I certificate lists ``points`` only."""
    zero_witness = None
    certificate = []
    for x in points:
        val = oracle_delta(sys, x)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=x)
        if oracle_in_jump_region(sys, x):
            if val == 0:
                if zero_witness is None:
                    zero_witness = x
            else:
                certificate.append((x, val))
    for k in range(sys.d):
        if sys.sum_e[k] < sys.sum_f[k]:
            corner = tuple(Fraction(int(i == k)) for i in range(sys.d))
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=corner)
    for x in refuters:
        val = oracle_delta(sys, x)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=x)
        if zero_witness is None and val == 0 and oracle_in_jump_region(sys, x):
            zero_witness = x
    if sys.sum_e != sys.sum_f:
        k = next(i for i in range(sys.d) if sys.sum_e[i] > sys.sum_f[i])
        return CriterionVerdict(Tag.E_STRICTLY_BIGGER, coordinate=k + 1)
    if zero_witness is not None:
        return CriterionVerdict(Tag.CASE_II, witness=zero_witness)
    return CriterionVerdict(Tag.CASE_I, certificate=tuple(certificate))


def oracle_classify(sys, budget=BUDGET, ledger=None):
    """The classifier's contract in Fractions: vertices, closed-box corner,
    then the cell points; raises ``BudgetExceededError`` once the walk's
    subset counts (appended to ``ledger``) pass ``budget``."""
    cells = oracle_cell_points(sys, budget, [] if ledger is None else ledger)
    return oracle_verdict(sys, oracle_vertex_candidates(sys), cells)


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

    def test_one_variable_three_over_two_one(self):
        # (3a)!/((2a)! a!) jumps up at thirds and down at halves
        sys = FormSystem([(3,)], [(2,), (1,)])
        points = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        assert [delta_at(sys, (x,)) for x in points] == [1, 0, 1, 0]


@given(
    e=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    f=st.lists(st.integers(1, 6), min_size=0, max_size=3),
)
def test_one_variable_delta_is_constant_between_breakpoints(e, f):
    f = [c for c in f if c not in set(e)]
    sys = FormSystem([(c,) for c in e], [(c,) for c in f])
    breaks = sorted({Fraction(j, a) for a in e + f for j in range(a + 1)})
    for left, right in zip(breaks, breaks[1:]):
        assert delta_at(sys, (left,)) == oracle_delta(sys, (left,))
        assert delta_at(sys, ((left + right) / 2,)) == delta_at(sys, (left,))


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

    def test_budget_exceeded_raises(self):
        with pytest.raises(BudgetExceededError):
            classify(CUBIC_2D, budget=2)

    def test_vertex_and_grid_strategies_agree_on_bundled(self):
        for sys in BUNDLED.values():
            vertex = oracle_verdict(sys, vertex_candidates(sys))
            grid = oracle_verdict(sys, grid_points(sys))
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
            expected = oracle_verdict(sys, grid_points(sys, 6))
            assert classify(sys).tag is expected.tag

    def test_bundled_verdicts_are_the_vertex_verdicts(self):
        # the grid refutes none of them, so the one-pass verdict keeps its bytes
        for sys in BUNDLED.values():
            vertex = oracle_verdict(sys, vertex_candidates(sys))
            assert classify(sys).to_dict() == vertex.to_dict()

    def test_grid_zero_refutes_a_vertex_case_i(self):
        # the vertices miss the delta = 0 cell; a cell point's exact zero settles it
        sys = FormSystem([(2, 1)], [(1, 1), (1, 0)])
        assert oracle_verdict(sys, vertex_candidates(sys)).tag is Tag.CASE_I
        v = classify(sys)
        assert v.tag is Tag.CASE_II
        assert in_jump_region(sys, v.witness) and delta_at(sys, v.witness) == 0

    def test_corner_witness_precedes_grid_negatives(self):
        # no vertex is negative, a cell point is; the closed-box corner still wins
        sys = FormSystem([(0, 1)], [(1, 1)])
        assert delta_at(sys, (Fraction(1, 4), Fraction(3, 4))) < 0
        v = classify(sys)
        assert v.tag is Tag.NOT_NONNEGATIVE
        assert v.witness == (Fraction(1), Fraction(0))

    def test_large_entries_walk_exhaustively(self):
        # entries with lcm 360; the whole walk solves 1099 subsets
        sys = FormSystem([(9, 8)], [(5, 3), (4, 5)])
        v = classify(sys)
        assert not v.sampled
        assert v.tag is Tag.CASE_II
        assert in_jump_region(sys, v.witness) and delta_at(sys, v.witness) == 0

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
        alone = oracle_verdict(sys, points)
        _assert_exact(sys, alone)
        assert _STRENGTH[v.tag] >= _STRENGTH[alone.tag]


@settings(max_examples=40, deadline=None)
@given(_form_systems(2, 2, 3))
@example(([(2, 1)], [(1, 1), (1, 0)]))  # the vertices miss the zero
@example(([(0, 1)], [(1, 1)]))  # the vertices miss the negative points
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
@given(raw_or_standard_systems().flatmap(lambda s: st.tuples(st.just(s), _rationals(s.d))),
       st.integers(1, 5))
# a form that e and f share decides jump membership: delta is 0 there, and
# the point is on the jump region only through that form
@example((FormSystem([(1, 1)], [(1, 1)], raw=True), (Fraction(1, 2), Fraction(3, 4))), 1)
@example((FormSystem([(2, 1), (1, 0)], [(2, 1), (0, 1)], raw=True),
          (Fraction(1, 2), Fraction(1, 4))), 2)
def test_kernel_matches_fraction_evaluation(case, scale):
    sys, x = case
    assert delta_at(sys, x) == oracle_delta(sys, x)
    box = tuple(c - math.floor(c) for c in x)
    assert in_jump_region(sys, box) is oracle_in_jump_region(sys, box)
    # any common denominator gives the same values, not only the lcm
    D = math.lcm(*(c.denominator for c in box)) * scale
    num = tuple(int(c * D) for c in box)
    assert _delta_jump(sys.counts, num, D) == (oracle_delta(sys, box), oracle_in_jump_region(sys, box))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bareiss_matches_fraction_elimination(data):
    d = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(1, 4))  # right-hand columns
    row = st.tuples(*[st.integers(-4, 4)] * (d + r))
    rows = data.draw(st.lists(row, min_size=d, max_size=d))
    if data.draw(st.booleans()):  # a repeated left-hand row makes A singular
        rows[-1] = rows[0][:d] + rows[-1][d:]
    if data.draw(st.booleans()):  # [A | I], as the vertex path runs it
        rows = [(*row[:d], *(int(i == j) for j in range(d))) for i, row in enumerate(rows)]
        r = d
    got = _solve_bareiss(rows)
    columns = [_solve_exact([(row[:d], row[d + j]) for row in rows]) for j in range(r)]
    if columns[0] is None:
        assert got is None
    else:
        num, den = got
        assert den > 0 and len(num) == d and all(len(x) == r for x in num)
        for j, expected in enumerate(columns):
            assert tuple(Fraction(x[j], den) for x in num) == expected


@st.composite
def _parallel_rows(draw, k):
    """Integer rows (a, b) with normals a >= 0 and 0 < b < sum(a), as the
    cell walk's slices give them.  Each normal comes at a second scale too,
    so parallel normals of different scale meet, as (3, 0, 1) meets the
    face (1, 0, 1)."""
    out = []
    # up to 6 constants a normal where the vertex path multiplies them out
    constants = 3 if k == 1 else 6
    for a in draw(st.lists(st.tuples(*[st.integers(0, 4)] * k).filter(any), max_size=4)):
        scale = draw(st.integers(1, 3))
        for v in (a, tuple(scale * c for c in a)):
            bs = draw(st.sets(st.integers(1, sum(v)), max_size=constants))
            out += [(*v, b) for b in bs if b < sum(v)]
    return list(dict.fromkeys(out))


def _check_box_vertices(planes, k, limit):
    budget, oracle_budget = _Budget(limit), _Budget(limit)
    try:
        got = _box_vertices(planes, k, budget)
    except BudgetExceededError:
        got = None
    try:
        expected = oracle_box_vertices(planes, k, oracle_budget)
    except BudgetExceededError:
        expected = None
    assert got == expected
    assert budget.spent == oracle_budget.spent


@settings(max_examples=100, deadline=None)
@given(raw_or_standard_systems(max_d=3, max_forms=3), st.integers(0, 400))
@example(FormSystem([(3, 0)], [(1, 1)]), 400)  # 3x = 1 and 3x = 2 beside the face x = 1
@example(FormSystem([(3, 0, 1), (1, 0, 1)], [(0, 0, 0), (2, 0, 2)], raw=True), 400)
@example(FormSystem([(2, 3, 3)], [(1, 1, 1), (1, 2, 2)]), math.inf)
def test_box_vertices_match_the_per_subset_oracle(sys, limit):
    planes = _planes(sys, _Budget(math.inf))
    _check_box_vertices(planes, sys.d, limit)
    _check_box_vertices(planes, sys.d, math.inf)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), _parallel_rows(k))))
@example((1, [(2, 1), (4, 2), (4, 3)]))  # 4x = 2 is the vertex 1/2 of 2x = 1 again
def test_box_vertices_match_the_oracle_on_parallel_rows(k_planes):
    k, planes = k_planes
    _check_box_vertices(planes, k, math.inf)


def oracle_pair_vertices(rows):
    """Every point in [0,1]^2 where two rows (a, b, c), a x + b y = c, of
    distinct normals meet, in Fractions, as numerators over a denominator
    in lowest terms."""
    pts = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(rows, 2):
        x = _solve_exact([((a1, b1), c1), ((a2, b2), c2)])
        if x is not None and all(0 <= c <= 1 for c in x):
            D = math.lcm(*(c.denominator for c in x))
            pts.add((tuple(int(c * D) for c in x), D))
    return pts


@st.composite
def _rows_2d(draw):
    """Rows (a, b, c) of either sign: some at random, some at a second
    scale of one of them (parallel), and some through one drawn point P of
    [0,1]^2 (three or more concurrent lines, on an edge or a corner when P
    is), in drawn order, so a normal's constants need not ascend and the
    normals meet at determinants of both signs."""
    entry = st.integers(-3, 4)
    rows = draw(st.lists(st.tuples(entry, entry, st.integers(-2, 8)), max_size=5))
    for a, b, _ in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []:
        s = draw(st.integers(2, 3))
        rows.append((s * a, s * b, draw(st.integers(-2, 3 * s))))
    D = draw(st.integers(1, 6))
    p, q = draw(st.integers(0, D)), draw(st.integers(0, D))  # P = (p, q) / D
    for a, b in draw(st.lists(st.tuples(entry, entry), max_size=4)):
        rows.append((a * D, b * D, a * p + b * q))
    return draw(st.permutations(rows))


# the rows the kernel sees beside the faces x = 0, y = 0, x = 1, y = 1
_FACES_2D = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]


@settings(max_examples=200, deadline=None)
@given(_rows_2d())
@example([(1, 1, 1), (2, 2, 1), (2, 2, 3)])  # parallel rows; corners (1, 0), (0, 1)
@example([(4, 2, 3), (1, 3, 2), (1, 1, 1)])  # three lines through (1/2, 1/2)
@example([(3, 0, 2), (3, 0, 1), (1, 2, 1)])  # descending constants of one normal
@example([(0, 1, 1), (1, 0, 0), (2, 1, 2), (1, 2, 0)])  # det < 0; faces repeated
def test_two_variable_vertices_match_the_pairwise_oracle(rows):
    charges = []

    class Meter(_Budget):
        def spend(self, n):
            charges.append(n)
            super().spend(n)

    got = _box_vertices(rows, 2, Meter(math.inf))
    assert got == oracle_pair_vertices([*rows, *_FACES_2D])
    n = math.comb(len(rows) + 4, 2)
    assert charges == [n]
    # one pair short of the charge raises before any vertex is returned
    with pytest.raises(BudgetExceededError, match=f"^{n} plane subsets exceed the budget of {n - 1}$"):
        _box_vertices(rows, 2, _Budget(n - 1))


# the oracle solves ~10^4 subsets a second, so at most two vectors a side
@settings(max_examples=40, deadline=None)
@given(raw_or_standard_systems(max_forms=2))
@example(FormSystem([(2, 3, 3)], [(1, 1, 1), (1, 2, 2)]))
def test_vertex_candidates_match_oracle(sys):
    assert vertex_candidates(sys) == oracle_vertex_candidates(sys)


def _pair(sys, num, D):
    return _delta_jump(sys.counts, num, D)


# the Fraction oracle solves ~10^4 subsets a second, so it walks at most
# this many subsets a draw
_ORACLE_SUBSETS = 2000


# grid_points(sys, 6) has (6 lcm)^d points: entries <= 4 in two variables,
# <= 2 in three
@settings(max_examples=40, deadline=None)
@given(st.one_of(
    raw_or_standard_systems(max_d=2, max_forms=2),
    raw_or_standard_systems(max_entry=2, max_forms=2),
))
@example(FormSystem([(0, 1)], [(1, 1)]))  # the vertices miss the negative cells
@example(FormSystem([(2, 1)], [(1, 1), (1, 0)]))  # the vertices miss the zero cell
def test_cell_points_take_every_value_of_the_box(sys):
    budget = _Budget(math.inf)
    planes = _planes(sys, budget)
    cells = list(_cell_points(planes, sys.d, budget, _box_vertices(planes, sys.d, budget)))
    assert all(D > 0 and all(0 < c < D for c in num) for num, D in cells)
    if budget.spent <= _ORACLE_SUBSETS:
        as_fractions = [tuple(Fraction(c, D) for c in num) for num, D in cells]
        assert as_fractions == list(oracle_cell_points(sys, math.inf, []))
    pairs = {_pair(sys, num, D) for num, D in cells}
    # below 1/D no form value or coordinate of x + eps*1 reaches the next
    # multiple of 1/D, so the probe lies in an open cell
    K = 2 * (max(sum(v) for v in sys.forms) + 1)
    for num, D in map(_scale, vertex_candidates(sys) + grid_points(sys, 6)):
        probe = _pair(sys, tuple(c * K + 1 for c in num), D * K)
        assert probe == _pair(sys, num, D)
        assert probe in pairs


def _classify_charging(sys, budget):
    """classify's verdict under ``budget``, or None when it raises, and the
    subset counts it charged, level by level; a top level past the budget
    stops as its planes are listed, and its count stands for its charge."""
    charges = []
    spend = _Budget.spend

    def spy(meter, n):
        charges.append(n)
        spend(meter, n)

    with mock.patch.object(_Budget, "spend", spy):
        try:
            return classify(sys, budget), charges
        except BudgetExceededError:
            return None, charges or [_charge(len(_planes(sys, _Budget(math.inf))), sys.d)]


@settings(max_examples=30, deadline=None)
@given(raw_or_standard_systems(max_forms=2))
@example(FormSystem([(2, 1)], [(1, 1), (1, 0)]))  # a cell zero: [21, 4, 4] -> [21, 4]
@example(FormSystem([(0, 1)], [(1, 1)]))  # closed-box corner
@example(RAW_2D)
@example(FormSystem([(2, 3, 3)], [(0, 1, 0), (2, 1, 2), (0, 1, 1)]))  # classify-batch's 3-D head
@example(CUBIC_SPLIT)  # a vertex zero: [21, 2, 2, 2, 2] -> [21]
@example(FormSystem([(2, 1)], [(1, 0), (0, 1)]))  # flagged: [15, 3, 3] -> [15]
@example(CHEBYSHEV)  # no split: the complete walk
# the top level alone passes the budget: the listing of its planes stops
@example(FormSystem([(2, 4, 4), (3, 4, 3)], [(0, 1, 1)], raw=True))
def test_classify_matches_fraction_oracle(sys):
    ledger = []
    try:
        exhaustive = oracle_classify(sys, _ORACLE_SUBSETS, ledger)
    except BudgetExceededError:
        exhaustive = None
    verdict, charges = _classify_charging(sys, _ORACLE_SUBSETS)
    # classify charges a prefix of the oracle walk's counts, and stops short
    # of its end only where a split of f under e fixes the verdict
    assert charges == ledger[: len(charges)]
    if len(charges) < len(ledger) and not _unit_f(sys):
        assert _split(sys) and verdict.tag in (Tag.CASE_II, Tag.E_STRICTLY_BIGGER)
    elif len(charges) < len(ledger):
        assert len(charges) == 1  # delta >= 1 on the jump region: the top level decides
    else:
        assert (verdict is None) == (exhaustive is None)
    # every budget below classify's own count raises, naming the running
    # count that first passes it; the count itself gives the oracle's verdict
    running = list(itertools.accumulate(charges))
    spent = running[-1]
    # the walk stops only where a level's count is charged, so each running
    # count and one short of it stand for every budget below the total
    # below the top level's count, the listing of its planes stops at the
    # first count of the planes listed so far that passes the budget
    listed = [_charge(n, sys.d) for n in range(len(_planes(sys, _Budget(math.inf))) + 1)]
    for budget in sorted({0} | {b for r in running for b in (r - 1, r) if b < spent}):
        first_past = next(r for r in listed + running if r > budget)
        message = f"^{first_past} plane subsets exceed the budget of {budget}$"
        with pytest.raises(BudgetExceededError, match=message):
            classify(sys, budget)
    if exhaustive is not None:
        assert classify(sys, spent).to_dict() == exhaustive.to_dict()


# first fit places f only in decreasing order of sum: (1, 0) first would
# take the room (2, 1) needs
DECREASING = FormSystem([(2, 1), (1, 1)], [(1, 0), (2, 1), (0, 1), (0, 0)], raw=True)


def test_first_fit_takes_f_in_decreasing_order_of_sum():
    assert _split(DECREASING)
    assert _classify_charging(DECREASING, BUDGET)[1] == [21]


@pytest.mark.parametrize("sys, listed", [
    # one plane x = m / N per m < N, and x = m / (N - 1): 6 * 10^6 rows in all
    (FormSystem([(3 * 10**6,)], [(3 * 10**6 - 1,), (1,)]), 9),
    # about 4 * 10^6 rows, each charge C(rows + 4, 2)
    (FormSystem([(10**6, 10**6)], [(10**6, 0), (0, 10**6)]), 2),
])
def test_a_budget_stops_the_listing_of_planes(monkeypatch, sys, listed):
    # every row listed takes one gcd; a spy stops a listing that runs on
    budget, rows = 10, []

    def gcd(*args):
        rows.append(args)
        assert len(rows) <= budget + 1, "the planes were listed past the budget"
        return math.gcd(*args)

    spy = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
    monkeypatch.setattr(landau, "math", mock.Mock(**spy | {"gcd": gcd}))
    message = f"^{_charge(listed, sys.d)} plane subsets exceed the budget of {budget}$"
    with pytest.raises(BudgetExceededError, match=message):
        classify(sys, budget)
    assert len(rows) == listed


# the Fraction oracle evaluates every vertex and the cell points of its walk
# up to _ORACLE_SUBSETS subsets
@settings(max_examples=40, deadline=None)
@given(raw_or_standard_systems(max_forms=2))
@example(DECREASING)
@example(CHEBYSHEV)  # delta >= 0 with no split
def test_a_split_proves_delta_nonnegative_on_the_closed_box(sys):
    if not _split(sys):
        return
    assert all(map(operator.ge, sys.sum_e, sys.sum_f))  # the unit corners
    points = oracle_vertex_candidates(sys)
    try:
        for x in oracle_cell_points(sys, _ORACLE_SUBSETS, []):
            points.append(x)
    except BudgetExceededError:
        pass  # the points walked within the oracle's budget
    assert min(oracle_delta(sys, x) for x in points) >= 0


@st.composite
def unit_f_systems(draw):
    """Systems of one to three variables whose f vectors are unit vectors:
    e at random, f as many unit vectors as e's column sums, give or take
    one, so the column sums may differ either way.  A raw draw may add a
    zero vector or a form that e and f share."""
    d = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 3 if d < 3 else 2)] * d).filter(any)
    e = draw(st.lists(vec, min_size=1, max_size=3 if d < 3 else 1))
    f = []
    for i, total in enumerate(map(sum, zip(*e))):
        unit = tuple(int(j == i) for j in range(d))
        f += [unit] * max(0, total + draw(st.sampled_from([0, 0, 0, -1, 1])))
    raw = draw(st.booleans()) or bool(set(e) & set(f))
    if raw:
        extra = draw(st.lists(st.sampled_from([(0,) * d, *e]), max_size=2))
        e, f = e + extra, f + extra
    assume(f)
    return FormSystem(e, f, raw=raw)


def _complete_walk(sys):
    """classify's verdict and ledger with neither stop: the complete walk."""
    with mock.patch("mirrorint.landau._unit_f", return_value=False), \
            mock.patch("mirrorint.landau._split", return_value=False):
        return _classify_charging(sys, BUDGET)


@settings(max_examples=60, deadline=None)
@given(unit_f_systems())
@example(CUBIC_2D)
@example(FormSystem([(3, 3, 3)], [(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 3))
@example(FormSystem([(2, 1)], [(1, 0), (0, 1)]))  # EStrictlyBigger
@example(FormSystem([(1, 1)], [(1, 0), (1, 0), (0, 1)]))  # a smaller e-column sum
@example(FormSystem([(1, 1), (1, 1)], [(1, 1), (1, 0), (0, 1)], raw=True))  # e cancels (1, 1)
def test_unit_f_decides_at_the_top_level_as_the_complete_walk(sys):
    assert _unit_f(sys)
    walked, ledger = _complete_walk(sys)
    verdict, charges = _classify_charging(sys, BUDGET)
    assert verdict.to_dict() == walked.to_dict()
    assert charges == ledger[:1]


def test_a_split_stops_the_classify_batch_walks_early():
    # a seed-1 classify-batch draw charged 12,769 subsets in 610 level counts
    # with every walk complete, 9,410 in 195 with the split's stops; dropping
    # either stop (CaseII or EStrictlyBigger) charges more than 290 counts
    charges = []
    for e, f in bench_workloads().classify_systems(1):
        charges += _classify_charging(FormSystem(e, f), BUDGET)[1]
    assert len(charges) <= 200


# sha256 of classify's stdout over the classify-batch draws of seeds 1-3
# (459 systems), recorded with a Bareiss elimination at every level of the
# walk: a faster vertex kernel must print the same bytes
BATCH_VERDICTS = "fbc5d18ce2aaa8d0f61f9ec6022e54a265540097020be1f644a275533bc336dc"


def test_classify_batch_verdict_bytes_are_pinned(capsys, monkeypatch):
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for e, f in bench_workloads().classify_systems(seed):
            job = json.dumps({"system": {"e": e, "f": f}})
            monkeypatch.setattr("sys.stdin", io.StringIO(job))
            cli.main(["classify", "-"])
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BATCH_VERDICTS


def test_budget_counts_the_subsets_of_every_level():
    # x + y = j/3 (j = 1..5) and four faces give C(9, 2) = 36 pairs at the
    # top; x cuts at 0, 1/3, 2/3, 1, and each of the three slices holds
    # three planes y = j/3 - x and two faces, 5 subsets of one row
    ledger = []
    exhaustive = oracle_classify(CUBIC_2D, ledger=ledger)
    assert ledger == [36, 5, 5, 5]
    # every f of cubic-2d is a unit vector, so classify walks no cell
    assert classify(CUBIC_2D, 36).to_dict() == exhaustive.to_dict()
    with pytest.raises(BudgetExceededError, match="plane subsets"):
        classify(CUBIC_2D, 35)
    # with f = (1, 1) the complete walk charges every level: x + y = 1/2,
    # 1, 3/2 and four faces give C(7, 2) = 21 pairs, then two slices of 4
    sys = FormSystem([(2, 2)], [(1, 1), (1, 0), (0, 1)])
    ledger = []
    exhaustive = oracle_classify(sys, ledger=ledger)
    assert ledger == [21, 4, 4] and exhaustive.tag is Tag.CASE_I
    assert classify(sys, 29).to_dict() == exhaustive.to_dict()
    with pytest.raises(BudgetExceededError, match="plane subsets"):
        classify(sys, 28)
