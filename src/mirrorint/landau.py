"""Landau step function and the integrality classifier.

The Landau function of a :class:`~mirrorint.forms.FormSystem` is

    delta(x) = sum_i floor(e_i.x) - sum_j floor(f_j.x),

a Z-valued step function on the unit box.  Its sign pattern decides every
integrality question in this package: nonnegativity on the closed box makes
the factorial ratios integers, and on the jump region (points where some
form value reaches 1) the dichotomy "delta >= 1 everywhere" versus "delta
has a zero" separates integral canonical coordinates from ones with
infinitely many p-adic failures.

``classify`` evaluates delta exactly at the floor-arrangement vertices,
then on a dense rational grid.  A point of either set with delta < 0, or
with delta = 0 on the jump region, proves the verdict it gives.  Case I
rests on neither set refuting it: complete only if the two sets together
meet every full-dimensional cell of the arrangement, which is not proven.
The grid's denominator is the lcm of the form entries times
``GRID_MULTIPLIER``; the sampled fallback, taken when the budget is
exceeded, adds ``RANDOM_SAMPLES`` points from a generator seeded with
``SAMPLE_SEED``.  All three are fixed constants.

Every evaluation is integer arithmetic.  A point x = i/D is given by
integer numerators i over one common denominator D > 0; each form v
contributes one dot product t = v.i, floor(v.x) = t // D exactly, and x
lies on the jump region iff some t >= D.  ``delta_at``,
``in_jump_region``, the classifier's vertices, grid and samples, and the
univariate jump profiles all go through this one kernel.  The vertices
come from fraction-free (Bareiss) elimination on integer plane rows;
Fractions are made only for the vertices inside the box and for the
points a verdict returns.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .forms import FormSystem

Point = tuple[Fraction, ...]


class BudgetExceededError(RuntimeError):
    """Raised when exhaustive candidate enumeration would exceed its budget."""


def _as_point(sys: FormSystem, x: Sequence) -> Point:
    x = tuple(Fraction(c) for c in x)
    if len(x) != sys.d:
        raise ValueError(f"point has length {len(x)}, expected {sys.d}")
    return x


def _scale(x: Point) -> tuple[tuple[int, ...], int]:
    """Integer numerators of ``x`` over the lcm D of its denominators, and D."""
    D = math.lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (D // c.denominator) for c in x), D


def _delta_jump(
    e: Sequence[Sequence[int]], f: Sequence[Sequence[int]], num: Sequence[int], D: int
) -> tuple[int, bool]:
    """Landau value and jump-region membership at the point num/D.

    With t = v.num for each form v, floor(v.x) = t // D exactly, and the
    point reaches the jump region iff some t >= D.
    """
    delta = top = 0
    for v in e:
        t = sum(map(operator.mul, v, num))
        delta += t // D
        top = max(top, t)
    for v in f:
        t = sum(map(operator.mul, v, num))
        delta -= t // D
        top = max(top, t)
    return delta, top >= D


def delta_at(sys: FormSystem, x: Sequence) -> int:
    """Evaluate the Landau function at an exact rational point ``x >= 0``."""
    x = _as_point(sys, x)
    if any(c < 0 for c in x):
        raise ValueError("delta is evaluated at componentwise nonnegative points")
    return _delta_jump(sys.e, sys.f, *_scale(x))[0]


def in_jump_region(sys: FormSystem, x: Sequence) -> bool:
    """True iff some form value c.x reaches 1, for x in [0,1)^d.

    This is the region where the Landau function can be nonzero; off it the
    function vanishes identically.
    """
    x = _as_point(sys, x)
    if any(c < 0 or c >= 1 for c in x):
        raise ValueError("membership is defined for points of [0,1)^d")
    return _delta_jump(sys.e, sys.f, *_scale(x))[1]


def enumerate_weight_vectors(sys: FormSystem) -> list[tuple[int, ...]]:
    """All nonzero integer vectors componentwise dominated by some form vector.

    These index the harmonic-weighted companion series (the mirror-type
    maps).  Returned deduplicated in lexicographic order.
    """
    bounds = [max(v[i] for v in sys.forms) for i in range(sys.d)]
    out = []
    for L in itertools.product(*(range(b + 1) for b in bounds)):
        if not any(L):
            continue
        if any(all(L[i] <= v[i] for i in range(sys.d)) for v in sys.forms):
            out.append(L)
    return out


# ---------------------------------------------------------------------------
# univariate jump profiles


@dataclass(frozen=True)
class JumpProfile:
    """Jump abscissas and amplitudes of a univariate Landau function on (0, 1].

    ``sum(amplitudes[:i])`` equals the function value at ``abscissas[i-1]``
    (the function is right-continuous and vanishes left of the first jump).
    """

    abscissas: tuple[Fraction, ...]
    amplitudes: tuple[int, ...]

    def prefix_value(self, i: int) -> int:
        """Function value at abscissas[i-1] (i is 1-based)."""
        return sum(self.amplitudes[:i])


def univariate_jump_profile(E: Sequence[int], F: Sequence[int]) -> JumpProfile:
    """Jump profile of the univariate Landau function of integers E, F.

    E and F must be disjoint sequences of positive integers.  The abscissas
    are all fractions j/a with a in E+F and 1 <= j <= a; amplitudes are the
    exact jumps there, computed by evaluating the function on both sides.
    """
    E = [int(c) for c in E]
    F = [int(c) for c in F]
    if any(c < 1 for c in E + F):
        raise ValueError("all entries must be positive integers")
    if set(E) & set(F):
        raise ValueError("E and F must be disjoint")
    if not E and not F:
        raise ValueError("at least one entry is required")
    # every abscissa j/a is n/L over the common denominator L
    L = math.lcm(*E, *F)
    nums = sorted({j * (L // a) for a in E + F for j in range(1, a + 1)})
    e = [(c,) for c in E]
    f = [(c,) for c in F]
    amplitudes = []
    prev = 0
    for n in nums:
        val = _delta_jump(e, f, (n,), L)[0]
        amplitudes.append(val - prev)
        prev = val
    return JumpProfile(tuple(Fraction(n, L) for n in nums), tuple(amplitudes))


def jump_criterion_check(E: Sequence[int], F: Sequence[int], i0: int) -> bool:
    """Positivity of the 1/abscissa-weighted jump sums up to index i0.

    Requires the profile's function to be nonnegative on the first i0
    jump intervals; a violation is reported with its abscissa.  Returns
    True iff both sum(m_k / g_k) > 0 and prod(1 + 1/g_k)^(m_k) > 1, taken
    over k <= i0, hold in exact rational arithmetic.
    """
    prof = univariate_jump_profile(E, F)
    if not 1 <= i0 <= len(prof.abscissas):
        raise ValueError("jump index out of range")
    for i in range(1, i0 + 1):
        if prof.prefix_value(i) < 0:
            raise ValueError(
                f"function is negative at abscissa {prof.abscissas[i - 1]}"
            )
    weighted = sum(
        Fraction(m) / g for m, g in zip(prof.amplitudes[:i0], prof.abscissas[:i0])
    )
    prod = Fraction(1)
    for m, g in zip(prof.amplitudes[:i0], prof.abscissas[:i0]):
        prod *= (1 + 1 / g) ** m
    return weighted > 0 and prod > 1


# ---------------------------------------------------------------------------
# classification


class Tag(enum.Enum):
    NOT_NONNEGATIVE = "NotNonnegative"
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    E_STRICTLY_BIGGER = "EStrictlyBigger"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the dichotomy classifier with certificate or witness.

    Exactly the fields appropriate to the tag are populated: a witness
    point with delta < 0 for NOT_NONNEGATIVE, a zero of delta on the jump
    region for CASE_II, the 1-based coordinate for E_STRICTLY_BIGGER, and
    the evaluated sample list for CASE_I.  ``sampled`` marks verdicts
    produced by the non-exhaustive fallback.
    """

    tag: Tag
    witness: Optional[Point] = None
    coordinate: Optional[int] = None
    certificate: Optional[tuple[tuple[Point, int], ...]] = None
    sampled: bool = False

    def to_dict(self) -> dict:
        out: dict = {"tag": self.tag.value, "sampled": self.sampled}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        if self.coordinate is not None:
            out["coordinate"] = self.coordinate
        if self.certificate is not None:
            out["certificate_size"] = len(self.certificate)
            out["certificate"] = [
                {"point": [str(c) for c in pt], "delta": val}
                for pt, val in self.certificate
            ]
        return out


# grid resolution and sampled fallback (see the module docstring); the
# fixed seed makes sampled verdicts reproducible
GRID_MULTIPLIER = 4
RANDOM_SAMPLES = 512
SAMPLE_SEED = 0


@dataclass
class SamplingStrategy:
    """The classifier's point budget and whether it may fall back to sampling."""

    budget: int = 2_000_000
    allow_fallback: bool = True


def _hyperplanes(sys: FormSystem) -> list[tuple[int, ...]]:
    """Planes c.x = m crossing [0,1)^d, plus x_i = 0, as integer rows.

    Each plane appears once, as the row (a_1, ..., a_d, b) of a.x = b with
    a primitive normal scaled by the denominator of its lowest-terms offset.
    """
    seen = set()
    rows = []

    def add(normal, offset):
        g = math.gcd(*normal)
        h = math.gcd(offset, g)
        row = tuple(c // g * (g // h) for c in normal) + (offset // h,)
        if row not in seen:
            seen.add(row)
            rows.append(row)

    for i in range(sys.d):
        unit = tuple(1 if j == i else 0 for j in range(sys.d))
        add(unit, 0)
    for v in set(sys.forms):
        if not any(v):
            continue
        top = sum(v)
        for m in range(top):
            add(v, m)
    return rows


def _solve_bareiss(rows: Sequence[tuple[int, ...]]) -> Optional[tuple[list[int], int]]:
    """Solve the d x d system with augmented integer rows, fraction-free.

    Bareiss's Gauss-Jordan elimination keeps every entry an integer (each
    division is exact); it returns the numerators and the positive common
    denominator of the solution, or None when the system is singular.
    """
    d = len(rows)
    m = [list(r) for r in rows]
    prev = 1
    for k in range(d):
        p = next((r for r in range(k, d) if m[r][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(d):
            if i != k:
                row = m[i]
                a = row[k]
                for j in range(k + 1, d + 1):
                    row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        prev = pivot
    num = [row[d] for row in m]
    if prev < 0:
        return [-c for c in num], -prev
    return num, prev


def vertex_candidates(sys: FormSystem, budget: int = 2_000_000) -> list[Point]:
    """All vertices of the floor arrangement inside [0,1)^d.

    Intersects every d-subset of the hyperplane family; the floor
    convention makes the value of delta at a vertex equal its value on the
    cell immediately up-right, so these points represent cells.  Each
    subset is solved on integers; only the distinct points inside the box
    become Fractions.
    """
    planes = _hyperplanes(sys)
    n_subsets = math.comb(len(planes), sys.d)
    if n_subsets > budget:
        raise BudgetExceededError(
            f"{n_subsets} candidate systems exceed the budget of {budget}"
        )
    pts = set()
    for subset in itertools.combinations(planes, sys.d):
        solved = _solve_bareiss(subset)
        if solved is None:
            continue
        num, den = solved
        if all(0 <= c < den for c in num):
            g = math.gcd(den, *num)
            pts.add((tuple(c // g for c in num), den // g))
    return sorted(tuple(Fraction(c, den) for c in num) for num, den in pts)


def grid_denominator(sys: FormSystem, multiplier: int = GRID_MULTIPLIER) -> int:
    """Denominator used by the grid strategy: lcm of entries times a multiplier."""
    entries = [c for v in sys.forms for c in v if c != 0]
    return math.lcm(*entries) * multiplier


def grid_points(sys: FormSystem, multiplier: int = GRID_MULTIPLIER) -> list[Point]:
    """The full denominator-N grid of [0,1)^d for the cross-check strategy."""
    N = grid_denominator(sys, multiplier)
    axis = [Fraction(i, N) for i in range(N)]
    return [tuple(p) for p in itertools.product(axis, repeat=sys.d)]


def _sample_points(sys: FormSystem, grid_den: int) -> list[tuple[tuple[int, ...], int]]:
    """The sampled fallback's points, sorted, over one common denominator.

    ``RANDOM_SAMPLES`` seeded draws of denominator N*k (N the grid
    denominator, 1 <= k <= 8), plus the denominator-``grid_den`` grid
    unless ``grid_den`` is 0.
    """
    N = grid_denominator(sys)
    D = N * math.lcm(*range(1, 9))
    rng = random.Random(SAMPLE_SEED)
    pts = set()
    for _ in range(RANDOM_SAMPLES):
        den = N * rng.randint(1, 8)
        pts.add(tuple(rng.randrange(den) * (D // den) for _ in range(sys.d)))
    if grid_den:
        step = D // grid_den
        pts.update(
            tuple(c * step for c in i)
            for i in itertools.product(range(grid_den), repeat=sys.d)
        )
    return [(num, D) for num in sorted(pts)]


def _verdict(
    sys: FormSystem,
    points: Iterable[tuple[Sequence[int], int]],
    sampled: bool,
    refuters: Iterable[tuple[Sequence[int], int]] = (),
) -> CriterionVerdict:
    """The verdict delta proves at ``points``, then at ``refuters``, each
    given as (numerators, denominator) pairs; the first witness found wins,
    and a Case I certificate lists ``points`` only."""
    e, f = sys.e, sys.f

    def point(num, D) -> Point:
        return tuple(Fraction(c, D) for c in num)

    zero_witness = None
    certificate = []
    for num, D in points:
        val, jump = _delta_jump(e, f, num, D)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=point(num, D), sampled=sampled)
        if jump:
            if val == 0:
                if zero_witness is None:
                    zero_witness = point(num, D)
            else:
                certificate.append((point(num, D), val))
    # Closed-box corners: at the k-th unit corner delta equals the
    # coordinate margin, so a strictly smaller e-column sum is a negativity
    # witness the half-open box cannot show.
    for k in range(sys.d):
        if sys.sum_e[k] < sys.sum_f[k]:
            corner = tuple(Fraction(int(i == k)) for i in range(sys.d))
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=corner, sampled=sampled)
    for num, D in refuters:
        val, jump = _delta_jump(e, f, num, D)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=point(num, D), sampled=sampled)
        if zero_witness is None and val == 0 and jump:
            zero_witness = point(num, D)
    if sys.sum_e != sys.sum_f:
        k = next(i for i in range(sys.d) if sys.sum_e[i] > sys.sum_f[i])
        return CriterionVerdict(Tag.E_STRICTLY_BIGGER, coordinate=k + 1, sampled=sampled)
    if zero_witness is not None:
        return CriterionVerdict(Tag.CASE_II, witness=zero_witness, sampled=sampled)
    return CriterionVerdict(Tag.CASE_I, certificate=tuple(certificate), sampled=sampled)


def classify(
    sys: FormSystem, strategy: Optional[SamplingStrategy] = None
) -> CriterionVerdict:
    """Decide the integrality dichotomy for a form system.

    Walks the arrangement vertices, then the grid, in one pass: the first
    exact witness settles the verdict, and a smaller e-column sum answers
    with its closed-box corner before the grid is walked.  A Case I
    certificate lists the vertex values.  Delta is evaluated on integers
    by floor division: a vertex (exact, from Bareiss elimination) as its
    numerators over their lcm, a grid point as its index tuple over the
    grid denominator N; the grid makes Fractions only for a witness it
    returns.  When the arrangement is
    too large for the budget the classifier falls back to the grid plus
    ``RANDOM_SAMPLES`` points drawn with seed ``SAMPLE_SEED`` and marks the
    verdict as sampled; with ``allow_fallback=False`` it raises
    ``BudgetExceededError`` instead.
    """
    if strategy is None:
        strategy = SamplingStrategy()
    N = grid_denominator(sys)
    grid_size = N ** sys.d
    if grid_size > strategy.budget:
        if not strategy.allow_fallback:
            raise BudgetExceededError(
                f"grid of {grid_size} points exceeds the budget of {strategy.budget}"
            )
        coarse = grid_denominator(sys, 1)
        pts = _sample_points(sys, coarse if coarse ** sys.d <= strategy.budget else 0)
        return _verdict(sys, pts, sampled=True)
    try:
        vertices = vertex_candidates(sys, budget=strategy.budget)
    except BudgetExceededError:
        if not strategy.allow_fallback:
            raise
        return _verdict(sys, _sample_points(sys, N), sampled=True)
    grid = zip(itertools.product(range(N), repeat=sys.d), itertools.repeat(N))
    return _verdict(sys, map(_scale, vertices), False, grid)
