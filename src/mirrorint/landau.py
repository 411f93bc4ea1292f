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
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .forms import FormSystem, dot

Point = tuple[Fraction, ...]


class BudgetExceededError(RuntimeError):
    """Raised when exhaustive candidate enumeration would exceed its budget."""


def _as_point(sys: FormSystem, x: Sequence) -> Point:
    x = tuple(Fraction(c) for c in x)
    if len(x) != sys.d:
        raise ValueError(f"point has length {len(x)}, expected {sys.d}")
    return x


def delta_at(sys: FormSystem, x: Sequence) -> int:
    """Evaluate the Landau function at an exact rational point ``x >= 0``."""
    x = _as_point(sys, x)
    if any(c < 0 for c in x):
        raise ValueError("delta is evaluated at componentwise nonnegative points")
    total = 0
    for v in sys.e:
        total += math.floor(dot(v, x))
    for v in sys.f:
        total -= math.floor(dot(v, x))
    return total


def in_jump_region(sys: FormSystem, x: Sequence) -> bool:
    """True iff some form value c.x reaches 1, for x in [0,1)^d.

    This is the region where the Landau function can be nonzero; off it the
    function vanishes identically.
    """
    x = _as_point(sys, x)
    if any(c < 0 or c >= 1 for c in x):
        raise ValueError("membership is defined for points of [0,1)^d")
    return any(dot(v, x) >= 1 for v in sys.forms)


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


def _delta_1d(E: Sequence[int], F: Sequence[int], x: Fraction) -> int:
    return sum(math.floor(c * x) for c in E) - sum(math.floor(c * x) for c in F)


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
    points = sorted({Fraction(j, a) for a in E + F for j in range(1, a + 1)})
    amplitudes = []
    prev = 0
    for g in points:
        val = _delta_1d(E, F, g)
        amplitudes.append(val - prev)
        prev = val
    return JumpProfile(tuple(points), tuple(amplitudes))


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


def _hyperplanes(sys: FormSystem) -> list[tuple[tuple[int, ...], Fraction]]:
    """Normalized hyperplanes c.x = m crossing [0,1)^d, plus x_i = 0."""
    seen = set()
    planes = []

    def add(normal, offset):
        g = math.gcd(*normal)
        normal = tuple(c // g for c in normal)
        offset = Fraction(offset, g)
        key = (normal, offset)
        if key not in seen:
            seen.add(key)
            planes.append(key)

    for i in range(sys.d):
        unit = tuple(1 if j == i else 0 for j in range(sys.d))
        add(unit, 0)
    for v in set(sys.forms):
        if not any(v):
            continue
        top = sum(v)
        for m in range(top):
            add(v, m)
    return planes


def _solve_exact(rows: list[tuple[tuple[int, ...], Fraction]]) -> Optional[Point]:
    """Solve the d x d rational system given by (normal, offset) rows.

    Returns None when the system is singular.
    """
    d = len(rows)
    mat = [[Fraction(c) for c in normal] + [offset] for normal, offset in rows]
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


def vertex_candidates(sys: FormSystem, budget: int = 2_000_000) -> list[Point]:
    """All vertices of the floor arrangement inside [0,1)^d.

    Intersects every d-subset of the hyperplane family; the floor
    convention makes the value of delta at a vertex equal its value on the
    cell immediately up-right, so these points represent cells.
    """
    planes = _hyperplanes(sys)
    n_subsets = math.comb(len(planes), sys.d)
    if n_subsets > budget:
        raise BudgetExceededError(
            f"{n_subsets} candidate systems exceed the budget of {budget}"
        )
    pts = set()
    for subset in itertools.combinations(planes, sys.d):
        x = _solve_exact(list(subset))
        if x is not None and all(0 <= c < 1 for c in x):
            pts.add(x)
    return sorted(pts)


def grid_denominator(sys: FormSystem, multiplier: int = GRID_MULTIPLIER) -> int:
    """Denominator used by the grid strategy: lcm of entries times a multiplier."""
    entries = [c for v in sys.forms for c in v if c != 0]
    return math.lcm(*entries) * multiplier


def grid_points(sys: FormSystem, multiplier: int = GRID_MULTIPLIER) -> list[Point]:
    """The full denominator-N grid of [0,1)^d for the cross-check strategy."""
    N = grid_denominator(sys, multiplier)
    axis = [Fraction(i, N) for i in range(N)]
    return [tuple(p) for p in itertools.product(axis, repeat=sys.d)]


def _random_points(sys: FormSystem) -> list[Point]:
    rng = random.Random(SAMPLE_SEED)
    base = grid_denominator(sys)
    pts = set()
    for _ in range(RANDOM_SAMPLES):
        den = base * rng.randint(1, 8)
        pts.add(tuple(Fraction(rng.randrange(den), den) for _ in range(sys.d)))
    return sorted(pts)


def _verdict_from_points(
    sys: FormSystem, points: Sequence[Point], sampled: bool, refuters: Iterable[Point] = ()
) -> CriterionVerdict:
    """The verdict delta proves at ``points``, then at ``refuters``; the
    first witness found wins, and a Case I certificate lists ``points`` only."""
    zero_witness = None
    certificate = []
    for x in points:
        val = delta_at(sys, x)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=x, sampled=sampled)
        if in_jump_region(sys, x):
            if val == 0:
                if zero_witness is None:
                    zero_witness = x
            else:
                certificate.append((x, val))
    # Closed-box corners: at the k-th unit corner delta equals the
    # coordinate margin, so a strictly smaller e-column sum is a negativity
    # witness the half-open box cannot show.
    for k in range(sys.d):
        if sys.sum_e[k] < sys.sum_f[k]:
            corner = tuple(Fraction(int(i == k)) for i in range(sys.d))
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=corner, sampled=sampled)
    for x in refuters:
        val = delta_at(sys, x)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=x, sampled=sampled)
        if zero_witness is None and val == 0 and in_jump_region(sys, x):
            zero_witness = x
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
    certificate lists the vertex values.  When the arrangement is
    too large for the budget the classifier falls back to the grid plus
    ``RANDOM_SAMPLES`` points drawn with seed ``SAMPLE_SEED`` and marks the
    verdict as sampled; with ``allow_fallback=False`` it raises
    ``BudgetExceededError`` instead.
    """
    if strategy is None:
        strategy = SamplingStrategy()
    grid_size = grid_denominator(sys) ** sys.d
    if grid_size > strategy.budget:
        if not strategy.allow_fallback:
            raise BudgetExceededError(
                f"grid of {grid_size} points exceeds the budget of {strategy.budget}"
            )
        coarse = grid_points(sys, 1) if grid_denominator(sys, 1) ** sys.d <= strategy.budget else []
        pts = sorted(set(coarse) | set(_random_points(sys)))
        return _verdict_from_points(sys, pts, sampled=True)
    grid = grid_points(sys)
    try:
        vertices = vertex_candidates(sys, budget=strategy.budget)
    except BudgetExceededError:
        if not strategy.allow_fallback:
            raise
        pts = sorted(set(grid) | set(_random_points(sys)))
        return _verdict_from_points(sys, pts, sampled=True)
    return _verdict_from_points(sys, vertices, False, grid)
