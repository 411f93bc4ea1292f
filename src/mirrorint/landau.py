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
then at one point of every open cell, found by a cylindrical
(slice-and-recurse) walk.  A point with delta < 0, or with delta = 0 on
the jump region, proves the verdict it gives; every value delta takes on
the box is taken on an open cell, so Case I is proven when no cell point
refutes it.  When the f vectors split under the e vectors, floor(a) +
floor(b) <= floor(a + b) proves delta >= 0 (``_split``), and the walk
stops once the verdict is fixed; when every f vector is a unit vector,
delta >= 1 on the jump region (``_unit_f``), and the vertices decide
without a walk.  Every verdict is proven: a walk that
would charge more plane subsets than its budget before then raises
``BudgetExceededError`` and gives none.

Every evaluation is integer arithmetic.  A point x = i/D is given by
integer numerators i over one common denominator D > 0.  Each (v, m) of
the system's ``counts`` takes one dot product t = v.i, floor(v.x) = t // D
exactly, delta sums m (t // D), and x lies on the jump region iff some
t >= D, a form with m = 0 included.  ``delta_at``, ``in_jump_region``
and the classifier's vertices and cell points all go through this one
kernel.  A level of one variable reads its vertices b/a
off its rows (a, b).  At a level of k >= 2 variables the planes are
grouped by normal vector, and each set of k distinct normals A gives
adj(A) and det A, written down at k = 2 and from one fraction-free
(Bareiss) elimination at k >= 3; each choice b of the planes' constants
then gives the vertex adj(A) b / det A.  The cut
and cell points are integer numerators over one denominator, and a
Fraction is built only for a point a verdict prints.  The budget still
counts plane subsets, C(rows, k) at each level of k variables.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .forms import FormSystem

Point = tuple[Fraction, ...]
Scaled = tuple[tuple[int, ...], int]  # numerators over one positive denominator


class BudgetExceededError(RuntimeError):
    """Raised when the cell walk would charge more plane subsets than its budget."""


def _as_point(sys: FormSystem, x: Sequence) -> Point:
    x = tuple(Fraction(c) for c in x)
    if len(x) != sys.d:
        raise ValueError(f"point has length {len(x)}, expected {sys.d}")
    return x


def _scale(x: Point) -> Scaled:
    """Integer numerators of ``x`` over the lcm D of its denominators, and D."""
    D = math.lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (D // c.denominator) for c in x), D


def _point(num: Sequence[int], D: int) -> Point:
    """The point num/D as Fractions."""
    return tuple(Fraction(c, D) for c in num)


def _delta_jump(
    counts: Sequence[tuple[Sequence[int], int]], num: Sequence[int], D: int
) -> tuple[int, bool]:
    """Landau value and jump-region membership at the point num/D: with
    t = v.num per (v, m) of ``counts``, the sum of m (t // D), and whether
    some t >= D, whatever its m."""
    delta = top = 0
    for v, m in counts:
        t = sum(map(operator.mul, v, num))
        delta += m * (t // D)
        top = max(top, t)
    return delta, top >= D


def delta_at(sys: FormSystem, x: Sequence) -> int:
    """Evaluate the Landau function at an exact rational point ``x >= 0``."""
    x = _as_point(sys, x)
    if any(c < 0 for c in x):
        raise ValueError("delta is evaluated at componentwise nonnegative points")
    return _delta_jump(sys.counts, *_scale(x))[0]


def in_jump_region(sys: FormSystem, x: Sequence) -> bool:
    """True iff some form value c.x reaches 1, for x in [0,1)^d.

    This is the region where the Landau function can be nonzero; off it the
    function vanishes identically.
    """
    x = _as_point(sys, x)
    if any(c < 0 or c >= 1 for c in x):
        raise ValueError("membership is defined for points of [0,1)^d")
    return _delta_jump(sys.counts, *_scale(x))[1]


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
    the vertex values on the jump region for CASE_I.  Every verdict is
    proven, by the complete cell walk, by one stopped once a split of f
    under e has fixed a CASE_II or E_STRICTLY_BIGGER verdict, or by the
    vertices alone where every f is a unit vector, so ``sampled`` is always
    False; it stays in ``to_dict`` for the report's schema.
    """

    tag: Tag
    witness: Optional[Point] = None
    coordinate: Optional[int] = None
    certificate: Optional[tuple[tuple[Point, int], ...]] = None
    sampled = False

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


# the plane subsets the cell walk may charge by default
BUDGET = 2_000_000


class _Budget:
    """A running count of charged plane subsets against a limit."""

    def __init__(self, limit: int):
        self.limit, self.spent = limit, 0

    def spend(self, n: int) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"{self.spent} plane subsets exceed the budget of {self.limit}"
            )


def _distinct(rows: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The integer rows divided by their gcd, each plane once, in first-seen order."""
    out = {}
    for row in rows:
        g = math.gcd(*row)
        out[tuple(c // g for c in row)] = None
    return list(out)


def _planes(sys: FormSystem) -> list[tuple[int, ...]]:
    """The planes v.x = m that cross the open box, 0 < m < sum(v), as
    integer rows (v_1, ..., v_d, m)."""
    return _distinct((*v, m) for v in set(sys.forms) for m in range(1, sum(v)))


def _solve_bareiss(rows: Sequence[tuple[int, ...]]) -> Optional[tuple[list[list[int]], int]]:
    """Solve A X = B for the d x d integer matrix A, given the rows [A | B].

    Bareiss's fraction-free Gauss-Jordan elimination keeps every entry an
    integer (each division is exact).  It returns the numerator rows of X
    over one positive common denominator, or None when A is singular; with
    B = I these are sign(det A) adj(A) over |det A|.
    """
    d = len(rows)
    width = len(rows[0])
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
                for j in range(k + 1, width):
                    row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        prev = pivot
    if prev < 0:
        return [[-c for c in row[d:]] for row in m], -prev
    return [row[d:] for row in m], prev


def _box_vertices(planes: Sequence[tuple[int, ...]], k: int, budget: _Budget) -> set[Scaled]:
    """Every vertex in [0,1]^k of ``planes`` and the faces x_i = 0, x_i = 1,
    as numerators over a positive denominator in lowest terms.

    The budget is charged the C(rows, k) plane subsets first.  At k = 1 each
    row (a, b) has 0 < b < a, by ``_planes`` and the slice filter of
    ``_cell_points``, so the vertices are the points b/a and the faces.  At
    k >= 2 rows sharing a normal are parallel, so a vertex takes k distinct
    normals A, and the vertex of each choice c of their constants is
    adj(A) c / det A.  At k = 2 that is written down: for normals (a1, b1),
    (a2, b2) ordered so that det = a1 b2 - a2 b1 > 0, the vertex of
    constants (c1, c2) is (c1 b2 - c2 b1, a1 c2 - a2 c1) / det, one scalar
    loop over the constants.  At k >= 3 one elimination on [A | I] per
    k-subset A of the normals gives adj(A) and det A.
    """
    if k == 1:
        budget.spend(len(planes) + 2)
        pts = {((0,), 1), ((1,), 1)}
        for a, b in planes:
            g = math.gcd(a, b)
            pts.add(((b // g,), a // g))
        return pts
    faces = [(*(int(j == i) for j in range(k)), b) for b in (0, 1) for i in range(k)]
    rows = [*planes, *faces]
    budget.spend(math.comb(len(rows), k))
    constants: dict[tuple[int, ...], list[int]] = {}
    for row in rows:
        constants.setdefault(row[:k], []).append(row[k])
    pts = set()
    if k == 2:
        for n1, n2 in itertools.combinations(constants, 2):
            det = n1[0] * n2[1] - n2[0] * n1[1]
            if det < 0:  # swapping the two rows negates det, not the vertices
                n1, n2, det = n2, n1, -det
            elif not det:
                continue
            (a1, b1), (a2, b2), cs2 = n1, n2, constants[n2]
            for c1 in constants[n1]:
                x1, y1 = c1 * b2, a2 * c1
                for c2 in cs2:
                    x, y = x1 - c2 * b1, a1 * c2 - y1
                    if 0 <= x <= det and 0 <= y <= det:
                        g = math.gcd(det, x, y)
                        pts.add(((x, y), det) if g == 1 else ((x // g, y // g), det // g))
        return pts
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for normals in itertools.combinations(constants, k):
        solved = _solve_bareiss([(*n, *u) for n, u in zip(normals, unit)])
        if solved is None:
            continue
        adj, den = solved
        # adj(A) b as one flat list per coordinate, one normal at a time
        cols = [[0]] * k
        for j, n in enumerate(normals):
            bs = constants[n]
            cols = [[c + b * row[j] for c in col for b in bs] for col, row in zip(cols, adj)]
        for num in zip(*cols):
            if min(num) >= 0 and max(num) <= den:
                g = math.gcd(den, *num)
                pts.add((num, den) if g == 1 else (tuple(c // g for c in num), den // g))
    return pts


def _half_open(vertices: Iterable[Scaled]) -> list[Scaled]:
    """The vertices inside [0,1)^d, sorted lexicographically by value."""
    inside = [(num, den) for num, den in vertices if all(c < den for c in num)]
    # unpack a list: a long generator unpacked into a call grows the peak
    # RSS with every call on CPython 3.11 (tuple resizing)
    D = math.lcm(*[den for _, den in inside])
    return sorted(inside, key=lambda v: tuple(c * (D // v[1]) for c in v[0]))


def vertex_candidates(sys: FormSystem) -> list[Point]:
    """All vertices of the floor arrangement inside [0,1)^d, where delta
    takes its value on the cell immediately up-right.  A plane v.x = 0
    adds none: in [0,1)^d it is the face x_j = 0 for each j in supp v."""
    vertices = _half_open(_box_vertices(_planes(sys), sys.d, _Budget(math.inf)))
    return [_point(num, den) for num, den in vertices]


def _cell_points(
    planes: Sequence[tuple[int, ...]], k: int, budget: _Budget, vertices: set[Scaled]
) -> Iterator[Scaled]:
    """One point in every open cell of ``planes`` and the faces in (0,1)^k,
    in lexicographic order, as numerators over a positive denominator,
    given their ``vertices`` in [0,1]^k.

    The cut points are the vertices' x_1 numerators over one common
    denominator L, so the midpoint of two cuts a < b is p/q = (a + b)/(2L);
    on that slice a plane a.x = b is the row (q a_2, ..., q a_k, q b - p a_1).
    """
    L = math.lcm(*[den for _, den in vertices])  # a list, as in _half_open
    cuts = sorted({num[0] * (L // den) for num, den in vertices})
    q = 2 * L
    for p in map(sum, itertools.pairwise(cuts)):
        if k == 1:
            yield (p,), q
            continue
        slice_rows = ((*(q * a for a in row[1:-1]), q * row[-1] - p * row[0]) for row in planes)
        rest = _distinct(row for row in slice_rows if 0 < row[-1] < sum(row[:-1]))
        for tail, D in _cell_points(rest, k - 1, budget, _box_vertices(rest, k - 1, budget)):
            yield (p * D, *(q * c for c in tail)), q * D


def grid_denominator(sys: FormSystem, multiplier: int = 4) -> int:
    """Lcm of the form entries times a multiplier."""
    entries = [c for v in sys.forms for c in v if c != 0]
    return math.lcm(*entries) * multiplier


def grid_points(sys: FormSystem, multiplier: int = 4) -> list[Point]:
    """The full denominator-N grid of [0,1)^d, N = ``grid_denominator``: a
    brute-force reference point set, which the classifier does not walk."""
    N = grid_denominator(sys, multiplier)
    axis = [Fraction(i, N) for i in range(N)]
    return [tuple(p) for p in itertools.product(axis, repeat=sys.d)]


def _split(sys: FormSystem) -> bool:
    """Whether first fit, in decreasing order of sum, places each f vector
    in the componentwise room the e vectors have left.

    If it does, the f_j placed in each e_i sum to at most e_i, so for x >= 0
    sum_(j->i) floor(f_j.x) <= floor(sum_(j->i) f_j.x) <= floor(e_i.x), and
    delta >= 0 on the closed box.  A split first fit misses only leaves the
    verdict to the complete walk.
    """
    room = [list(v) for v in sys.e]
    for v in sorted(sys.f, key=sum, reverse=True):
        r = next((r for r in room if all(map(operator.le, v, r))), None)
        if r is None:
            return False
        r[:] = map(operator.sub, r, v)
    return True


def _unit_f(sys: FormSystem) -> bool:
    """Whether every form whose count is not positive is a unit or zero
    vector: the unit-f setting of Krattenthaler and Rivoal, where each f_j
    is one, and any system whose other f vectors are cancelled by e.

    If so, delta is >= 0 on [0,1)^d and >= 1 on its jump region, so no cell
    point can refute Case I.  For x in [0,1)^d and u a unit or zero vector,
    0 <= u.x < 1, so floor(u.x) = 0: delta is the sum of m floor(w.x) over
    the forms of count m > 0, which is >= 0, and a form that reaches 1 at x
    has count m > 0, so delta(x) >= m >= 1 on the jump region.  The verdict
    is then the one the vertices and the unit corner give: Case I with
    equal column sums, its certificate the vertex values the complete walk
    would list; else the corner of a smaller e-column sum, or
    EStrictlyBigger.
    """
    return all(sum(v) <= 1 for v, m in sys.counts if m <= 0)


def _verdict(
    sys: FormSystem,
    vertices: list[Scaled],
    cells: Iterable[Scaled],
    nonnegative: bool = False,
) -> CriterionVerdict:
    """The verdict delta proves on one stream of points: the ``vertices``,
    then the first unit corner whose e-column sum is smaller, then the
    ``cells``.  At the k-th unit corner delta is the k-th column margin,
    so a smaller e-column sum is a negative value the half-open box cannot
    show.  The first negative value wins, then the first zero on the jump
    region, and a Case I certificate lists the vertices only.  With equal
    column sums and delta known to be ``nonnegative``, that first zero is
    the Case II witness and ends the walk."""
    d, counts = sys.d, sys.counts
    smaller = [k for k in range(d) if sys.sum_e[k] < sys.sum_f[k]]
    corners = [(tuple(int(i == k) for i in range(d)), 1) for k in smaller[:1]]
    zero, certificate = None, []
    for i, (num, D) in enumerate(itertools.chain(vertices, corners, cells)):
        val, jump = _delta_jump(counts, num, D)
        if val < 0:
            return CriterionVerdict(Tag.NOT_NONNEGATIVE, witness=_point(num, D))
        if jump and val and i < len(vertices):
            certificate.append((_point(num, D), val))
        elif jump and not val and zero is None:
            zero = _point(num, D)
            if nonnegative:
                break
    if not sys.equal_column_sums:
        k = next(i for i in range(d) if sys.sum_e[i] > sys.sum_f[i])
        return CriterionVerdict(Tag.E_STRICTLY_BIGGER, coordinate=k + 1)
    if zero is not None:
        return CriterionVerdict(Tag.CASE_II, witness=zero)
    return CriterionVerdict(Tag.CASE_I, certificate=tuple(certificate))


def classify(sys: FormSystem, budget: int = BUDGET) -> CriterionVerdict:
    """Decide the integrality dichotomy for a form system.

    The classifier evaluates delta in one pass over one stream of points:
    the arrangement vertices in [0,1)^d, the closed-box corner of a
    smaller e-column sum, then one point of every open cell; the first
    exact witness settles the verdict, and a Case I certificate lists the
    vertex values.
    The cell walk is cylindrical: the cut points are the x_1-coordinates
    of every vertex, in the closed box, of the planes v.x = m
    (0 < m < sum(v)) and the faces x_i = 0, x_i = 1; the midpoint of each
    interval between cut points fixes x_1, and the slice there is walked
    the same way, down to the breakpoints b/a of one variable.  It is
    complete:

    * an open cell projects onto an open x_1-interval whose ends are cut
      points, so that interval holds a midpoint, and the cell's slice
      there is an open cell of the slice arrangement;
    * every form is >= 0 and nonzero (a zero form adds nothing), so
      delta(x) = delta(x + eps*1) for small eps > 0, jump-region
      membership is the same at both points, and x + eps*1 lies in an
      open cell;
    * so every (delta, jump) value taken on [0,1)^d is taken at a cell point.

    When ``_split`` proves delta >= 0, the walk stops once the verdict is
    fixed: unequal column sums give E_STRICTLY_BIGGER after the top level,
    and the first zero on the jump region, in the complete walk's order,
    gives CASE_II with that walk's witness.  When ``_unit_f`` holds (every
    f vector a unit vector, as in cubic-2d), delta >= 1 on the jump region,
    so no cell point can refute Case I: the vertices and the unit corner
    give the complete walk's verdict, and no cell is walked.  Every other
    system takes the complete walk.

    The budget counts plane subsets, C(rows, k) at each level of k
    variables (the rows being the planes and the 2k faces), charged when
    the walk reaches the level, so a walk stopped early charges a prefix
    of the complete walk's levels, and a unit-f system its top level only.
    At k >= 2 the vertices come from one adjugate per set of k distinct
    plane normals, written down at k = 2 (the top level of every
    two-variable system and every two-variable slice) and from one Bareiss
    elimination at k >= 3, so a singular set of normals is skipped once,
    not once per choice of its planes; at k = 1 they are the points b/a of
    the rows (a, b) and the faces.
    A walk that would charge more than ``budget`` subsets before its
    verdict is fixed raises ``BudgetExceededError``, so every verdict
    returned is proven.
    """
    meter = _Budget(budget)
    planes = _planes(sys)
    top = _box_vertices(planes, sys.d, meter)
    split = _split(sys)
    if split and not sys.equal_column_sums:
        return _verdict(sys, [], (), split)  # delta >= 0, so the sums decide
    # with unit f, delta >= 1 on the jump region: no cell point refutes Case I;
    # else the walk is lazy, so the budget can run out inside _verdict
    cells = () if _unit_f(sys) else _cell_points(planes, sys.d, meter, top)
    return _verdict(sys, _half_open(top), cells, split)
