"""The p-adic verification engine.

Everything here works over rationals with p-free denominators, so that
membership in p^t * g * O turns into the valuation inequality
v_p(x) >= t + v_p(g).  The module provides

  * the weight mu_p counting how many p-adic rescalings of an index land
    in the jump region, with g_p = p^mu_p;
  * good residues mod p^s: vectors whose scaled fractional part avoids
    the jump region;
  * the Dieudonne-Dwork product test for exp(G/F), per exponent, on the
    integer forms of F and G;
  * the generalized formal-congruence harness: hypothesis checks and the
    conclusion sweep for the double convolution sums, with an exact
    telescoping identity;
  * the obstruction functionals used by the non-integrality witnesses.

All sweeps are deterministic: each report carries the first locus, in
the lexicographic order of its tuples, with the least margin.  A tracker
replaces its held locus only for a strictly smaller margin, ranked on
PadicInfinity's order: an infinite achieved value has margin INFINITY,
and a finite one against an infinite demand the least margin of all.

The weight lemma ties the harness to the Landau function delta.  By
Legendre, v_p(Q(m)) = sum_(l >= 1) delta(m / p^l); with equal column sums
delta is 1-periodic, and mu_p(m) counts the l with {m / p^l} in the jump
region, so

    v_p(Q(m)) - mu_p(m) = sum_l (delta({m/p^l}) - [{m/p^l} in the jump region]).

In Case I every term is >= 0, so ``weight-lower-bound`` cannot fail at any
m or p; a failing m has an l where delta({m/p^l}) < 0, or = 0 on the jump
region: a Landau witness.

The formal-congruence harness compares p-adic valuations with finite
bounds, so its hot loops are flat list passes that avoid the big rationals
they would otherwise build.  Every reported ``achieved`` value is exact:

  * Jump-region tests are integer: for 0 <= u < q, {u/q} is in the jump
    region exactly when some form w of ``counts`` (zero count included) has w.u >= q.
  * ``harness_sizes`` states how large each table and box is at a prime,
    and the sweeps and ``cli.parse_job`` refuse any past ``HARNESS_BOUND``.
  * Q(n) is written p^v * u with u a p-adic unit.  v is a Legendre sum; u
    is known mod p^R (R is the private constant ``_R``): the unit part of
    N! is prod_(i >= 0) F[floor(N/p^i)], where F[M] is the product of the
    k <= M prime to p, that is |Gamma_p(M+1)| for Morita's Gamma_p.  The
    ratio sweeps read v and u over a whole m box from prefix tables of F.
  * p^e1 x1 - p^e2 x2 has valuation min(e1, e2) when e1 != e2, and
    e + v_p(t) when e1 = e2 = e and the unit difference t is nonzero mod
    p^R; then v_p(t) < R is gcd(t, p^R) read as a power of p.  Where
    w.m = 0 for every net form w (at m = 0, among others), the ratio
    differences are 1 - 1 = 0; any other t = 0 mod p^R is recomputed with
    exact Fractions.  So R sets how often that runs, never a byte.
  * The conclusion runs on exact integers: one call of
    ``forms.factorial_ratios`` gives Q(x) and every Q(a + px) as numerators
    over one denominator D, so a block sum is an int X over D^2, of
    valuation v_p(X) - 2 v_p(D).  Places in the boxes
    [0, K] and in their blocks are sums of per-coordinate strides, shared
    by every residue a.  A level-(s+1) block sums the level-s blocks under
    it; only blocks with m <= K // p^s are visited, since an empty one
    sums to zero and is never a tracker's first update.  Once a margin M
    is known, one pass over the visited blocks drops every X in
    p^(required + M + 2 v_p(D)) Z: its margin is at least M, so it sets no
    new worst.
  * Telescoping: j -> K - j swaps Q(a + p(K-j)) Q(j) and Q(K-j) Q(a + pj),
    so their difference is odd under it.  Level 0 is a first half and that
    half negated, and the total over [0, K], the sum of every level, is
    zero identically: like the weight shift, the telescoping check cannot
    fail, but it is still computed and reported.  As each level partitions
    [0, K], every (a, K, s) has that total, so (a, K, 0) is its only update.
  * The conclusion visits K outermost, yet its loci are ordered by
    (a, K, s, m).  Each residue a has its own tracker, which sees its
    (K, s, m) in order and so holds the first least margin of a.  Merged
    in residue order, a later tracker replacing the result only with a
    strictly smaller margin, they give the first least margin of all.
  * Weight shift: for excluded (n, t), n < p^t, so levels 1..t of n + p^t m
    are n's own, all in the jump region, and level t + l is in it exactly
    when some form w has w.(m mod p^l) >= p^l - c_w, with carry c_w =
    floor(w.n / p^t).  So mu(n + p^t m) = t + kappa_c(m), mu = kappa_0: each
    distinct c sweeps the m box once, and each (n, t) updates the tracker at
    its c's first least margin.  As c >= 0, no margin is negative: the weight
    shift cannot fail, but the sweep still reports its first least margin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Optional, Sequence, Union

from . import kronecker
from .forms import (
    INFINITY,
    FormSystem,
    PadicInfinity,
    dot,
    factorial_ratio,
    factorial_ratios,
    harmonic_weight,
    require_prime,
    vp_int,
    vp_of_rational,
    vp_ratio_legendre,
)
from .mirror import integrality_scan
from .series import MSeries

IntVec = tuple[int, ...]
Valuation = Union[int, PadicInfinity]

# what the formal-congruence harness raises on a system that is not 1-periodic
_UNEQUAL_SUMS = "the congruence harness needs equal column sums"


# ---------------------------------------------------------------------------
# ambient context

# p-adic digits carried by the unit parts of Q.  A difference whose unit part
# vanishes mod p^_R is recomputed exactly: this sets how often, never a byte.
_R = 30


def _digit_products(F: list, top: int, p: int, mod: int) -> list:
    """prod_(i >= 0) F[floor(N / p^i)] mod ``mod``, for N <= top."""
    out = [1]
    while len(out) <= top:
        # N // p < len(out) for every N below len(out) * p
        out += [F[N] * out[N // p] % mod for N in range(len(out), min(len(out) * p, top + 1))]
    return out


class _Units:
    """v_p(Q(n)) and the unit part of Q(n) mod p^_R, read off tables of N!.

    With F[M] the product of the k <= M prime to p (that is |Gamma_p(M+1)|),
    N! = p^v_p(N!) * prod_(i >= 0) F[floor(N / p^i)].  Q(n) is the product
    of (w.n)!^k over the (w, k) of the system's ``net``; per form, a table
    holds k v_p(N!) and the k-th power of that unit part mod p^_R for
    N <= sum(w) scale, the values w.n reaches for n <= scale componentwise.
    The shared tables, v_p(N!) and the unit parts of N! and 1/N!, are built
    by prefix passes up to the largest N a form of that sign of k reads,
    and a form with k = +-1 reads them as they are."""

    def __init__(self, p: int, terms: Sequence[tuple[IntVec, int]], scale: int):
        mod = p**_R
        # the largest N read by a form of positive k (at 1), of negative k (at -1)
        tops = {1: 0, -1: 0}
        for w, k in terms:
            sign = 1 if k > 0 else -1
            tops[sign] = max(tops[sign], sum(w) * scale)
        top = max(tops.values())
        F = [1] * (top + 1)
        for k in range(1, top + 1):
            F[k] = F[k - 1] * k % mod if k % p else F[k - 1]
        t = tops[-1]
        Finv = [1] * (t + 1)
        Finv[t] = pow(F[t], -1, mod)
        for k in range(t, 0, -1):
            Finv[k - 1] = Finv[k] * k % mod if k % p else Finv[k]
        vf = [0]
        while len(vf) <= top:
            # N // p < len(vf) for every N below len(vf) * p
            vf += [N // p + vf[N // p] for N in range(len(vf), min(len(vf) * p, top + 1))]
        # the unit parts of N! and of 1/N!
        unit = {1: _digit_products(F, tops[1], p, mod), -1: _digit_products(Finv, t, p, mod)}
        self.mod, self.scale = mod, scale
        # (w, k v_p(N!), unit^k), the last two indexed by N = w.n
        self.tables = []
        for w, k in terms:
            reach = range(sum(w) * scale + 1)
            U = unit[1 if k > 0 else -1]
            self.tables.append((
                w,
                vf if k == 1 else [k * vf[N] for N in reach],
                U if abs(k) == 1 else [U[N] ** abs(k) % mod for N in reach],
            ))

    def column(self, n: IntVec, q: int, mdots: list, size: int) -> tuple[list, list]:
        """(v_p, unit part) of Q(n + q m) over a list of ``size`` m >= 0, one
        list each, with ``mdots`` listing the values w.m per table; the unit
        parts are products of table entries, not reduced mod p^_R."""
        v, u = [0] * size, [1] * size
        for (w, V, U), col in zip(self.tables, mdots):
            b = sum(map(mul, w, n))
            v = list(map(add, v, map(V[b::q].__getitem__, col)))
            u = list(map(mul, u, map(U[b::q].__getitem__, col)))
        return v, u


class PadicContext:
    """A prime together with a form system; memoizes Q values and weights."""

    def __init__(self, p: int, sys: FormSystem):
        self.p = require_prime(p)
        self.sys = sys
        self._q_cache: dict[IntVec, int | Fraction] = {}
        self._forms = tuple(w for w, _ in sys.counts)
        self._unit_tables: Optional[_Units] = None

    def Q(self, n: Sequence[int]) -> int | Fraction:
        """Factorial ratio extended by zero on vectors with a negative entry;
        an integral value is an ``int``, any other a ``Fraction``."""
        n = tuple(int(c) for c in n)
        out = self._q_cache.get(n)
        if out is None:
            if any(c < 0 for c in n):
                out = 0
            else:
                x = factorial_ratio(self.sys, n)
                out = x.numerator if x.denominator == 1 else x
            self._q_cache[n] = out
        return out

    def _units(self, scale: int) -> _Units:
        """Unit-part tables covering every w.n with n <= scale componentwise."""
        if self._unit_tables is None or self._unit_tables.scale < scale:
            self._unit_tables = _Units(self.p, self.sys.net, scale)
        return self._unit_tables

    def mu(self, m: Sequence[int]) -> int:
        """Number of l >= 1 with the fractional part of m / p^l in the jump region."""
        return self._levels(tuple(int(c) for c in m), (0,) * len(self._forms))

    def _levels(self, m: IntVec, carry: IntVec) -> int:
        """kappa_c(m): the number of l >= 1 at which m mod p^l meets the jump region
        under the carries c, listed like the forms; none past the largest w.m + c_w."""
        top = max(map(add, (sum(map(mul, w, m)) for w in self._forms), carry), default=0)
        count, q = 0, self.p
        while q <= top:
            count += _in_region_scaled(self, [x % q for x in m], q, carry)
            q *= self.p
        return count


# ---------------------------------------------------------------------------
# good residues


def _in_region_scaled(ctx: PadicContext, u: Sequence[int], q: int, carry=None) -> bool:
    """Whether {u/q} lies in the jump region, for 0 <= u < q componentwise:
    w.(u/q) >= 1 exactly when w.u >= q.  With carries c_w, listed like the
    forms, whether some w.u >= q - c_w."""
    carry = carry or itertools.repeat(0)
    return any(sum(map(mul, w, u)) + c >= q for w, c in zip(ctx._forms, carry))


def good_residues(ctx: PadicContext, s: int) -> list[IntVec]:
    """All good residues mod p^s, lexicographically."""
    q = ctx.p**s
    box = itertools.product(range(q), repeat=ctx.sys.d)
    return [u for u in box if not _in_region_scaled(ctx, u, q)]


def excluded_indices(ctx: PadicContext, t_max: int) -> list[tuple[IntVec, int]]:
    """Pairs (n, t), t <= t_max, whose first t rescalings stay in the jump region."""
    p = ctx.p
    return [
        (n, t)
        for t in range(1, t_max + 1)
        for n in itertools.product(range(p**t), repeat=ctx.sys.d)
        if all(_in_region_scaled(ctx, tuple(c % p**l for c in n), p**l) for l in range(1, t + 1))
    ]


# ---------------------------------------------------------------------------
# congruence reports


@dataclass(frozen=True)
class CongruenceReport:
    """Result of one p-adic membership check.

    ``passed`` holds exactly when ``achieved >= required``; both sides may
    be the INFINITY sentinel (an identically zero quantity achieves it, an
    exact-cancellation check requires it).
    """

    check: str
    locus: tuple
    required: Valuation
    achieved: Valuation
    passed: bool

    def to_dict(self) -> dict:
        """The report line, with INFINITY written as ``"inf"``."""
        req, ach = ("inf" if v is INFINITY else v for v in (self.required, self.achieved))
        return {"check": self.check, "locus": self.locus, "required": req, "achieved": ach,
                "pass": self.passed}


# the margin of a finite valuation against an exact-zero demand, which it never meets
_UNMET = -(10**9)


def _margins(required: list, achieved: list) -> list:
    """achieved - required per entry, INFINITY for an infinite achieved value
    and ``_UNMET`` for a finite one against an infinite demand."""
    return [INFINITY if a is INFINITY else _UNMET if r is INFINITY else a - r
            for r, a in zip(required, achieved)]


class _Worst:
    """Holds the first least margin (achieved - required) of a sweep."""

    def __init__(self, check: str):
        self.check = check
        self.locus: tuple = ()
        self.required: Valuation = 0
        self.achieved: Valuation = INFINITY
        self.margin: Optional[Valuation] = None  # None until the first update

    def update(self, locus: tuple, required: Valuation, achieved: Valuation):
        [margin] = _margins([required], [achieved])
        if self.margin is None or margin < self.margin:
            self.margin = margin
            self.locus, self.required, self.achieved = locus, required, achieved

    def update_row(self, head: tuple, tails: list, required: list, achieved: list):
        """``update`` at the loci head + tail, tail in ``tails``, in order.
        Only the first entry of least margin can change the tracker, so only
        it goes to ``update``."""
        margins = _margins(required, achieved)
        if margins:
            i = margins.index(min(margins))
            self.update(head + tails[i], required[i], achieved[i])

    def update_values(self, head: tuple, tails: list, required: list, xs: list, p: int,
                      shift: int):
        """``update`` at the loci head + tail, tail in ``tails``, in order, with
        achieved = v_p(x / p^shift) for ints x and finite ``required``.  Once a
        finite margin M is held, an x in p^(required + M + shift) Z (Z when
        that power is below 1) cannot set a new worst, so it is skipped."""
        keep = range(len(xs))
        if isinstance(self.margin, int):
            mods = {r: p ** max(r + self.margin + shift, 0) for r in set(required)}
            keep = [i for i, r, x in zip(keep, required, xs) if x % mods[r]]
        for i in keep:
            x = xs[i]
            self.update(head + tails[i], required[i], vp_int(x, p) - shift if x else INFINITY)

    def report(self) -> CongruenceReport:
        passed = self.achieved >= self.required
        return CongruenceReport(self.check, self.locus, self.required, self.achieved, passed)


# ---------------------------------------------------------------------------
# Dieudonne-Dwork


def dieudonne_dwork_check(F: MSeries, G: MSeries, p: int) -> list[CongruenceReport]:
    """Per-exponent valuation test of F(z) G(z^p) - p F(z^p) G(z).

    exp(G/F) has p-integral coefficients iff every coefficient of the
    combination has valuation >= 1; each nonzero coefficient yields one
    report, in lexicographic exponent order.  p must be prime, F = 1 + ...
    p-integral and G without constant term, judged in that order before the
    shapes of F and G.

    On the integer forms (D_F, f) of F and (D_G, h) of G the combination is
    (f h(z^p) - p f(z^p) h) / (D_F D_G), two Kronecker products and one sum.
    The Kronecker key is linear, so z -> z^p maps key k to p k, and the keys
    below the truncation stay below it exactly when the degree does.  A
    coefficient c / D has valuation v_p(c) - v_p(D), with no precision to
    run out of.
    """
    p = require_prime(p)
    (D_F, f), (D_G, h) = F.form, G.form
    if f.get(0) != D_F:  # key 0 is the constant term
        raise ValueError("F must have constant term 1")
    scan = integrality_scan(F, p, limit=1)
    if scan.violations:
        raise ValueError(f"F has a non p-integral coefficient at {scan.violations[0].exponent}")
    g, N = kronecker.grading(F.d, F.order), F.order
    if 0 in h:
        raise ValueError("G must have constant term 0")
    F._check_compatible(G)
    cut = g.top * (N + 1)
    f_p, h_p = ({p * k: c for k, c in x.items() if p * k < cut} for x in (f, h))
    D, ints = kronecker.add(
        kronecker.multiply(g, N, (D_F, f), (D_G, h_p)),
        kronecker.multiply(g, N, (D_F, f_p), (D_G, {k: -p * c for k, c in h.items()})),
    )
    v_D = vp_int(D, p)
    achieved = sorted((g.exp[k], vp_int(c, p) - v_D) for k, c in ints.items())
    return [CongruenceReport("dieudonne-dwork", (v,), 1, a, a >= 1) for v, a in achieved]


# ---------------------------------------------------------------------------
# the double convolution sums


def _box(hi: IntVec):
    """Lexicographic iteration of the integer box [0, hi] (inclusive)."""
    return itertools.product(*(range(c + 1) for c in hi))


def _over_box(cols: list) -> list[int]:
    """sum_i cols[i][j_i] over the box 0 <= j_i < len(cols[i]), listed
    lexicographically: one flat pass per coordinate."""
    out = [0]
    for col in cols:
        out = [x + c for x in out for c in col]
    return out


def _places(box: IntVec, top: IntVec, div: int = 1) -> list[int]:
    """The place of j // div in the lexicographic listing of the box [0, top],
    for j over the box [0, box] listed lexicographically."""
    strides = [math.prod(c + 1 for c in top[i + 1 :]) for i in range(len(top))]
    return _over_box([[c // div * st for c in range(b + 1)] for b, st in zip(box, strides)])


def _block_sums(P: list, Q: list, ups: list) -> list[list]:
    """The block sums of Q(a + p(K-j)) Q(j) - Q(K-j) Q(a + pj) by level, from
    P = Q(a + pj) and Q = Q(j) listed like the box [0, K]; reversed, the box
    lists K - j.  The level-s block m p^s <= j <= (m+1) p^s - 1 is listed
    like m over [0, K // p^s]; ``ups[s]`` gives the place of its parent."""
    n = len(Q)
    half = [a * b - c * d for a, b, c, d in zip(reversed(P), Q, reversed(Q), P[: (n + 1) // 2])]
    levels = [half + [-x for x in reversed(half[: n // 2])]]
    for up in ups:
        level = [0] * (up[-1] + 1)
        for i, x in zip(up, levels[-1]):
            level[i] += x
        levels.append(level)
    return levels


@dataclass
class CongruenceRanges:
    """Finite sweep ranges for the formal-congruence harness.

    Entry bounds default to p^2 (inclusive); residues a are exhaustive.
    """

    s_max: int = 2
    k_bound: Optional[int] = None
    m_bound: Optional[int] = None

    def resolved(self, p: int) -> tuple[int, int, int]:
        kb = self.k_bound if self.k_bound is not None else p * p
        mb = self.m_bound if self.m_bound is not None else p * p
        return self.s_max, kb, mb


# the most entries one table or box of the formal-congruence harness holds
HARNESS_BOUND = 1 << 22


def harness_sizes(sys: FormSystem, p: int, s_max: int, k_bound: int, m_bound: int) -> dict:
    """The entries of each table and box the formal-congruence harness builds
    at the prime p, by name; raises ValueError when one passes
    ``HARNESS_BOUND``, before any is built.

    The unit tables run over N <= top, top the largest net form sum times
    (m_bound + 1) p^(s_max + 1); the m box is [0, m_bound]^d; the residues
    mod p^s_max number p^(s_max d); the conclusion reads Q on the K box
    [0, k_bound]^d from each of its 1 + p^d starts.
    """
    # past these caps a size passes the bound alone (p^(s d) >= 2^s), so no
    # larger power is formed
    s_max = min(s_max, HARNESS_BOUND.bit_length())
    k_bound, m_bound = min(k_bound, HARNESS_BOUND), min(m_bound, HARNESS_BOUND)
    top = max((sum(w) for w, _ in sys.net), default=0) * (m_bound + 1) * p ** (s_max + 1)
    sizes = {
        "unit tables": top + 1,
        "m box": (m_bound + 1) ** sys.d,
        "residues": p ** (s_max * sys.d),
        "conclusion": (k_bound + 1) ** sys.d * (1 + p**sys.d),
    }
    for name, size in sizes.items():
        if size > HARNESS_BOUND:
            raise ValueError(f"at p = {p}: the {name} would pass the harness bound"
                             f" of {HARNESS_BOUND} entries")
    return sizes


def verify_formal_congruences(
    ctx: PadicContext, ranges: Optional[CongruenceRanges] = None
) -> list[CongruenceReport]:
    """Sweep the hypotheses and the conclusion of the congruence framework.

    Instantiated with the constant sequence A_r = Q and g_r = p^mu, and
    with the excluded-index set built from the jump region.  Produces one
    aggregated report per check, each carrying the worst locus found:
    value-at-zero is a p-adic unit; Q(m) lies in g(m) O; the three ratio
    congruences (general, good-residue, excluded); the weight shift for
    excluded indices; the conclusion for the block sums; the exact
    telescoping cancellation of complete block sums.  Raises ValueError
    when ``harness_sizes`` refuses the ranges at this prime.
    """
    if ranges is None:
        ranges = CongruenceRanges()
    if not ctx.sys.equal_column_sums:
        # the weight/good-residue machinery rests on 1-periodicity
        raise ValueError(_UNEQUAL_SUMS)
    p, d = ctx.p, ctx.sys.d
    s_max, k_bound, m_bound = ranges.resolved(p)
    harness_sizes(ctx.sys, p, s_max, k_bound, m_bound)  # refuses a harness past the bound
    ratios = _Ratios(ctx, s_max, m_bound)
    mbox = ratios.mbox
    mus = [ctx.mu(m) for m in mbox]
    # v_p(Q(m)) over the m box, m = 0 first, from the unit tables
    vq, _ = ratios.units.column((0,) * d, 1, ratios.mdots, len(mbox))
    reports = [CongruenceReport("unit-at-zero", ((0,) * d,), 0, vq[0], passed=(vq[0] == 0))]

    w = _Worst("weight-lower-bound")
    w.update_row((), ratios.tails, mus, vq)
    reports.append(w.report())

    reports.extend(_ratio_reports(ratios, s_max, mus))

    w = _Worst("weight-shift")
    first = {}  # carry c -> place in mbox of the first least margin kappa_c(m) - mu(m)
    for n, t in excluded_indices(ctx, s_max):
        c = tuple(sum(map(mul, f, n)) // p**t for f in ctx._forms)
        i = first.get(c)
        if i is None:
            i = first[c] = min(range(len(mbox)), key=lambda j: ctx._levels(mbox[j], c) - mus[j])
        w.update((n, t, mbox[i]), t + mus[i], t + ctx._levels(mbox[i], c))
    reports.append(w.report())

    reports.extend(_conclusion_reports(ctx, s_max, k_bound, m_bound, mus))
    return reports


class _Ratios:
    """v_p(Q(hi + m p^(s+1)) / Q(hi) - Q(lo + m p^s) / Q(lo)) over the box
    m <= m_bound, for s <= s_max, hi < p^(s+1) and lo < p^s."""

    def __init__(self, ctx: PadicContext, s_max: int, m_bound: int):
        self.ctx = ctx
        # the ratio sweeps read no conclusion box: k_bound = 0
        harness_sizes(ctx.sys, ctx.p, s_max, 0, m_bound)
        # they read Q(hi + m p^(s+1)) with hi < p^(s+1) and m <= m_bound
        self.units = ctx._units((m_bound + 1) * ctx.p ** (s_max + 1))
        self.mbox = list(_box((m_bound,) * ctx.sys.d))
        self.tails = [(m,) for m in self.mbox]
        span = range(m_bound + 1)
        self.mdots = [_over_box([[c * x for x in span] for c in w]) for w, *_ in self.units.tables]
        # the m with w.m = 0 for every net form w, where Q(n + q m) = Q(n)
        self.zeros = [i for i in range(len(self.mbox)) if not any(col[i] for col in self.mdots)]
        # v_p(t) of a unit difference t != 0 mod p^_R, read off gcd(t, p^_R)
        self.vps = {ctx.p**i: i for i in range(_R)}

    def differences(self, s: int, lo: IntVec, his: list) -> tuple[list, list]:
        """(e, rows): e lists e_m = v_p(Q(lo + m p^s) / Q(lo)) over the m box,
        and rows holds, per hi in ``his``, v_p(Q(hi)) and the valuations of
        the difference over the m box."""
        ctx, units, mbox, vps = self.ctx, self.units, self.mbox, self.vps
        p, mod, gcd = ctx.p, units.mod, math.gcd
        q0, q1 = p**s, p ** (s + 1)
        # m = 0 comes first: its entries are v_p and the unit part of Q(lo)
        v_b, x_b = units.column(lo, q0, self.mdots, len(mbox))
        ui_lo = pow(x_b[0], -1, mod)
        e, x_lo = [v - v_b[0] for v in v_b], [x * ui_lo for x in x_b]
        rows = []
        for hi in his:
            v_a, x_a = units.column(hi, q1, self.mdots, len(mbox))
            v_hi, ui_hi = v_a[0], pow(x_a[0], -1, mod)
            # None marks a unit difference = 0 mod p^_R, taken exactly below
            row = [
                min(e_a, e_b) if e_a != e_b
                else e_a + vps[gcd(t, mod)] if (t := (xa * ui_hi - xb) % mod)
                else None
                for e_a, e_b, xa, xb in zip([v - v_hi for v in v_a], e, x_a, x_lo)
            ]
            for i in self.zeros:  # Q(hi) / Q(hi) - Q(lo) / Q(lo) = 0
                row[i] = INFINITY
            for i in [i for i, x in enumerate(row) if x is None]:
                top = tuple(x + q1 * y for x, y in zip(hi, mbox[i]))
                bot = tuple(x + q0 * y for x, y in zip(lo, mbox[i]))
                diff = Fraction(ctx.Q(top), ctx.Q(hi)) - Fraction(ctx.Q(bot), ctx.Q(lo))
                row[i] = vp_of_rational(diff, p)
            rows.append((v_hi, row))
        return e, rows


def _ratio_reports(ratios: _Ratios, s_max: int, mus: list) -> list:
    """The three ratio congruences: Q(vup + m p^(s+1)) / Q(vup) against
    Q(u + m p^s) / Q(u), for good u mod p^s, v mod p and vup = v + p u."""
    ctx, p, d = ratios.ctx, ratios.ctx.p, ratios.ctx.sys.d
    vs = list(itertools.product(range(p), repeat=d))
    wa, wa1, wa2 = (_Worst(f"ratio-congruence{c}") for c in ("", "-good", "-excluded"))
    for s in range(s_max + 1):
        for u in good_residues(ctx, s):
            vups = [tuple(x + p * y for x, y in zip(v, u)) for v in vs]
            e, rows = ratios.differences(s, u, vups)
            for v, vup, (v_vup, row) in zip(vs, vups, rows):
                head = (s, u, v)
                wa.update_row(head, ratios.tails, [s + 1 + mu - v_vup for mu in mus], row)
                c = s + 1 - ctx.mu(vup)
                required = [c + mu for mu in mus]
                if not _in_region_scaled(ctx, vup, p ** (s + 1)):
                    wa1.update_row(head, ratios.tails, required, row)
                else:
                    wa2.update_row(head, ratios.tails, required, e)
    return [wa.report(), wa1.report(), wa2.report()]


def _conclusion_reports(
    ctx: PadicContext, s_max: int, k_bound: int, m_bound: int, mus: list
) -> list:
    """The conclusion for every block sum and the telescoping of complete
    ones, K outermost with one tracker per residue (see the module notes)."""
    p, d = ctx.p, ctx.sys.d
    top, mtop = (k_bound,) * d, (m_bound,) * d
    residues = list(itertools.product(range(p), repeat=d))
    # Q(x), then Q(a + px) per residue a, each listed like the K box, as
    # numerators over one D: every block sum is an int over D^2
    starts = [((0,) * d, 1), *((a, p) for a in residues)]
    span, n = range(k_bound + 1), (k_bound + 1) ** d
    # per net form w, w.(a + qx) over the box, start after start
    cols = [
        [y for a, q in starts
         for y in _over_box([[c * (b + q * x) for x in span] for c, b in zip(w, a)])]
        for w, _ in ctx.sys.net
    ]
    D, nums = factorial_ratios(ctx.sys, cols, n * len(starts))
    Q, *P = (nums[i : i + n] for i in range(0, len(nums), n))
    shift = 2 * vp_int(D, p)

    def shape(s: int, T: IntVec) -> tuple:
        """The level-s box [0, T]: up map, visited places, their (s, m), required valuations."""
        V = tuple(min(c, m_bound) for c in T)
        return (_places(T, tuple(c // p for c in T), p), _places(V, T), [(s, m) for m in _box(V)],
                [s + 1 + mus[i] for i in _places(V, mtop)])

    # the boxes of levels s >= 1 recur across K; level 0 is K's own
    shapes = {
        (s, T): shape(s, T) for s in range(1, s_max + 1) for T in _box((k_bound // p**s,) * d)
    }

    wc, wt = ([_Worst(check) for _ in residues] for check in ("conclusion", "telescoping"))
    for K in _box(top):
        at = _places(K, top)
        QK = list(map(Q.__getitem__, at))
        levels = [shape(0, K)]
        levels += [shapes[s, tuple(c // p**s for c in K)] for s in range(1, s_max + 1)]
        tails = [t for *_, ts, _ in levels for t in ts]
        required = [r for *_, rs in levels for r in rs]
        for a, Pa, wc_a, wt_a in zip(residues, P, wc, wt):
            sums = _block_sums(list(map(Pa.__getitem__, at)), QK, [up for up, *_ in levels[:-1]])
            picked = [x for sm, (_, pl, *_) in zip(sums, levels) for x in map(sm.__getitem__, pl)]
            wc_a.update_values((a, K), tails, required, picked, p, shift)
            total = sum(sums[-1])  # each level partitions [0, K]: s = 0 is the first locus
            wt_a.update((a, K, 0), INFINITY, vp_int(total, p) - shift if total else INFINITY)
    for trackers in (wc, wt):
        # a later residue's held worst wins only where one sweep over both would take it
        for later in trackers[1:]:
            trackers[0].update(later.locus, later.required, later.achieved)
    return [wc[0].report(), wt[0].report()]


def q_ratio_congruence_sweep(
    ctx: PadicContext, s_max: int = 2, m_bound: Optional[int] = None
) -> CongruenceReport:
    """Exact check that Q(c) Q(cp + m p^(s+1)) / (Q(cp) Q(c + m p^s))
    lies in 1 + p^(s+1) Z_p, over all c mod p^s and m <= m_bound (4 if unset).

    Requires equal column sums of e and f, and ranges that
    ``harness_sizes`` admits at p.  Returns one aggregated report
    with the worst locus.  The ratio less 1 is the difference
    Q(cp + m p^(s+1)) / Q(cp) - Q(c + m p^s) / Q(c) over Q(c + m p^s) / Q(c).
    """
    if not ctx.sys.equal_column_sums:
        raise ValueError(_UNEQUAL_SUMS)
    p, d = ctx.p, ctx.sys.d
    ratios = _Ratios(ctx, s_max, 4 if m_bound is None else m_bound)
    w = _Worst("unit-ratio-congruence")
    for s in range(s_max + 1):
        for c in itertools.product(range(p**s), repeat=d):
            cp = tuple(x * p for x in c)
            e, [(_, row)] = ratios.differences(s, c, [cp])
            gaps = [gap if gap is INFINITY else gap - e_b for e_b, gap in zip(e, row)]
            w.update_row((s, c), ratios.tails, [s + 1] * len(gaps), gaps)
    return w.report()


# ---------------------------------------------------------------------------
# obstruction functionals and negativity witnesses


def harmonic_obstruction(sys: FormSystem, k: int, x: Sequence) -> Fraction:
    """sum_i e_i[k] H(floor(e_i.x)) - sum_j f_j[k] H(floor(f_j.x)), exact.

    Nonvanishing at a zero of the Landau function on the jump region is
    what produces p-adic failures of the k-th canonical coordinate
    (k is 1-based).
    """
    if not 1 <= k <= sys.d:
        raise ValueError(f"coordinate {k} out of range")
    return harmonic_weight(sys, k - 1, tuple(Fraction(c) for c in x))


def obstruction_ratio(sys: FormSystem, k: int, witness: Sequence, X: int) -> Fraction:
    """The rational function prod_i prod_(j<=alpha_i) (1 + e_i[k] X / j)
    over prod_i prod_(j<=beta_i) (1 + f_i[k] X / j), with the floors
    alpha, beta taken from the witness point.  Nonconstant exactly when
    the harmonic obstruction is nonzero; no factor can vanish for X >= 0.
    """
    if not 1 <= k <= sys.d:
        raise ValueError(f"coordinate {k} out of range")
    X = int(X)
    if X < 0:
        raise ValueError("argument must be nonnegative")
    witness = tuple(Fraction(c) for c in witness)

    def factor(w):
        terms = range(1, math.floor(dot(w, witness)) + 1)
        return math.prod((1 + Fraction(w[k - 1] * X, j) for j in terms), start=Fraction(1))

    return math.prod((factor(w) ** m for w, m in sys.net), start=Fraction(1))


def landau_negative_witness(
    sys: FormSystem, p: int, bound: Optional[int] = None
) -> Optional[tuple[IntVec, int]]:
    """Search a box for an index with v_p(Q(n)) <= -1.

    Scans 0 <= n <= bound (default p) in lexicographic order and returns
    the first index whose factorial ratio is not a p-adic integer, with
    its valuation; None when the box contains no witness.
    """
    p = require_prime(p)
    hi = (bound if bound is not None else p,) * sys.d
    for n in itertools.islice(_box(hi), 1, None):  # n = 0 comes first
        if (v := vp_ratio_legendre(sys, n, p)) <= -1:
            return n, v
    return None
