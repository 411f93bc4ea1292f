"""The p-adic verification engine.

Everything here works over rationals with p-free denominators, so that
membership in p^t * g * O turns into the valuation inequality
v_p(x) >= t + v_p(g).  The module provides

  * the weight mu_p counting how many p-adic rescalings of an index land
    in the jump region, with g_p = p^mu_p;
  * good residues mod p^s: vectors whose scaled fractional part avoids
    the jump region;
  * the Dieudonne-Dwork product test for exp(G/F), per exponent, on the
    integer numerators of F and G;
  * the generalized formal-congruence harness: hypothesis checks and the
    conclusion sweep for the double convolution sums, with an exact
    telescoping identity;
  * the obstruction functionals used by the non-integrality witnesses.

All sweeps are deterministic: each report carries the first locus, in
the lexicographic order of its tuples, with the least margin.

The formal-congruence harness compares p-adic valuations with finite
bounds, so its hot loops avoid the big rationals they would otherwise
build and throw away.  Every reported ``achieved`` value is still exact:

  * Jump-region tests are integer tests: for 0 <= u < q, the point {u/q}
    lies in the jump region exactly when some form w has w.u >= q.  The
    weight mu and the good-residue and excluded-index sets use it.
  * Q(n) is written p^v * u with u a p-adic unit.  v is a Legendre sum;
    u is known mod p^R (R is the private constant ``_R``).  The unit part
    of N! is prod_(i >= 0) F[floor(N/p^i)], where F[M] is the product of
    the k <= M prime to p, that is |Gamma_p(M+1)| for Morita's Gamma_p.
    One prefix table of F and of its inverse per context gives the unit
    parts of every Q(n) and their inverses.
  * p^e1 x1 - p^e2 x2 has valuation min(e1, e2) when e1 != e2, and
    e + v_p(t) when e1 = e2 = e and the unit difference t is nonzero mod
    p^R; then v_p(t) < R is exact too.  Only t = 0 mod p^R is undecided,
    and those loci are recomputed with exact Fractions.  So R sets how
    often the exact path runs, never a report byte.
  * The conclusion runs on exact values.  An integral Q(n) is kept as an
    int; a non-integral system stays on Fractions with the same formulas.
    The box [0, K] and its blocks depend on K alone, so they are indexed
    once per K and serve every residue a.  Block sums are built by level:
    a level-(s+1) block is the sum of the p^d level-s blocks under it, so
    each level is one pass over the level below.  Only the nonempty
    blocks, m <= K // p^s, are visited.  An empty block sums to zero, an
    INFINITY valuation changes a worst-locus tracker only as its first
    update, and the first update, at (a, K, s, m) = 0, is a nonempty
    block; so skipping empty blocks changes no report.  The blocks of one
    level partition [0, K], so the telescoping total is the sum of the
    whole table for every s and is computed once per (a, K).  Once a worst
    margin M is known, a block sum that is 0 mod p^(required + M) cannot
    set a new one, and its valuation is not taken.
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
from operator import mul
from typing import Optional, Sequence, Union

from . import kronecker
from .forms import (
    INFINITY,
    FormSystem,
    PadicInfinity,
    dot,
    factorial_ratio,
    harmonic_weight,
    is_prime,
    vp_int,
    vp_ratio_legendre,
)
from .series import MSeries

IntVec = tuple[int, ...]
Valuation = Union[int, PadicInfinity]


# ---------------------------------------------------------------------------
# ambient context

# p-adic digits carried by the unit parts of Q.  A difference whose unit
# part vanishes mod p^_R is recomputed with exact rationals, so this
# constant sets how often that happens, never what a report says.
_R = 30

Rational = Union[int, Fraction]


class _Units:
    """v_p(Q(n)) and the unit part of Q(n) mod p^_R, read off tables of N!.

    With F[M] the product of the k <= M prime to p (that is |Gamma_p(M+1)|),
    N! = p^v_p(N!) * prod_(i >= 0) F[floor(N / p^i)].  The tables hold
    v_p(N!), that unit part mod p^_R and its inverse for N <= top; Q(n) is
    the product of (w.n)!^k over the distinct forms w with net multiplicity
    k (count in e minus count in f), so the inverse of a unit part costs no
    modular inversion.
    """

    def __init__(self, p: int, terms: list[tuple[IntVec, int]], top: int):
        mod = p**_R
        F = [1] * (top + 1)
        for k in range(1, top + 1):
            F[k] = F[k - 1] * k % mod if k % p else F[k - 1]
        Finv = [1] * (top + 1)
        Finv[top] = pow(F[top], -1, mod)
        for k in range(top, 0, -1):
            Finv[k - 1] = Finv[k] * k % mod if k % p else Finv[k]
        vf, uf, ui = [0] * (top + 1), [1] * (top + 1), [1] * (top + 1)
        for N in range(1, top + 1):
            M = N // p
            vf[N] = M + vf[M]
            uf[N] = F[N] * uf[M] % mod
            ui[N] = Finv[N] * ui[M] % mod
        self.mod, self.top = mod, top
        # (w, k v_p(N!), unit^k, unit^-k), the last three indexed by N = w.n
        self.tables = []
        for w, k in terms:
            up, down = (uf, ui) if k > 0 else (ui, uf)
            if abs(k) != 1:
                up = [pow(x, abs(k), mod) for x in up]
                down = [pow(x, abs(k), mod) for x in down]
            self.tables.append((w, [k * x for x in vf], up, down))

    def dots(self, n: IntVec) -> tuple[int, ...]:
        """The form values w.n, one per table."""
        return tuple(sum(map(mul, w, n)) for w, _, _, _ in self.tables)

    def inverse(self, n: IntVec) -> tuple[int, int]:
        """(v_p(Q(n)), inverse of the unit part mod p^_R) for n >= 0."""
        mod = self.mod
        v, ui = 0, 1
        for w, V, _, D in self.tables:
            N = sum(map(mul, w, n))
            v += V[N]
            ui = ui * D[N] % mod
        return v, ui

    def shifted(self, base: tuple[int, ...], q: int, md: tuple[int, ...]) -> tuple[int, int]:
        """(v_p, unit part) of Q at the index with form values base + q * md."""
        mod = self.mod
        v, u = 0, 1
        for (_, V, U, _), b, x in zip(self.tables, base, md):
            N = b + q * x
            v += V[N]
            u = u * U[N] % mod
        return v, u


def _vp(x: Rational, p: int) -> Valuation:
    """v_p of an int or a Fraction, for a prime p checked beforehand."""
    if not x:
        return INFINITY
    if type(x) is int:
        return vp_int(x, p)
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


class PadicContext:
    """A prime together with a form system; memoizes Q values and weights."""

    def __init__(self, p: int, sys: FormSystem):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = int(p)
        self.sys = sys
        self._q_cache: dict[IntVec, Rational] = {}
        self._mu_cache: dict[IntVec, int] = {}
        self._forms = tuple(dict.fromkeys(sys.forms))
        net = {w: sys.e.count(w) - sys.f.count(w) for w in self._forms}
        self._terms = [(w, k) for w, k in net.items() if k]
        self._unit_tables: Optional[_Units] = None

    def Q(self, n: Sequence[int]) -> Rational:
        """Factorial ratio extended by zero on vectors with a negative entry.

        An integral value is an ``int``, any other a ``Fraction``.
        """
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

    def _units(self, bound: int) -> _Units:
        """Unit-part tables covering every index with entries <= bound."""
        top = max((sum(w) for w, _ in self._terms), default=0) * bound
        if self._unit_tables is None or self._unit_tables.top < top:
            self._unit_tables = _Units(self.p, self._terms, top)
        return self._unit_tables

    def mu(self, m: Sequence[int]) -> int:
        """Number of l >= 1 with the fractional part of m / p^l in the jump region."""
        m = tuple(int(c) for c in m)
        out = self._mu_cache.get(m)
        if out is None:
            out = self._mu_cache[m] = self._levels(m, (0,) * len(self._forms))
        return out

    def _levels(self, m: IntVec, carry: IntVec) -> int:
        """kappa_c(m): the number of l >= 1 with w.(m mod p^l) >= p^l - c_w for some
        form w, carries c_w listed like the forms; none past the largest w.m + c_w."""
        forms = list(zip(self._forms, carry))
        top = max((sum(map(mul, w, m)) + c for w, c in forms), default=0)
        count, q = 0, self.p
        while q <= top:
            u = [x % q for x in m]
            count += any(sum(map(mul, w, u)) + c >= q for w, c in forms)
            q *= self.p
        return count


# ---------------------------------------------------------------------------
# good residues


def _in_region_scaled(ctx: PadicContext, u: IntVec, q: int) -> bool:
    """Whether {u/q} lies in the jump region, for 0 <= u < q componentwise.

    Integer form of the test: w.(u/q) >= 1 exactly when w.u >= q.
    """
    return any(sum(map(mul, w, u)) >= q for w in ctx._forms)


def good_residues(ctx: PadicContext, s: int) -> list[IntVec]:
    """All good residues mod p^s, lexicographically."""
    return [
        u
        for u in itertools.product(range(ctx.p**s), repeat=ctx.sys.d)
        if not _in_region_scaled(ctx, u, ctx.p**s)
    ]


def excluded_indices(ctx: PadicContext, t_max: int) -> list[tuple[IntVec, int]]:
    """Pairs (n, t), t <= t_max, whose first t rescalings stay in the jump region."""
    out = []
    for t in range(1, t_max + 1):
        for n in itertools.product(range(ctx.p**t), repeat=ctx.sys.d):
            if all(
                _in_region_scaled(ctx, tuple(c % ctx.p**l for c in n), ctx.p**l)
                for l in range(1, t + 1)
            ):
                out.append((n, t))
    return out


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
        def enc(v):
            return "inf" if v is INFINITY else v

        return {
            "check": self.check,
            "locus": self.locus,
            "required": enc(self.required),
            "achieved": enc(self.achieved),
            "pass": self.passed,
        }


class _Worst:
    """Tracks the minimal margin (achieved - required) over a sweep."""

    def __init__(self, check: str):
        self.check = check
        self.locus: tuple = ()
        self.required: Valuation = 0
        self.achieved: Valuation = INFINITY
        self.margin: Optional[int] = None  # None means every case was infinite
        self.count = 0

    def update(self, locus: tuple, required: Valuation, achieved: Valuation):
        self.count += 1
        if achieved is INFINITY:
            if self.count == 1:
                self.locus, self.required, self.achieved = locus, required, achieved
            return
        # a finite valuation can never reach an exact-zero demand
        margin = -(10**9) if required is INFINITY else achieved - required
        if self.margin is None or margin < self.margin:
            self.margin = margin
            self.locus, self.required, self.achieved = locus, required, achieved

    def update_value(self, locus: tuple, required: int, x: Rational, p: int):
        """``update`` with achieved = v_p(x), for a finite ``required``.

        Once a margin M is known, an integer x = 0 mod p^(required + M) has
        a margin of at least M and cannot become the worst, so its exact
        valuation is never taken; only such x skip ``update``.
        """
        if self.margin is not None and type(x) is int:
            limit = required + self.margin
            if limit <= 0 or x % p**limit == 0:
                self.count += 1
                return
        self.update(locus, required, _vp(x, p))

    def extend(self, later: "_Worst"):
        """Continue this sweep with ``later``'s, whose loci all come after
        this one's: its result, fed to ``update``, wins only where one sweep
        over both would have taken it."""
        if later.count:
            self.update(later.locus, later.required, later.achieved)
            self.count += later.count - 1

    def report(self) -> CongruenceReport:
        passed = self.margin is None or self.achieved >= self.required
        return CongruenceReport(self.check, self.locus, self.required, self.achieved, passed)


# ---------------------------------------------------------------------------
# Dieudonne-Dwork


def dieudonne_dwork_check(F: MSeries, G: MSeries, p: int) -> list[CongruenceReport]:
    """Per-exponent valuation test of F(z) G(z^p) - p F(z^p) G(z).

    exp(G/F) has p-integral coefficients iff every coefficient of the
    combination has valuation >= 1; each nonzero coefficient yields one
    report, in lexicographic exponent order.  The test runs on the integer
    forms of F and G (``dieudonne_dwork_forms``).
    """
    g = kronecker.grading(F.d, F.order)
    f, h = F._numerators(), G._numerators()
    # p, F and G are judged before their shapes, in the documented order
    _dd_inputs(g, f, h, p)
    F._check_compatible(G)
    return dieudonne_dwork_forms(g, F.order, f, h, p)


def _dd_inputs(g: kronecker.Grading, f, h, p: int):
    """Raise ValueError unless p is prime, F = 1 + ... is p-integral and G
    has no constant term, in that order; key 0 is the constant term."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    (D_F, F), (_, G) = f, h
    if F.get(0) != D_F:
        raise ValueError("F must have constant term 1")
    # c / D_F is p-integral iff p^v_p(D_F) divides c
    if D_F % p == 0:
        pv = p ** vp_int(D_F, p)
        bad = [g.exp[k] for k, c in F.items() if c % pv]
        if bad:
            raise ValueError(f"F has a non p-integral coefficient at {min(bad)}")
    if 0 in G:
        raise ValueError("G must have constant term 0")


def dieudonne_dwork_forms(g: kronecker.Grading, N: int, f, h, p: int) -> list[CongruenceReport]:
    """``dieudonne_dwork_check`` on the integer forms f = (D_F, F) of F and
    h = (D_G, G) of G, key -> numerator on the grading g at order N.

    The combination is (F G(z^p) - p F(z^p) G) / (D_F D_G), two Kronecker
    products and one sum.  The Kronecker key is linear, so z -> z^p maps
    key k to p k, and the keys below the truncation stay below it exactly
    when the degree does.  A coefficient c / D has valuation
    v_p(c) - v_p(D), with no precision to run out of.
    """
    _dd_inputs(g, f, h, p)
    cut = g.top * (N + 1)
    (D_F, F), (D_G, G) = f, h
    F_p, G_p = ({p * k: c for k, c in x.items() if p * k < cut} for x in (F, G))
    D, ints = kronecker.add(
        kronecker.multiply(g, N, f, (D_G, G_p)),
        kronecker.multiply(g, N, (D_F, F_p), (D_G, {k: -p * c for k, c in G.items()})),
    )
    v_D = vp_int(D, p)
    out = []
    for v, c in sorted((g.exp[k], c) for k, c in ints.items()):
        ach = vp_int(c, p) - v_D
        out.append(CongruenceReport("dieudonne-dwork", (v,), 1, ach, ach >= 1))
    return out


# ---------------------------------------------------------------------------
# the double convolution sums


def _box(hi: IntVec):
    """Lexicographic iteration of the integer box [0, hi] (inclusive)."""
    return itertools.product(*(range(c + 1) for c in hi))


def _position(top: IntVec, m: IntVec) -> int:
    """The place of m in the lexicographic listing of the box [0, top]."""
    i = 0
    for c, t in zip(m, top):
        i = i * (t + 1) + c
    return i


class _Blocks:
    """The box [0, K] and its blocks, level by level, for one K >= 0.

    ``js`` lists the box lexicographically, so that reversed it lists K - j.
    The level-s blocks m p^s <= j <= (m+1) p^s - 1 that meet the box are
    those with m in [0, ``tops[s]``], ``tops[s]`` = K // p^s; a level lists
    them lexicographically, and ``up[s]`` maps each level-s block to the
    place of the level-(s+1) block that holds it.
    """

    def __init__(self, K: IntVec, p: int, s_max: int):
        self.js = list(_box(K))
        self.tops = [K]
        self.up = []
        for _ in range(s_max):
            below = self.tops[-1]
            top = tuple(c // p for c in below)
            self.up.append([_position(top, tuple(c // p for c in m)) for m in _box(below)])
            self.tops.append(top)

    def sums(self, P: list, Q: list) -> list[list]:
        """The block sums of Q(a + p(K-j)) Q(j) - Q(K-j) Q(a + pj) by level,
        from P = Q(a + pj) and Q = Q(j) listed like ``js``."""
        levels = [[pk * qj - qk * pj for pk, qj, qk, pj in zip(reversed(P), Q, reversed(Q), P)]]
        for up, top in zip(self.up, self.tops[1:]):
            level = [0] * math.prod(c + 1 for c in top)
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


def verify_formal_congruences(
    ctx: PadicContext, ranges: Optional[CongruenceRanges] = None
) -> list[CongruenceReport]:
    """Sweep the hypotheses and the conclusion of the congruence framework.

    Instantiated with the constant sequence A_r = Q and g_r = p^mu, and
    with the excluded-index set built from the jump region.  Produces one
    aggregated report per check, each carrying the worst locus found:

      * value-at-zero is a p-adic unit;
      * Q(m) lies in g(m) O;
      * the three ratio congruences (general, good-residue, excluded);
      * the weight shift for excluded indices;
      * the conclusion for the block sums;
      * the exact telescoping cancellation of complete block sums.
    """
    if ranges is None:
        ranges = CongruenceRanges()
    if ctx.sys.sum_e != ctx.sys.sum_f:
        # the weight/good-residue machinery rests on 1-periodicity
        raise ValueError("the congruence harness needs equal column sums")
    p, d = ctx.p, ctx.sys.d
    s_max, k_bound, m_bound = ranges.resolved(p)
    mbox = list(_box((m_bound,) * d))
    mus = [ctx.mu(m) for m in mbox]
    reports = []

    v0 = vp_ratio_legendre(ctx.sys, (0,) * d, p)
    reports.append(CongruenceReport("unit-at-zero", ((0,) * d,), 0, v0, passed=(v0 == 0)))

    w = _Worst("weight-lower-bound")
    for m, mu_m in zip(mbox, mus):
        w.update((m,), mu_m, vp_ratio_legendre(ctx.sys, m, p))
    reports.append(w.report())

    reports.extend(_ratio_reports(ctx, s_max, m_bound, mus))

    w = _Worst("weight-shift")
    first = {}  # carry c -> place in mbox of the first least margin kappa_c(m) - mu(m)
    for n, t in excluded_indices(ctx, s_max):
        c = tuple(sum(map(mul, f, n)) // p**t for f in ctx._forms)
        i = first.get(c)
        if i is None:
            i = first[c] = min(range(len(mbox)), key=lambda j: ctx._levels(mbox[j], c) - mus[j])
        w.update((n, t, mbox[i]), t + mus[i], t + ctx._levels(mbox[i], c))
    reports.append(w.report())

    reports.extend(_conclusion_reports(ctx, s_max, k_bound, m_bound, dict(zip(mbox, mus))))
    return reports


class _Ratios:
    """v_p(Q(hi + m p^(s+1)) / Q(hi) - Q(lo + m p^s) / Q(lo)) over the box
    m <= m_bound, for s <= s_max, hi < p^(s+1) and lo < p^s."""

    def __init__(self, ctx: PadicContext, s_max: int, m_bound: int):
        self.ctx = ctx
        self.units = ctx._units((m_bound + 1) * ctx.p ** (s_max + 1))
        self.mbox = list(_box((m_bound,) * ctx.sys.d))
        self.mdots = [self.units.dots(m) for m in self.mbox]

    def differences(self, s: int, lo: IntVec, his: list) -> tuple[list, list]:
        """(e, rows): e lists e_m = v_p(Q(lo + m p^s) / Q(lo)) over the m box,
        and rows holds, per hi in ``his``, v_p(Q(hi)) and the valuations of
        the difference over the m box."""
        ctx, units = self.ctx, self.units
        p, mod = ctx.p, units.mod
        q0, q1 = p**s, p ** (s + 1)
        v_lo, ui_lo = units.inverse(lo)
        base_lo = units.dots(lo)
        low = [units.shifted(base_lo, q0, md) for md in self.mdots]
        e = [v_b - v_lo for v_b, _ in low]
        x_lo = [x_b * ui_lo for _, x_b in low]
        rows = []
        for hi in his:
            v_hi, ui_hi = units.inverse(hi)
            base_hi = units.dots(hi)
            row = []
            for m, md, e_b, x_b in zip(self.mbox, self.mdots, e, x_lo):
                v_a, x_a = units.shifted(base_hi, q1, md)
                e_a = v_a - v_hi
                if e_a != e_b:
                    row.append(min(e_a, e_b))
                elif t := (x_a * ui_hi - x_b) % mod:
                    row.append(e_a + vp_int(t, p))
                else:
                    top = tuple(x + q1 * y for x, y in zip(hi, m))
                    bot = tuple(x + q0 * y for x, y in zip(lo, m))
                    diff = Fraction(ctx.Q(top)) / ctx.Q(hi) - Fraction(ctx.Q(bot)) / ctx.Q(lo)
                    row.append(_vp(diff, p))
            rows.append((v_hi, row))
        return e, rows


def _ratio_reports(ctx: PadicContext, s_max: int, m_bound: int, mus: list) -> list:
    """The three ratio congruences: Q(vup + m p^(s+1)) / Q(vup) against
    Q(u + m p^s) / Q(u), for good u mod p^s, v mod p and vup = v + p u."""
    p, d = ctx.p, ctx.sys.d
    ratios = _Ratios(ctx, s_max, m_bound)
    vs = list(itertools.product(range(p), repeat=d))
    wa = _Worst("ratio-congruence")
    wa1 = _Worst("ratio-congruence-good")
    wa2 = _Worst("ratio-congruence-excluded")
    for s in range(s_max + 1):
        for u in good_residues(ctx, s):
            vups = [tuple(x + p * y for x, y in zip(v, u)) for v in vs]
            e, rows = ratios.differences(s, u, vups)
            for v, vup, (v_vup, row) in zip(vs, vups, rows):
                good_next = not _in_region_scaled(ctx, vup, p ** (s + 1))
                mu_vup = ctx.mu(vup)
                for m, mu_m, e_b, ach in zip(ratios.mbox, mus, e, row):
                    locus = (s, u, v, m)
                    wa.update(locus, s + 1 + mu_m - v_vup, ach)
                    if good_next:
                        wa1.update(locus, s + 1 + mu_m - mu_vup, ach)
                    else:
                        wa2.update(locus, s + 1 + mu_m - mu_vup, e_b)
    return [wa.report(), wa1.report(), wa2.report()]


def _conclusion_reports(
    ctx: PadicContext, s_max: int, k_bound: int, m_bound: int, mu: dict
) -> list:
    """The conclusion for every block sum and the telescoping of complete
    ones, K outermost with one tracker per residue (see the module notes)."""
    p, d = ctx.p, ctx.sys.d
    top = (k_bound,) * d
    kbox = list(_box(top))
    residues = list(itertools.product(range(p), repeat=d))
    # Q(x) and, per residue a, Q(a + px), listed like the K box
    Q = [ctx.Q(x) for x in kbox]
    P = [[ctx.Q(tuple(c + p * y for c, y in zip(a, x))) for x in kbox] for a in residues]
    wc = [_Worst("conclusion") for _ in residues]
    wt = [_Worst("telescoping") for _ in residues]
    for K in kbox:
        blocks = _Blocks(K, p, s_max)
        at = [_position(top, j) for j in blocks.js]
        QK = [Q[i] for i in at]
        # per level: (m, its place in the level, the required valuation)
        visits = [
            [(m, _position(t, m), s + 1 + mu[m]) for m in _box(tuple(min(c, m_bound) for c in t))]
            for s, t in enumerate(blocks.tops)
        ]
        for a, Pa, wc_a, wt_a in zip(residues, P, wc, wt):
            levels = blocks.sums([Pa[i] for i in at], QK)
            total = _vp(sum(levels[0]), p)
            for s, (level, visit) in enumerate(zip(levels, visits)):
                for m, i, required in visit:
                    wc_a.update_value((a, K, s, m), required, level[i], p)
                wt_a.update((a, K, s), INFINITY, total)
    for trackers in (wc, wt):
        for later in trackers[1:]:
            trackers[0].extend(later)
    return [wc[0].report(), wt[0].report()]


def q_ratio_congruence_sweep(
    ctx: PadicContext, s_max: int = 2, m_bound: int = 4
) -> CongruenceReport:
    """Exact check that Q(c) Q(cp + m p^(s+1)) / (Q(cp) Q(c + m p^s))
    lies in 1 + p^(s+1) Z_p, over all c mod p^s and bounded m.

    Requires equal column sums of e and f.  Returns one aggregated report
    with the worst locus.  The ratio less 1 is the difference
    Q(cp + m p^(s+1)) / Q(cp) - Q(c + m p^s) / Q(c) over Q(c + m p^s) / Q(c).
    """
    if ctx.sys.sum_e != ctx.sys.sum_f:
        raise ValueError("the congruence needs equal column sums")
    p, d = ctx.p, ctx.sys.d
    ratios = _Ratios(ctx, s_max, m_bound)
    w = _Worst("unit-ratio-congruence")
    for s in range(s_max + 1):
        for c in itertools.product(range(p**s), repeat=d):
            cp = tuple(x * p for x in c)
            e, [(_, row)] = ratios.differences(s, c, [cp])
            for m, e_b, gap in zip(ratios.mbox, e, row):
                w.update((s, c, m), s + 1, gap if gap is INFINITY else gap - e_b)
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
    kk = k - 1
    num = Fraction(1)
    for v in sys.e:
        for j in range(1, math.floor(dot(v, witness)) + 1):
            num *= 1 + Fraction(v[kk] * X, j)
    den = Fraction(1)
    for v in sys.f:
        for j in range(1, math.floor(dot(v, witness)) + 1):
            den *= 1 + Fraction(v[kk] * X, j)
    return num / den


def landau_negative_witness(
    sys: FormSystem, p: int, bound: Optional[int] = None
) -> Optional[tuple[IntVec, int]]:
    """Search a box for an index with v_p(Q(n)) <= -1.

    Scans 0 <= n <= bound (default p) in lexicographic order and returns
    the first index whose factorial ratio is not a p-adic integer, with
    its valuation; None when the box contains no witness.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    hi = (bound if bound is not None else p,) * sys.d
    for n in _box(hi):
        if not any(n):
            continue
        v = vp_ratio_legendre(sys, n, p)
        if v <= -1:
            return n, v
    return None
