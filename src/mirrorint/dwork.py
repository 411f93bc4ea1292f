"""The p-adic verification engine.

Everything here works over rationals with p-free denominators, so that
membership in p^t * g * O turns into the valuation inequality
v_p(x) >= t + v_p(g).  The module provides

  * Morita's p-adic Gamma on nonnegative integers and its two classical
    identities (factorial quotient, congruence in the top argument);
  * the weight mu_p counting how many p-adic rescalings of an index land
    in the jump region, with g_p = p^mu_p;
  * good residues mod p^s: vectors whose scaled fractional part avoids
    the jump region, decided both by fractional parts and by a digit-word
    suffix rule (the two must agree);
  * the Dieudonne-Dwork product test for exp(G/F), per exponent;
  * closed convolution formulas for single coefficients of the
    Dieudonne-Dwork combination;
  * the generalized formal-congruence harness: hypothesis checks and the
    conclusion sweep for the double convolution sums, with an exact
    telescoping identity;
  * the obstruction functionals used by the non-integrality witnesses.

All sweeps are deterministic: tuples are visited in lexicographic order
and reports carry the worst locus encountered.

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
    Block sums are built by level: a level-(s+1) block is the sum of the
    p^d level-s blocks under it, so each level is one pass over the table.
    Only the nonempty blocks, m <= K // p^s, are visited.  An empty block
    sums to zero, an INFINITY valuation changes a worst-locus tracker only
    as its first update, and the first update, at (a, K, s, m) = 0, is a
    nonempty block; so skipping empty blocks changes no report.  The
    blocks of one level partition [0, K], so the telescoping total is the
    sum of the whole table for every s and is computed once per (a, K).
    Once a worst margin M is known, a block sum that is 0 mod
    p^(required + M) cannot set a new one, and its valuation is not taken.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .forms import (
    INFINITY,
    FormSystem,
    PadicInfinity,
    dot,
    factorial_ratio,
    harmonic,
    is_prime,
    vp_int,
    vp_of_rational,
    vp_ratio_legendre,
)
from .series import MSeries

IntVec = tuple[int, ...]
Valuation = Union[int, PadicInfinity]


# ---------------------------------------------------------------------------
# p-adic Gamma


def gamma_p(n: int, p: int) -> int:
    """Morita-style p-adic Gamma at a nonnegative integer:
    (-1)^n times the product of k < n coprime to p."""
    if n < 0:
        raise ValueError("argument must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    prod = 1
    for k in range(1, n):
        if k % p:
            prod *= k
    return -prod if n % 2 else prod


def gamma_p_check(n: int, k: int, s: int, p: int) -> bool:
    """Both classical Gamma_p identities, exactly.

    (np)!/n! = p^n * |Gamma_p(1+np)|  and  Gamma_p(k+np^s) = Gamma_p(k)
    mod p^s.  Returns True iff both hold.
    """
    lhs = math.factorial(n * p) // math.factorial(n)
    unit = gamma_p(1 + n * p, p)
    first = lhs == p**n * abs(unit)
    second = (gamma_p(k + n * p**s, p) - gamma_p(k, p)) % p**s == 0
    return first and second


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


def _gap(e1: int, x1: int, e2: int, x2: int, p: int, mod: int) -> Optional[int]:
    """v_p(p^e1 x1 - p^e2 x2) for p-adic units known mod ``mod`` = p^_R.

    Unequal exponents give min(e1, e2) exactly; equal ones give
    e1 + v_p(x1 - x2) unless x1 = x2 mod p^_R, the one case the residues
    cannot decide, which returns None.
    """
    if e1 != e2:
        return min(e1, e2)
    t = (x1 - x2) % mod
    return e1 + vp_int(t, p) if t else None


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

    def vpQ(self, n: Sequence[int]) -> int:
        """Valuation of Q(n) for nonnegative n, via Legendre sums."""
        return vp_ratio_legendre(self.sys, n, self.p)

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
            out = self._mu_cache[m] = self._count_mu(m)
        return out

    def _count_mu(self, m: IntVec) -> int:
        # {m/q} = (m mod q)/q, and past the largest form value no level counts
        top = max((sum(map(mul, w, m)) for w in self._forms), default=0)
        count = 0
        q = self.p
        while q <= top:
            if _in_region_scaled(self, [c % q for c in m], q):
                count += 1
            q *= self.p
        return count

    def g(self, m: Sequence[int]) -> int:
        return self.p ** self.mu(m)


def padic_weight(ctx: PadicContext, m: Sequence[int]) -> tuple[int, int]:
    """The pair (mu_p(m), p^mu_p(m))."""
    mu = ctx.mu(m)
    return mu, ctx.p**mu


# ---------------------------------------------------------------------------
# good residues


def _in_region_scaled(ctx: PadicContext, u: IntVec, q: int) -> bool:
    """Whether {u/q} lies in the jump region, for 0 <= u < q componentwise.

    Integer form of the test: w.(u/q) >= 1 exactly when w.u >= q.
    """
    return any(sum(map(mul, w, u)) >= q for w in ctx._forms)


def _good_residue_fractional(ctx: PadicContext, u: IntVec, s: int) -> bool:
    if s == 0:
        return True
    return not _in_region_scaled(ctx, u, ctx.p**s)


def _good_residue_words(ctx: PadicContext, u: IntVec, s: int) -> bool:
    # u is excluded iff for some t <= s its top t base-p digit vectors form
    # an index n whose first t rescalings all land in the jump region.
    p = ctx.p
    for t in range(1, s + 1):
        n = tuple(c // p ** (s - t) for c in u)
        if all(
            _in_region_scaled(ctx, tuple(c % p**l for c in n), p**l)
            for l in range(1, t + 1)
        ):
            return False
    return True


def is_good_residue(ctx: PadicContext, u: Sequence[int], s: int) -> bool:
    """Membership of u in the good residue set mod p^s.

    Good residues are the u in {0..p^s-1}^d whose scaled fractional part
    {u/p^s} avoids the jump region.  The equivalent digit-word suffix rule
    is evaluated as well and must agree.
    """
    u = tuple(int(c) for c in u)
    if len(u) != ctx.sys.d:
        raise ValueError("residue vector has the wrong dimension")
    if any(not 0 <= c < ctx.p**s for c in u):
        raise ValueError(f"residue entries must lie in [0, p^{s})")
    a = _good_residue_fractional(ctx, u, s)
    b = _good_residue_words(ctx, u, s)
    if a != b:
        raise RuntimeError(
            f"good-residue criteria disagree at u={u}, s={s}: "
            f"fractional={a}, words={b}"
        )
    return a


def good_residues(ctx: PadicContext, s: int) -> list[IntVec]:
    """All good residues mod p^s, lexicographically."""
    return [
        u
        for u in itertools.product(range(ctx.p**s), repeat=ctx.sys.d)
        if _good_residue_fractional(ctx, u, s)
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

    def to_json(self) -> str:
        def enc(v):
            return "inf" if v is INFINITY else v

        return json.dumps(
            {
                "check": self.check,
                "locus": _locus_json(self.locus),
                "required": enc(self.required),
                "achieved": enc(self.achieved),
                "pass": self.passed,
            }
        )


def _locus_json(obj):
    if isinstance(obj, tuple):
        return [_locus_json(x) for x in obj]
    return obj


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
        margin = achieved - (0 if required is INFINITY else required)
        if required is INFINITY:
            margin = -(10**9)  # finite valuation can never reach an exact-zero demand
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

    def report(self) -> CongruenceReport:
        if self.margin is None:
            passed = True
        else:
            passed = self.achieved >= self.required
        return CongruenceReport(
            check=self.check,
            locus=self.locus,
            required=self.required,
            achieved=self.achieved,
            passed=passed,
        )


# ---------------------------------------------------------------------------
# Dieudonne-Dwork


def dieudonne_dwork_check(F: MSeries, G: MSeries, p: int) -> list[CongruenceReport]:
    """Per-exponent valuation test of F(z) G(z^p) - p F(z^p) G(z).

    exp(G/F) has p-integral coefficients iff every coefficient of the
    combination has valuation >= 1; each nonzero coefficient yields one
    report, in lexicographic exponent order.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if F.constant_term != 1:
        raise ValueError("F must have constant term 1")
    for v, c in F.items():
        if vp_of_rational(c, p) < 0:
            raise ValueError(f"F has a non p-integral coefficient at {v}")
    if G.constant_term != 0:
        raise ValueError("G must have constant term 0")
    combo = F * G.substitute_pth_power(p) - p * F.substitute_pth_power(p) * G
    out = []
    for v, c in combo.items():
        ach = vp_of_rational(c, p)
        out.append(
            CongruenceReport(
                check="dieudonne-dwork",
                locus=(v,),
                required=1,
                achieved=ach,
                passed=ach >= 1,
            )
        )
    return out


def dd_coefficient_k(
    ctx: PadicContext, k: int, a: Sequence[int], K: Sequence[int]
) -> Fraction:
    """Coefficient of z^(a+pK) in F(z) G_k(z^p) - p F(z^p) G_k(z), in closed form.

    The double sum runs over 0 <= j <= K; k is 1-based.
    """
    sys = ctx.sys
    if not 1 <= k <= sys.d:
        raise ValueError(f"coordinate {k} out of range")
    a, K = _check_residue_pair(ctx, a, K)
    kk = k - 1
    p = ctx.p
    total = Fraction(0)
    for j in _box(K):
        Kj = tuple(x - y for x, y in zip(K, j))
        apj = tuple(x + p * y for x, y in zip(a, j))
        w = Fraction(0)
        for v in sys.e:
            if v[kk]:
                w += v[kk] * (harmonic(dot(v, Kj)) - p * harmonic(dot(v, apj)))
        for v in sys.f:
            if v[kk]:
                w -= v[kk] * (harmonic(dot(v, Kj)) - p * harmonic(dot(v, apj)))
        if w:
            total += ctx.Q(Kj) * ctx.Q(apj) * w
    return total


def dd_coefficient_L(
    ctx: PadicContext, L: Sequence[int], a: Sequence[int], K: Sequence[int]
) -> Fraction:
    """Coefficient of z^(a+pK) in F(z) G_L(z^p) - p F(z^p) G_L(z), in closed form."""
    L = tuple(int(c) for c in L)
    a, K = _check_residue_pair(ctx, a, K)
    p = ctx.p
    total = Fraction(0)
    for j in _box(K):
        Kj = tuple(x - y for x, y in zip(K, j))
        apj = tuple(x + p * y for x, y in zip(a, j))
        w = harmonic(dot(L, Kj)) - p * harmonic(dot(L, apj))
        if w:
            total += ctx.Q(Kj) * ctx.Q(apj) * w
    return total


def _check_residue_pair(ctx, a, K):
    a = tuple(int(c) for c in a)
    K = tuple(int(c) for c in K)
    if len(a) != ctx.sys.d or len(K) != ctx.sys.d:
        raise ValueError("dimension mismatch")
    if any(not 0 <= c < ctx.p for c in a):
        raise ValueError("residue entries must lie in [0, p)")
    if any(c < 0 for c in K):
        raise ValueError("K must be componentwise nonnegative")
    return a, K


def _box(hi: IntVec, lo: Optional[IntVec] = None):
    """Lexicographic iteration of the integer box [lo, hi] (both inclusive)."""
    if lo is None:
        lo = (0,) * len(hi)
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return itertools.product(*ranges)


# ---------------------------------------------------------------------------
# the double convolution sums


def _u_table(K: IntVec, P, Q) -> dict[IntVec, Rational]:
    """The terms Q(a + p(K-j)) Q(j) - Q(K-j) Q(a + pj) over 0 <= j <= K, keyed by j.

    ``P`` maps x to Q(a + px) and ``Q`` maps x to Q(x), both over the box
    [0, K].  The box in reverse lexicographic order lists K - j.
    """
    js = list(_box(K))
    return {j: P[kj] * Q[j] - Q[kj] * P[j] for j, kj in zip(js, reversed(js))}


def _block_sums(table: dict[IntVec, Rational], p: int, s_max: int) -> list[dict]:
    """Block sums of a term table by level.

    Level s maps m to the sum of the terms with m p^s <= j <= (m+1) p^s - 1,
    for the nonempty blocks only (m <= K // p^s).  Level s+1 adds the p^d
    level-s blocks under each of its blocks, so each level costs one pass
    over the level below it.
    """
    levels = [table]
    for _ in range(s_max):
        up: dict[IntVec, Rational] = {}
        for m, x in levels[-1].items():
            key = tuple(c // p for c in m)
            up[key] = up.get(key, 0) + x
        levels.append(up)
    return levels


def convolution_sum(
    ctx: PadicContext, a: Sequence[int], K: Sequence[int], s: int, m: Sequence[int]
) -> Rational:
    """The block sum over m p^s <= j <= (m+1) p^s - 1 of
    Q(a + p(K-j)) Q(j) - Q(K-j) Q(a + pj), with Q zero-extended.

    K may have negative entries; the sum is then empty of nonzero terms.
    """
    a = tuple(int(c) for c in a)
    K = tuple(int(c) for c in K)
    m = tuple(int(c) for c in m)
    p = ctx.p
    if any(not 0 <= c < p for c in a):
        raise ValueError("residue entries must lie in [0, p)")
    if any(c < 0 for c in m) or s < 0:
        raise ValueError("m and s must be nonnegative")
    # Terms vanish unless 0 <= j <= K, so the table of that box covers the block.
    box = list(_box(K))
    P = {x: ctx.Q(tuple(c + p * y for c, y in zip(a, x))) for x in box}
    Q = {x: ctx.Q(x) for x in box}
    return _block_sums(_u_table(K, P, Q), p, s)[s].get(m, 0)


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

    v0 = ctx.vpQ((0,) * d)
    reports.append(CongruenceReport("unit-at-zero", ((0,) * d,), 0, v0, passed=(v0 == 0)))

    w = _Worst("weight-lower-bound")
    for m, mu_m in zip(mbox, mus):
        w.update((m,), mu_m, ctx.vpQ(m))
    reports.append(w.report())

    reports.extend(_ratio_reports(ctx, s_max, m_bound, mbox, mus))

    w = _Worst("weight-shift")
    for n, t in excluded_indices(ctx, s_max):
        pt = p**t
        for m, mu_m in zip(mbox, mus):
            shifted = tuple(x + pt * y for x, y in zip(n, m))
            w.update((n, t, m), t + mu_m, ctx._count_mu(shifted))
    reports.append(w.report())

    reports.extend(_conclusion_reports(ctx, s_max, k_bound, m_bound, dict(zip(mbox, mus))))
    return reports


def _ratio_reports(
    ctx: PadicContext, s_max: int, m_bound: int, mbox: list, mus: list
) -> list:
    """The three ratio congruences: Q(vup + m p^(s+1)) / Q(vup) against
    Q(u + m p^s) / Q(u), for good u mod p^s, v mod p and vup = v + p u."""
    p, d = ctx.p, ctx.sys.d
    units = ctx._units((m_bound + 1) * p ** (s_max + 1))
    mod = units.mod
    mdots = [units.dots(m) for m in mbox]
    wa = _Worst("ratio-congruence")
    wa1 = _Worst("ratio-congruence-good")
    wa2 = _Worst("ratio-congruence-excluded")
    for s in range(s_max + 1):
        q0, q1 = p**s, p ** (s + 1)
        for u in good_residues(ctx, s):
            v_u, ui_u = units.inverse(u)
            base_u = units.dots(u)
            below = [units.shifted(base_u, q0, md) for md in mdots]
            for v in itertools.product(range(p), repeat=d):
                vup = tuple(x + p * y for x, y in zip(v, u))
                good_next = _good_residue_fractional(ctx, vup, s + 1)
                mu_vup = ctx.mu(vup)
                v_vup, ui_vup = units.inverse(vup)
                base_vup = units.dots(vup)
                for m, md, mu_m, (v_b, x_b) in zip(mbox, mdots, mus, below):
                    v_a, x_a = units.shifted(base_vup, q1, md)
                    e_b = v_b - v_u
                    ach = _gap(v_a - v_vup, x_a * ui_vup, e_b, x_b * ui_u, p, mod)
                    if ach is None:
                        top = tuple(x + q1 * y for x, y in zip(vup, m))
                        bot = tuple(x + q0 * y for x, y in zip(u, m))
                        ach = _vp(
                            Fraction(ctx.Q(top)) / ctx.Q(vup) - Fraction(ctx.Q(bot)) / ctx.Q(u),
                            p,
                        )
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
    """The conclusion for every block sum and the telescoping of complete ones.

    Only the nonempty blocks, m <= K // p^s, are visited.  An empty block
    sums to zero, and an update with an INFINITY valuation changes a
    ``_Worst`` only when it is the first update; the first update, at
    (a, K, s, m) = 0, has a nonempty block.  So skipping the empty ones
    leaves every report as it is.  The blocks of one level partition
    [0, K], so the telescoping total is the sum of the whole table for
    every s: it is computed once per (a, K) and reported for each s.
    """
    p, d = ctx.p, ctx.sys.d
    kbox = list(_box((k_bound,) * d))
    Q = {x: ctx.Q(x) for x in kbox}
    wc = _Worst("conclusion")
    wt = _Worst("telescoping")
    for a in itertools.product(range(p), repeat=d):
        P = {x: ctx.Q(tuple(c + p * y for c, y in zip(a, x))) for x in kbox}
        for K in kbox:
            table = _u_table(K, P, Q)
            total = _vp(sum(table.values()), p)
            for s, level in enumerate(_block_sums(table, p, s_max)):
                q = p**s
                for m in _box(tuple(min(k // q, m_bound) for k in K)):
                    wc.update_value((a, K, s, m), s + 1 + mu[m], level[m], p)
                wt.update((a, K, s), INFINITY, total)
    return [wc.report(), wt.report()]


def q_ratio_congruence_sweep(
    ctx: PadicContext, s_max: int = 2, m_bound: int = 4
) -> CongruenceReport:
    """Exact check that Q(c) Q(cp + m p^(s+1)) / (Q(cp) Q(c + m p^s))
    lies in 1 + p^(s+1) Z_p, over all c mod p^s and bounded m.

    Requires equal column sums of e and f.  Returns one aggregated report
    with the worst locus.
    """
    if ctx.sys.sum_e != ctx.sys.sum_f:
        raise ValueError("the congruence needs equal column sums")
    p, d = ctx.p, ctx.sys.d
    units = ctx._units((m_bound + 1) * p ** (s_max + 1))
    mod = units.mod
    mbox = list(_box((m_bound,) * d))
    mdots = [units.dots(m) for m in mbox]
    w = _Worst("unit-ratio-congruence")
    for s in range(s_max + 1):
        q0, q1 = p**s, p ** (s + 1)
        for c in itertools.product(range(q0), repeat=d):
            cp = tuple(x * p for x in c)
            v_c, ui_c = units.inverse(c)
            v_cp, ui_cp = units.inverse(cp)
            base_c, base_cp = units.dots(c), units.dots(cp)
            for m, md in zip(mbox, mdots):
                # the ratio is (Q(top)/Q(cp)) / (Q(bot)/Q(c))
                v_t, x_t = units.shifted(base_cp, q1, md)
                v_b, x_b = units.shifted(base_c, q0, md)
                e_b = v_b - v_c
                gap = _gap(v_t - v_cp, x_t * ui_cp, e_b, x_b * ui_c, p, mod)
                if gap is None:
                    top = ctx.Q(tuple(x * p + y * q1 for x, y in zip(c, m)))
                    bot = ctx.Q(tuple(x + y * q0 for x, y in zip(c, m)))
                    ach = _vp(Fraction(ctx.Q(c) * top) / (ctx.Q(cp) * bot) - 1, p)
                else:
                    ach = gap - e_b
                w.update((s, c, m), s + 1, ach)
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
    x = tuple(Fraction(c) for c in x)
    kk = k - 1
    total = Fraction(0)
    for v in sys.e:
        if v[kk]:
            total += v[kk] * harmonic(math.floor(dot(v, x)))
    for v in sys.f:
        if v[kk]:
            total -= v[kk] * harmonic(math.floor(dot(v, x)))
    return total


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
