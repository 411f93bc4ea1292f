"""Exact arithmetic kernel.

Factorial ratios of linear forms, harmonic numbers and p-adic valuations,
all over arbitrary-precision integers and rationals.  A ratio is described
by a :class:`FormSystem`: two sequences ``e`` and ``f`` of nonnegative
integer vectors in dimension ``d``.  The associated family of rationals is

    Q(n) = (e_1.n)! ... (e_q1.n)! / ((f_1.n)! ... (f_q2.n)!),

indexed by nonnegative integer vectors ``n``.  A system states it once, as
``counts``: each distinct form w, first seen first, with its count in ``e``
less its count in ``f``; a zero count stays, as a shared form still bounds
the jump region.  Its nonzero part ``net`` gives Q(n) as the product of
(w.n)!^m over (w, m) in ``net``.  This module alone turns net forms into
values of Q: ``factorial_ratio`` and ``vp_ratio_legendre`` at one point;
``factorial_ratios`` at many points, as integers over one denominator; and
``UnitTables`` at many points as v_p(Q) and the unit part of Q mod p^R,
read off prefix passes over the p-free parts of 1, ..., N.  Everything
else in this module is an immutable value or a pure function, and a
``UnitTables`` is not changed once built, so concurrent use from any
number of threads is safe.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


class PadicInfinity:
    """Sentinel for the p-adic valuation of zero.

    Compares strictly greater than every integer and equal only to itself.
    Arithmetic with it raises, so it can never silently wrap around inside
    a congruence check.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("PadicInfinity")

    def __gt__(self, other):
        if isinstance(other, int) or other is self:
            return other is not self
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, int) or other is self:
            return True
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, int) or other is self:
            return other is self
        return NotImplemented


INFINITY = PadicInfinity()


def is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` are not integers here."""
    return type(x) is int


def is_int_list(x) -> bool:
    """A JSON list of integers."""
    return isinstance(x, list) and all(map(is_int, x))


def _as_intvec(v: Iterable[int]) -> IntVec:
    out = []
    for c in v:
        c = int(c)
        if c < 0:
            raise ValueError("form vectors must have nonnegative entries")
        out.append(c)
    return tuple(out)


class FormSystem:
    """Two sequences of nonnegative integer vectors defining a factorial ratio.

    The default constructor enforces the standing hypotheses of the
    integrality criteria: every vector is nonzero and the two sequences are
    disjoint as multisets.  Pass ``raw=True`` to lift both restrictions
    (needed for witness constructions and for preprocessed subsequences).
    """

    __slots__ = ("d", "e", "f", "raw", "sum_e", "sum_f", "counts", "net")

    def __init__(self, e: Sequence[Iterable[int]], f: Sequence[Iterable[int]], raw: bool = False):
        e = tuple(_as_intvec(v) for v in e)
        f = tuple(_as_intvec(v) for v in f)
        if not e and not f:
            raise ValueError("at least one form vector is required")
        d = len(e[0]) if e else len(f[0])
        if d == 0:
            raise ValueError("dimension must be positive")
        for v in e + f:
            if len(v) != d:
                raise ValueError("all form vectors must share one dimension")
        if not raw:
            for v in e + f:
                if not any(v):
                    raise ValueError("zero form vector (use raw=True to allow)")
            if set(e) & set(f):
                raise ValueError("e and f overlap as multisets (use raw=True to allow)")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "raw", bool(raw))
        object.__setattr__(self, "sum_e", tuple(sum(v[i] for v in e) for i in range(d)))
        object.__setattr__(self, "sum_f", tuple(sum(v[i] for v in f) for i in range(d)))
        # each distinct form, first seen first, with its count in e less its count in f
        counts = tuple((w, e.count(w) - f.count(w)) for w in dict.fromkeys(e + f))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "net", tuple((w, m) for w, m in counts if m))

    def __setattr__(self, name, value):
        raise AttributeError("FormSystem is immutable")

    @property
    def equal_column_sums(self) -> bool:
        """Whether e and f have the same column sums, which makes delta
        1-periodic; a system without them is flagged."""
        return self.sum_e == self.sum_f

    @property
    def forms(self) -> tuple[IntVec, ...]:
        """All form vectors of ``e`` followed by those of ``f``."""
        return self.e + self.f

    def __eq__(self, other):
        if not isinstance(other, FormSystem):
            return NotImplemented
        return (self.e, self.f, self.raw) == (other.e, other.f, other.raw)

    def __hash__(self):
        return hash((self.e, self.f, self.raw))

    def __repr__(self):
        tail = ", raw=True" if self.raw else ""
        return f"FormSystem(e={list(self.e)}, f={list(self.f)}{tail})"

    def to_dict(self) -> dict:
        out = {"e": [list(v) for v in self.e], "f": [list(v) for v in self.f]}
        if self.raw:
            out["raw"] = True
        return out

    @classmethod
    def from_dict(cls, data) -> "FormSystem":
        """The system ``to_dict`` wrote; anything else raises ValueError.

        ``e`` and ``f`` are lists of integer lists, ``raw`` is absent or a
        boolean, and the constructor's own checks hold.
        """
        if not isinstance(data, dict) or not {"e", "f"} <= set(data) <= {"e", "f", "raw"}:
            raise ValueError("a system is an object with e, f and optionally raw")
        if not all(isinstance(data[s], list) and all(map(is_int_list, data[s])) for s in "ef"):
            raise ValueError("system e and f must be lists of integer lists")
        if not isinstance(data.get("raw", False), bool):
            raise ValueError("system raw must be true or false")
        return cls(data["e"], data["f"], raw=data.get("raw", False))


def dot(u: Sequence, v: Sequence):
    """Scalar product of two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} != {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def _check_index(sys: FormSystem, n: Sequence[int]) -> IntVec:
    n = tuple(int(c) for c in n)
    if len(n) != sys.d:
        raise ValueError(f"index vector has length {len(n)}, expected {sys.d}")
    if any(c < 0 for c in n):
        raise ValueError("index vector must be componentwise nonnegative")
    return n


def factorial_ratio(sys: FormSystem, n: Sequence[int]) -> Fraction:
    """Exact value of Q(n) = prod (e_i.n)! / prod (f_j.n)!.

    Integer-valued for every ``n`` exactly when the Landau function of the
    system is nonnegative on the unit box; in general an exact rational.
    """
    n = _check_index(sys, n)
    num = math.prod(math.factorial(dot(w, n)) ** m for w, m in sys.net if m > 0)
    return Fraction(num, math.prod(math.factorial(dot(w, n)) ** -m for w, m in sys.net if m < 0))


# points per slice of ``factorial_ratios``: only one slice's full products
# are held at a time
_SLICE = 4096

# the largest N a job may take N! of: ``factorial_ratios`` tabulates every
# N! up to its largest argument; with the cubes cubic-2d takes, that took
# 0.3 s and 23 MB peak RSS at 2048, 2.2 s and 56 MB at 4096, and 16 s and
# 200 MB at 8192 (Python 3.11 on 2 shared vCPUs, one run each)
FACTORIAL_BOUND = 1 << 12


def check_factorials(top: int) -> None:
    """Raise ValueError when a table of N! for N <= ``top`` passes
    ``FACTORIAL_BOUND``."""
    if top > FACTORIAL_BOUND:
        raise ValueError(f"factorials up to {top} pass the {FACTORIAL_BOUND} a table holds")


def factorial_ratios(
    sys: FormSystem, cols: Sequence[Sequence[int]], size: int
) -> tuple[int, list[int]]:
    """(D, nums) with Q(n_i) = nums[i] / D for i < ``size``, D the least
    common denominator of the Q(n_i).

    ``cols[t][i]`` is w_t.n_i for the t-th (w_t, m_t) of ``sys.net``; a
    system with no net term has Q = 1 everywhere.  Every (w.n)! is read
    from one table of factorials up to the largest value in ``cols``.  The
    points are divided slice by slice, each over its own least denominator,
    and a slice is rescaled to D, the lcm of those, once all are known.
    """
    top = max(itertools.chain(*cols), default=0)
    fact = list(itertools.accumulate(range(1, top + 1), mul, initial=1))
    powers = [
        (m > 0, fact if abs(m) == 1 else [c ** abs(m) for c in fact[: max(col, default=0) + 1]])
        for (_, m), col in zip(sys.net, cols)
    ]
    starts = range(0, size, _SLICE)
    D, nums, dens = 1, [], []
    for lo in starts:
        hi = min(lo + _SLICE, size)
        num, den = [1] * (hi - lo), [1] * (hi - lo)
        for (positive, power), col in zip(powers, cols):
            side = num if positive else den
            side[:] = map(mul, side, map(power.__getitem__, col[lo:hi]))
        d = math.lcm(*[y // math.gcd(x, y) for x, y in zip(num, den) if x % y])
        nums += [x * d // y for x, y in zip(num, den)]
        dens.append(d)
        D = math.lcm(D, d)
    for lo, d in zip(starts, dens):
        if d != D:
            nums[lo : lo + _SLICE] = [x * (D // d) for x in nums[lo : lo + _SLICE]]
    return D, nums


class UnitTables:
    """v_p(Q(n)) and the unit part of Q(n) mod p^digits, read off tables of N!.

    N! is the product of p^v_p(k) free(k) over k <= N, free(k) the p-free
    part of k, so v_p(N!) is the prefix sum of v_p(k) and the unit part of
    N! the prefix product of free(k) mod p^digits; k = p j has v_p(j) + 1
    and free(j).  The unit part of 1/N! is read downward from the inverse
    at t, the largest N a form of negative m reads, as the unit part of
    1/(N-1)! is that of 1/N! times free(N).  Q(n) is the product of
    (w.n)!^m over the (w, m) of ``sys.net``; per form, ``tables`` holds
    m v_p(N!) and the m-th power of that unit part mod p^digits for
    N <= sum(w) scale, the values w.n reaches for n <= scale
    componentwise, and a form with m = +-1 reads the shared tables as they
    are."""

    def __init__(self, sys: FormSystem, p: int, scale: int, digits: int):
        mod = p**digits
        # the largest N read by a form of positive m (at 1), of negative m (at -1)
        tops = {1: 0, -1: 0}
        for w, m in sys.net:
            sign = 1 if m > 0 else -1
            tops[sign] = max(tops[sign], sum(w) * scale)
        top, t = max(tops.values()), tops[-1]
        # v_p(k) and free(k); only a multiple of p differs from k
        vk, free = [0] * (top + 1), list(range(top + 1))
        for k in range(p, top + 1, p):
            vk[k], free[k] = vk[k // p] + 1, free[k // p]
        vf = list(itertools.accumulate(vk))
        unit = [1] * (top + 1)
        for k in range(1, top + 1):
            unit[k] = unit[k - 1] * free[k] % mod
        inv = [1] * (t + 1)
        inv[t] = pow(unit[t], -1, mod)
        for k in range(t, 0, -1):
            inv[k - 1] = inv[k] * free[k] % mod
        self.mod, self.scale = mod, scale
        # per net form, (m v_p(N!), unit^m), indexed by N = w.n
        self.tables = []
        for w, m in sys.net:
            reach = range(sum(w) * scale + 1)
            U = unit if m > 0 else inv
            self.tables.append((
                vf if m == 1 else [m * vf[N] for N in reach],
                U if abs(m) == 1 else [U[N] ** abs(m) % mod for N in reach],
            ))

    def read(self, cols: Sequence[Sequence[int]], size: int) -> tuple[list, list]:
        """(v_p, unit part) of Q(n_i) for i < ``size``, one list each, with
        ``cols`` as in ``factorial_ratios``; the unit parts are products of
        table entries, not reduced mod p^digits."""
        v, u = itertools.repeat(0, size), itertools.repeat(1, size)
        for (V, U), col in zip(self.tables, cols):
            v = map(add, v, map(V.__getitem__, col))
            u = map(mul, u, map(U.__getitem__, col))
        return list(v), list(u)


def harmonic(m: int) -> Fraction:
    """m-th harmonic number H_m = 1 + 1/2 + ... + 1/m, with H_0 = 0, as
    num/den with den = m!, reduced once."""
    if m < 0:
        raise ValueError("harmonic index must be nonnegative")
    num, den = 0, 1
    for k in range(1, m + 1):
        num, den = num * k + den, den * k
    return Fraction(num, den)


# Miller-Rabin on these bases decides every n < 3.3 * 10^24 (Sorenson and
# Webster 2015); primality is decided below 2^_PRIME_BITS only.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BITS = 64


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly, by deterministic Miller-Rabin on the
    first 12 primes; raises ValueError for n >= 2^64."""
    if n >= 1 << _PRIME_BITS:
        raise ValueError(f"{n} is not below 2^{_PRIME_BITS}, the bound on primes")
    if n < 2:
        return False
    if any(n % b == 0 for b in _BASES):
        return n in _BASES
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in _BASES:
        x = pow(b, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """``p`` as an int; raises ValueError when it is not a prime below 2^64."""
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def vp_int(n: int, p: int) -> int | PadicInfinity:
    """p-adic valuation of an integer; INFINITY for zero."""
    if n == 0:
        return INFINITY
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def vp_of_rational(x, p: int) -> int | PadicInfinity:
    """p-adic valuation of an exact rational; INFINITY for zero."""
    p = require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def vp_factorial(m: int, p: int) -> int:
    """Valuation of m! by the Legendre sum of floor(m / p^l)."""
    v = 0
    q = p
    while q <= m:
        v += m // q
        q *= p
    return v


def vp_ratio_legendre(sys: FormSystem, n: Sequence[int], p: int) -> int:
    """Valuation of Q(n) computed without building the rational.

    Sums Legendre terms over the linear-form values; the sum is finite
    because every floor vanishes once p^l exceeds the largest form value.
    """
    p = require_prime(p)
    n = _check_index(sys, n)
    return sum(m * vp_factorial(dot(w, n), p) for w, m in sys.net)
