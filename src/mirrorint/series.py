"""Truncated multivariate power series with exact rational coefficients.

An :class:`MSeries` stores finitely many monomials ``coeff * z^v`` with
exponent vectors of total degree at most ``order``; everything beyond the
truncation order is unknown rather than zero.  Ring operations, reciprocal,
exp and log of units, univariate specialization, composition and
compositional inversion of diagonal-unit maps are all exact.  No floating
point enters anywhere.

Truncation is by TOTAL degree.  That keeps the graded recursions for
exp/log sound, and it lets the valuation of a series bound how far each
part of a computation must be carried: ``compose`` runs Horner's rule over
grouped monomials with shared power tables, and ``invert_diagonal`` runs a
Newton iteration that doubles the exact order at each step and checks
q(z(q)) = q at the end.

A series is stored as its integer form (``D``, ``ints``): its numerators
over one denominator, in lowest terms, keyed on the Kronecker grading of
``kronecker``.  Sums, products, the unit operations, composition,
truncation and specialization hand forms to the integer kernel in
``kronecker`` with no conversion.  Fractions are made only where a
coefficient is read: ``coeff``, ``items`` and the violations of a scan.
A series document is its ``canonical`` bytes, which ``to_bytes`` writes
from the form with one gcd a term and ``from_bytes`` reads with one
pattern and no JSON tree, for a cache file as it is and for a job fixture,
terms in any order, once ``from_dict`` has sorted and written it so.

* **Integer form.**  A series at order N is its numerators over D, the
  least common denominator of its coefficients, keyed by the Kronecker
  index

      key(v) = v_0 + v_1 B + ... + v_(d-2) B^(d-2) + |v| B^(d-1),  B = N + 1,

  with the total degree |v| in the top digit.  The key is additive, so
  multiplying monomials adds keys, and the keys of degree <= L are exactly
  those below B^(d-1) (L + 1).  A sum of two exponents can exceed N in a
  coordinate only when its total degree exceeds N, so a carry can only move
  a product term up to a key past the truncation, never down into it.  This
  takes (N + 1)^d keys, where base 2N + 1 in every coordinate takes
  (2N + 1)^d.
* **Products (Kronecker substitution).**  Each operand becomes one Python
  int with its numerators in slots of s bits at their keys; positive and
  negative numerators are packed apart and subtracted, so the int carries
  the signs.  One big-int product then holds every coefficient of the
  product at its key.  Given a term of a, at most one term of b meets it at
  a given key, so a slot sums at most min(#a, #b) products and is bounded
  by max|a| max|b| min(#a, #b); s is that bound's bit length plus a sign
  bit, rounded up to whole bytes, so no slot overflows into its neighbour.
  Adding 2^(s-1) to every slot makes each slot a digit in [1, 2^s), read
  off the bytes of the int.  Operands are cut first to the degrees that
  can still reach the truncation given the other's valuation.
* **Unit operations.**  ``reciprocal``, ``exp`` and ``log`` run their
  graded recursions on integer slices, the homogeneous parts on their own
  Kronecker keys.  With U_j the numerators of the degree-j part u_j over D,
  the recursions are

      reciprocal  r_k = -sum_(j=1..k) u_j r_(k-j)
      exp         k e_k = sum_(j=1..k) j u_j e_(k-j)
      log         k l_k = k u_k + sum_(j=1..k) (j - k) u_j l_(k-j)

  (log from u E(l) = E(u), with E the operator that multiplies degree j
  by j).  Each result slice x_k is kept in lowest terms, X_k / d_k with
  d_0 = 1.  Step k takes E, the lcm of the d_(k-j) it reads, and sums the
  integer slice

      S_k = L_k E + sum_j w(k, j) (E / d_(k-j)) U_j X_(k-j)

  (w = -1, j or j - k; L_k = k U_k for log, else 0), so that
  x_k = S_k / (s_k D E), with s_k = 1 for reciprocal and k for exp and
  log; one gcd reduces it.  The sum is taken as Kronecker ints at one
  slot width that bounds it, slice j packed from key j B^(d-1), the least
  of degree j.  When the result is integral, as exp(G_k/F) is in Case I,
  every d_k is 1 and the slots track the coefficients; scaled by k! D^k
  instead, they would widen by D's bit length at every degree.  The width
  is taken from the bound but at least doubles when it must grow, so each
  slice is packed once per width.
* **Specialization.**  ``MSeries.specialize`` takes the form along
  z_i = M_i t^(N_i) to the univariate form (D, n -> numerator of t^n),
  summing numerators as ints; ``operators`` applies theta operators to
  those numerators as coefficient lists.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
from operator import itemgetter, lt, mul
from typing import Mapping, Optional, Sequence

from . import kronecker
from .forms import is_int, is_int_list

Exponent = tuple[int, ...]


def _as_coeff(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(c)


def _check_length(v: Exponent, d: int):
    if len(v) != d:
        raise ValueError(f"exponent {v} has length {len(v)}, expected {d}")


class MSeries:
    """A truncated power series in ``d`` variables, exact and immutable.

    Stored as its integer form: the coefficient at exponent v is
    ``ints[key(v)] / D`` on ``kronecker.grading(d, order)``, with D > 0,
    every numerator nonzero and gcd(D, *ints) = 1.
    """

    __slots__ = ("d", "order", "D", "ints")

    def __init__(self, d: int, order: int, terms=()):
        if d < 1:
            raise ValueError("dimension must be positive")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        data: dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for v, c in items:
            v = tuple(int(e) for e in v)
            _check_length(v, d)
            if any(e < 0 for e in v):
                raise ValueError(f"negative exponent in {v}")
            c = _as_coeff(c)  # a float is refused at any degree
            if sum(v) <= order:
                data[v] = data.get(v, 0) + c
        key = kronecker.grading(d, order).key
        # a list: CPython's tuple free list keeps each tuple resized from a generator
        D = math.lcm(*[c.denominator for c in data.values()])
        ints = {key[v]: c.numerator * (D // c.denominator) for v, c in data.items() if c}
        self._set(d, order, D, ints)

    def _set(self, d, order, D, ints):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "ints", ints)

    @classmethod
    def of_form(cls, d: int, order: int, form) -> "MSeries":
        """The series whose coefficient at Kronecker key k is ints[k] / D, for
        ``form`` = (D, ints) with D > 0 and nonzero ints on keys of
        ``kronecker.grading(d, order)``; it is stored in lowest terms."""
        s = object.__new__(cls)
        s._set(d, order, *kronecker.reduced(*form))
        return s

    def __setattr__(self, name, value):
        raise AttributeError("MSeries is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, d: int, order: int) -> "MSeries":
        return cls(d, order)

    @classmethod
    def constant(cls, d: int, order: int, c) -> "MSeries":
        return cls(d, order, {(0,) * d: _as_coeff(c)})

    @classmethod
    def one(cls, d: int, order: int) -> "MSeries":
        return cls.constant(d, order, 1)

    @classmethod
    def variable(cls, d: int, order: int, i: int) -> "MSeries":
        """The coordinate series z_i (0-based index)."""
        if not 0 <= i < d:
            raise ValueError("variable index out of range")
        v = tuple(1 if j == i else 0 for j in range(d))
        return cls(d, order, {v: 1})

    # -- access ------------------------------------------------------------

    @property
    def form(self) -> tuple[int, dict[int, int]]:
        """The integer form (D, ints)."""
        return self.D, self.ints

    @property
    def _terms(self) -> dict[Exponent, Fraction]:
        """Exponent -> reduced Fraction, for every stored term."""
        exp, D = kronecker.grading(self.d, self.order).exp, self.D
        return {exp[k]: Fraction(c, D) for k, c in self.ints.items()}

    def coeff(self, v: Sequence[int]) -> Fraction:
        v = tuple(int(e) for e in v)
        _check_length(v, self.d)
        k = kronecker.grading(self.d, self.order).key.get(v)
        return Fraction(self.ints.get(k, 0), self.D)

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms sorted lexicographically by exponent (deterministic)."""
        return sorted(self._terms.items())

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.ints.get(0, 0), self.D)

    def __len__(self):
        return len(self.ints)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        """Equal terms; the truncation orders may differ."""
        if not isinstance(other, MSeries):
            return NotImplemented
        if self.order == other.order:
            return self.d == other.d and self.form == other.form
        return self.d == other.d and self._terms == other._terms

    def __repr__(self):
        return f"MSeries(d={self.d}, order={self.order}, terms={len(self.ints)})"

    def truncate(self, order: int) -> "MSeries":
        """The series at ``order``, its terms re-keyed to that order's grading."""
        if order == self.order:
            return self
        exp, key = kronecker.grading(self.d, self.order).exp, kronecker.grading(self.d, order).key
        ints = {key[v]: c for k, c in self.ints.items() if (v := exp[k]) in key}
        return MSeries.of_form(self.d, order, (self.D, ints))

    def _check_compatible(self, other: "MSeries"):
        if self.d != other.d or self.order != other.order:
            raise ValueError(
                f"incompatible series: (d={self.d}, order={self.order}) vs "
                f"(d={other.d}, order={other.order})"
            )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MSeries.constant(self.d, self.order, other)
        if not isinstance(other, MSeries):
            return NotImplemented
        self._check_compatible(other)
        return MSeries.of_form(self.d, self.order, kronecker.add(self.form, other.form))

    __radd__ = __add__

    def __neg__(self):
        return MSeries.of_form(self.d, self.order, (self.D, {k: -c for k, c in self.ints.items()}))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, MSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            c = _as_coeff(other)
            ints = {k: c.numerator * x for k, x in self.ints.items()} if c else {}
            return MSeries.of_form(self.d, self.order, (self.D * c.denominator, ints))
        if not isinstance(other, MSeries):
            return NotImplemented
        self._check_compatible(other)
        g = kronecker.grading(self.d, self.order)
        return MSeries.of_form(
            self.d, self.order, kronecker.multiply(g, self.order, self.form, other.form)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        out = MSeries.one(self.d, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- unit operations -----------------------------------------------------

    def _slices(self):
        """The grading and the numerators over D of each degree-j part."""
        g = kronecker.grading(self.d, self.order)
        slices: list[dict[int, int]] = [{} for _ in range(self.order + 1)]
        for k, c in self.ints.items():
            slices[k // g.top][k] = c
        return g, slices

    def _of_slices(self, xs, dens) -> "MSeries":
        """The series of this shape whose degree-k part is xs[k] / dens[k]."""
        D = math.lcm(*[den for x, den in zip(xs, dens) if x])
        scales = [D // den for den in dens]
        ints = {i: c * scales[k] for k, x in enumerate(xs) for i, c in x.items()}
        return MSeries.of_form(self.d, self.order, (D, ints))

    def reciprocal(self) -> "MSeries":
        """Multiplicative inverse of a unit with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("reciprocal requires constant term 1")
        g, u = self._slices()
        r = kronecker.recurrence(g, u, self.D, {0: 1}, lambda k, j: -1, lambda k: 1)
        return self._of_slices(*r)

    def exp(self) -> "MSeries":
        """Exponential of a series with zero constant term."""
        if self.constant_term != 0:
            raise ValueError("exp requires zero constant term")
        g, u = self._slices()
        e = kronecker.recurrence(g, u, self.D, {0: 1}, lambda k, j: j, lambda k: k)
        return self._of_slices(*e)

    def log(self) -> "MSeries":
        """Logarithm of a unit with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("log requires constant term 1")
        g, u = self._slices()
        lead = [{i: k * c for i, c in sl.items()} for k, sl in enumerate(u)]
        m = kronecker.recurrence(g, u, self.D, {}, lambda k, j: j - k, lambda k: k, lead)
        return self._of_slices(*m)

    # -- substitutions ---------------------------------------------------------

    def specialize(self, M: Sequence[int], Nexp: Sequence[int]) -> "MSeries":
        """Substitute z_i = M_i * t^(N_i), collapsing to a univariate series.

        M must consist of nonzero integers and Nexp of positive integers,
        one per variable; the result keeps the same truncation order.  The
        numerators are summed as ints over the same D; in one variable the
        Kronecker key of t^n is n.
        """
        if len(M) != self.d or len(Nexp) != self.d:
            raise ValueError("substitution data must have one entry per variable")
        M = [int(m) for m in M]
        Nexp = [int(n) for n in Nexp]
        if any(m == 0 for m in M):
            raise ValueError("multipliers must be nonzero")
        if any(n < 1 for n in Nexp):
            raise ValueError("exponents must be positive")
        exp = kronecker.grading(self.d, self.order).exp
        out: dict[int, int] = {}
        for k, c in self.ints.items():
            v = exp[k]
            n = sum(map(mul, v, Nexp))
            if n <= self.order:
                out[n] = out.get(n, 0) + c * math.prod(map(pow, M, v))
        return MSeries.of_form(1, self.order, (self.D, {n: c for n, c in out.items() if c}))

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The ``canonical`` bytes of this series' document, a cache file:
        each term ``{"exp", "num", "den"}`` reduced by one gcd with D, in
        lexicographic exponent order, written straight from the form."""
        D, ints = self.D, self.ints
        terms = []
        for text, (_, k) in kronecker.grading(self.d, self.order).texts.items():
            c = ints.get(k)
            if c:
                g = math.gcd(c, D)
                terms.append(f'{{"den":"{D // g}","exp":{text},"num":"{c // g}"}}')
        return (_HEAD.format(self.d, self.order) + ",".join(terms) + _TAIL).encode()

    @classmethod
    def from_dict(cls, data) -> "MSeries":
        """The series of a document written by hand, as a job fixture is, its
        terms in any order; anything else raises ValueError.  Its shape
        checked and its terms sorted by exponent, it is read from its
        ``canonical`` bytes by ``from_bytes``; ``json.dumps`` escapes
        quotes, so no string in a term can forge another."""
        if not isinstance(data, dict) or set(data) != {"d", "order", "terms"}:
            raise ValueError("a series is an object with exactly d, order and terms")
        d, order, terms = data["d"], data["order"], data["terms"]
        if not (is_int(d) and d >= 1 and is_int(order) and order >= 0):
            raise ValueError("d must be a positive and order a nonnegative integer")
        # sorted() would take an object's keys, and json.dumps writes a tuple as a list
        if not (isinstance(terms, list)
                and all(isinstance(t, dict) and is_int_list(t.get("exp")) for t in terms)):
            raise ValueError("a term is not an object with exp, num and den, exp a list of ints")
        terms = sorted(terms, key=itemgetter("exp"))
        return from_bytes(canonical({"d": d, "order": order, "terms": terms}), d, order)


def canonical(data) -> bytes:
    """``data`` as canonical bytes: compact JSON with sorted keys and a final
    newline.  Cache files, manifests and the cache key are written so."""
    return (json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n").encode()


# a cache file: the head, the terms joined by commas, the tail
_HEAD, _TAIL = '{{"d":{},"order":{},"terms":[', "]}\n"
# a term and the comma after it, or the last term, right before the tail
_TERM = re.compile(
    r'\{"den":"([1-9][0-9]*)","exp":(\[[0-9,]*\]),"num":"(-?[1-9][0-9]*)"\}'
    r"(?:,|(?=\]\}\n\Z))"
)
_TERM_BYTES = 27  # the bytes of a term and its comma besides den, exp and num


def from_bytes(blob: bytes, d: int, order: int, build: bool = True) -> Optional[MSeries]:
    """The series in d variables at ``order`` whose ``to_bytes`` is ``blob``,
    or None when not ``build``; raises ValueError on any other bytes.  A
    cache file comes here as it is, a job fixture through ``from_dict``.

    The head must give this d and order before any grading is made.  The
    terms are the matches of one pattern, which must cover every byte; each
    exponent text is looked up in the grading for its lexicographic rank
    and key, the ranks must increase strictly (so no exponent repeats), and
    each num/den must be a nonzero reduced fraction with den > 0.  No term,
    no grading, whatever order the head claims.
    """
    text, head = blob.decode(), _HEAD.format(d, order)  # UnicodeDecodeError is a ValueError
    if not text.startswith(head):
        raise ValueError(f"its head is not that of a series with d={d}, order={order}")
    found = _TERM.findall(text, len(head))
    # each match but the last holds its comma, so they tile the terms iff they add up
    size = sum(map(len, chain.from_iterable(found))) + _TERM_BYTES * len(found) - bool(found)
    if len(head) + size + len(_TAIL) != len(text) or not text.endswith(_TAIL):
        raise ValueError("a term is not exactly exp, a list of ints, and num and den, decimal"
                         " strings of a nonzero fraction with den > 0, in canonical JSON")
    dens, exps, nums = zip(*found) if found else ((), (), ())
    ranked = list(map(kronecker.grading(d, order).texts.get, exps)) if found else []
    if None in ranked:
        raise ValueError(f"an exponent is not {d} nonnegative ints of degree <= {order}")
    ranks = list(map(itemgetter(0), ranked))
    if not all(map(lt, ranks, ranks[1:])):
        fault = "repeats" if len(set(ranks)) < len(ranks) else "is out of order"
        raise ValueError(f"an exponent {fault}")
    nums, dens = list(map(int, nums)), list(map(int, dens))
    if set(map(math.gcd, nums, dens)) - {1}:
        raise ValueError("a fraction is not reduced")
    if not build:
        return None
    D = math.lcm(*dens)
    ints = {k: n * (D // m) for (_, k), n, m in zip(ranked, nums, dens)}
    return MSeries.of_form(d, order, (D, ints))


# -- composition and inversion ---------------------------------------------


class _Substitution:
    """Substituents shared by several compositions, with their power tables.

    ``compose`` groups the monomials of ``a`` by their leading exponents and
    runs Horner's rule in one variable per level, in integer form.  At the
    last level a group is a linear combination of the powers of the last
    substituent, read from a table, with no products; every level above adds
    one product per group.  A factor s_i^e has valuation at least e, so each
    product cuts its operands to the degrees that can still reach the order.
    """

    def __init__(self, subs: Sequence[MSeries]):
        first = subs[0]
        for s in subs:
            if s.d != first.d or s.order != first.order:
                raise ValueError("substituents must share dimension and order")
            if s.constant_term != 0:
                raise ValueError("substituents must have zero constant term")
        self.d, self.order = first.d, first.order
        self._grading = kronecker.grading(self.d, self.order)
        self._powers = [[(1, {0: 1}), s.form] for s in subs]

    def _power(self, i: int, e: int):
        """The integer form of subs[i] ** e."""
        col = self._powers[i]
        while len(col) <= e:
            col.append(kronecker.multiply(self._grading, self.order, col[-1], col[1]))
        return col[e]

    def compose(self, a: MSeries) -> MSeries:
        exp = kronecker.grading(a.d, a.order).exp
        D, ints = self._horner([(exp[k], c) for k, c in a.ints.items()], 0, self.order)
        return MSeries.of_form(self.d, self.order, (D * a.D, ints))

    def _horner(self, terms, i: int, limit: int):
        """Sum of int c * prod_(j >= i) subs[j] ** v[j] over ``terms``, to degree ``limit``."""
        if i == len(self._powers) - 1:
            parts = [(c, self._power(i, v[i])) for v, c in terms if v[i] <= limit]
            D = math.lcm(*[den for _, (den, _) in parts])
            cut = self._grading.top * (limit + 1)
            total: dict[int, int] = {}
            for c, (den, ints) in parts:
                w = c * (D // den)
                for k, x in ints.items():
                    if k < cut:
                        total[k] = total.get(k, 0) + w * x
            return kronecker.reduced(D, {k: x for k, x in total.items() if x})
        groups: dict[int, list] = {}
        for v, c in terms:
            if v[i] <= limit:
                groups.setdefault(v[i], []).append((v, c))
        acc = None
        prev = 0
        for e in sorted(groups, reverse=True):
            inner = self._horner(groups[e], i + 1, limit - e)
            if acc is not None:
                step = kronecker.multiply(self._grading, limit - e, acc, self._power(i, prev - e))
                inner = kronecker.add(inner, step)
            acc, prev = inner, e
        if acc is None:
            return 1, {}
        if prev:
            acc = kronecker.multiply(self._grading, limit, acc, self._power(i, prev))
        return acc


def compose(a: MSeries, subs: Sequence[MSeries]) -> MSeries:
    """Substitute the series subs[i] (zero constant term) for z_i in ``a``.

    The substituents live in their own variable space; the result inherits
    their dimension and order.
    """
    if len(subs) != a.d:
        raise ValueError("one substituent per variable is required")
    return _Substitution(subs).compose(a)


def _partial(a: MSeries, j: int) -> MSeries:
    """The partial derivative of ``a`` in z_j, exact to one order less."""
    order = max(a.order - 1, 0)
    exp, key = kronecker.grading(a.d, a.order).exp, kronecker.grading(a.d, order).key
    ints = {}
    for k, c in a.ints.items():
        v = exp[k]
        if v[j]:
            ints[key[v[:j] + (v[j] - 1,) + v[j + 1 :]]] = v[j] * c
    return MSeries.of_form(a.d, order, (a.D, ints))


def _newton_step(qs: Sequence[MSeries], zs: list[MSeries], n: int, m: int) -> list[MSeries]:
    """From z(w) exact to order n, the inverse exact to order m <= 2n."""
    d = len(qs)
    z_m = [z.truncate(m) for z in zs]
    at_z = _Substitution(z_m)
    residual = [at_z.compose(q.truncate(m)) - MSeries.variable(d, m, k) for k, q in enumerate(qs)]
    # The residual has valuation > n, so dz/dw matters only below degree
    # m - n, where z is already exact.
    out = []
    for z, z_n in zip(z_m, zs):
        low = z_n.truncate(m - n)
        for j, r in enumerate(residual):
            z = z - _partial(low, j).truncate(m) * r
        out.append(z)
    return out


def invert_diagonal(qs: Sequence[MSeries]) -> list[MSeries]:
    """Compositional inverse of a map q_k = z_k * (unit), by Newton iteration.

    Each input must be z_k times a unit with constant term 1.  The output
    gives z as a series in the q variables with q(z(q)) = q up to the
    truncation order N.

    Write w for the q variables, z* for the exact inverse and J for the
    Jacobian dq_k/dz_j at z*.  The start z = w is exact to order 1.  If z is
    exact to order n, its error e = z - z* has valuation >= n + 1, and the
    residual is r = q(z) - w = J e + O(e^2).  The step corrects z by the
    Jacobian of the inverse it already holds, z <- z - (dz/dw) r.  Since
    dz*/dw = J^-1, dz/dw = J^-1 + de/dw, and de/dw has valuation >= n, so
    the new error is -(de/dw) J e + O(e^2), of valuation >= 2n + 1: the
    step is exact to order 2n, and the exact order doubles,
    1 -> 2 -> 4 -> ... -> N.  A step to order m <= 2n needs r at order m,
    but dz/dw only below degree m - n, where z is already exact; so dz/dw
    is read off z by differentiation, with no composition and no linear
    solve, for any number of variables.

    At the end q_k(z) = w_k is checked once for every k; a failure raises
    ArithmeticError instead of returning an unconverged map.
    """
    d = len(qs)
    if d == 0:
        raise ValueError("empty map")
    order = qs[0].order
    exp = kronecker.grading(d, order).exp
    for k, q in enumerate(qs):
        if q.d != d or q.order != order:
            raise ValueError("all components must share dimension and order")
        if any(exp[key][k] < 1 for key in q.ints):
            raise ValueError(f"component {k} is not divisible by its variable")
        # At order 0 every q_k and z_k is the zero series: z_k lies beyond it.
        if order and q.coeff(tuple(int(i == k) for i in range(d))) != 1:
            raise ValueError(f"component {k} must have unit coefficient 1 on z_{k}")
    n = min(order, 1)
    zs = [MSeries.variable(d, n, k) for k in range(d)]
    while n < order:
        m = min(2 * n, order)
        zs = _newton_step(qs, zs, n, m)
        n = m
    for k, q in enumerate(qs):
        if compose(q, zs) != MSeries.variable(d, order, k):
            raise ArithmeticError(f"inversion check failed: q_{k}(z(q)) != q_{k}")
    return zs
