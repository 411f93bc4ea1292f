"""Sparse truncated multivariate power series over exact rationals.

An :class:`MSeries` stores finitely many monomials ``coeff * z^v`` with
exponent vectors of total degree at most ``order``; everything beyond the
truncation order is unknown rather than zero.  Ring operations, reciprocal,
exp and log of units, coordinatewise power substitution, univariate
specialization, composition and compositional inversion of diagonal-unit
maps are all exact.  No floating point enters anywhere.

Truncation is by TOTAL degree.  That keeps the graded recursions for
exp/log sound, and it lets the valuation of a series bound how far each
part of a computation must be carried: ``compose`` runs Horner's rule over
grouped monomials with shared power tables, and ``invert_diagonal`` runs a
Newton iteration that doubles the exact order at each step and checks
q(z(q)) = q at the end.

``LogSeries`` is the univariate pair A(z) + log(z) B(z) needed for formal
checks of differential operators written in powers of theta = z d/dz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def _as_coeff(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(c)


class MSeries:
    """A truncated power series in ``d`` variables, exact and immutable."""

    __slots__ = ("d", "order", "_terms")

    def __init__(self, d: int, order: int, terms=()):
        if d < 1:
            raise ValueError("dimension must be positive")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        data: dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for v, c in items:
            v = tuple(int(e) for e in v)
            if len(v) != d:
                raise ValueError(f"exponent {v} has length {len(v)}, expected {d}")
            if any(e < 0 for e in v):
                raise ValueError(f"negative exponent in {v}")
            if sum(v) > order:
                continue
            c = _as_coeff(c)
            if c != 0:
                acc = data.get(v)
                c = c if acc is None else acc + c
                if c:
                    data[v] = c
                elif v in data:
                    del data[v]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_terms", data)

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

    def coeff(self, v: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(int(e) for e in v), Fraction(0))

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms sorted lexicographically by exponent (deterministic)."""
        return sorted(self._terms.items())

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.d, Fraction(0))

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, MSeries):
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    def __repr__(self):
        return f"MSeries(d={self.d}, order={self.order}, terms={len(self._terms)})"

    def truncate(self, order: int) -> "MSeries":
        if order >= self.order:
            return MSeries(self.d, order, self._terms)
        return MSeries(self.d, order, {v: c for v, c in self._terms.items() if sum(v) <= order})

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
        data = dict(self._terms)
        for v, c in other._terms.items():
            s = data.get(v, Fraction(0)) + c
            if s:
                data[v] = s
            elif v in data:
                del data[v]
        return MSeries(self.d, self.order, data)

    __radd__ = __add__

    def __neg__(self):
        return MSeries(self.d, self.order, {v: -c for v, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MSeries.constant(self.d, self.order, other)
        if not isinstance(other, MSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            c = _as_coeff(other)
            return MSeries(self.d, self.order, {v: c * w for v, w in self._terms.items()})
        if not isinstance(other, MSeries):
            return NotImplemented
        self._check_compatible(other)
        order = self.order
        a, b = self._slices(), other._slices()
        data: dict[Exponent, Fraction] = {}
        for i, xs in enumerate(a):
            if xs:
                for ys in b[: order - i + 1]:
                    _conv_into(data, xs, ys)
        return MSeries(self.d, order, data)

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

    # -- graded slices -------------------------------------------------------

    def _slices(self) -> list[dict[Exponent, Fraction]]:
        out: list[dict[Exponent, Fraction]] = [dict() for _ in range(self.order + 1)]
        for v, c in self._terms.items():
            out[sum(v)][v] = c
        return out

    # -- unit operations -----------------------------------------------------

    def reciprocal(self) -> "MSeries":
        """Multiplicative inverse of a unit with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("reciprocal requires constant term 1")
        neg = [{v: -c for v, c in sl.items()} for sl in self._slices()]
        r: list[dict[Exponent, Fraction]] = [{(0,) * self.d: Fraction(1)}]
        for k in range(1, self.order + 1):
            acc: dict[Exponent, Fraction] = {}
            for j in range(1, k + 1):
                _conv_into(acc, neg[j], r[k - j])
            r.append(acc)
        return _from_slices(self.d, self.order, r)

    def exp(self) -> "MSeries":
        """Exponential of a series with zero constant term."""
        if self.constant_term != 0:
            raise ValueError("exp requires zero constant term")
        # e_k = (1/k) sum_j (j a_j) e_(k-j), the graded form of e' = a' e
        ja = [{v: j * c for v, c in sl.items()} for j, sl in enumerate(self._slices())]
        e: list[dict[Exponent, Fraction]] = [{(0,) * self.d: Fraction(1)}]
        for k in range(1, self.order + 1):
            acc: dict[Exponent, Fraction] = {}
            for j in range(1, k + 1):
                if ja[j]:
                    _conv_into(acc, ja[j], e[k - j])
            e.append({v: c / k for v, c in acc.items() if c})
        return _from_slices(self.d, self.order, e)

    def log(self) -> "MSeries":
        """Logarithm of a unit with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("log requires constant term 1")
        # lg_k = u_k - (1/k) sum_(j<k) (j lg_j) u_(k-j), from u lg' = u'
        u = self._slices()
        lg: list[dict[Exponent, Fraction]] = [dict()]
        neg_jlg: list[dict[Exponent, Fraction]] = [dict()]
        for k in range(1, self.order + 1):
            acc = {v: Fraction(k) * c for v, c in u[k].items()}
            for j in range(1, k):
                if neg_jlg[j]:
                    _conv_into(acc, neg_jlg[j], u[k - j])
            lg.append({v: c / k for v, c in acc.items() if c})
            neg_jlg.append({v: -k * c for v, c in lg[k].items()})
        return _from_slices(self.d, self.order, lg)

    # -- substitutions ---------------------------------------------------------

    def substitute_pth_power(self, p: int) -> "MSeries":
        """Replace every z_i by z_i^p; terms pushed past the order are dropped."""
        if p < 1:
            raise ValueError("power must be a positive integer")
        data = {}
        for v, c in self._terms.items():
            if p * sum(v) <= self.order:
                data[tuple(p * e for e in v)] = c
        return MSeries(self.d, self.order, data)

    def specialize(self, M: Sequence[int], Nexp: Sequence[int]) -> "MSeries":
        """Substitute z_i = M_i * t^(N_i), collapsing to a univariate series.

        M must consist of nonzero integers and Nexp of positive integers,
        one per variable; the result keeps the same truncation order.
        """
        if len(M) != self.d or len(Nexp) != self.d:
            raise ValueError("substitution data must have one entry per variable")
        M = [int(m) for m in M]
        Nexp = [int(n) for n in Nexp]
        if any(m == 0 for m in M):
            raise ValueError("multipliers must be nonzero")
        if any(n < 1 for n in Nexp):
            raise ValueError("exponents must be positive")
        data: dict[Exponent, Fraction] = {}
        for v, c in self._terms.items():
            n = sum(e * w for e, w in zip(v, Nexp))
            if n > self.order:
                continue
            scale = 1
            for m, e in zip(M, v):
                scale *= m**e
            s = data.get((n,), Fraction(0)) + c * scale
            if s:
                data[(n,)] = s
            elif (n,) in data:
                del data[(n,)]
        return MSeries(1, self.order, data)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "order": self.order,
            "terms": [
                {"exp": list(v), "num": str(c.numerator), "den": str(c.denominator)}
                for v, c in self.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MSeries":
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in data["terms"]
        }
        return cls(int(data["d"]), int(data["order"]), terms)


def _conv_into(acc, xs, ys):
    """Add the product of the homogeneous parts xs and ys into acc."""
    for va, ca in xs.items():
        for vb, cb in ys.items():
            v = tuple(a + b for a, b in zip(va, vb))
            s = acc.get(v, Fraction(0)) + ca * cb
            if s:
                acc[v] = s
            elif v in acc:
                del acc[v]


def _from_slices(d, order, slices) -> MSeries:
    data = {}
    for sl in slices:
        data.update(sl)
    return MSeries(d, order, data)


# -- composition and inversion ---------------------------------------------


class _Substitution:
    """Substituents shared by several compositions, with their power tables.

    ``compose`` groups the monomials of ``a`` by their leading exponents and
    runs Horner's rule in one variable per level.  At the last level a group
    is a linear combination of the powers of the last substituent, read from
    a table, with no products; every level above adds one product per group.
    Each part is formed only to the degree that can still reach the
    truncation order: a factor s_i^e has valuation at least e.
    """

    def __init__(self, subs: Sequence[MSeries]):
        first = subs[0]
        for s in subs:
            if s.d != first.d or s.order != first.order:
                raise ValueError("substituents must share dimension and order")
            if s.constant_term != 0:
                raise ValueError("substituents must have zero constant term")
        self.subs = list(subs)
        self.d, self.order = first.d, first.order
        self._powers: list[list[MSeries]] = [[MSeries.one(self.d, self.order)] for _ in subs]
        self._graded: dict[int, list[dict[Exponent, Fraction]]] = {}
        self._cuts: dict[tuple[int, int, int], MSeries] = {}

    def _power(self, i: int, e: int) -> MSeries:
        """subs[i] ** e at the full order."""
        col = self._powers[i]
        while len(col) <= e:
            n = len(col) - 1  # col[n] has valuation >= n
            col.append(col[n] * self._cut(i, 1, self.order - n).truncate(self.order))
        return col[e]

    def _cut(self, i: int, e: int, k: int) -> MSeries:
        """subs[i] ** e as a series of order k."""
        key = (i, e, k)
        if key not in self._cuts:
            base = self.subs[i] if e == 1 else self._power(i, e)
            self._cuts[key] = base.truncate(k)
        return self._cuts[key]

    def _last_power_slices(self, e: int) -> list[dict[Exponent, Fraction]]:
        """Degree slices of the e-th power of the last substituent."""
        if e not in self._graded:
            self._graded[e] = self._power(len(self.subs) - 1, e)._slices()
        return self._graded[e]

    def compose(self, a: MSeries) -> MSeries:
        return self._horner(list(a._terms.items()), 0, self.order)

    def _horner(self, terms, i: int, limit: int) -> MSeries:
        """Sum of c * prod_(j >= i) subs[j] ** v[j] over ``terms``, at order ``limit``."""
        if i == len(self.subs) - 1:
            acc: dict[Exponent, Fraction] = {}
            for v, c in terms:
                e = v[i]
                if e > limit:
                    continue
                for part in self._last_power_slices(e)[e : limit + 1]:
                    for w, x in part.items():
                        acc[w] = acc.get(w, 0) + c * x
            return MSeries(self.d, limit, acc)
        groups: dict[int, list] = {}
        for v, c in terms:
            if v[i] <= limit:
                groups.setdefault(v[i], []).append((v, c))
        acc = None
        prev = 0
        for e in sorted(groups, reverse=True):
            inner = self._horner(groups[e], i + 1, limit - e)
            if acc is not None:
                inner = inner + acc.truncate(limit - e) * self._cut(i, prev - e, limit - e)
            acc, prev = inner, e
        if acc is None:
            return MSeries.zero(self.d, limit)
        if prev:
            acc = acc.truncate(limit) * self._cut(i, prev, limit)
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
    terms = {}
    for v, c in a._terms.items():
        if v[j]:
            terms[v[:j] + (v[j] - 1,) + v[j + 1 :]] = v[j] * c
    return MSeries(a.d, max(a.order - 1, 0), terms)


def _solve_unit_system(J: list[list[MSeries]], r: list[MSeries]) -> list[MSeries]:
    """Solve J x = r by Gauss-Jordan elimination over series, with J(0) = I.

    Every pivot then has constant term 1, so it is a unit and ``reciprocal``
    applies.  J may carry a lower order than r; its products with r are
    formed at the order of r, which is exact when the terms J lacks can only
    meet terms of r beyond that order.
    """
    d, order = len(r), r[0].order
    J = [list(row) for row in J]
    x = list(r)
    for c in range(d):
        inv = J[c][c].reciprocal()
        J[c] = [entry * inv for entry in J[c]]
        x[c] = x[c] * inv.truncate(order)
        for i in range(d):
            f = J[i][c]
            if i != c and f:
                J[i] = [a - f * b for a, b in zip(J[i], J[c])]
                x[i] = x[i] - f.truncate(order) * x[c]
    return x


def _newton_step(qs: Sequence[MSeries], zs: list[MSeries], n: int, m: int) -> list[MSeries]:
    """From z(w) exact to order n, the inverse exact to order m <= 2n."""
    d = len(qs)
    z_m = [z.truncate(m) for z in zs]
    at_z = _Substitution(z_m)
    residual = [
        at_z.compose(q.truncate(m)) - MSeries.variable(d, m, k) for k, q in enumerate(qs)
    ]
    # The residual has valuation > n, so the Jacobian matters only below
    # degree m - n, where z is already exact.
    p = m - n - 1
    at_zp = _Substitution([z.truncate(p) for z in zs])
    jac = [[at_zp.compose(_partial(q.truncate(p + 1), j)) for j in range(d)] for q in qs]
    step = _solve_unit_system(jac, residual)
    return [z - s for z, s in zip(z_m, step)]


def invert_diagonal(qs: Sequence[MSeries]) -> list[MSeries]:
    """Compositional inverse of a map q_k = z_k * (unit), by Newton iteration.

    Each input must be z_k times a unit with constant term 1.  The output
    gives z as a series in the q variables with q(z(q)) = q up to the
    truncation order N.

    Write w for the q variables and z* for the exact inverse.  The start
    z = w is exact to order 1.  If z is exact to order n, its error
    e = z - z* has valuation n + 1, and q(z) - w = J e + O(e^2), where J is
    the Jacobian dq_k/dz_j at z*.  The Newton step z <- z - J^-1 (q(z) - w)
    leaves an error of valuation 2n + 2, so the exact order doubles at each
    step: 1 -> 2 -> 4 -> ... -> N.  Because q(z) - w has valuation n + 1, a
    step to order m <= 2n needs the residual at order m but J only at order
    m - n - 1 < n, below which z is already exact; J is evaluated there.
    J(0) = I, so the linear system is solved by elimination with unit
    pivots, for any number of variables.

    At the end q_k(z) = w_k is checked once for every k; a failure raises
    ArithmeticError instead of returning an unconverged map.
    """
    d = len(qs)
    if d == 0:
        raise ValueError("empty map")
    order = qs[0].order
    for k, q in enumerate(qs):
        if q.d != d or q.order != order:
            raise ValueError("all components must share dimension and order")
        for v in q._terms:
            if v[k] < 1:
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


# -- univariate log-series -----------------------------------------------------


@dataclass(frozen=True)
class LogSeries:
    """Univariate pair A(z) + log(z) * B(z) with a shared truncation order."""

    regular: MSeries
    logpart: MSeries

    def __post_init__(self):
        if self.regular.d != 1 or self.logpart.d != 1:
            raise ValueError("log-series parts must be univariate")
        if self.regular.order != self.logpart.order:
            raise ValueError("both parts must share one truncation order")

    @property
    def order(self) -> int:
        return self.regular.order

    @classmethod
    def pure(cls, regular: MSeries) -> "LogSeries":
        return cls(regular, MSeries.zero(1, regular.order))

    def __add__(self, other: "LogSeries") -> "LogSeries":
        return LogSeries(self.regular + other.regular, self.logpart + other.logpart)

    def __sub__(self, other: "LogSeries") -> "LogSeries":
        return LogSeries(self.regular - other.regular, self.logpart - other.logpart)

    def __mul__(self, c) -> "LogSeries":
        return LogSeries(self.regular * c, self.logpart * c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.regular and not self.logpart

    def truncate(self, order: int) -> "LogSeries":
        return LogSeries(self.regular.truncate(order), self.logpart.truncate(order))


def theta(s):
    """Apply theta = z d/dz; accepts a univariate MSeries or a LogSeries.

    On monomials theta(z^n) = n z^n; on the log pair the product rule gives
    theta(A + B log z) = (theta A + B) + (theta B) log z.
    """
    if isinstance(s, LogSeries):
        return LogSeries(theta(s.regular) + s.logpart, theta(s.logpart))
    if s.d != 1:
        raise ValueError("theta acts on univariate series")
    return MSeries(1, s.order, {v: v[0] * c for v, c in s._terms.items() if v[0]})


def apply_theta_poly(polys: Sequence[Sequence[int]], s: LogSeries) -> LogSeries:
    """Apply sum_i z^i P_i(theta) to a log-series.

    ``polys[i]`` lists the integer coefficients of P_i from degree 0 up.
    The result is truncated to order N - v, where v = len(polys) - 1, the
    largest power of z multiplied in.
    """
    if not polys:
        raise ValueError("at least one coefficient polynomial is required")
    v = len(polys) - 1
    order = s.order
    if order < v:
        raise ValueError("series order too small for this operator")
    max_theta = max((len(p) - 1 for p in polys), default=0)
    theta_pow = [s]
    for _ in range(max_theta):
        theta_pow.append(theta(theta_pow[-1]))
    zero = MSeries.zero(1, order)
    acc = LogSeries(zero, zero)
    zpow = MSeries.one(1, order)
    zvar = MSeries.variable(1, order, 0)
    for i, p in enumerate(polys):
        if i:
            zpow = zpow * zvar
        part = LogSeries(zero, zero)
        for j, c in enumerate(p):
            if c:
                part = part + theta_pow[j] * c
        acc = acc + LogSeries(zpow * part.regular, zpow * part.logpart)
    return acc.truncate(order - v)
