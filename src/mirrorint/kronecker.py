"""The integer kernel under ``series.MSeries``: Kronecker products of series.

A series is handled here in integer form ``(D, ints)``: its coefficients
are ``ints[key] / D``, keyed by the Kronecker index of ``Grading``.  The
``series`` module docstring says why the keys, the slot widths and the
slice denominators are exact.  Nothing here knows about ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cached_property, lru_cache


class Grading:
    """Kronecker keys of the exponents of total degree <= order in d variables.

    key(v) = v_0 + v_1 B + ... + v_(d-2) B^(d-2) + |v| top, with B = order + 1
    and top = B^(d-1).  ``key`` and ``exp`` map exponents to keys and back;
    ``keys`` lists every key in ascending order, those of degree k starting
    at ``keys[first[k]]``, none below k top.  ``key`` runs over the
    exponents in lexicographic order.
    """

    def __init__(self, d: int, order: int):
        base = order + 1
        self.d, self.top = d, base ** (d - 1)
        self.key = {
            v: sum(e * base**i for i, e in enumerate(v[:-1])) + sum(v) * self.top
            for v in itertools.product(range(base), repeat=d)
            if sum(v) <= order
        }
        self.exp = {k: v for v, k in self.key.items()}
        self.keys = sorted(self.exp)
        self.first = [bisect_left(self.keys, k * self.top) for k in range(order + 2)]

    @cached_property
    def texts(self) -> dict[str, tuple[int, int]]:
        """The JSON text of each exponent, such as ``[0,2]``, to its rank in
        lexicographic order and its key; in that order."""
        return {
            f"[{','.join(map(str, v))}]": (rank, k)
            for rank, (v, k) in enumerate(self.key.items())
        }


@lru_cache(maxsize=64)
def grading(d: int, order: int) -> Grading:
    return Grading(d, order)


def width(bound: int) -> int:
    """Bytes per slot for signed values of absolute value <= bound."""
    return bound.bit_length() // 8 + 1


def pack(terms: dict[int, int], nb: int, shift: int = 0) -> int:
    """sum c 2^(8 nb (k - shift)) over ``terms`` (key k -> c), keys >= shift."""
    zero = bytes(nb)
    size = max(terms) - shift + 1
    pos = [zero] * size
    neg = None
    for k, c in terms.items():
        if c > 0:
            pos[k - shift] = c.to_bytes(nb, "little")
        else:
            if neg is None:
                neg = [zero] * size
            neg[k - shift] = (-c).to_bytes(nb, "little")
    x = int.from_bytes(b"".join(pos), "little")
    return x - int.from_bytes(b"".join(neg), "little") if neg else x


def unpack(x: int, nb: int, keys: list[int], shift: int = 0) -> dict[int, int]:
    """The nonzero signed nb-byte slots of x at ``keys`` (ascending, >= shift)."""
    n = keys[-1] - shift + 1
    half = 1 << (8 * nb - 1)
    x += int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    raw = (x & ((1 << 8 * nb * n) - 1)).to_bytes(nb * n, "little")
    out = {}
    for k in keys:
        i = (k - shift) * nb
        c = int.from_bytes(raw[i : i + nb], "little") - half
        if c:
            out[k] = c
    return out


def reduced(D: int, ints: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(D, ints) over the least common denominator of the fractions it holds."""
    g = math.gcd(D, *ints.values())
    if g == 1:
        return D, ints
    return D // g, {k: c // g for k, c in ints.items()}


def multiply(g: Grading, limit: int, a, b) -> tuple[int, dict[int, int]]:
    """a * b truncated at total degree ``limit``, by one big-int product.

    Each operand is cut to the degrees that can meet the other's valuation
    below the limit, then packed from its own valuation up.
    """
    (da, A), (db, B) = a, b
    if not A or not B:
        return 1, {}
    top = g.top
    va, vb = min(A) // top, min(B) // top
    if va + vb > limit:
        return 1, {}
    cut_a, cut_b = top * (limit - vb + 1), top * (limit - va + 1)
    if max(A) >= cut_a:
        A = {k: c for k, c in A.items() if k < cut_a}
    if max(B) >= cut_b:
        B = {k: c for k, c in B.items() if k < cut_b}
    nb = width(max(map(abs, A.values())) * max(map(abs, B.values())) * min(len(A), len(B)))
    x = pack(A, nb, top * va) * pack(B, nb, top * vb)
    keys = g.keys[g.first[va + vb] : g.first[limit + 1]]
    return reduced(da * db, unpack(x, nb, keys, top * (va + vb)))


def add(a, b) -> tuple[int, dict[int, int]]:
    """a + b over the least common denominator."""
    (da, A), (db, B) = a, b
    D = math.lcm(da, db)
    sa, sb = D // da, D // db
    out = {k: c * sa for k, c in A.items()}
    for k, c in B.items():
        c = out.get(k, 0) + c * sb
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return reduced(D, out)


def recurrence(grid: Grading, v, D, x0, weight, scale, lead=None):
    """Slices x_k = X_k / d_k in lowest terms: x_0 = x0 (integral, d_0 = 1)
    and, for k >= 1,

        scale(k) x_k = lead_k + sum_(j=1..k) weight(k, j) v_j x_(k-j),

    where v_j = V_j / D and lead_k = L_k / D are given by their numerators
    V_j and L_k.  All are homogeneous slices on the keys of ``grid``, slice
    k on its degree-k keys, and k runs to the last slice of ``v``.  Returns
    the X_k and the d_k.

    With E the lcm of the d_(k-j) that step k reads, it sums
    L_k E + sum_j weight(k, j) (E / d_(k-j)) V_j X_(k-j) as Kronecker ints
    of one slot width that bounds the whole sum, slice j packed from shift
    j top as ``multiply`` packs an operand from its valuation, and divides
    by scale(k) D E with one gcd.  The width is taken from the bound but at
    least doubles when it grows, and each slice is packed once per width.
    """
    top, keys, first = grid.top, grid.keys, grid.first
    xs, dens = [x0], [1]
    xmax = [max(map(abs, x0.values()), default=0)]
    vmax = [max(map(abs, sl.values()), default=0) for sl in v]
    nb, packed_v, packed_x = 0, {}, {}
    for k in range(1, len(v)):
        base = lead[k] if lead else {}
        pairs = [(j, k - j) for j in range(1, k + 1) if v[j] and xs[k - j]]
        E = math.lcm(*[dens[i] for _, i in pairs])
        terms = [(weight(k, j) * (E // dens[i]), j, i) for j, i in pairs]
        bound = E * max(map(abs, base.values()), default=0)
        for w, j, i in terms:
            bound += abs(w) * vmax[j] * xmax[i] * min(len(v[j]), len(xs[i]))
        x, den = {}, 1
        if bound:
            if width(bound) > nb:
                nb, packed_v, packed_x = max(width(bound), 2 * nb), {}, {}
            acc = E * pack(base, nb, k * top) if base else 0
            for w, j, i in terms:
                if j not in packed_v:
                    packed_v[j] = pack(v[j], nb, j * top)
                if i not in packed_x:
                    packed_x[i] = pack(xs[i], nb, i * top)
                acc += w * (packed_v[j] * packed_x[i])
            x = unpack(acc, nb, keys[first[k] : first[k + 1]], k * top)
            if x:
                den = scale(k) * D * E
                g = math.gcd(den, *x.values())
                if g > 1:
                    x = {key: c // g for key, c in x.items()}
                    den //= g
        xs.append(x)
        dens.append(den)
        xmax.append(max(map(abs, x.values()), default=0))
    return xs, dens
