"""Differential operators in theta form and the case-study engine.

A :class:`ThetaOperator` is sum_i z^i P_i(theta) with integer coefficient
polynomials P_i, acting on A + B log z given as the coefficient lists of
A and B.  A :class:`CaseRecord` ties an operator to a form system, a
specialization z_i = M_i t^(N_i) and a closed form for the holomorphic
solution, named ``builtin:<name>`` after its entry in ``_CLOSED_FORMS``;
``verify_annihilation`` replays the whole story to finite order on the
integers of one coefficient pass: the specialized series matches the
closed form, the operator kills both it and its log companion, and the
associated q-parameter has integer coefficients.  Its report's
``lines()`` are the check lines ``mirrorint case`` prints.

Records are plain JSON, so further catalog cases can be ingested without
code changes; the one bundled here is catalog case 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .forms import FormSystem, is_int, is_int_list
from .mirror import coefficient_series, integrality_scan
from .series import MSeries
from .systems import CASE30


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_from_factors(scale: int, factors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Expand scale * prod(factors); each factor lists coefficients low to high."""
    acc = [scale]
    for f in factors:
        acc = _poly_mul(acc, list(f))
    return tuple(acc)


@dataclass(frozen=True)
class ThetaOperator:
    """sum_i z^i P_i(theta); polys[i] holds the coefficients of P_i, low to high.

    At least one P_i must be nonzero: the zero operator annihilates every
    series, so a check against it would certify nothing.
    """

    polys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("an operator needs at least one polynomial")
        object.__setattr__(
            self, "polys", tuple(tuple(int(c) for c in p) for p in self.polys)
        )
        if not any(map(any, self.polys)):
            raise ValueError("the zero operator annihilates everything")

    @property
    def z_degree(self) -> int:
        return len(self.polys) - 1

    def __call__(self, a: Sequence, b: Sequence = ()) -> tuple[list, list]:
        """The operator applied to A + B log z, on coefficient lists.

        a[n] and b[n] are the coefficients of z^n in A and B (ints or
        Fractions) up to the order N = len(a) - 1; an empty b is B = 0.  As
        theta z^n = n z^n and theta(z^n log z) = n z^n log z + z^n,

            P(theta) z^n = P(n) z^n,  P(theta)(z^n log z) = P(n) z^n log z + P'(n) z^n,

        and z^i moves each term from n to n + i.  Returns the regular and
        log coefficient lists up to the order N - z_degree:

            r_n = sum_i P_i(n-i) a_(n-i) + P_i'(n-i) b_(n-i),  l_n = sum_i P_i(n-i) b_(n-i).
        """
        top = len(a) - 1 - self.z_degree
        if top < 0:
            raise ValueError("series order too small for this operator")
        if b and len(b) != len(a):
            raise ValueError("A and B must share one truncation order")
        r, l = [0] * (top + 1), [0] * (top + 1)
        for i, P in enumerate(self.polys):
            for m in range(top + 1 - i):
                p = sum(c * m**j for j, c in enumerate(P))
                r[m + i] += p * a[m]
                if b:
                    r[m + i] += sum(j * c * m ** (j - 1) for j, c in enumerate(P) if j) * b[m]
                    l[m + i] += p * b[m]
        return r, l

    def to_dict(self) -> list[list[int]]:
        return [list(p) for p in self.polys]


# ---------------------------------------------------------------------------
# closed-form registry


def case30_coefficient(n: int) -> Fraction:
    """(4n)! / ((n!)^2 (2n)!) times sum_k 4^k C(2(n-k), n-k)^2 C(2k, k)."""
    head = Fraction(
        math.factorial(4 * n), math.factorial(n) ** 2 * math.factorial(2 * n)
    )
    tail = sum(
        4**k * math.comb(2 * (n - k), n - k) ** 2 * math.comb(2 * k, k)
        for k in range(n + 1)
    )
    return head * tail


_CLOSED_FORMS = {"case30": case30_coefficient}


# ---------------------------------------------------------------------------
# case records


@dataclass(frozen=True)
class CaseRecord:
    """An operator, a form system, specialization data and a closed form.

    The record asserts that specializing F along z_i = M_i t^(N_i) gives
    the closed-form series annihilated by the operator, and that the log
    companion built from coordinate k is annihilated alongside.
    """

    name: str
    operator: ThetaOperator
    system: FormSystem
    M: tuple[int, ...]
    Nexp: tuple[int, ...]
    k: int
    closed_form: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "theta_op": self.operator.to_dict(),
            "system": self.system.to_dict(),
            "special": {"M": list(self.M), "N": list(self.Nexp), "k": self.k},
            "closed_form": f"builtin:{self.closed_form.removeprefix('builtin:')}",
        }

    @classmethod
    def from_dict(cls, data) -> "CaseRecord":
        """The record ``to_dict`` wrote; anything else raises ValueError.

        Besides the shape, the fields must fit together: M holds d nonzero
        and N d positive integers for the system's d, k lies in 1..d,
        ``closed_form`` names a registered closed form, and ``theta_op`` is
        not the zero operator.
        """
        if not isinstance(data, dict) or set(data) != _RECORD_KEYS:
            raise ValueError(f"a case record is an object with exactly {sorted(_RECORD_KEYS)}")
        name, polys, form = data["name"], data["theta_op"], data["closed_form"]
        if not isinstance(name, str):
            raise ValueError("name must be a string")
        if not (isinstance(polys, list) and polys and all(map(is_int_list, polys))):
            raise ValueError("theta_op must be a non-empty list of integer lists")
        system = FormSystem.from_dict(data["system"])
        d, special = system.d, data["special"]
        if not isinstance(special, dict) or set(special) != {"M", "N", "k"}:
            raise ValueError("special is an object with exactly M, N and k")
        M, N, k = special["M"], special["N"], special["k"]
        if not (is_int_list(M) and len(M) == d and all(M)):
            raise ValueError(f"special.M must list {d} nonzero integers")
        if not (is_int_list(N) and len(N) == d and min(N) >= 1):
            raise ValueError(f"special.N must list {d} positive integers")
        if not (is_int(k) and 1 <= k <= d):
            raise ValueError(f"special.k must be an integer in 1..{d}")
        if not (isinstance(form, str) and form.startswith("builtin:")
                and form.removeprefix("builtin:") in _CLOSED_FORMS):
            raise ValueError(f"closed_form must be builtin:<name>, one of {sorted(_CLOSED_FORMS)}")
        operator = ThetaOperator(tuple(map(tuple, polys)))
        return cls(name, operator, system, tuple(M), tuple(N), k, form)


_RECORD_KEYS = {"name", "theta_op", "system", "special", "closed_form"}


def case30_operator() -> ThetaOperator:
    """theta^4 - 16 z (4t+1)(4t+3)(8t^2+8t+3) + 4096 z^2 (4t+1)(4t+3)(4t+5)(4t+7)."""
    p0 = (0, 0, 0, 0, 1)
    p1 = poly_from_factors(-16, [(1, 4), (3, 4), (3, 8, 8)])
    p2 = poly_from_factors(4096, [(1, 4), (3, 4), (5, 4), (7, 4)])
    return ThetaOperator((p0, p1, p2))


def case30_record() -> CaseRecord:
    return CaseRecord(
        name="case30",
        operator=case30_operator(),
        system=CASE30,
        M=(1, 4),
        Nexp=(1, 1),
        k=1,
        closed_form="builtin:case30",
    )


BUNDLED_CASES = {"case30": case30_record}


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: Optional[str] = None


@dataclass(frozen=True)
class AnnihilationReport:
    case: str
    order: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[dict]:
        """One report line per check, as ``mirrorint case`` prints it."""
        return [
            {"case": self.case, "order": self.order, "check": c.name, "pass": c.passed}
            | ({"detail": c.detail} if c.detail else {})
            for c in self.checks
        ]


def verify_annihilation(rec: CaseRecord, order: int) -> AnnihilationReport:
    """Replay a case record to finite order.

    Four checks: the specialized series matches the registered closed form
    coefficientwise; the operator annihilates it; the operator annihilates
    the specialized log companion; and the q-parameter built from the two
    specialized series has integer coefficients.  Any mismatch reports its
    first failing order.

    F and G_k come from one pass, which takes each Q(n) once, and are
    specialized as series, numerators over D_F and D_G.  The first three
    checks run on those integers: F matches the closed form where
    f_n = closed(n) D_F; the operator is linear, so it kills F where it
    kills F's numerators, and G + F log z where it kills the numerators of
    G and F over one common denominator.  An operator check that fails
    names the first order where r_n or l_n is nonzero.
    """
    sys = rec.system
    evaluator = _CLOSED_FORMS[rec.closed_form.removeprefix("builtin:")]
    F_spec, G_spec = (
        s.specialize(rec.M, rec.Nexp) for s in coefficient_series(sys, order, [rec.k - 1])
    )
    (DF, F), (DG, G) = F_spec.form, G_spec.form
    f = [F.get(n, 0) for n in range(order + 1)]
    D = math.lcm(DF, DG)

    mismatch = next((n for n in range(order + 1) if f[n] != evaluator(n) * DF), None)
    checks = [
        CheckResult(
            "closed-form",
            mismatch is None,
            None if mismatch is None else f"first mismatch at order {mismatch}",
        )
    ]

    log_companion = [G.get(n, 0) * (D // DG) for n in range(order + 1)], [c * (D // DF) for c in f]
    for name, parts in (
        ("annihilates-series", rec.operator(f)),
        ("annihilates-log-companion", rec.operator(*log_companion)),
    ):
        first = next((n for n, rl in enumerate(zip(*parts)) if any(rl)), None)
        detail = None if first is None else f"first nonzero at order {first}"
        checks.append(CheckResult(name, first is None, detail))

    unit = (G_spec * F_spec.reciprocal()).exp()
    q = MSeries.variable(1, order, 0) * unit
    scan = integrality_scan(q)
    checks.append(
        CheckResult(
            "q-parameter-integral",
            scan.ok,
            None
            if scan.ok
            else f"denominator at order {scan.violations[0].exponent[0]}",
        )
    )
    return AnnihilationReport(rec.name, order, tuple(checks))
