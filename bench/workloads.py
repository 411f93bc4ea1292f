"""Job lists, the seeded classify-batch draw, and the verdict checks.

Every job is one ``mirrorint`` command on one JSON job document, run
in-process through ``mirrorint.cli.main``.  The job lists are fixed; the
only seeded draw is the system list of ``classify-batch``.  Nothing in this
module imports mirrorint, so the generator and the checks stand apart
from the code they check.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("bundle-cold", "congruences", "classify-batch", "warm-reports")

# Bundled systems at their default orders, as written by the warm-reports
# setup.  inverse-binomial is raw: its F is not p-integral, so dwork rejects
# it as input and it gets no dwork job.
BUNDLED = ("cubic-2d", "cubic-split", "central-binomial", "inverse-binomial", "case30")
CASE_I = ("cubic-2d", "central-binomial", "case30")

TAG_EXIT = {"CaseI": 0, "CaseII": 10, "NotNonnegative": 11, "EStrictlyBigger": 12}
EXIT_BUDGET = 20


@dataclass
class Job:
    """One CLI invocation.

    ``cache`` is ``"cold"`` (a fresh empty cache directory per run of the
    job), ``"warm"`` (the cache filled in setup) or None (no cache flag).
    ``expect_exit`` is None when the exit code follows from the verdict.
    ``system`` keeps the drawn (e, f) of a classify-batch job for its check.
    """

    id: str
    command: str
    doc: dict
    flags: list = field(default_factory=list)
    cache: Optional[str] = None
    expect_exit: Optional[int] = 0
    system: Optional[tuple] = None


def _named(name: str, **extra) -> dict:
    return {"system": {"name": name}, **extra}


def bundle_cold_jobs() -> list[Job]:
    # cubic-2d at order 12 is the ROADMAP's inversion baseline.
    return [
        Job("scan/cubic-2d/12", "scan", _named("cubic-2d", order=12), cache="cold"),
        Job("scan/case30/10", "scan", _named("case30", order=10), cache="cold"),
        Job("scan/central-binomial/32", "scan", _named("central-binomial", order=32),
            cache="cold"),
    ]


def congruences_jobs() -> list[Job]:
    # cubic-split is Case II: failing reports and exit 1 are its right verdict.
    return [
        Job("congruences/cubic-2d/p2p3", "congruences", _named("cubic-2d"),
            ["--prime", "2", "--prime", "3"]),
        Job("congruences/central-binomial/p5", "congruences", _named("central-binomial"),
            ["--prime", "5"]),
        Job("congruences/cubic-split/p2", "congruences", _named("cubic-split"),
            ["--prime", "2"], expect_exit=1),
    ]


def warm_fill_jobs() -> list[Job]:
    return [Job(f"bundle/{n}", "bundle", _named(n), cache="warm") for n in BUNDLED]


WARM_REPEATS = 10


def warm_reports_jobs() -> list[Job]:
    """The report commands, repeated so that one pass holds 150 jobs."""
    jobs = []
    for n in BUNDLED:
        ok = n in CASE_I
        jobs.append(Job(f"scan/{n}", "scan", _named(n), cache="warm",
                        expect_exit=0 if ok else 1))
        if n != "inverse-binomial":
            jobs.append(Job(f"dwork/{n}", "dwork", _named(n), cache="warm",
                            expect_exit=0 if ok else 1))
        jobs.append(Job(f"classify/{n}", "classify", _named(n), expect_exit=None))
    jobs.append(Job("case/case30", "case", {"case": "case30"}))
    return jobs * WARM_REPEATS


# ---------------------------------------------------------------------------
# the seeded classify-batch draw

# Slots cycle through fixed shapes so that the work of a draw hardly
# depends on the seed: the single e vector (shuffled), the number of f
# vectors and a column-sum shift.  Every head holds a 2 and a 3 and every
# entry stays in 0..3, so every grid denominator is 4 * 6 and no draw is
# cheaper or dearer by its lcm.
HEADS_2D = ((2, 3), (3, 2))
SHIFTS = ("none", "none", "over", "none", "under")
N_2D = 150
# Three-variable systems form the tail of the job-time distribution.
HEAD_3D = (2, 3, 3)
N_3D = 3


def _draw(rng: random.Random, head, m: int, shift: str):
    """One system: e is ``head`` shuffled; f splits e's column sums among
    ``m`` general vectors with entries at most 3, then ``shift`` adds
    ("over") or removes ("under") one unit of one column of f.

    Equal column sums give CaseI or CaseII (one e vector split among the
    f vectors keeps delta >= 0); "over" makes a column of f bigger
    (NotNonnegative) and "under" one of e (EStrictlyBigger).  A draw that breaks the package's standing hypotheses
    (e and f sharing a vector) is drawn again; the classifier's answer is
    never looked at.
    """
    d = len(head)
    while True:
        e = list(head)
        rng.shuffle(e)
        e = tuple(e)
        f = [[0] * d for _ in range(m)]
        for k, total in enumerate(e):
            for _ in range(total):
                j = rng.choice([j for j in range(m) if f[j][k] < 3])
                f[j][k] += 1
        if shift != "none":
            k = rng.randrange(d)
            step = 1 if shift == "over" else -1
            cand = [j for j in range(m) if 0 <= f[j][k] + step <= 3 and any(f[j])]
            if not cand:
                continue
            f[rng.choice(cand)][k] += step
        f = [tuple(v) for v in f if any(v)]
        if f and e not in f:
            return [list(e)], [list(v) for v in f]


def classify_systems(seed: int) -> list[tuple[list, list]]:
    """The (e, f) list of one classify-batch draw; same seed, same list."""
    rng = random.Random(seed)
    out = []
    for i in range(N_2D):
        out.append(_draw(rng, HEADS_2D[i % len(HEADS_2D)], 3 + i % 3,
                         SHIFTS[(i // len(HEADS_2D)) % len(SHIFTS)]))
    for _ in range(N_3D):
        out.append(_draw(rng, HEAD_3D, 3, "none"))
    return out


def classify_batch_jobs(seed: int) -> list[Job]:
    return [
        Job(f"classify/{i}", "classify", {"system": {"e": e, "f": f}},
            expect_exit=None, system=(e, f))
        for i, (e, f) in enumerate(classify_systems(seed))
    ]


def jobs_for(workload: str, seed: int) -> list[Job]:
    if workload == "bundle-cold":
        return bundle_cold_jobs()
    if workload == "congruences":
        return congruences_jobs()
    if workload == "classify-batch":
        return classify_batch_jobs(seed)
    if workload == "warm-reports":
        return warm_reports_jobs()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: str) -> str:
    """One digest over every file below ``root``: relative paths and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(rel.encode() + b"\0" + sha256(blob).encode() + b"\n")
    return h.hexdigest()


def floor_sum(e, f, x) -> int:
    """The Landau function sum floor(e_i.x) - sum floor(f_j.x), exactly."""
    def dot(v):
        return sum(c * xi for c, xi in zip(v, x))

    return sum(math.floor(dot(v)) for v in e) - sum(math.floor(dot(v)) for v in f)


def _in_jump_region(e, f, x) -> bool:
    return any(sum(c * xi for c, xi in zip(v, x)) >= 1 for v in list(e) + list(f))


def check_classify_exit(code: int, lines: list) -> Optional[str]:
    """The exit code documented for the one verdict line's tag."""
    if len(lines) != 1:
        return f"expected one verdict line, got {len(lines)}"
    tag = lines[0].get("tag")
    if tag not in TAG_EXIT:
        return f"unknown tag {tag!r}"
    want = TAG_EXIT[tag]
    if lines[0].get("sampled") and tag in ("CaseI", "EStrictlyBigger"):
        want = EXIT_BUDGET
    if code != want:
        return f"{tag} exits {code}, expected {want}"
    return None


# The classifier's own grid on every draw is 4 * lcm(1, 2, 3) = 24 (see the
# draw above); the check searches the same points independently.  A grid
# twice as fine costs five times as long on a draw.
CHECK_GRID = 24


def grid_search(e, f, n: int = CHECK_GRID):
    """Search the points i/n of [0,1)^d in lexicographic order.

    Returns (negative, zero): the first point where delta < 0, and the
    first point of the jump region where delta == 0 before it; None where
    there is none.  Integer arithmetic: floor(v.i/n) is (v.i) // n.
    """
    vectors = [tuple(v) for v in e] + [tuple(v) for v in f]
    signs = [1] * len(e) + [-1] * len(f)
    zero = None
    for i in itertools.product(range(n), repeat=len(vectors[0])):
        dots = [sum(c * k for c, k in zip(v, i)) for v in vectors]
        val = sum(s * (t // n) for s, t in zip(signs, dots))
        if val < 0:
            return [Fraction(k, n) for k in i], zero
        if val == 0 and zero is None and max(dots) >= n:
            zero = [Fraction(k, n) for k in i]
    return None, zero


def check_classify(e, f, code: int, lines: list) -> Optional[str]:
    """Check one classify verdict; returns None if it holds, else why not.

    The tag must match the exit code; a witness or every certificate point
    is evaluated again with ``floor_sum``; the column sums must agree with
    the tag.  Every tag but NotNonnegative claims delta >= 0, and CaseI
    claims no zero on the jump region: ``grid_search`` looks for a point
    that refutes either claim.
    """
    why = check_classify_exit(code, lines)
    if why is not None:
        return why
    v = lines[0]
    tag = v["tag"]
    d = len(e[0])
    se = [sum(u[k] for u in e) for k in range(d)]
    sf = [sum(u[k] for u in f) for k in range(d)]
    if tag == "NotNonnegative":
        w = [Fraction(c) for c in v["witness"]]
        if not all(0 <= c <= 1 for c in w) or floor_sum(e, f, w) >= 0:
            return f"witness {v['witness']} does not make delta negative"
        return None
    negative, zero = grid_search(e, f)
    if negative is not None:
        return f"{tag}, but delta is negative at {[str(c) for c in negative]}"
    if tag == "EStrictlyBigger":
        k = v["coordinate"] - 1
        if not (all(a >= b for a, b in zip(se, sf)) and se[k] > sf[k]):
            return f"column sums {se} vs {sf} contradict coordinate {k + 1}"
        return None
    if se != sf:
        return f"{tag} with unequal column sums {se} vs {sf}"
    if tag == "CaseII":
        w = [Fraction(c) for c in v["witness"]]
        if not all(0 <= c < 1 for c in w) or not _in_jump_region(e, f, w):
            return f"witness {v['witness']} is off the jump region"
        if floor_sum(e, f, w) != 0:
            return f"delta is not zero at witness {v['witness']}"
        return None
    if zero is not None:
        return f"CaseI, but delta is zero at {[str(c) for c in zero]} on the jump region"
    cert = v.get("certificate") or []
    if not cert or v.get("certificate_size") != len(cert):
        return "CaseI without a consistent certificate"
    for entry in cert:
        x = [Fraction(c) for c in entry["point"]]
        if not all(0 <= c < 1 for c in x) or not _in_jump_region(e, f, x):
            return f"certificate point {entry['point']} is off the jump region"
        val = floor_sum(e, f, x)
        if val != entry["delta"] or val < 1:
            return f"certificate point {entry['point']}: delta {val}, stated {entry['delta']}"
    return None


def known_answer(job: Job, lines: list) -> Optional[str]:
    """The paper's verdicts on the bundled systems; None if they hold.

    Case I systems scan clean and pass every congruence and
    Dieudonne-Dwork report; cubic-split, a Case II system, reports failures.
    """
    name = job.doc.get("system", {}).get("name") or job.doc.get("case")
    if job.command == "scan":
        bad = sum(1 for line in lines if "total" in line and line["total"])
        if name in CASE_I and bad:
            return f"{bad} scan reports with violations on Case I system {name}"
        if name not in CASE_I and not bad:
            return f"no scan violations on {name}"
    elif job.command in ("dwork", "congruences"):
        failing = sum(1 for line in lines if not line.get("pass"))
        if not lines:
            return "no reports"
        if name in CASE_I and failing:
            return f"{failing} failing {job.command} reports on Case I system {name}"
        if name == "cubic-split" and not failing:
            return "cubic-split reports no failure"
    elif job.command == "classify":
        want = {"cubic-2d": "CaseI", "central-binomial": "CaseI", "case30": "CaseI",
                "cubic-split": "CaseII", "inverse-binomial": "NotNonnegative"}[name]
        if not lines or lines[0].get("tag") != want:
            return f"{name} classified {lines[0].get('tag') if lines else None}, expected {want}"
    elif job.command == "case":
        if not lines or not all(line.get("pass") for line in lines):
            return "case30 has a failing check"
    return None
