"""Command-line front end.

``mirrorint <command> [job.json] [flags]`` reads one JSON job document
(from a path or stdin), orchestrates the library and emits machine
readable reports: JSON lines on stdout, a human summary on stderr.

Commands: classify, bundle, scan, dwork, congruences, case.  ``parse_job``
settles a job for one command, and is the one place that states its
rules and defaults: a job that lists ``commands`` must name the one being
run; ``case`` needs a case, ``dwork`` a system or a fixture, the others a
system; primes default to [2, 3, 5], each below 2^64 (``forms.is_prime``)
and none repeated, and ``dwork`` and ``congruences`` refuse an empty list
(``scan`` with none scans over Z only); the budget defaults to
``landau.BUDGET``, and an unset order to ``systems.default_order`` (12 in
one variable, 8 otherwise) for ``bundle``, ``scan`` and ``dwork`` and to
12 for ``case``; ``dwork`` refuses an order of 0 (a system's or a
fixture's) and a fixture whose G is zero, where no coefficient would be
checked.  An order whose grading ``kronecker.check_size`` refuses (a
system's; a fixture's, as its series are read; a case's, once its record
is loaded) and a prime at which ``dwork.harness_sizes`` refuses the
``congruences`` harness exit 2 before anything is built.
``--order``, ``--prime`` and ``--budget`` set the job keys ``order``,
``primes`` and ``strategy.budget`` and are checked by those keys' rules;
the keys the job file gives are checked too, flag or no flag.

Exit codes: classify maps its verdict (0 certified everywhere >= 1,
10 zero on the jump region, 11 negative somewhere, 12 strictly bigger
column sum, 20 budget exceeded, with no report line); report commands
exit 0 iff every line passes; malformed input exits 2; cache corruption
(a series file whose hash is not the manifest's, a series file that
``series.from_bytes`` refuses at the bundle's dimension and order, or a
manifest that is not byte for byte the one this code writes for the
system and order) exits 3, and so does an entry that cannot be written
(an ``OSError`` such as a full disk), with one stderr line naming it, no
report line, and a clean miss left.  ``scan`` on a flagged system and
``case`` run the classifier too, and exit 20 with no report line when it
exceeds its budget.
Input a check cannot take also exits 2, with one line on stderr and no
report line: ``dwork`` on a system whose F is not p-integral (such as
inverse-binomial) or whose every G_k is zero (raw e = f = [[1]]: no
coefficient would be checked), or on a fixture whose F and G differ in
dimension or order or that comes with an order (the job's or
``--order``), ``congruences`` on unequal column sums of e and f,
``case`` at an order below the z-degree of its operator or on a record
that ``CaseRecord.from_dict`` rejects.  JSON ``true`` and ``false`` are
never taken for integers.  A stdout closed by its reader (``| head``)
ends the run with exit 141, as a shell reports for a writer that SIGPIPE
kills, and with no traceback.

A job's ``ranges`` bound the formal-congruence sweeps.  An unset bound
is p^2 for the hypotheses and the conclusion (``CongruenceRanges.resolved``)
but m <= 4 for the unit-ratio sweep (``q_ratio_congruence_sweep``).

The classifier takes ``strategy.budget``, the number of plane subsets its
cell walk may charge; every verdict it prints is proven.  The walk stops
once the verdict is fixed: when the f vectors split under the e vectors,
floor(a) + floor(b) <= floor(a + b) proves delta >= 0, so unequal column
sums or the first zero on the jump region settle it, and a budget that
the complete walk would pass can still print such a verdict.  When every
f vector is a unit vector, delta >= 1 on the jump region and the top
level decides, with no cell walked.  The top level is charged first, so
a budget of 0 always exits 20.

The cache directory stores bundle series and a hash-carrying manifest as
``series.canonical`` bytes, so a warm rerun prints byte-identical
reports.  ``MSeries.to_bytes`` is the one writer of a series file and
``series.from_bytes`` the one reader, which reads a job fixture too once
``MSeries.from_dict`` has sorted its terms.  Every file of a cache entry
is verified on every load (each series' hash, then its bytes by
``from_bytes`` at the bundle's dimension and order, then the manifest's
bytes against ``canonical`` of ``_manifest`` for the system, the order
and those hashes), but only the series a command reads are built:
``scan`` reads q, q_L and z(q), and ``bundle`` none.  Precedence for the
cache location: --cache-dir flag, then the MIRRORINT_CACHE environment
variable, then the job file, then ``.mirrorint-cache``.

``dwork`` needs only F and the G_k, which one integer coefficient pass
gives for less than a cache read and without the rest of a bundle; so it
neither reads nor writes the cache, and the cache flags do not change it.
Its job gives a system or a ``fixture`` of F and G, not both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys as _sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import kronecker
from .dwork import (
    CongruenceRanges,
    PadicContext,
    dieudonne_dwork_check,
    harness_sizes,
    q_ratio_congruence_sweep,
    verify_formal_congruences,
)
from .forms import FormSystem, is_int, is_prime
from .landau import BUDGET, BudgetExceededError, Tag, classify, enumerate_weight_vectors
from .mirror import MirrorBundle, build_bundle, coefficient_series, integrality_scan
from .operators import BUNDLED_CASES, CaseRecord, verify_annihilation
from .series import MSeries, canonical, from_bytes
from .systems import BUNDLED, default_order

COMMANDS = ("classify", "bundle", "scan", "dwork", "congruences", "case")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_CACHE = 3
EXIT_CASE_II = 10
EXIT_NOT_NONNEGATIVE = 11
EXIT_E_BIGGER = 12
EXIT_BUDGET = 20
EXIT_PIPE = 141  # 128 + SIGPIPE

_TAG_EXIT = {
    Tag.CASE_I: EXIT_OK,
    Tag.CASE_II: EXIT_CASE_II,
    Tag.NOT_NONNEGATIVE: EXIT_NOT_NONNEGATIVE,
    Tag.E_STRICTLY_BIGGER: EXIT_E_BIGGER,
}


class SchemaError(ValueError):
    """Malformed job document."""


class CacheCorruptionError(RuntimeError):
    """A cached file does not match its recorded hash."""


class CacheWriteError(RuntimeError):
    """A cache entry could not be written."""


# ---------------------------------------------------------------------------
# job documents


_TOP_KEYS = {
    "system",
    "order",
    "primes",
    "commands",
    "strategy",
    "cache_dir",
    "case",
    "fixture",
    "ranges",
}
_STRATEGY_KEYS = {"budget"}
_RANGE_KEYS = {"s_max", "k_bound", "m_bound"}


@dataclass
class Job:
    """A job settled for one command: ``order`` is the one it runs at, None
    for ``classify``, ``congruences`` and a ``dwork`` fixture."""

    system: Optional[FormSystem]
    order: Optional[int]
    primes: list[int]
    budget: int
    cache_dir: Optional[str]
    case: Optional[str]
    fixture: Optional[tuple[MSeries, MSeries]]
    ranges: CongruenceRanges


def _nonnegative_int(value) -> bool:
    return is_int(value) and value >= 0


def _parse_system(spec) -> FormSystem:
    """A bundled system by name, or what ``FormSystem.from_dict`` reads with
    e and f both non-empty."""
    if isinstance(spec, dict) and "name" in spec:
        name = spec["name"]
        if set(spec) != {"name"}:
            raise SchemaError(f"unknown system keys: {sorted(set(spec) - {'name'})}")
        if not isinstance(name, str) or name not in BUNDLED:
            raise SchemaError(f"unknown bundled system {name!r}; have {sorted(BUNDLED)}")
        return BUNDLED[name]
    try:
        system = FormSystem.from_dict(spec)
    except ValueError as exc:
        raise SchemaError(f"bad system: {exc}")
    if not (system.e and system.f):
        raise SchemaError("system.e and system.f must be non-empty")
    return system


def parse_job(doc: dict, command: str) -> Job:
    if not isinstance(doc, dict):
        raise SchemaError("job document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown job keys: {sorted(unknown)}")
    commands = doc.get("commands")
    if commands is not None:
        if not isinstance(commands, list) or not all(isinstance(c, str) for c in commands):
            raise SchemaError("commands must be an array of strings")
        bad = [c for c in commands if c not in COMMANDS]
        if bad:
            raise SchemaError(f"unknown commands: {bad}")
        if command not in commands:
            raise SchemaError(f"job does not list command {command!r}")
    system = _parse_system(doc["system"]) if "system" in doc else None
    order = doc.get("order")
    if order is not None and not _nonnegative_int(order):
        raise SchemaError("order must be a nonnegative integer")
    primes = doc.get("primes", [2, 3, 5])
    try:
        prime_list = isinstance(primes, list) and all(is_int(p) and is_prime(p) for p in primes)
    except ValueError as exc:  # a prime past the bound of is_prime
        raise SchemaError(f"primes: {exc}")
    if not prime_list:
        raise SchemaError("primes must be an array of prime numbers")
    if len(set(primes)) != len(primes):
        # a repeated prime would repeat its reports and its work
        raise SchemaError("primes must not repeat")
    if not primes and command in ("dwork", "congruences"):
        # with no prime no check would run, and the exit 0 would show nothing
        raise SchemaError(f"{command} needs at least one prime")
    sdoc = doc.get("strategy", {})
    if not isinstance(sdoc, dict) or set(sdoc) - _STRATEGY_KEYS:
        raise SchemaError(f"strategy keys must be a subset of {sorted(_STRATEGY_KEYS)}")
    budget = sdoc.get("budget", BUDGET)
    if not _nonnegative_int(budget):
        raise SchemaError("strategy.budget must be a nonnegative integer")
    cache_dir = doc.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise SchemaError("cache_dir must be a string")
    case = doc.get("case")
    if case is not None and not isinstance(case, str):
        raise SchemaError("case must be a string (bundled name or record path)")
    fixture = None
    if "fixture" in doc:
        fdoc = doc["fixture"]
        if not isinstance(fdoc, dict) or set(fdoc) != {"F", "G"}:
            raise SchemaError("fixture must be an object with series F and G")
        try:  # a series is read on the grading of its order, which check_size bounds
            fixture = (MSeries.from_dict(fdoc["F"]), MSeries.from_dict(fdoc["G"]))
        except ValueError as exc:
            raise SchemaError(f"bad fixture series: {exc}")
    rdoc = doc.get("ranges", {})
    if not isinstance(rdoc, dict) or set(rdoc) - _RANGE_KEYS:
        raise SchemaError(f"ranges keys must be a subset of {sorted(_RANGE_KEYS)}")
    for key, value in rdoc.items():
        if not _nonnegative_int(value):
            raise SchemaError(f"ranges.{key} must be a nonnegative integer")
    ranges = CongruenceRanges(**rdoc)
    # what the command needs, and the order it runs at
    if command == "case":
        if case is None:
            raise SchemaError("case command needs a case name or record path")
        order = 12 if order is None else order
    elif command == "dwork" and fixture is not None:
        if system is not None:
            raise SchemaError("dwork takes a system or a fixture, not both")
        if order is not None:
            raise SchemaError("a fixture has the order of its series: drop order and --order")
    elif system is None:
        raise SchemaError("this command needs a system")
    elif command == "congruences" and not system.equal_column_sums:
        # the harness refuses such a system at the first prime it runs at
        raise SchemaError("congruences cannot check this system:"
                          " the congruence harness needs equal column sums")
    elif command in ("classify", "congruences"):
        order = None  # neither runs at an order; a given one was checked above
    elif order is None:  # bundle, scan, dwork
        order = default_order(system)
    if order is not None and system is not None:  # bundle, scan, dwork on a system
        try:
            kronecker.check_size(system.d, order)
        except ValueError as exc:
            raise SchemaError(f"order too large: {exc}") from None
    if command == "congruences":
        # every prime's harness is sized before the first one prints a line
        for p in primes:
            try:
                harness_sizes(system, p, *ranges.resolved(p))
            except ValueError as exc:
                raise SchemaError(f"congruences cannot run {exc}") from None
    if command == "dwork" and (order if fixture is None else fixture[0].order) == 0:
        # the combination has no coefficient at order 0, so no check would run
        raise SchemaError("dwork needs an order of at least 1")
    if command == "dwork" and fixture is not None and not fixture[1]:
        # a nonzero G keeps its lowest term h_n in the combination as -p h_n,
        # since h(z^p) starts at degree p|n|; a zero G leaves nothing to check
        raise SchemaError("dwork needs a nonzero fixture G")
    return Job(
        system=system,
        order=order,
        primes=list(primes),
        budget=budget,
        cache_dir=cache_dir,
        case=case,
        fixture=fixture,
        ranges=ranges,
    )


def _read_job(path: Optional[str]) -> dict:
    if path in (None, "-"):
        if _sys.stdin.isatty():
            raise SchemaError("no job document: pass a path or pipe JSON on stdin")
        text = _sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read job file: {exc}")
    try:
        return _decode(text)
    except ValueError as exc:
        raise SchemaError(f"invalid JSON: {exc}")


def _decode(text):
    """``json.loads``, with a document nested too deep to decode refused as
    ValueError, as invalid JSON is."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the document is nested too deeply") from None


# ---------------------------------------------------------------------------
# bundle cache


def _cache_key(sys_: FormSystem, order: int) -> str:
    return hashlib.sha256(
        canonical({"system": sys_.to_dict(), "order": order})
    ).hexdigest()[:24]


def _series_table(sys_: FormSystem) -> list[tuple[str, str, object]]:
    """Name, ``MirrorBundle`` field and key of every series of a bundle.

    The one statement of the naming scheme: cache files, manifest entries
    and scan lines take their names, and their order, from it.
    """
    ks = range(sys_.d)
    Ls = [(L, "_".join(map(str, L))) for L in enumerate_weight_vectors(sys_)]
    return (
        [("F", "F", None)]
        + [(f"G_{k + 1}", "G", k) for k in ks]
        + [(f"GL_{tag}", "GL", L) for L, tag in Ls]
        + [(f"q_{k + 1}", "q", k) for k in ks]
        + [(f"qL_{tag}", "qL", L) for L, tag in Ls]
        + [(f"z_{k + 1}", "zofq", k) for k in ks]
    )


def _manifest(sys_: FormSystem, order: int, digests: dict[str, str]) -> dict:
    """The manifest of a cache entry: the system, the order, whether the
    system is flagged, and each series' file and sha256 digest by name."""
    return {
        "system": sys_.to_dict(),
        "order": order,
        "flagged": not sys_.equal_column_sums,
        "series": {name: {"file": name + ".json", "sha256": h} for name, h in digests.items()},
    }


def _series_of(bundle: MirrorBundle, field: str, key) -> MSeries:
    value = getattr(bundle, field)
    return value if key is None else value[key]


def _write_atomic(path: str, blob: bytes):
    """Write ``blob`` under a temporary name, then rename it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_bundle(bundle: MirrorBundle, cache_dir: str) -> dict:
    """Write every series' ``to_bytes`` plus a ``canonical`` manifest with hashes.

    Each file appears whole or not at all, and the manifest comes last, so
    a crashed writer leaves a cache miss rather than a half-written bundle.
    """
    key = _cache_key(bundle.sys, bundle.order)
    root = os.path.join(cache_dir, key)
    os.makedirs(root, exist_ok=True)
    digests = {}
    for name, field, key in _series_table(bundle.sys):
        blob = _series_of(bundle, field, key).to_bytes()
        _write_atomic(os.path.join(root, name + ".json"), blob)
        digests[name] = hashlib.sha256(blob).hexdigest()
    manifest = _manifest(bundle.sys, bundle.order, digests)
    _write_atomic(os.path.join(root, "manifest.json"), canonical(manifest))
    return manifest


def load_bundle(
    sys_: FormSystem, order: int, cache_dir: str, reads
) -> Optional[tuple[dict[str, MSeries], dict]]:
    """The series of the ``MirrorBundle`` fields in ``reads``, by name in
    table order, and the manifest, from cache; None on miss.

    Every file of the entry is verified on every load, and only the series
    read are built.  Raises CacheCorruptionError on a series file whose
    hash is not the manifest's or that ``from_bytes`` refuses at the
    bundle's dimension and order, and on a manifest whose bytes are not
    ``canonical`` of ``_manifest`` for the system, the order and the files'
    hashes."""
    root = os.path.join(cache_dir, _cache_key(sys_, order))
    manifest_path = os.path.join(root, "manifest.json")
    if not os.path.exists(manifest_path):
        return None
    try:
        with open(manifest_path, "rb") as fh:
            stored = fh.read()
        recorded = {name: e["sha256"] for name, e in _decode(stored)["series"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CacheCorruptionError(f"unreadable manifest {manifest_path}: {exc!r}") from None
    series, digests = {}, {}
    for name, field, _ in _series_table(sys_):
        path = os.path.join(root, name + ".json")
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise CacheCorruptionError(f"missing cache file {path}: {exc}") from None
        digests[name] = hashlib.sha256(blob).hexdigest()
        if recorded.get(name) != digests[name]:
            raise CacheCorruptionError(f"hash mismatch for {path}")
        try:
            s = from_bytes(blob, sys_.d, order, build=field in reads)
        except ValueError as exc:
            raise CacheCorruptionError(
                f"series file {path} is not what the cache writes: {exc}"
            ) from None
        if s is not None:
            series[name] = s
    manifest = _manifest(sys_, order, digests)
    if stored != canonical(manifest):
        raise CacheCorruptionError(
            f"manifest {manifest_path} is not the one written for this system and order"
        )
    return series, manifest


def _bundle_for(job: Job, args, reads) -> tuple[dict[str, MSeries], dict]:
    """The series of the fields in ``reads`` by name, and the manifest, from
    the cache or built."""
    cache_dir = args.cache_dir or os.environ.get("MIRRORINT_CACHE") or job.cache_dir
    if cache_dir is None:
        cache_dir = ".mirrorint-cache"
    if not (args.no_cache or args.rebuild_cache):
        cached = load_bundle(job.system, job.order, cache_dir, reads)
        if cached is not None:
            return cached
    bundle = build_bundle(job.system, job.order)
    if args.no_cache:
        manifest = _manifest(job.system, job.order, {})
    else:
        try:
            manifest = save_bundle(bundle, cache_dir)
        except OSError as exc:
            entry = os.path.join(cache_dir, _cache_key(job.system, job.order))
            raise CacheWriteError(f"cannot write cache entry {entry}: {exc}") from None
    series = {
        name: _series_of(bundle, field, key)
        for name, field, key in _series_table(job.system)
        if field in reads
    }
    return series, manifest


# ---------------------------------------------------------------------------
# commands


def _emit(line: dict):
    _sys.stdout.write(json.dumps(line) + "\n")


def _summary(msg: str):
    _sys.stderr.write(msg + "\n")


def cmd_classify(job: Job, args) -> int:
    verdict = classify(job.system, job.budget)
    _emit(verdict.to_dict())
    _summary(f"classification: {verdict.tag.value}")
    return _TAG_EXIT[verdict.tag]


def cmd_bundle(job: Job, args) -> int:
    _, manifest = _bundle_for(job, args, reads=())
    # sorted keys: the same bytes whether the manifest was built or read back
    _sys.stdout.write(json.dumps(manifest, sort_keys=True) + "\n")
    _summary(
        f"bundle ready: order {job.order},"
        f" {len(enumerate_weight_vectors(job.system))} mirror-type maps"
        + (", flagged (unequal column sums)" if manifest["flagged"] else "")
    )
    return EXIT_OK


def cmd_scan(job: Job, args) -> int:
    targets, manifest = _bundle_for(job, args, reads=("q", "qL", "zofq"))
    failures = 0
    if manifest["flagged"]:
        verdict = classify(job.system, job.budget)
        _emit({"classifier": verdict.to_dict()})
    primes: list[Optional[int]] = [None] + job.primes
    for name, series in targets.items():
        for p in primes:
            rep = integrality_scan(series, p)
            failures += 0 if rep.ok else 1
            _emit({"series": name} | rep.to_dict())
    _summary(f"scanned {len(targets)} series; {failures} reports with violations")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_dwork(job: Job, args) -> int:
    if job.fixture is not None:
        F, G = job.fixture
        checks = [("fixture", partial(dieudonne_dwork_check, F, G))]
    else:
        sys_ = job.system
        # F and every G_k from one pass, which takes each Q(n) once
        F, *G = coefficient_series(sys_, job.order, range(sys_.d))
        if not any(G):
            # as for a zero fixture G, no coefficient of any combination is checked
            raise SchemaError("dwork needs a system with a nonzero G_k")
        checks = [(name, partial(dieudonne_dwork_check, F, G[k]))
                  for name, field, k in _series_table(sys_) if field == "G"]
    # every check runs before the first line, so a rejected input prints none
    try:
        runs = [(p, name, check(p)) for p in job.primes for name, check in checks]
    except ValueError as exc:
        raise SchemaError(f"dwork cannot check this input: {exc}") from None
    failures = lines = 0
    for p, name, reports in runs:
        for rep in reports:
            lines += 1
            failures += 0 if rep.passed else 1
            _emit({"prime": p, "series": name} | rep.to_dict())
    _summary(f"dieudonne-dwork: {lines} coefficient checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_congruences(job: Job, args) -> int:
    failures = 0
    for p in job.primes:
        ctx = PadicContext(p, job.system)
        reports = verify_formal_congruences(ctx, job.ranges)
        reports.append(q_ratio_congruence_sweep(ctx, job.ranges.s_max, job.ranges.m_bound))
        for rep in reports:
            failures += 0 if rep.passed else 1
            _emit({"prime": p} | rep.to_dict())
    _summary(f"formal congruences over primes {job.primes}: {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _load_case(job: Job) -> CaseRecord:
    if job.case in BUNDLED_CASES:
        return BUNDLED_CASES[job.case]()
    if os.path.exists(job.case):
        try:
            with open(job.case, "r", encoding="utf-8") as fh:
                return CaseRecord.from_dict(_decode(fh.read()))
        except (OSError, ValueError) as exc:
            raise SchemaError(f"bad case record: {exc}")
    raise SchemaError(f"unknown case {job.case!r} (not bundled, not a readable path)")


def cmd_case(job: Job, args) -> int:
    rec = _load_case(job)
    if job.order < rec.operator.z_degree:
        raise SchemaError(
            f"case {rec.name} needs order >= {rec.operator.z_degree}, the z-degree of its operator"
        )
    try:
        kronecker.check_size(rec.system.d, job.order)
    except ValueError as exc:
        raise SchemaError(f"order too large for case {rec.name}: {exc}") from None
    report = verify_annihilation(rec, job.order)
    # classified before the first line, so a budget exit prints no report
    verdict = classify(rec.system, job.budget)
    for line in report.lines():
        _emit(line)
    landau_ok = verdict.tag is Tag.CASE_I
    _emit({"case": rec.name, "check": "landau-dichotomy", "pass": landau_ok}
          | {"tag": verdict.tag.value})
    ok = report.ok and landau_ok
    _summary(f"case {rec.name}: {'all checks pass' if ok else 'FAILURES'}")
    return EXIT_OK if ok else EXIT_FAIL


_DISPATCH = {
    "classify": cmd_classify,
    "bundle": cmd_bundle,
    "scan": cmd_scan,
    "dwork": cmd_dwork,
    "congruences": cmd_congruences,
    "case": cmd_case,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorint",
        description="integrality toolkit for mirror maps from factorial ratios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("job", nargs="?", help="job JSON path ('-' or omitted: stdin)")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--prime", type=int, action="append", default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--rebuild-cache", action="store_true")
    return parser


# built once per process: parse_args leaves the parser unchanged
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc = _read_job(args.job)
        job = parse_job(doc, args.command)
        # a flag sets its job key, and the job is parsed again under that key's rule
        flags = {"order": args.order, "primes": args.prime}
        if args.budget is not None:
            flags["strategy"] = doc.get("strategy", {}) | {"budget": args.budget}
        flags = {key: value for key, value in flags.items() if value is not None}
        if flags:
            job = parse_job(doc | flags, args.command)
        code = _DISPATCH[args.command](job, args)
        # a closed stdout shows here at the latest, not at interpreter exit
        _sys.stdout.flush()
    except SchemaError as exc:
        _summary(f"schema error: {exc}")
        code = EXIT_SCHEMA
    except CacheCorruptionError as exc:
        _summary(f"cache corruption: {exc} (use --rebuild-cache or --no-cache)")
        code = EXIT_CACHE
    except CacheWriteError as exc:
        _summary(f"cache write failed: {exc} (use --no-cache)")
        code = EXIT_CACHE
    except BudgetExceededError as exc:
        _summary(f"budget exceeded: {exc}")
        code = EXIT_BUDGET
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
