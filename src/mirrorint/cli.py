"""Command-line front end.

``mirrorint <command> [job.json] [flags]`` reads one JSON job document
(from a path or stdin), orchestrates the library and emits machine
readable reports: JSON lines on stdout, a human summary on stderr.

Commands: classify, bundle, scan, dwork, congruences, case.

Exit codes: classify maps its verdict (0 certified everywhere >= 1,
10 zero on the jump region, 11 negative somewhere, 12 strictly bigger
column sum, 20 budget exceeded / uncertified); report commands exit 0
iff every line passes; malformed input exits 2; cache corruption exits 3.
Input a check cannot take also exits 2, with one line on stderr and no
report line: ``dwork`` on a system whose F is not p-integral (such as
inverse-binomial), ``congruences`` on unequal column sums of e and f.
JSON ``true`` and ``false`` are never taken for integers.

The cache directory stores bundle series as canonical JSON with a
hash-carrying manifest; re-running a command against a warm cache yields
byte-identical reports.  Precedence for the cache location: --cache-dir
flag, then the MIRRORINT_CACHE environment variable, then the job file,
then ``.mirrorint-cache``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys as _sys
from dataclasses import dataclass
from typing import Optional

from .dwork import (
    CongruenceRanges,
    PadicContext,
    dieudonne_dwork_check,
    q_ratio_congruence_sweep,
    verify_formal_congruences,
)
from .forms import FormSystem, is_prime
from .landau import BudgetExceededError, SamplingStrategy, Tag, classify
from .mirror import MirrorBundle, build_bundle, integrality_scan
from .operators import BUNDLED_CASES, CaseRecord, verify_annihilation
from .series import MSeries
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


# ---------------------------------------------------------------------------
# job documents


_TOP_KEYS = {
    "system",
    "order",
    "primes",
    "commands",
    "strategy",
    "budget",
    "cache_dir",
    "case",
    "fixture",
    "ranges",
}
_STRATEGY_KEYS = {"budget", "grid_multiplier", "random_samples", "seed", "allow_fallback"}
# least value of each integer strategy knob
_STRATEGY_MIN = {"budget": 0, "grid_multiplier": 1, "random_samples": 0, "seed": None}
_RANGE_KEYS = {"s_max", "k_bound", "m_bound"}


@dataclass
class Job:
    system: Optional[FormSystem]
    order: Optional[int]
    primes: list[int]
    commands: Optional[list[str]]
    strategy: SamplingStrategy
    cache_dir: Optional[str]
    case: Optional[str]
    fixture: Optional[tuple[MSeries, MSeries]]
    ranges: CongruenceRanges


def _fail_schema(msg: str):
    raise SchemaError(msg)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _nonnegative_int(value) -> bool:
    return _is_int(value) and value >= 0


def _parse_system(spec) -> FormSystem:
    if not isinstance(spec, dict):
        _fail_schema("system must be an object")
    if "name" in spec:
        extra = set(spec) - {"name"}
        if extra:
            _fail_schema(f"unknown system keys: {sorted(extra)}")
        name = spec["name"]
        if name not in BUNDLED:
            _fail_schema(f"unknown bundled system {name!r}; have {sorted(BUNDLED)}")
        return BUNDLED[name]
    extra = set(spec) - {"e", "f", "raw"}
    if extra:
        _fail_schema(f"unknown system keys: {sorted(extra)}")
    for side in ("e", "f"):
        if side not in spec or not isinstance(spec[side], list) or not spec[side]:
            _fail_schema(f"system.{side} must be a non-empty array of integer vectors")
        for v in spec[side]:
            if not isinstance(v, list) or not v or not all(map(_nonnegative_int, v)):
                _fail_schema(f"system.{side} entries must be arrays of nonnegative integers")
    if not isinstance(spec.get("raw", False), bool):
        _fail_schema("system.raw must be true or false")
    try:
        return FormSystem(spec["e"], spec["f"], raw=spec.get("raw", False))
    except ValueError as exc:
        _fail_schema(str(exc))


def parse_job(doc: dict, command: str) -> Job:
    if not isinstance(doc, dict):
        _fail_schema("job document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail_schema(f"unknown job keys: {sorted(unknown)}")
    commands = doc.get("commands")
    if commands is not None:
        if not isinstance(commands, list) or not all(isinstance(c, str) for c in commands):
            _fail_schema("commands must be an array of strings")
        bad = [c for c in commands if c not in COMMANDS]
        if bad:
            _fail_schema(f"unknown commands: {bad}")
        if command not in commands:
            _fail_schema(f"job does not list command {command!r}")
    system = _parse_system(doc["system"]) if "system" in doc else None
    order = doc.get("order")
    if order is not None and not _nonnegative_int(order):
        _fail_schema("order must be a nonnegative integer")
    primes = doc.get("primes", [2, 3, 5])
    if not isinstance(primes, list) or not all(
        _is_int(p) and is_prime(p) for p in primes
    ):
        _fail_schema("primes must be an array of prime numbers")
    sdoc = doc.get("strategy", {})
    if not isinstance(sdoc, dict) or set(sdoc) - _STRATEGY_KEYS:
        _fail_schema(f"strategy keys must be a subset of {sorted(_STRATEGY_KEYS)}")
    for key, value in sdoc.items():
        if key == "allow_fallback":
            if not isinstance(value, bool):
                _fail_schema("strategy.allow_fallback must be true or false")
            continue
        least = _STRATEGY_MIN[key]
        if not _is_int(value) or (least is not None and value < least):
            _fail_schema(
                f"strategy.{key} must be an integer" + ("" if least is None else f" >= {least}")
            )
    strategy = SamplingStrategy(**sdoc)
    if "budget" in doc:
        if not _nonnegative_int(doc["budget"]):
            _fail_schema("budget must be a nonnegative integer")
        strategy.budget = doc["budget"]
    cache_dir = doc.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        _fail_schema("cache_dir must be a string")
    case = doc.get("case")
    if case is not None and not isinstance(case, str):
        _fail_schema("case must be a string (bundled name or record path)")
    fixture = None
    if "fixture" in doc:
        fdoc = doc["fixture"]
        if not isinstance(fdoc, dict) or set(fdoc) != {"F", "G"}:
            _fail_schema("fixture must be an object with series F and G")
        try:
            fixture = (MSeries.from_dict(fdoc["F"]), MSeries.from_dict(fdoc["G"]))
        except Exception as exc:
            _fail_schema(f"bad fixture series: {exc}")
    rdoc = doc.get("ranges", {})
    if not isinstance(rdoc, dict) or set(rdoc) - _RANGE_KEYS:
        _fail_schema(f"ranges keys must be a subset of {sorted(_RANGE_KEYS)}")
    for key, value in rdoc.items():
        if not _nonnegative_int(value):
            _fail_schema(f"ranges.{key} must be a nonnegative integer")
    ranges = CongruenceRanges(**rdoc)
    return Job(
        system=system,
        order=order,
        primes=list(primes),
        commands=commands,
        strategy=strategy,
        cache_dir=cache_dir,
        case=case,
        fixture=fixture,
        ranges=ranges,
    )


def _read_job(path: Optional[str]) -> dict:
    if path in (None, "-"):
        if _sys.stdin.isatty():
            _fail_schema("no job document: pass a path or pipe JSON on stdin")
        text = _sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            _fail_schema(f"cannot read job file: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail_schema(f"invalid JSON: {exc}")


# ---------------------------------------------------------------------------
# bundle cache


def _canonical(data) -> bytes:
    return (json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n").encode()


def _cache_key(sys_: FormSystem, order: int) -> str:
    return hashlib.sha256(
        _canonical({"system": sys_.to_dict(), "order": order})
    ).hexdigest()[:24]


def _series_names(bundle: MirrorBundle) -> list[tuple[str, MSeries]]:
    out = [("F", bundle.F)]
    for k in range(bundle.sys.d):
        out.append((f"G_{k + 1}", bundle.G[k]))
    for L in sorted(bundle.GL):
        out.append(("GL_" + "_".join(map(str, L)), bundle.GL[L]))
    for k in range(bundle.sys.d):
        out.append((f"q_{k + 1}", bundle.q[k]))
    for L in sorted(bundle.qL):
        out.append(("qL_" + "_".join(map(str, L)), bundle.qL[L]))
    for k in range(bundle.sys.d):
        out.append((f"z_{k + 1}", bundle.zofq[k]))
    return out


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
    """Write every series as canonical JSON plus a manifest with hashes.

    Each file appears whole or not at all, and the manifest comes last, so
    a crashed writer leaves a cache miss rather than a half-written bundle.
    """
    key = _cache_key(bundle.sys, bundle.order)
    root = os.path.join(cache_dir, key)
    os.makedirs(root, exist_ok=True)
    files = {}
    for name, series in _series_names(bundle):
        blob = _canonical(series.to_dict())
        fname = name + ".json"
        _write_atomic(os.path.join(root, fname), blob)
        files[name] = {"file": fname, "sha256": hashlib.sha256(blob).hexdigest()}
    manifest = {
        "system": bundle.sys.to_dict(),
        "order": bundle.order,
        "flagged": bundle.flagged,
        "series": files,
    }
    _write_atomic(os.path.join(root, "manifest.json"), _canonical(manifest))
    return manifest


def load_bundle(
    sys_: FormSystem, order: int, cache_dir: str
) -> Optional[tuple[MirrorBundle, dict]]:
    """Rebuild a bundle and its manifest from cache; None on miss, raises on
    hash mismatch."""
    root = os.path.join(cache_dir, _cache_key(sys_, order))
    manifest_path = os.path.join(root, "manifest.json")
    if not os.path.exists(manifest_path):
        return None
    try:
        with open(manifest_path, "rb") as fh:
            manifest = json.loads(fh.read())
        entries = [(name, e["file"], e["sha256"]) for name, e in manifest["series"].items()]
        flagged = bool(manifest["flagged"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CacheCorruptionError(f"unreadable manifest {manifest_path}: {exc!r}") from None
    series = {}
    for name, fname, digest in entries:
        path = os.path.join(root, fname)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise CacheCorruptionError(f"missing cache file {path}: {exc}") from None
        if hashlib.sha256(blob).hexdigest() != digest:
            raise CacheCorruptionError(f"hash mismatch for {path}")
        series[name] = MSeries.from_dict(json.loads(blob))
    d = sys_.d
    GL = {}
    qL = {}
    for name, s in series.items():
        if name.startswith("GL_"):
            GL[tuple(int(c) for c in name[3:].split("_"))] = s
        elif name.startswith("qL_"):
            qL[tuple(int(c) for c in name[3:].split("_"))] = s
    try:
        bundle = MirrorBundle(
            sys=sys_,
            order=order,
            F=series["F"],
            G=tuple(series[f"G_{k + 1}"] for k in range(d)),
            GL=GL,
            q=tuple(series[f"q_{k + 1}"] for k in range(d)),
            qL=qL,
            zofq=tuple(series[f"z_{k + 1}"] for k in range(d)),
            flagged=flagged,
        )
    except KeyError as exc:
        raise CacheCorruptionError(f"manifest {manifest_path} lacks series {exc}") from None
    return bundle, manifest


def _bundle_for(job: Job, args) -> tuple[MirrorBundle, dict]:
    if job.system is None:
        _fail_schema("this command needs a system")
    order = job.order if job.order is not None else default_order(job.system)
    cache_dir = args.cache_dir or os.environ.get("MIRRORINT_CACHE") or job.cache_dir
    if cache_dir is None:
        cache_dir = ".mirrorint-cache"
    if args.no_cache:
        bundle = build_bundle(job.system, order)
        manifest = {
            "system": job.system.to_dict(),
            "order": order,
            "flagged": bundle.flagged,
            "series": {},
        }
        return bundle, manifest
    if not args.rebuild_cache:
        cached = load_bundle(job.system, order, cache_dir)
        if cached is not None:
            return cached
    bundle = build_bundle(job.system, order)
    manifest = save_bundle(bundle, cache_dir)
    return bundle, manifest


# ---------------------------------------------------------------------------
# commands


def _emit(line: dict):
    _sys.stdout.write(json.dumps(line) + "\n")


def _summary(msg: str):
    _sys.stderr.write(msg + "\n")


def cmd_classify(job: Job, args) -> int:
    if job.system is None:
        _fail_schema("classify needs a system")
    try:
        verdict = classify(job.system, job.strategy)
    except BudgetExceededError as exc:
        _summary(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    _emit(verdict.to_dict())
    _summary(f"classification: {verdict.tag.value}" + (" (sampled)" if verdict.sampled else ""))
    if verdict.sampled and verdict.tag in (Tag.CASE_I, Tag.E_STRICTLY_BIGGER):
        return EXIT_BUDGET
    return _TAG_EXIT[verdict.tag]


def cmd_bundle(job: Job, args) -> int:
    bundle, manifest = _bundle_for(job, args)
    # sorted keys: the same bytes whether the manifest was built or read back
    _sys.stdout.write(json.dumps(manifest, sort_keys=True) + "\n")
    _summary(
        f"bundle ready: order {bundle.order}, {len(bundle.qL)} mirror-type maps"
        + (", flagged (unequal column sums)" if bundle.flagged else "")
    )
    return EXIT_OK


def cmd_scan(job: Job, args) -> int:
    bundle, _ = _bundle_for(job, args)
    failures = 0
    if bundle.flagged:
        verdict = classify(bundle.sys, job.strategy)
        _emit({"classifier": verdict.to_dict()})
    targets = []
    for k in range(bundle.sys.d):
        targets.append((f"q_{k + 1}", bundle.q[k]))
    for L in sorted(bundle.qL):
        targets.append(("qL_" + "_".join(map(str, L)), bundle.qL[L]))
    for k in range(bundle.sys.d):
        targets.append((f"z_{k + 1}", bundle.zofq[k]))
    primes: list[Optional[int]] = [None] + job.primes
    for name, series in targets:
        for p in primes:
            rep = integrality_scan(series, p)
            failures += 0 if rep.ok else 1
            _emit({"series": name} | rep.to_dict())
    _summary(f"scanned {len(targets)} series; {failures} reports with violations")
    return EXIT_OK if failures == 0 else EXIT_FAIL

def cmd_dwork(job: Job, args) -> int:
    if job.fixture is not None:
        F, G = job.fixture
        targets = [("fixture", G)]
    else:
        bundle, _ = _bundle_for(job, args)
        F = bundle.F
        targets = [(f"G_{k + 1}", G) for k, G in enumerate(bundle.G)]
    # every check runs before the first line, so a rejected input prints none
    try:
        runs = [
            (p, name, dieudonne_dwork_check(F, G, p)) for p in job.primes for name, G in targets
        ]
    except ValueError as exc:
        raise SchemaError(f"dwork cannot check this input: {exc}") from None
    failures = 0
    lines = 0
    for p, name, reports in runs:
        for rep in reports:
            lines += 1
            failures += 0 if rep.passed else 1
            _emit({"prime": p, "series": name} | json.loads(rep.to_json()))
    _summary(f"dieudonne-dwork: {lines} coefficient checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_congruences(job: Job, args) -> int:
    if job.system is None:
        _fail_schema("congruences needs a system")
    failures = 0
    for p in job.primes:
        ctx = PadicContext(p, job.system)
        try:
            reports = verify_formal_congruences(ctx, job.ranges)
        except ValueError as exc:
            raise SchemaError(f"congruences cannot check this system: {exc}") from None
        reports.append(q_ratio_congruence_sweep(ctx, s_max=job.ranges.s_max))
        for rep in reports:
            failures += 0 if rep.passed else 1
            _emit({"prime": p} | json.loads(rep.to_json()))
    _summary(f"formal congruences over primes {job.primes}: {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _load_case(job: Job) -> CaseRecord:
    if job.case is None:
        _fail_schema("case command needs a case name or record path")
    if job.case in BUNDLED_CASES:
        return BUNDLED_CASES[job.case]()
    if os.path.exists(job.case):
        try:
            with open(job.case, "r", encoding="utf-8") as fh:
                return CaseRecord.from_dict(json.load(fh))
        except (ValueError, KeyError) as exc:
            _fail_schema(f"bad case record: {exc}")
    _fail_schema(f"unknown case {job.case!r} (not bundled, not a readable path)")


def cmd_case(job: Job, args) -> int:
    rec = _load_case(job)
    order = job.order if job.order is not None else 12
    report = verify_annihilation(rec, order)
    for c in report.checks:
        _emit(
            {"case": rec.name, "order": order, "check": c.name, "pass": c.passed}
            | ({"detail": c.detail} if c.detail else {})
        )
    verdict = classify(rec.system, job.strategy)
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
        p.add_argument(
            "--strategy", choices=("auto", "exhaustive", "sampled"), default="auto"
        )
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--rebuild-cache", action="store_true")
    return parser


def _apply_flags(job: Job, args) -> Job:
    if args.order is not None:
        if args.order < 0:
            _fail_schema("--order must be nonnegative")
        job.order = args.order
    if args.prime:
        for p in args.prime:
            if not is_prime(p):
                _fail_schema(f"--prime {p} is not prime")
        job.primes = list(args.prime)
    if args.budget is not None:
        if args.budget < 0:
            _fail_schema("--budget must be nonnegative")
        job.strategy.budget = args.budget
    if args.strategy == "exhaustive":
        job.strategy.allow_fallback = False
    elif args.strategy == "sampled":
        job.strategy.budget = 0
        job.strategy.allow_fallback = True
    return job


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _read_job(args.job)
        job = _apply_flags(parse_job(doc, args.command), args)
        code = _DISPATCH[args.command](job, args)
    except SchemaError as exc:
        _summary(f"schema error: {exc}")
        code = EXIT_SCHEMA
    except CacheCorruptionError as exc:
        _summary(f"cache corruption: {exc} (use --rebuild-cache or --no-cache)")
        code = EXIT_CACHE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
