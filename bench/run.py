"""mirrorint benchmark: time to a checked verdict, end to end and per layer.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing is installed):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one client, a closed loop: each job is a ``mirrorint``
command run through ``mirrorint.cli.main`` with stdout captured, and the
next job starts when the previous one returns.  Workloads (see
``workloads.py``):

  bundle-cold     scan of three systems against empty caches; bundle
                  construction and the compositional inversion dominate.
  congruences     the formal-congruence harness on three systems; the
                  p-adic kernel dominates and the series engine is idle.
  classify-batch  one classify job per system of a seeded draw; the
                  Landau classifier does all the work.
  warm-reports    scan, dwork and classify on every bundled system plus
                  case30, against a cache filled in setup.

With ``--trace 0`` the fixed job list runs in passes until ``--seconds``
have passed, and the last stdout line holds the end-to-end metrics.  With
``--trace 1`` one untraced and one traced pass run, the spans go to
``.bench_out/``, and the last line holds the per-layer metrics.  Every
job's output is checked; see ``workloads.py`` and ``references.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
PROBE_CAP_S = 8.0
# Congruence runs that have not been seen to finish; attempted once, capped.
PROBES = (
    ("probe/congruences/cubic-2d/p5", "cubic-2d", 5),
    ("probe/congruences/central-binomial/p7", "central-binomial", 7),
)

# The metrics of the last line.  job_p50_s, job_p90_s and failed_frac are
# printed too, but kept out of it: the median job of a short fixed list is
# one job's time and swings with the machine more than whole passes do,
# p90 needs at least 100 jobs in a run, and failed_frac is 0 on most
# workloads (failures are counted in "failed").
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class ProbeTimeout(BaseException):
    """Raised by the alarm that caps a probe."""


def import_mirrorint():
    if not (SRC / "mirrorint" / "__init__.py").is_file():
        raise SystemExit(f"error: no mirrorint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mirrorint
    from mirrorint import cli

    if Path(mirrorint.__file__).resolve().parent != SRC / "mirrorint":
        raise SystemExit(f"error: imported mirrorint from {mirrorint.__file__}, not {SRC}")
    return mirrorint, cli


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    """Runs jobs through ``cli.main`` inside one work directory.

    With ``record`` set, the digests that are otherwise compared with
    ``refs`` are written into it instead; every other check still runs.
    ``wrong`` counts wrong verdicts, nondeterminism and reference
    mismatches; any one of them makes the run incorrect.
    """

    def __init__(self, cli, workdir: str, refs: dict, record: bool = False):
        self.cli = cli
        self.workdir = workdir
        self.refs = refs
        self.record = record
        self.warm_cache = os.path.join(workdir, "cache")
        self.paths: dict[str, str] = {}
        self.first: dict[str, tuple] = {}
        self.tags: Counter = Counter()
        self.errors: list[str] = []
        self.wrong = 0
        self._fresh = 0

    def write_jobs(self, jobs):
        jobdir = os.path.join(self.workdir, "jobs")
        os.makedirs(jobdir, exist_ok=True)
        for job in jobs:
            if job.id in self.paths:
                continue
            path = os.path.join(jobdir, f"{len(self.paths)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job.doc, fh)
            self.paths[job.id] = path

    def cache_dir(self, job) -> str | None:
        if job.cache == "warm":
            return self.warm_cache
        if job.cache == "cold":
            self._fresh += 1
            path = os.path.join(self.workdir, f"cold{self._fresh}")
            os.makedirs(path)
            return path
        return None

    def run(self, job, cache_dir):
        """Run one job; returns (seconds, exit code or exception, stdout)."""
        argv = [job.command, self.paths[job.id], *job.flags]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback from the CLI is a failed job
            code = exc
        return time.perf_counter() - start, code, out.getvalue()

    def check(self, job, code, stdout: str, cache_dir) -> bool:
        """True if one finished job failed; reasons go to ``errors``.

        A job that raises has failed, and is wrong as well unless it is a
        drawn classify job that raises on every pass: the classifier's
        StrategyDisagreementError on a draw is a counted failure.  A fixed
        job has a known answer, so raising is a wrong verdict.
        """
        try:
            if isinstance(code, BaseException):
                why = f"raised {type(code).__name__}: {code}"
                if job.system is None:
                    wrong = True
                elif job.id in self.first:
                    wrong = self.first[job.id] is not None
                    if wrong:
                        why += " after a clean first pass"
                else:
                    self.tags[type(code).__name__] += 1
                    self.first[job.id] = None
                    wrong = False
            else:
                why = self._why_wrong(job, code, stdout, cache_dir)
                wrong = why is not None
        finally:
            if job.cache == "cold":
                shutil.rmtree(cache_dir)
        if why is None:
            return False
        self.errors.append(f"{job.id}: {why}")
        self.wrong += wrong
        return True

    def against_reference(self, key: str, field: str, value) -> str | None:
        """Compare ``value`` with the recorded one, or record it."""
        if self.record:
            self.refs.setdefault(key, {})[field] = value
            return None
        recorded = self.refs.get(key, {}).get(field)
        if recorded is None:
            return f"no recorded {field}"
        if recorded != value:
            return f"{field} {value!r} differs from the recorded {recorded!r}"
        return None

    def _why_wrong(self, job, code, stdout: str, cache_dir):
        digest = wl.sha256(stdout.encode())
        if job.cache == "cold":
            why = self.against_reference(job.id, "cache", wl.tree_digest(cache_dir))
            if why is not None:
                return why
        if job.id in self.first:
            # later passes must repeat the first one byte for byte
            if (digest, code) != self.first[job.id]:
                return "stdout or exit code differs from the first pass"
            return None
        self.first[job.id] = (digest, code)
        lines = [json.loads(line) for line in stdout.splitlines()]
        if job.command == "classify" and lines:
            self.tags[lines[0].get("tag")] += 1
        if job.expect_exit is not None and code != job.expect_exit:
            return f"exit {code}, expected {job.expect_exit}"
        if job.system is not None:
            # drawn systems: no recorded bytes, the verdict is re-derived
            return wl.check_classify(*job.system, code, lines)
        why = wl.known_answer(job, lines)
        if why is None and job.command == "classify":
            why = wl.check_classify_exit(code, lines)
        if why is not None:
            return why
        return (self.against_reference(job.id, "exit", code)
                or self.against_reference(job.id, "stdout", digest))


def setup(cli, workload: str, seed: int, references: dict, base: str,
          record: bool = False):
    """Generate the inputs and fill the cache; returns (seconds, runner, jobs).

    The time includes a fresh interpreter importing mirrorint, which is what
    every command-line call pays before any work.  ``record`` is passed on
    to the Runner.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import mirrorint"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT, check=True,
    )
    workdir = tempfile.mkdtemp(dir=base)
    runner = Runner(cli, workdir, references.get(workload, {}), record)
    jobs = wl.jobs_for(workload, seed)
    runner.write_jobs(jobs)
    if workload == "warm-reports":
        fill = wl.warm_fill_jobs()
        runner.write_jobs(fill)
        for job in fill:
            _, code, _ = runner.run(job, runner.warm_cache)
            if code != 0:
                raise RuntimeError(f"cache fill {job.id} exited {code!r}")
    seconds = time.perf_counter() - start
    if workload == "warm-reports":
        why = runner.against_reference("fill", "cache", wl.tree_digest(runner.warm_cache))
        if why is not None:
            runner.errors.append(f"fill: {why}")
            runner.wrong += 1
    return seconds, runner, jobs


def more_setups(times: list, trace: bool) -> bool:
    """Once when tracing; otherwise SETUP_REPEATS times and on until
    SETUP_MIN_S have gone into set-up, so a cheap set-up gives more samples."""
    if trace:
        return not times
    if len(times) < SETUP_REPEATS:
        return True
    return sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS


def run_pass(runner: Runner, jobs, tracer=None):
    """One pass over the job list; returns (job seconds, failed, stdout bytes)."""
    times, failed, out_bytes = [], 0, 0
    for i, job in enumerate(jobs):
        cache_dir = runner.cache_dir(job)
        if tracer is not None:
            tracer.job = i
        seconds, code, stdout = runner.run(job, cache_dir)
        times.append(seconds)
        out_bytes += len(stdout.encode())
        failed += runner.check(job, code, stdout, cache_dir)
    return times, failed, out_bytes


# ---------------------------------------------------------------------------
# reporting


def emit(name: str, value, unit: str):
    print(f"{name} = {value!r} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, spec) -> str:
    units = {name: unit for name, unit, _ in spec}
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _, _ in spec},
    })


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def measure(runner, jobs, seconds: float, setup_times: list):
    walls, times, failed = [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t, f, _ = run_pass(runner, jobs)
        walls.append(sum(t))
        times += t
        failed += f
    total = sum(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "jobs_per_s": (len(times) - failed) / total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, unit, _ in END_TO_END:
        emit(name, metrics[name], unit)
    emit("job_p50_s", statistics.median(times), "s")
    emit("failed_frac", failed / len(times), "ratio")
    if len(times) >= 100:
        # at least ten samples lie beyond the 90th percentile
        emit("job_p90_s", statistics.quantiles(times, n=10)[-1], "s")
    print(f"jobs = {len(times)} in {len(walls)} passes of {len(jobs)}; "
          f"setup_s is the median of {len(setup_times)} set-ups")
    return metrics, len(times), failed


def probe(runner, tracer, index, job_id, system, p):
    """Attempt one congruence run under the cap, traced on its own."""
    job = wl.Job(job_id, "congruences", {"system": {"name": system}}, ["--prime", str(p)])
    runner.write_jobs([job])
    tracer.job = index

    def alarm(signum, frame):
        raise ProbeTimeout()

    before = Counter(tracer.self_s)
    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_CAP_S)
    try:
        seconds, code, _ = runner.run(job, None)
        status = f"finished exit {code} in {seconds:.3f} s"
    except ProbeTimeout:
        status = f"timed_out cap_s={PROBE_CAP_S}"
        tracer._stack.clear()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    top = (Counter(tracer.self_s) - before).most_common(3)
    where = ", ".join(f"{k} {v:.2f} s" for k, v in top)
    print(f"probe {job_id}: {status}; most self time: {where}")


def traced_run(mirrorint, runner, jobs, workload: str, seed: int):
    untraced, f0, _ = run_pass(runner, jobs)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, mirrorint)
    try:
        traced, f1, out_bytes = run_pass(runner, jobs, tracer)
    finally:
        tracing.uninstall(undo)
    names = [job.id for job in jobs]
    if workload == "congruences":
        probes = tracing.Tracer()
        undo = tracing.install(probes, mirrorint)
        try:
            for i, (job_id, system, p) in enumerate(PROBES):
                probe(runner, probes, i, job_id, system, p)
        finally:
            tracing.uninstall(undo)
        path = HERE.parent / ".bench_out" / f"spans-probes-seed{seed}.jsonl.gz"
        probes.write(str(path), [job_id for job_id, _, _ in PROBES])
    env = environment()
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    overhead = sum(traced) - sum(untraced)
    print(f"untraced wall_s {sum(untraced)!r}, traced wall_s {sum(traced)!r}")
    build = tracer.inclusive_by_job("mirror.build_bundle")
    invert = tracer.inclusive_by_job("series.invert_diagonal")
    compose = tracer.self_s["series.compose"]
    for i, seconds in sorted(build.items()):
        share = invert.get(i, 0.0) / seconds
        print(f"trace {names[i]}: build_bundle {seconds:.3f} s, "
              f"invert_diagonal {invert.get(i, 0.0):.3f} s ({share:.0%})")
    if build:
        total = sum(build.values())
        both = tracer.self_s["series.invert_diagonal"] + compose
        print(f"trace: invert_diagonal + compose self time {both:.3f} s "
              f"of {total:.3f} s building ({both / total:.0%})")
    out = HERE.parent / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(str(out), names)
    print(f"spans: {len(tracer.span_start)} written to {out.relative_to(ROOT)}")
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.stdout_bytes"] = out_bytes
    metrics["trace.overhead_s"] = overhead
    spec = tracing.PER_LAYER
    for name, unit, _ in spec:
        emit(name, metrics[name], unit)
    return metrics, spec, len(jobs) * 2, f0 + f1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mirrorint, cli = import_mirrorint()
    with open(HERE / "references.json", encoding="utf-8") as fh:
        references = json.load(fh)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    setup_times, errors, wrong, runner = [], [], 0, None
    try:
        while more_setups(setup_times, args.trace):
            if runner is not None:
                errors += runner.errors
                wrong += runner.wrong
                shutil.rmtree(runner.workdir)
            seconds, runner, jobs = setup(cli, args.workload, args.seed, references, str(base))
            setup_times.append(seconds)
        if args.trace:
            metrics, spec, attempted, failed = traced_run(
                mirrorint, runner, jobs, args.workload, args.seed)
        else:
            spec = END_TO_END
            metrics, attempted, failed = measure(
                runner, jobs, args.seconds, setup_times)
    finally:
        if runner is not None:
            shutil.rmtree(runner.workdir, ignore_errors=True)
    errors += runner.errors
    wrong += runner.wrong
    if runner.tags:
        mix = ", ".join(f"{k}={v}" for k, v in sorted(runner.tags.items()))
        print(f"classify verdicts (first pass): {mix}")
    for line in errors[:20]:
        print(f"check: {line}")
    if len(errors) > 20:
        print(f"check: ... {len(errors) - 20} more")
    print(result_line(wrong == 0, attempted, failed, metrics, spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
