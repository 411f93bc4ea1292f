"""Spans around mirrorint's layers, installed from outside the package.

The traced run wraps chosen functions of each module (the layers
``forms``, ``landau``, ``series``, ``mirror``, ``dwork``, ``operators`` and
``cli``) with a span recorder.  A wrapper replaces the function in its
defining module or class and under every name another mirrorint module
bound it to with ``from ... import``; ``uninstall`` puts the originals
back.  Spans (name, start, end, parent, job) are kept in compact arrays
and written out once, at the end of the run.

Self time is computed on the fly: a span's duration minus the time its
wrapped child spans cover.  Work done inside a hook (counting terms or
bytes) is charged to nobody: the parent's child time covers it.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

# (module, attribute path) of every wrapped function, by layer.
TARGETS = (
    ("forms", "factorial_ratio"),
    ("forms", "vp_of_rational"),
    ("forms", "vp_ratio_legendre"),
    ("forms", "harmonic"),
    ("landau", "classify"),
    ("landau", "vertex_candidates"),
    ("landau", "grid_points"),
    ("landau", "delta_at"),
    ("series", "compose"),
    ("series", "invert_diagonal"),
    ("series", "MSeries.__mul__"),
    ("series", "MSeries.reciprocal"),
    ("series", "MSeries.exp"),
    ("series", "MSeries.log"),
    ("mirror", "build_bundle"),
    ("mirror", "build_F"),
    ("mirror", "build_Gk"),
    ("mirror", "build_GL"),
    ("mirror", "integrality_scan"),
    ("dwork", "verify_formal_congruences"),
    ("dwork", "q_ratio_congruence_sweep"),
    ("dwork", "PadicContext.Q"),
    ("dwork", "PadicContext.mu"),
    ("dwork", "good_residues"),
    ("dwork", "excluded_indices"),
    ("dwork", "dieudonne_dwork_check"),
    ("operators", "verify_annihilation"),
    ("cli", "main"),
    ("cli", "load_bundle"),
    ("cli", "save_bundle"),
)


class Tracer:
    """Records nested spans and per-name totals for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.job = -1
        # span columns
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        # open spans: [name id, span index, child seconds]
        self._stack: list[list] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def inside(self, name: str) -> bool:
        """True when a span of ``name`` is open (an ancestor of the caller)."""
        nid = self._name_ids.get(name)
        return nid is not None and any(frame[0] == nid for frame in self._stack)

    def call(self, name: str, fn, args, kwargs, before=None, after=None):
        """Run ``fn`` inside a span; ``before``/``after`` feed counters."""
        nid = self.name_id(name)
        cover = self.clock()
        if before is not None:
            before(self, args, kwargs)
        index = len(self.span_start)
        parent = self._stack[-1][1] if self._stack else -1
        frame = [nid, index, 0.0]
        self._stack.append(frame)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        result = exc = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            self.span_start[index] = start
            self.span_end[index] = end
            self.calls[name] += 1
            self.self_s[name] += (end - start) - frame[2]
            self.total_s[name] += end - start
            if after is not None:
                after(self, args, kwargs, result, exc)
            if self._stack:
                self._stack[-1][2] += self.clock() - cover

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return wrapper

    def inclusive_by_job(self, name: str) -> dict[int, float]:
        """Summed duration of the ``name`` spans, per job id."""
        nid = self._name_ids.get(name)
        out: dict[int, float] = {}
        for i, n in enumerate(self.span_name):
            if n == nid:
                job = self.span_job[i]
                out[job] = out.get(job, 0.0) + self.span_end[i] - self.span_start[i]
        return out

    def write(self, path: str, job_names: list[str]):
        """Write every span as one JSON array per line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "jobs": job_names,
                                 "columns": ["name", "start", "end", "parent", "job"]}))
            fh.write("\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_start[i]!r},{self.span_end[i]!r},"
                    f"{self.span_parent[i]},{self.span_job[i]}]\n"
                )


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens


def _series_out(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    outs = result if isinstance(result, list) else [result]
    bits = tracer.counters["series.max_coeff_bits"]
    for s in outs:
        tracer.counters["series.out_terms"] += len(s)
        for _, c in s._terms.items():
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
    tracer.counters["series.max_coeff_bits"] = bits


def _compose_before(tracer, args, kwargs):
    if tracer.inside("series.invert_diagonal"):
        tracer.counters["series.compose.in_inversion"] += 1


def _points(key):
    def after(tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.counters[key] += len(result)

    return after


def _classify_after(tracer, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "StrategyDisagreementError":
            tracer.counters["landau.classify.disagreements"] += 1
        return
    tracer.counters["landau.classify.returned"] += 1
    tracer.counters["landau.classify.sampled"] += int(result.sampled)
    if result.certificate is not None:
        tracer.counters["landau.certificate_points"] += len(result.certificate)


def _scan_before(tracer, args, kwargs):
    tracer.counters["mirror.integrality_scan.coeffs"] += len(args[0])


def _q_before(tracer, args, kwargs):
    ctx, n = args[0], args[1]
    if tuple(int(c) for c in n) in ctx._q_cache:
        tracer.counters["dwork.PadicContext.Q.hits"] += 1


def _dir_bytes(root: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(root) if e.is_file())


def _cli_hooks(cli):
    def load_after(tracer, args, kwargs, result, exc):
        if exc is None and result is not None:
            sys_, order, cache_dir = args[:3]
            tracer.counters["cli.load_bundle.hits"] += 1
            tracer.counters["cli.load_bundle.bytes_read"] += _dir_bytes(
                os.path.join(cache_dir, cli._cache_key(sys_, order))
            )

    def save_after(tracer, args, kwargs, result, exc):
        if exc is None:
            bundle, cache_dir = args[:2]
            tracer.counters["cli.save_bundle.bytes_written"] += _dir_bytes(
                os.path.join(cache_dir, cli._cache_key(bundle.sys, bundle.order))
            )

    return load_after, save_after


# ---------------------------------------------------------------------------
# installation


def _resolve(owner, path: str):
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the (owner, attribute, original) undo list."""
    import importlib
    import sys

    mods = {n: importlib.import_module(f"{package.__name__}.{n}") for n, _ in TARGETS}
    load_after, save_after = _cli_hooks(mods["cli"])
    hooks = {
        "series.compose": (_compose_before, _series_out),
        "series.invert_diagonal": (None, _series_out),
        "series.MSeries.reciprocal": (None, _series_out),
        "series.MSeries.exp": (None, _series_out),
        "series.MSeries.log": (None, _series_out),
        "landau.classify": (None, _classify_after),
        "landau.vertex_candidates": (None, _points("landau.vertex_candidates.points")),
        "landau.grid_points": (None, _points("landau.grid_points.points")),
        "mirror.integrality_scan": (_scan_before, None),
        "dwork.PadicContext.Q": (_q_before, None),
        "cli.load_bundle": (None, load_after),
        "cli.save_bundle": (None, save_after),
    }
    prefix = package.__name__ + "."
    loaded = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(prefix)]
    undo = []
    for modname, path in TARGETS:
        name = f"{modname}.{path}"
        owner, attr = _resolve(mods[modname], path)
        original = owner.__dict__[attr]
        before, after = hooks.get(name, (None, None))
        wrapper = tracer.wrap(name, original, before, after)
        # the defining module or class, its aliases (__rmul__ = __mul__),
        # and every module that bound the function by name
        holders = [owner] + ([] if isinstance(owner, type) else loaded)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    return undo


def uninstall(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics


# (name, unit, better) of every per-layer metric, in output order.  The
# last two are measured by run.py; layer_metrics gives all the others.
PER_LAYER = tuple(
    (f"{modname}.{path}.{stat}", unit, "lower")
    for modname, path in TARGETS
    for stat, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("mirror.build_bundle.total_s", "s", "lower"),
    ("series.invert_diagonal.total_s", "s", "lower"),
    ("landau.vertex_candidates.points", "count", "lower"),
    ("landau.grid_points.points", "count", "lower"),
    ("landau.certificate_frac", "ratio", "higher"),
    ("landau.disagreement_frac", "ratio", "lower"),
    ("landau.sampled_frac", "ratio", "lower"),
    ("series.compose.calls_per_inversion", "count", "lower"),
    ("series.out_terms", "count", "lower"),
    ("series.max_coeff_bits", "bits", "lower"),
    ("mirror.integrality_scan.coeffs", "count", "lower"),
    ("dwork.PadicContext.Q.hit_frac", "ratio", "higher"),
    ("cli.load_bundle.bytes_read", "B", "lower"),
    ("cli.save_bundle.bytes_written", "B", "lower"),
    ("cli.cache_hit_frac", "ratio", "higher"),
    ("cli.stdout_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric measured from the spans, keyed as in PER_LAYER."""
    c, calls, self_s = tracer.counters, tracer.calls, tracer.self_s
    out: dict[str, float] = {}
    for modname, path in TARGETS:
        name = f"{modname}.{path}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = float(self_s[name])
    # inclusive time of the bundle build and of the inversion inside it
    for name in ("mirror.build_bundle", "series.invert_diagonal"):
        out[f"{name}.total_s"] = float(tracer.total_s[name])
    out["landau.vertex_candidates.points"] = c["landau.vertex_candidates.points"]
    out["landau.grid_points.points"] = c["landau.grid_points.points"]
    out["landau.certificate_frac"] = _frac(
        c["landau.certificate_points"], calls["landau.delta_at"]
    )
    out["landau.disagreement_frac"] = _frac(
        c["landau.classify.disagreements"], calls["landau.classify"]
    )
    out["landau.sampled_frac"] = _frac(
        c["landau.classify.sampled"], c["landau.classify.returned"]
    )
    out["series.compose.calls_per_inversion"] = _frac(
        c["series.compose.in_inversion"], calls["series.invert_diagonal"]
    )
    out["series.out_terms"] = c["series.out_terms"]
    out["series.max_coeff_bits"] = c["series.max_coeff_bits"]
    out["mirror.integrality_scan.coeffs"] = c["mirror.integrality_scan.coeffs"]
    out["dwork.PadicContext.Q.hit_frac"] = _frac(
        c["dwork.PadicContext.Q.hits"], calls["dwork.PadicContext.Q"]
    )
    out["cli.load_bundle.bytes_read"] = c["cli.load_bundle.bytes_read"]
    out["cli.save_bundle.bytes_written"] = c["cli.save_bundle.bytes_written"]
    out["cli.cache_hit_frac"] = _frac(
        c["cli.load_bundle.hits"], calls["cli.load_bundle"]
    )
    return out
