"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_span_minus_wrapped_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner(dt):
        clock.advance(dt)

    inner_w = tracer.wrap("inner", inner)

    def outer():
        clock.advance(1)
        inner_w(2)
        clock.advance(3)
        inner_w(4)

    tracer.wrap("outer", outer)()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s["outer"] == 4
    assert tracer.self_s["inner"] == 6
    assert tracer.total_s["outer"] == 10
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert [e - s for s, e in zip(tracer.span_start, tracer.span_end)] == [10, 2, 4]


def test_self_time_survives_exceptions_and_excludes_hook_work():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def failing():
        clock.advance(5)
        raise KeyError("x")

    def slow_hook(tracer_, args, kwargs, result, exc):
        clock.advance(100)  # counting work inside a hook is nobody's self time

    failing_w = tracer.wrap("failing", failing, after=slow_hook)

    def outer():
        clock.advance(1)
        with pytest.raises(KeyError):
            failing_w()

    tracer.wrap("outer", outer)()
    assert tracer.self_s["failing"] == 5
    assert tracer.self_s["outer"] == 1
    assert tracer._stack == []


def test_classify_draw_is_deterministic_per_seed():
    first = wl.classify_systems(7)
    assert first == wl.classify_systems(7)
    assert first != wl.classify_systems(8)
    assert len(first) == wl.N_2D + wl.N_3D
    for e, f in first:
        assert len(e) == 1 and f
        assert e[0] not in f
        assert all(0 <= c <= 3 for v in e + f for c in v)
        assert all(any(v) for v in f)
    assert [len(e[0]) for e, _ in first].count(3) == wl.N_3D


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == list(tracing.PER_LAYER)
    measured = list(tracing.layer_metrics(tracing.Tracer()))
    assert measured + ["cli.stdout_bytes", "trace.overhead_s"] == [n for n, _, _ in layer]
    line = json.loads(run.result_line(True, 1, 0, {n: 1.0 for n, _, _ in e2e}, e2e))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert list(line["metrics"]) == [n for n, _, _ in e2e]


def test_check_classify_reevaluates_certificates():
    # cubic-2d: delta = floor(3x+3y) on the box, >= 1 on the jump region
    e, f = [[3, 3]], [[1, 0]] * 3 + [[0, 1]] * 3
    good = {"tag": "CaseI", "sampled": False, "certificate_size": 1,
            "certificate": [{"point": ["1/3", "0"], "delta": 1}]}
    assert wl.check_classify(e, f, 0, [good]) is None
    assert wl.check_classify(e, f, 10, [good]) is not None
    forged = dict(good, certificate=[{"point": ["1/3", "0"], "delta": 2}])
    assert "stated" in wl.check_classify(e, f, 0, [forged])
    off = dict(good, certificate=[{"point": ["0", "0"], "delta": 1}])
    assert "jump region" in wl.check_classify(e, f, 0, [off])
    split = ([[3, 0]], [[2, 0], [1, 0]])
    witness = {"tag": "CaseII", "sampled": False, "witness": ["1/2", "0"]}
    assert wl.check_classify(*split, 10, [witness]) is None
    assert wl.check_classify(*split, 10, [dict(witness, witness=["2/3", "0"])])


def test_check_classify_refutes_case_i_with_a_zero_on_the_grid():
    # The vertex strategy calls this system CaseI; delta is zero at
    # (1/10, 19/20) on the jump region, so CaseII is right.
    e, f = [[2, 1]], [[1, 1], [1, 0]]
    assert wl.floor_sum(e, f, [Fraction(1, 10), Fraction(19, 20)]) == 0
    case_i = {"tag": "CaseI", "sampled": False, "certificate_size": 1,
              "certificate": [{"point": ["1/2", "0"], "delta": 1}]}
    assert "zero" in wl.check_classify(e, f, 0, [case_i])
    _, zero = wl.grid_search(e, f)
    assert zero is not None and wl.floor_sum(e, f, zero) == 0
    witness = {"tag": "CaseII", "sampled": False, "witness": [str(c) for c in zero]}
    assert wl.check_classify(e, f, 10, [witness]) is None


def test_check_classify_refutes_nonnegativity_claims():
    # delta = floor(x + y) - floor(2x) is -1 at (1/2, 0)
    e, f = [[1, 1]], [[2, 0], [0, 1]]
    negative, _ = wl.grid_search(e, f)
    assert wl.floor_sum(e, f, negative) < 0
    for tag, code in (("CaseII", 10), ("EStrictlyBigger", 12)):
        verdict = {"tag": tag, "sampled": False, "witness": ["0", "0"], "coordinate": 1}
        assert "negative" in wl.check_classify(e, f, code, [verdict])


class FakeCli:
    """A stand-in for mirrorint.cli whose main raises on chosen calls."""

    def __init__(self, raises):
        self.raises = list(raises)

    def main(self, argv):
        if self.raises.pop(0):
            raise RuntimeError("boom")
        print('{"tag": "CaseII", "sampled": false, "witness": ["1/2", "0"]}')
        return 10


def _runner(tmp_path, raises):
    return run.Runner(FakeCli(raises), str(tmp_path), {})


def test_a_fixed_job_that_raises_is_wrong(tmp_path):
    runner = _runner(tmp_path, [True])
    job = wl.Job("congruences/cubic-2d/p2p3", "congruences", {"system": {"name": "cubic-2d"}})
    runner.write_jobs([job])
    _, failed, _ = run.run_pass(runner, [job])
    assert failed == 1 and runner.wrong == 1


def test_a_drawn_job_that_raises_is_failed_and_wrong_only_if_it_changes(tmp_path):
    split = ([[3, 0]], [[2, 0], [1, 0]])
    job = wl.Job("classify/0", "classify", {"system": {"e": split[0], "f": split[1]}},
                 expect_exit=None, system=split)
    runner = _runner(tmp_path, [True, True])
    runner.write_jobs([job])
    assert run.run_pass(runner, [job])[1] == 1
    assert run.run_pass(runner, [job])[1] == 1
    assert runner.wrong == 0 and runner.tags == {"RuntimeError": 1}
    for raises in ([False, True], [True, False]):
        runner = _runner(tmp_path / str(raises), raises)
        runner.write_jobs([job])
        run.run_pass(runner, [job])
        run.run_pass(runner, [job])
        assert runner.wrong == 1


def test_tracing_patches_by_name_imports_and_restores_them():
    mirrorint, _ = run.import_mirrorint()
    from mirrorint import cli, mirror, series

    originals = (series.invert_diagonal, mirror.invert_diagonal, cli.build_bundle,
                 series.MSeries.__dict__["__rmul__"])
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, mirrorint)
    try:
        assert mirror.invert_diagonal is series.invert_diagonal
        assert mirror.invert_diagonal.__wrapped__ is originals[0]
        assert cli.build_bundle is mirror.build_bundle is mirrorint.build_bundle
        assert series.MSeries.__dict__["__rmul__"] is series.MSeries.__dict__["__mul__"]
        bundle = cli.build_bundle(mirrorint.BUNDLED["central-binomial"], 4)
    finally:
        tracing.uninstall(undo)
    assert (series.invert_diagonal, mirror.invert_diagonal, cli.build_bundle,
            series.MSeries.__dict__["__rmul__"]) == originals
    assert bundle.zofq[0].coeff((1,)) == 1
    metrics = tracing.layer_metrics(tracer)
    assert metrics["series.invert_diagonal.calls"] == 1
    assert metrics["mirror.build_bundle.calls"] == 1
    assert metrics["series.compose.calls_per_inversion"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bundle-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
