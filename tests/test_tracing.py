"""The benchmark's tracer on the CLI.

``bench/tracing.py`` wraps functions of the package by name, and some of
its hooks read private state (``PadicContext._q_cache`` on every ``Q``
call).  A refactor that removes such a name or breaks such a read makes
every traced benchmark run fail.  Here the tracer is installed on the
package and the commands run on the bundled systems at small orders: each
stdout and exit code must equal the untraced run's, and ``uninstall`` must
put back every name it replaced.
"""

import importlib.util
import json
import sys
from pathlib import Path

import mirrorint
from mirrorint import cli, dwork
from mirrorint.systems import BUNDLED

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names():
    """Every attribute of every loaded module of the package and of the
    classes they define, by (module, name[, attribute])."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "mirrorint" or name.startswith("mirrorint."):
            for key, value in vars(module).items():
                out[name, key] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update(((name, key, a), m) for a, m in vars(value).items())
    return out


def _jobs():
    """(argv, job) of each run: scan cold then warm, dwork, classify and
    congruences at p = 2 per bundled system, congruences at p = 3 on
    central-binomial, and case30."""
    orders = {1: 6, 2: 4}
    out = []
    for name, sys_ in BUNDLED.items():
        job = {"system": {"name": name}, "order": orders[sys_.d]}
        out += [(["scan"], job), (["scan"], job), (["dwork", "--prime", "2"], job),
                (["classify"], job), (["congruences", "--prime", "2"], {"system": {"name": name}})]
    out.append((["congruences", "--prime", "3"], {"system": {"name": "central-binomial"}}))
    out.append((["case", "--order", "6"], {"case": "case30"}))
    return out


def _run_all(tmp_path, capsys, cache):
    results = []
    for i, (argv, job) in enumerate(_jobs()):
        path = tmp_path / f"job{i}.json"
        path.write_text(json.dumps(job))
        code = cli.main([argv[0], str(path), *argv[1:], "--cache-dir", str(tmp_path / cache)])
        results.append((argv, code, capsys.readouterr().out))
    return results


def test_traced_commands_print_what_untraced_ones_do(tmp_path, capsys, monkeypatch):
    # with one p-adic digit, unit differences at p = 2 all vanish mod p, so
    # the ratio sweeps take their exact fallback through PadicContext.Q
    monkeypatch.setattr(dwork, "_R", 1)
    tracing = _tracing()
    plain = _run_all(tmp_path, capsys, "plain")
    before = _names()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, mirrorint)
    try:
        traced = _run_all(tmp_path, capsys, "traced")
    finally:
        tracing.uninstall(undo)
    after = _names()
    assert traced == plain
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    # the spans and hooks ran: the CLI, the cache, and PadicContext.Q with its
    # cache-hit hook (the exact fallback of the ratio sweeps)
    assert tracer.calls["cli.main"] == len(plain)
    assert tracer.counters["cli.load_bundle.hits"] == len(BUNDLED)
    assert tracer.calls["dwork.PadicContext.Q"] > tracer.counters["dwork.PadicContext.Q.hits"] > 0
    assert 0 < tracing.layer_metrics(tracer)["dwork.PadicContext.Q.hit_frac"] < 1
