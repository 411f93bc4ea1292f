"""Record the stdout and cache-file digests that run.py checks against.

    python3 bench/make_references.py

Sets up bundle-cold, congruences and warm-reports as run.py does, runs one
pass of each job list with run.py's Runner in recording mode, and rewrites
``bench/references.json``.  Every other check (exit codes, the paper's
known answers) still applies, and any failure stops the recording.  Record
only from code whose reports are known to be right: the references pin
reports and cache files byte for byte.
"""

from __future__ import annotations

import json
import shutil

import run


def main():
    _, cli = run.import_mirrorint()
    base = run.ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    refs = {}
    for workload in ("bundle-cold", "congruences", "warm-reports"):
        _, runner, jobs = run.setup(cli, workload, 0, {}, str(base), record=True)
        try:
            _, failed, _ = run.run_pass(runner, jobs)
        finally:
            shutil.rmtree(runner.workdir, ignore_errors=True)
        if failed or runner.errors:
            raise SystemExit("\n".join([f"error: {workload} did not pass its checks"]
                                       + runner.errors))
        refs[workload] = runner.refs
        print(f"{workload}: {len(runner.refs)} references")
    with open(run.HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
