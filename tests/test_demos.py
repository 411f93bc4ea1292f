"""Every demo script runs to completion against the sources and prints the
bytes recorded here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a change to what a demo prints must update it
STDOUT_SHA256 = {
    "01_classify_systems": "af43317104fef46b600fbe2b9bc804f284a035c3103f5d3ec1ffaf33ddac6bd9",
    "02_series_toolkit": "c653e96868ddd7d5c40ffff1a61e54e21c7949e2d9cfbc39ee33ae1e02feddc0",
    "03_mirror_bundles": "ebdff788b88a596fe119ee37b473554c47b74722b768456c8e1bea79f5602ebc",
    "04_padic_congruences": "a35d19add6883cd228fef55304846c6b42e9cac89942046dd4032887498a1f16",
    "05_case30": "897880b22f7c41d3f1f36029debb726a0556bf6e3b2c5b37fc56f54258608ce6",
}


def test_demos_are_found():
    assert [demo.stem for demo in DEMOS] == list(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
