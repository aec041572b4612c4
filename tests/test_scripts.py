"""Smoke runs of the experiment scripts, the package's non-test callers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["noise_sweep.py", "--n", "5", "--k", "4", "--trials", "2", "--fractions", "0.0,1.0"],
        ["coherence_check.py", "--n", "4", "--pairs", "200"],
        ["pursuit_error.py", "--n", "6", "--terms", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
