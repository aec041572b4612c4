"""Smoke runs of the experiment scripts, the package's non-test callers."""

import os
import re
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


def test_uncovered_lines_reports_each_module():
    selection = "tests/test_field.py::test_is_primitive_classifies_degree_4"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "uncovered_lines.py"), "-q", "-p", "no:cacheprovider", selection],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    modules = sorted(path.name for path in (ROOT / "src" / "kerdock").glob("*.py"))
    report = proc.stdout.splitlines()[-len(modules) :]
    counts = {}
    for line in report:
        name, executable, missed = re.match(r"(\S+): (\d+) executable, (\d+) not run", line).groups()
        counts[name] = (int(executable), int(missed))
    assert sorted(counts) == modules
    # the selected test runs field code and never imports the CLI
    assert 0 < counts["field.py"][1] < counts["field.py"][0]
    assert counts["cli.py"][1] == counts["cli.py"][0]
