"""Kerdock benchmark: seeded decode and pursuit workloads, one per process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense-list --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run is a closed loop with one caller: the next operation starts when the
previous one has returned and been checked. Every operation is checked
against the exhaustive references; a raised exception or a failed check
counts as a failure. With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes over the first-pass
inputs and reports the per-layer metrics, including its own overhead. The
last line of stdout is one JSON object; a record of the run's context goes
to .perfbench/ in the checkout. ``--workload all`` runs each workload in its
own process and prints every end-to-end metric as a table.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.summary import median, percentile  # noqa: E402  (imports only the standard library)
RECORD_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5  # set-ups per run (this process plus fresh interpreters); the median is reported
NAMES = ("dense-list", "pursuit", "lean-sweep", "robust-sampled")

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "queries_per_op": ("count", "lower"),
    "recall": ("ratio", "higher"),
    "ok_frac": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """Leave numpy's BLAS at no more threads than this process may run on."""
    nproc = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > nproc:
            os.environ[var] = str(nproc)


def _blas_threads() -> Optional[int]:
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _load_package():
    """Import kerdock from this checkout's src/, or exit without a result."""
    if not (SRC / "kerdock" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kerdock sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kerdock

    if Path(kerdock.__file__).resolve().parent != (SRC / "kerdock").resolve():
        sys.exit(f"perfbench: imported kerdock from {kerdock.__file__}, not from {SRC}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kerdock").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _setup_samples(args, count: int) -> List[Dict[str, float]]:
    """Repeat set-up in fresh interpreters; each reports its own timings."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _median_setup(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: median([s[key] for s in samples]) for key in samples[0]}


class Loop:
    """Runs operations, checks each one, and keeps what the metrics need."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: List[str] = []
        self.check_s: List[float] = []
        self.digests: Dict[int, str] = {}  # first-pass index -> output digest

    def run(self, i: int, tracer=None):
        from perfbench.workloads import digest_terms, run_case

        case = self.workload.case_at(i)
        frame = None
        if tracer is not None:
            tracer.reset()
            tracer.context["k"] = case.params.k
            frame = tracer.enter("op")
        outcome, seconds = run_case(case)
        if frame is not None:
            tracer.leave(frame, seconds)
        t0 = time.perf_counter()
        if outcome.failure is None:
            self.workload.check(case, outcome)
        if outcome.failure is None and i < self.workload.first_pass:
            digest = digest_terms(outcome.terms)
            if self.digests.setdefault(i, digest) != digest:
                outcome.failure = "output differs from an earlier run of the same input"
        self.check_s.append(time.perf_counter() - t0)
        self.attempted += 1
        if outcome.failure is not None:
            self.failures.append(f"{self.workload.name}[{i}]: {outcome.failure}")
            print(f"perfbench: FAILED {self.failures[-1]}", file=sys.stderr)
        return outcome, seconds


def measure(workload, seconds: float):
    """Untraced closed loop: fresh inputs until the time is up and the first pass is done.

    The timing that is reported is ops_per_s, a mean over every operation.
    Quantiles of the time per round (a round covers each input class once)
    go to the record only: the host alternates between a fast and a slow
    state about 1.7x apart, so any quantile of a run flips between the two
    with the share of the run each state holds, while the mean moves with
    that share smoothly.
    """
    loop = Loop(workload)
    times, outcomes = [], []
    size = workload.round_size
    t0 = time.perf_counter()
    i = 0
    while i < workload.first_pass or i % size or time.perf_counter() - t0 < seconds:
        outcome, dt = loop.run(i)
        times.append(dt)
        outcomes.append(outcome)
        i += 1
    rounds = [sum(times[j : j + size]) / size for j in range(0, len(times), size)]
    first = outcomes[: workload.first_pass]
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "queries_per_op": sum(o.reads for o in first) / len(first),
        "recall": sum(o.recovered for o in first) / max(sum(o.planted for o in first), 1),
        "ok_frac": 1.0 - len(loop.failures) / loop.attempted,
    }
    info = {
        "ops": len(times),
        "rounds": len(rounds),
        "round_s_p10": percentile(rounds, 10),
        "round_s_p50": median(rounds),
        "op_seconds": times,
    }
    return loop, metrics, info


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced passes over the first-pass inputs."""
    from perfbench.layers import HOOKS, op_values
    from perfbench.spans import Tracer

    loop = Loop(workload)
    tracer = Tracer(HOOKS)
    plain: List[float] = []
    traced: List[float] = []
    values: List[Dict[str, float]] = []
    spans: Dict[str, dict] = {}
    bindings: List[str] = []
    t0 = time.perf_counter()
    traced_pass = False
    while not (plain and traced) or time.perf_counter() - t0 < seconds:
        if traced_pass:
            tracer.install()
            bindings = list(tracer.bindings)
        try:
            for i in range(workload.first_pass):
                outcome, dt = loop.run(i, tracer if traced_pass else None)
                if not traced_pass:
                    plain.append(dt)
                    continue
                traced.append(dt)
                snap = tracer.snapshot()
                values.append(op_values(snap, outcome.reads, outcome.approx_err))
                _accumulate(spans, snap)
        finally:
            tracer.uninstall()
        traced_pass = not traced_pass
    run = {
        "oracle.check_s": sum(loop.check_s) / len(loop.check_s),
        "trace.op_s": sum(traced) / len(traced),
        "trace.overhead_frac": (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0,
    }
    info = {
        "ops": len(plain) + len(traced),
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "wrapped": bindings,
        "missing": dict(tracer.missing),
        "spans": spans,  # summed over traced operations; edges are "parent>child": [calls, s]
    }
    return loop, values, run, info


def _accumulate(into: Dict[str, dict], snap: Dict[str, dict]) -> None:
    for part, table in snap.items():
        acc = into.setdefault(part, {})
        for key, value in table.items():
            if isinstance(value, list):
                acc[key] = [a + b for a, b in zip(acc.get(key, [0, 0.0]), value)]
            else:
                acc[key] = acc.get(key, 0) + value


def run_workload(args) -> int:
    _cap_blas_threads()
    _load_package()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    phases = workload.setup()
    first = {"setup_s": time.perf_counter() - T_START, **phases}
    if args.setup_only:
        print(json.dumps(first))
        return 0
    # half the set-ups before the timed loop and half after, so that they
    # sample the machine over the same stretch of time as the operations
    setup_runs = [first] + _setup_samples(args, SETUP_SAMPLES // 2)
    if args.trace:
        loop, values, run, info = measure_traced(workload, args.seconds)
    else:
        loop, raw, info = measure(workload, args.seconds)
    setup_runs += _setup_samples(args, SETUP_SAMPLES - len(setup_runs))
    setup = _median_setup(setup_runs)

    import numpy as np

    if args.trace:
        from perfbench.layers import summarize

        metrics = summarize(values, values[: workload.first_pass], setup, run, info["missing"])
    else:
        raw["setup_s"] = setup["setup_s"]
        raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": raw[name], "unit": END_TO_END[name][0]} for name in END_TO_END}

    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": _nproc(),
        "blas_threads": _blas_threads(),
        "first_pass": workload.first_pass,
        "input_sizes": [c.sizes for c in workload.cases],
        "digests": [loop.digests.get(i) for i in range(workload.first_pass)],
        "setup": setup,
        "failures": loop.failures,
        **info,
        "result": result,
    }
    RECORD_DIR.mkdir(exist_ok=True)
    path = RECORD_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced; a table, then one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<16} {'metric':<16} {'value':>14}  unit")
    for name in NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"perfbench: workload {name} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<16} {entry['value']:>14.6g}  {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        if args.trace:
            p.error("--workload all reports the untraced end-to-end metrics only")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
