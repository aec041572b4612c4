"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pursuit --seeds 1-10

Runs the benchmark once per seed, one run at a time, with the settings in
BENCHMARK.json, and prints for each end-to-end metric its median, its
interquartile distance as a share of the median, and that spread against
a third of the metric's bound. Exits 1 if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.summary import median, quartiles, rel_spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        wall = time.perf_counter() - t0
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"seed {seed}: {wall:.1f}s wall, {result['attempted']} ops, correct={result['correct']}")
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        if any(v is None for v in vals):
            print(f"{name:<24} missing")
            continue
        q1, _, q3 = quartiles(vals)
        spread = rel_spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        third = f"{bound / 3:8.4f}" if bound is not None else " " * 8
        print(f"{name:<24} {median(vals):12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {third}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
