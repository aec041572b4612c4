"""Measured codeword inner products against the rank law.

Samples random pairs of quadratic-phase codewords, buckets them by the
GF(2) rank of the quadratic-form difference, and compares every exact
|<phi_1, phi_2>| with the two admissible values 0 and 2^(-rank/2).
Prints one row per rank with the population split between the branches
and the worst deviation seen. The closed-form branch predictor is
checked on the side; any disagreement is reported.

Usage: python3 scripts/coherence_check.py [--n 6] [--pairs 20000]
"""

import argparse
from collections import defaultdict

import numpy as np

from kerdock.codebook import (
    CodewordLabel,
    SymMat,
    pair_dot,
    predict_dot_magnitude,
    rank_distance,
)
from kerdock.oracle import random_sym_rows


def run(n: int, pairs: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    by_rank = defaultdict(lambda: [0, 0, 0.0])  # zero-branch, nonzero-branch, worst
    mismatches = 0
    for _ in range(pairs):
        a = CodewordLabel(SymMat(n, random_sym_rows(rng, n)), int(rng.integers(1 << n)),
                          int(rng.integers(4)))
        b = CodewordLabel(SymMat(n, random_sym_rows(rng, n)), int(rng.integers(1 << n)),
                          int(rng.integers(4)))
        r = rank_distance(a.q, b.q)
        mag = abs(pair_dot(a, b))
        expected = 2.0 ** (-r / 2.0)
        bucket = by_rank[r]
        if mag < expected / 2.0:
            bucket[0] += 1
            bucket[2] = max(bucket[2], mag)
        else:
            bucket[1] += 1
            bucket[2] = max(bucket[2], abs(mag - expected))
        mismatches += abs(mag - predict_dot_magnitude(a, b)) > 1e-9
    print(f"n={n} pairs={pairs}")
    print("rank  2^(-r/2)   zero-branch  nonzero-branch  worst-deviation")
    for r in sorted(by_rank):
        zero, nonzero, worst = by_rank[r]
        print(f"{r:4d}  {2.0 ** (-r / 2.0):9.6f}  {zero:11d}  {nonzero:14d}  "
              f"{worst:.3e}")
    print(f"branch predictor mismatches: {mismatches}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--pairs", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(args.n, args.pairs, args.seed)


if __name__ == "__main__":
    main()
