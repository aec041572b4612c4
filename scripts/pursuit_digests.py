"""Digests of seeded sparse_approx outputs: a pin that output stays bit for bit.

Each case plants k lf-Kerdock words (top rows, linear parts and phases
from the case's own generator) at n = 6..10 and k = 1..3 within the
sqrt(N)/6 coherence regime, clean and under noise, and runs
sparse_approx at seed 0. A digest covers the listed labels and the hex
of every coefficient. tests/test_pursuit.py recomputes every digest and
names each case that differs from the file.

Usage: python3 scripts/pursuit_digests.py [--out tests/pursuit_digests.txt]
"""

import argparse
import hashlib
import math
from pathlib import Path
from typing import List, Tuple

import numpy as np

from kerdock.codebook import CodewordLabel, lf_kerdock
from kerdock.field import FieldContext
from kerdock.pursuit import PursuitParams, sparse_approx
from kerdock.signal import DenseOracle, SyntheticOracle, make_noisy

OUT = Path(__file__).resolve().parent.parent / "tests" / "pursuit_digests.txt"
MAGNITUDES = (1.0, 0.7, 0.5)
NOISE = 0.1


def cases() -> List[Tuple[str, int, int, bool]]:
    """(name, n, k, noisy) for every pinned case."""
    return [
        (f"n{n}-k{k}-{'noisy' if noisy else 'clean'}", n, k, noisy)
        for n in range(6, 11)
        for k in range(1, min(3, math.floor(math.sqrt(1 << n) / 6.0)) + 1)
        for noisy in (False, True)
    ]


def case_digest(n: int, k: int, noisy: bool) -> str:
    """sha256 of the case's representation: labels and coefficient hex."""
    ctx = FieldContext.default(n)
    rng = np.random.default_rng([n, k, int(noisy)])
    terms = [
        (
            CodewordLabel(lf_kerdock(ctx, int(rng.integers(1 << n))), int(rng.integers(1 << n)), 0),
            complex(mag * np.exp(2j * np.pi * rng.uniform())),
        )
        for mag in MAGNITUDES[:k]
    ]
    if noisy:
        oracle = DenseOracle(make_noisy(n, terms, noise_energy=NOISE, seed=int(rng.integers(1 << 31))))
    else:
        oracle = SyntheticOracle(n, terms)
    rep = sparse_approx(oracle, PursuitParams(k=k, eps=0.1), seed=0)
    h = hashlib.sha256()
    for lab, c in rep.terms:
        h.update(f"{lab.q.diag:x} {lab.ell:x} {lab.eps} {c.real.hex()} {c.imag.hex()};".encode())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args()
    lines = [f"{name} {case_digest(n, k, noisy)}\n" for name, n, k, noisy in cases()]
    args.out.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {args.out}")


if __name__ == "__main__":
    main()
