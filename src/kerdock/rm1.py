"""List decoding of first-order Reed-Muller tones from sampled queries.

Finds every ell whose tone phi_{0,ell} carries at least a theta fraction
of the signal energy, by growing ell one low bit at a time and keeping
only prefixes whose Fourier-energy bucket stays heavy. The bucket energy
is estimated from pairs of positions sharing a random suffix, so the
whole search costs poly(m, 1/theta) queries instead of 2^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from kerdock.codebook import CodewordLabel, SymMat
from kerdock.rng import child_rng
from kerdock.signal import SampleOracle, estimate_dots


def rm1_label(m: int, ell: int, eps: int = 0) -> CodewordLabel:
    """Label of the pure tone phi_{0,ell} on an m-bit domain."""
    return CodewordLabel(SymMat(m, (0,) * m), ell, eps)


@dataclass(frozen=True)
class KmParams:
    """Threshold and failure probability of the tone search.

    theta is the heaviness threshold relative to the squared norm hint;
    delta the target failure probability. The samples per bucket test and
    the repeats per level are sized for the theta/4 estimation gap
    (Chebyshev within one repetition, median across repetitions). At most
    ceil(4/theta) prefixes survive any level, which is the Parseval budget
    at threshold theta/2 with a factor-2 norm-hint slack.
    """

    theta: float
    delta: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def cap(self) -> int:
        return math.ceil(4.0 / self.theta)

    def resolved_samples(self) -> int:
        return max(16, math.ceil(48.0 / self.theta**2))

    def resolved_repeats(self, m: int) -> int:
        tests = (m + 1) * max(self.cap, 2)
        return max(7, math.ceil(2.0 * math.log(tests / self.delta)))


def sample_pairs(
    rng: np.random.Generator, n: int, j: int, samples: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (y1, y2, suffix) triples: j-bit pair sharing an (n-j)-bit suffix."""
    y1 = rng.integers(0, 1 << j, size=samples, dtype=np.uint32)
    y2 = rng.integers(0, 1 << j, size=samples, dtype=np.uint32)
    suf = rng.integers(0, 1 << (n - j), size=samples, dtype=np.uint32)
    return y1, y2, suf


def exhaustive_pairs(n: int, j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (y1, y2, suffix) triple exactly once; 2^(n+j) of them."""
    if n + j > 22:
        raise ValueError("exhaustive pair enumeration capped at n + j <= 22")
    y1, y2, suf = np.meshgrid(
        np.arange(1 << j, dtype=np.uint32),
        np.arange(1 << j, dtype=np.uint32),
        np.arange(1 << (n - j), dtype=np.uint32),
        indexing="ij",
    )
    return y1.ravel(), y2.ravel(), suf.ravel()


def bucket_energies(
    oracle: SampleOracle,
    j: int,
    prefixes: Sequence[int],
    y1: np.ndarray,
    y2: np.ndarray,
    suf: np.ndarray,
) -> np.ndarray:
    """Unbiased bucket-energy estimates for j-bit tone prefixes.

    For prefix l' the bucket is sum over completions l = l' + 2^j l'' of
    |<s, phi_{0,l}>|^2. Each pair sharing a suffix contributes
    s(y1 suf) conj(s(y2 suf)) (-1)^(l' . (y1 xor y2)), whose expectation
    is bucket/2^n; the mean is scaled back up by 2^n. One shared draw
    serves every prefix, so the oracle cost per level does not grow with
    the candidate count. With the exhaustive_pairs draw the result is the
    exact bucket energy.
    """
    high = suf << j  # uint32: suf < 2^(n-j), and a shift by 32 gives 0
    prod = oracle.query_many(y1 | high) * np.conj(oracle.query_many(y2 | high))
    pref = np.asarray(prefixes, np.uint32)
    signs = 1.0 - 2.0 * (np.bitwise_count((y1 ^ y2)[None, :] & pref[:, None]) & 1)
    return float(1 << oracle.n) * (signs @ prod.real) / len(y1)


def km_list(
    oracle: SampleOracle, params: KmParams, seed: int = 0
) -> List[Tuple[int, complex]]:
    """All tone labels carrying a theta fraction of the energy, with high probability.

    Levels j = 1..m each extend the surviving prefixes, one uint32 array,
    by one bit, score the extensions with a median over repeated
    shared-sample bucket estimates, keep those above (theta/2) hint^2,
    and truncate to the ceil(4/theta) Parseval cap (ties broken toward
    smaller prefixes).
    Surviving full-length ells get sampled coefficient estimates and a
    final prune at the same threshold. Output is sorted by descending
    |coefficient|, then ascending ell.
    """
    m = oracle.n
    if m < 1:
        raise ValueError("domain must have at least one bit")
    hint_sq = oracle.norm_hint**2
    samples = params.resolved_samples()
    repeats = params.resolved_repeats(m)
    threshold = 0.5 * params.theta * hint_sq

    candidates = np.zeros(1, np.uint32)
    for j in range(1, m + 1):
        extended = (candidates[:, None] | np.array([0, 1 << (j - 1)], np.uint32)).ravel()
        if (1 << (m + j)) <= samples:
            y1, y2, suf = exhaustive_pairs(m, j)
            est = bucket_energies(oracle, j, extended, y1, y2, suf)
        else:
            rng = child_rng(seed, "km-level", j)
            reps = np.empty((repeats, len(extended)))
            for r in range(repeats):
                y1, y2, suf = sample_pairs(rng, m, j, samples)
                reps[r] = bucket_energies(oracle, j, extended, y1, y2, suf)
            est = np.median(reps, axis=0)
        heavy = np.flatnonzero(est >= threshold)
        order = heavy[np.lexsort((extended[heavy], -est[heavy]))]
        candidates = extended[order[: params.cap]]
        if not candidates.size:
            return []

    ells = np.sort(candidates)
    labels = [rm1_label(m, ell) for ell in ells.tolist()]
    dots = estimate_dots(oracle, labels, 2 * samples, seed=seed)
    keep = np.abs(dots) ** 2 >= threshold
    out = list(zip(ells[keep].tolist(), dots[keep].tolist()))
    out.sort(key=lambda t: (-abs(t[1]), t[0]))
    return out
