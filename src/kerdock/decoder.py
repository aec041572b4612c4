"""List decoding of the Hankel codebook from queries.

Grows j x j Hankel prefix candidates one size at a time: a candidate
survives a level when, on enough restricted subdomains, some tone of the
prefix-demodulated restriction stays heavy. Each extension appends only
the two new reverse-diagonal bits, so the search tree has branching
factor four, and at full size the prefix is the whole diag: the last
level is the finish, giving every kept diag its linear parts and
coefficients.

Two profiles share this skeleton. The robust profile is an exact prefix
search: each level reads its drawn suffix slices in full and decides
every candidate by transform (energy gate, per-suffix tone test, pass
fraction, with budgets sized for adversarial noise). At level n the one
slice is the whole domain, so the transform that decides a candidate
also yields the exact dot of each of its tones, and the heavy ones are
the list. That level and every level with few suffixes cover the
domain, so a robust decode reads all 2^n positions; it is limited to
n <= DENSE_MAX_N. Its first levels are close to brute force: a slice's
largest tone power is at least its energy, and the tone bar is 2^j /
(4 k C2) times hint^2 2^(j-n), the mean slice energy when the hint is
the signal norm. So while 2^j <= 4 k C2, a level keeps every prefix,
2 * 4^(j-1) at level j, when the hint does not exceed the signal norm
and most slices carry near-mean energy; a zero signal passes no slice
and ends at level one. Degenerate inputs (n < 2 or k >= 2^n) run only
level n, over every Hankel diag, and list its tones without its keep
mask.

The lean profile is the query-sublinear one: it drives every decision
from one small global position pool, nesting pair probes across levels
so the whole run touches O(pool * n) positions; it is meant for clean,
very sparse signals where query counting is the point, and it trades
list completeness for that budget.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from kerdock.codebook import (
    DENSE_MAX_N,
    I_POWERS,
    CodewordLabel,
    HankelMat,
    demodulate,
    diag_chunks,
    pack_hex,
)
from kerdock.rng import child_rng
from kerdock.signal import CachingOracle, SampleOracle, fwht


class CandidateOverflow(RuntimeError):
    """Raised when a level keeps more prefixes than the configured cap.

    The cap guards the poly(k) list-size promise; aborting with the
    numbers beats silently degrading. Raise candidate_cap (--cap) or
    lower k to finish such an input.
    """

    def __init__(self, level: int, count: int, cap: int):
        super().__init__(
            f"level {level} kept {count} candidates, cap {cap}; "
            "raise candidate_cap (--cap) or lower k"
        )
        self.level = level
        self.count = count
        self.cap = cap


# anchor positions of the lean profile's probe pool
POOL_BASES = 4

# robust level test: drop-side slack C1 in (0, 1), threshold relaxation
# C2 > 1, failure probability DELTA (see DecoderParams)
C1 = 0.5
C2 = 2.0
DELTA = 0.01


@dataclass(frozen=True)
class DecoderParams:
    """Decoder configuration.

    k sets the heaviness scale 1/k. The module constants C1 (drop-side
    slack) and C2 (threshold relaxation) shape the two-sided suffix test;
    the per-suffix energy gate is (40 k/C1) 2^(j-n) hint^2. Each level
    tests ceil(8k/C1) * ceil(log(2n / DELTA)) suffixes, or every suffix
    when 2^(n-j) is smaller; each tested slice is read in full and decided
    by transform. The last level is the finish: its one slice is all 2^n
    positions, and every tone whose squared dot clears hint^2 / 2k is
    listed with that exact dot. So the robust profile is an exact prefix
    search that reads every position, limited to n <= DENSE_MAX_N;
    degenerate inputs (n < 2 or k >= 2^n, n <= 7) run only that last
    level, over every Hankel diag. candidate_cap aborts the run via
    CandidateOverflow instead of trimming; its default is the larger of
    64 k^3 and 4096, whose floor lets small k through the wide middle
    levels of a noisy search (1,400-3,600 prefixes on two noisy words at
    k = 2, 3). threads splits the exact level test across diag batches.

    profile "lean" switches to the query-sublinear pooled probe regime
    with POOL_BASES anchor positions, about 8n positions in all; see the
    module docstring for what that trades away.
    """

    k: int
    candidate_cap: Optional[int] = None
    threads: int = 1
    profile: str = "robust"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.candidate_cap is not None and self.candidate_cap < 1:
            raise ValueError("candidate_cap must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.profile not in ("robust", "lean"):
            raise ValueError("profile must be 'robust' or 'lean'")

    def resolved_cap(self) -> int:
        return self.candidate_cap or max(64 * self.k**3, 4096)

    def resolved_suffix_samples(self, n: int) -> int:
        per = math.ceil(8.0 * self.k / C1)
        return per * math.ceil(math.log(2.0 * n / DELTA))


@dataclass
class DecodeStats:
    """Per-level candidate counts and the query bill of one decode."""

    n: int
    k: int
    profile: str
    g: List[int] = field(default_factory=list)
    f: List[int] = field(default_factory=list)
    queries: int = 0
    queries_raw: int = 0
    seconds: float = 0.0


def extend_prefix(diags: np.ndarray, j: int) -> np.ndarray:
    """The four (j+1)-sized extensions of each j-sized diag d: d, d|2^(2j), d|2^(2j-1), both."""
    return (diags[:, None] | (np.array([0, 2, 1, 3], np.uint64) << np.uint64(2 * j - 1))).ravel()


def _search(
    n: int, cap: int, stats: DecodeStats, level_keep: Callable[[int, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The prefix search both profiles run, one Hankel size per level.

    level_keep(j, test_set) gives the keep mask of the level-j diags (uint64);
    returns the full-size survivors, or an empty array once a level keeps nothing.
    """
    test_set = np.array([0, 1], dtype=np.uint64)
    for j in range(1, n + 1):
        kept = test_set[level_keep(j, test_set)]
        stats.g.append(len(test_set))
        stats.f.append(len(kept))
        if len(kept) > cap:
            raise CandidateOverflow(j, len(kept), cap)
        if not kept.size:
            return kept
        if j < n:
            test_set = extend_prefix(kept, j)
    return kept


def _suffix_draw(n: int, j: int, limit: int, seed: int) -> np.ndarray:
    """Suffixes to test at one level: exhaustive when they fit the budget."""
    count = 1 << (n - j)
    if count <= limit:
        return np.arange(count, dtype=np.uint32)
    # the trailing 0 is part of the stream key: dropping it changes every draw
    rng = child_rng(seed, "suffix", j, 0)
    return rng.integers(0, count, size=limit, dtype=np.uint32)


def _exact_level(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int,
    found: List[Tuple[CodewordLabel, complex]],
    j: int,
    diags: np.ndarray,
) -> np.ndarray:
    """Keep mask from full restricted-slice reads, vectorized over candidates.

    Every drawn slice is demodulated by every candidate's quadratic phase
    and transformed, making the per-suffix decision exact. A candidate
    passes a slice when its largest tone power reaches the bar, 2^j /
    (4 k C2) times the slice's share of hint^2, or when the slice's energy
    is over the gate; it is kept when it passes a (1 + C1) / 8k fraction.
    At j = n the one slice is the whole domain and the transform holds
    every tone's exact dot: each whose squared dot clears hint^2 / 2k is
    appended to found. That is 4x the level's bar, so every listed diag
    is also kept.
    """
    n, k = oracle.n, params.k
    hint_sq = oracle.norm_hint**2
    suffixes = _suffix_draw(n, j, params.resolved_suffix_samples(n), seed)
    width = 1 << j
    ys = np.arange(width, dtype=np.uint32)
    pos = (suffixes[:, None] << np.uint32(j)) | ys[None, :]
    vals = oracle.query_many(pos.ravel()).reshape(len(suffixes), width)
    scale = 2.0 ** (j - n) * hint_sq
    bar = scale / (4.0 * k * C2) * width
    gated = np.einsum("sy,sy->s", np.abs(vals), np.abs(vals)) > (k / (C1 / 40.0)) * scale
    need = math.ceil((1.0 + C1) / (8.0 * k) * len(suffixes) - 1e-12)

    def run(chunk: np.ndarray) -> Tuple[np.ndarray, list]:
        spec = fwht(demodulate(vals, chunk, j, ys), axis=-1)
        power = (spec.real**2 + spec.imag**2).max(axis=-1)
        keep = ((power >= bar) | gated).sum(axis=1) >= need
        if j < n:
            return keep, []
        spec /= math.sqrt(width)
        hits = zip(*np.nonzero(np.abs(spec[:, 0]) ** 2 >= hint_sq / (2.0 * k)))
        return keep, [
            (CodewordLabel(HankelMat(n, int(chunk[a])), int(ell), 0), complex(spec[a, 0, ell]))
            for a, ell in hits
        ]

    chunks = diag_chunks(diags, vals.size)
    if params.threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=params.threads) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(c) for c in chunks]
    found.extend(hit for _, hits in parts for hit in hits)
    return np.concatenate([keep for keep, _ in parts])


def _lean_decode(
    oracle: SampleOracle, params: DecoderParams, seed: int, stats: DecodeStats
) -> List[Tuple[CodewordLabel, complex]]:
    """Pooled-probe decode: every statistic reads the same few positions.

    The two bits a level-j extension introduces are the new reverse
    diagonals h_{2j-2} (a diagonal entry) and h_{2j-3} (the adjacent
    off-diagonal). Against a single dominant codeword both have
    base-independent witnesses: the squared single difference of the
    demodulated signal along e_{j-1} equals (-1)^{mismatch} / N^2
    exactly (linear parts and unknown rows contribute factors of +-1
    that square away), and the second mixed difference along
    (e_{j-1}, e_{j-2}) isolates the off-diagonal entry the same way. So
    keeping a child only needs the sign of a mean over a handful of
    anchor positions. Probes nest across levels, the linear part falls
    out of the same pair products after full demodulation, and the
    coefficient is read off the whole pool, so the run touches
    O(POOL_BASES * n) positions total. Flipping a child's new diagonal
    bit negates s_diag exactly and its new off-diagonal bit negates
    s_off, so at most one of the four extensions clears both positive
    bars: each level keeps at most one prefix, and the candidate cap
    never binds for this profile.
    """
    n = oracle.n
    rng = child_rng(seed, "pool")
    bases = np.unique(rng.integers(0, 1 << n, size=4 * POOL_BASES, dtype=np.uint64))
    rng.shuffle(bases)
    bases = bases[:POOL_BASES].astype(np.uint32)
    v_base = oracle.query_many(bases)
    pool: List[np.ndarray] = [bases]
    bar = 0.2
    v_prev: Optional[np.ndarray] = None  # values at bases ^ e_{j-2}

    def level_keep(j: int, test_set: np.ndarray) -> np.ndarray:
        nonlocal v_prev
        d1 = np.uint32(1 << (j - 1))
        p1 = bases ^ d1
        pool.append(p1)
        v1 = oracle.query_many(p1)
        if j >= 2:
            p2 = p1 ^ np.uint32(1 << (j - 2))
            pool.append(p2)
            v2 = oracle.query_many(p2)
        w0 = demodulate(v_base, test_set, j, bases)
        w1 = demodulate(v1, test_set, j, p1)
        t1 = w1 * np.conj(w0)
        sq = t1 * t1
        norm = np.mean(np.abs(sq), axis=1)
        s_diag = np.mean(sq.real, axis=1) / np.maximum(norm, 1e-300)
        keep = s_diag >= bar
        if j >= 2:
            w2 = demodulate(v2, test_set, j, p2)
            wp = demodulate(v_prev, test_set, j, bases ^ (d1 >> 1))
            mixed = w2 * np.conj(w1) * np.conj(wp) * w0
            norm = np.mean(np.abs(mixed), axis=1)
            s_off = np.mean(mixed.real, axis=1) / np.maximum(norm, 1e-300)
            keep &= s_off >= bar
        v_prev = v1
        return keep

    kept = _search(n, params.resolved_cap(), stats, level_keep)
    if not kept.size:
        return []

    # linear parts: sign of the pair correlation along each coordinate
    positions = np.unique(np.concatenate(pool))
    walls = demodulate(oracle.query_many(positions), kept, n, positions)
    coords = np.uint32(1) << np.arange(n, dtype=np.uint32)
    partners = np.searchsorted(positions, bases ^ coords[:, None])
    anchors = np.conj(walls[:, None, np.searchsorted(positions, bases)])
    corr = np.mean(walls[:, partners] * anchors, axis=-1)
    ells = ((corr.real < 0.0) * coords).sum(axis=1, dtype=np.uint32)
    # coefficients: the whole pool, demodulated by each survivor's linear part
    eell = 2 * (np.bitwise_count(positions & ells[:, None]) & 1)
    chats = np.mean(walls * I_POWERS[(-eell) & 3], axis=1) * math.sqrt(1 << n)
    heavy = np.flatnonzero(np.abs(chats) ** 2 >= oracle.norm_hint**2 / (2.0 * params.k))
    labels = [CodewordLabel(HankelMat(n, int(kept[a])), int(ells[a]), 0) for a in heavy]
    return list(zip(labels, chats[heavy].tolist()))


def list_decode_hankel(
    oracle: SampleOracle, params: DecoderParams, seed: int = 0
) -> Tuple[List[Tuple[CodewordLabel, complex]], DecodeStats]:
    """All Hankel codewords carrying a 1/k energy fraction, with estimates.

    Returns (results, stats) where results holds (label, coefficient)
    pairs sorted by descending estimated energy. The oracle is wrapped in
    a cache, so repeated positions are charged once; stats.queries is the
    count of distinct positions read and stats.queries_raw the total
    request volume. Degenerate inputs (n < 2 or k >= 2^n) are decoded
    densely. Raises CandidateOverflow when a level exceeds the cap, and
    ValueError before any read when n < 1, when a robust decode would
    exceed n = DENSE_MAX_N, or when k >= 2^n at n > 7.
    """
    if oracle.n < 1:
        raise ValueError(f"decoding needs n >= 1, got n={oracle.n}")
    if params.profile == "robust" and oracle.n > DENSE_MAX_N:
        raise ValueError(
            f"the robust profile reads all 2^n positions and is limited to "
            f'n <= {DENSE_MAX_N}, got n={oracle.n}; use profile="lean"'
        )
    t0 = time.perf_counter()
    cached = oracle if isinstance(oracle, CachingOracle) else CachingOracle(oracle)
    n = cached.n
    stats = DecodeStats(n=n, k=params.k, profile=params.profile)

    results: List[Tuple[CodewordLabel, complex]] = []
    level = partial(_exact_level, cached, params, seed, results)
    if n < 2 or params.k >= (1 << n):
        if n > 7:
            raise ValueError(
                f"k >= 2^n (k={params.k}, n={n}) asks for every Hankel codeword, "
                f"a dense scan limited to n <= 7; lower k below 2^n = {1 << n}"
            )
        level(n, np.arange(1 << (2 * n - 1), dtype=np.uint64))
    elif params.profile == "lean":
        results = _lean_decode(cached, params, seed, stats)
    else:
        _search(n, params.resolved_cap(), stats, level)

    results.sort(key=lambda t: (-abs(t[1]) ** 2, t[0].q.diag, t[0].ell))
    stats.queries = cached.distinct_count
    stats.queries_raw = cached.query_count
    stats.seconds = time.perf_counter() - t0
    return results, stats


def format_decode_report(
    results: Sequence[Tuple[CodewordLabel, complex]], stats: DecodeStats
) -> str:
    """Line-oriented report: one Hankel output per line, then the stats block.

    Wall time is deliberately excluded so identical runs are
    byte-identical; callers wanting timing print stats.seconds
    themselves.
    """
    n = stats.n
    lines = []
    for label, c in results:
        qhex = pack_hex(label.q.diag, 2 * n - 1)
        lines.append(
            f"{qhex} {label.ell:x} {c.real:.12g} {c.imag:.12g} {abs(c)**2:.12g}"
        )
    lines.append(f"# levels {len(stats.g)}")
    for j, (g, f) in enumerate(zip(stats.g, stats.f), start=1):
        lines.append(f"# level {j} tested {g} kept {f}")
    lines.append(f"# queries {stats.queries} raw {stats.queries_raw}")
    return "\n".join(lines) + "\n"
