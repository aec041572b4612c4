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
and ends at level one. At k >= 2^n, n = 1 included, every level reads
every suffix (16k ceil(ln 200n) > 2^(n-j)), so one passing slice keeps
a prefix; a tone whose squared dot clears hint^2 / 2k gives its prefix a
slice tone of power N |dot|^2 / 4^(n-j) or more, 4x the level bar, so
level n lists every such tone of the whole Hankel code, and the cap
max(64 k^3, 4096) > 2^(2n-1) never binds.

The four children of a kept prefix differ only in two diag bits, so
the robust level test shares their work: each parent's slices are
demodulated once and transformed as two halves, and every child's
spectrum is the last butterfly stage over those halves.

The lean profile is the query-sublinear one: it drives every decision
from one small global position pool, nesting pair probes across levels
so the whole run touches O(pool * n) positions; it is meant for clean,
very sparse signals where query counting is the point, and it trades
list completeness for that budget.

The lf-Kerdock subcode needs no search: one shift names its heavy words'
top rows, and the values it read give their level-n dots (list_decode_hankel).
"""

from __future__ import annotations

import math
import time
from array import array
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
    lf_kerdock,
    pack_hex,
)
from kerdock.field import FieldContext
from kerdock.rng import child_rng
from kerdock.signal import CachingOracle, SampleOracle, draw_indices, fwht


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
    when 2^(n-j) is smaller, each read in full and decided by transform;
    the last level is the finish (see the module docstring). candidate_cap
    aborts the run via CandidateOverflow instead of trimming; its default
    is the larger of 64 k^3 and 4096, whose floor lets small k through the
    wide middle levels of a noisy search (1,400-3,600 prefixes on two noisy
    words at k = 2, 3). The exact level test batches a level's candidates
    by parent (diag_chunks at four times the row size: at most 12 MB of
    demodulated parent rows, with room for their children's spectra), and
    threads runs those batches on that many threads; only a level with
    more than one batch gains (the README has measurements).

    profile "lean" switches to the query-sublinear pooled probe regime
    with POOL_BASES anchor positions, about 8n positions in all at every
    k; see the module docstring for what that trades away.
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
    """Per-level candidate counts and seconds, and the query bill of one decode.

    level_seconds[j - 1] is the wall time of level j's test; in both
    profiles level n is the finish, and a Kerdock decode's one level tests
    N top rows and keeps its candidates. It is an array of doubles, 8 bytes
    a level where a list of floats holds about 32, so that callers keeping
    many stats keep little. format_decode_report leaves it out.
    """

    n: int
    k: int
    profile: str
    g: List[int] = field(default_factory=list)
    f: List[int] = field(default_factory=list)
    level_seconds: array = field(default_factory=lambda: array("d"))
    queries: int = 0
    queries_raw: int = 0
    seconds: float = 0.0


def extend_prefix(diags: np.ndarray, j: int) -> np.ndarray:
    """The four (j+1)-sized extensions of each j-sized diag d: d, d|2^(2j), d|2^(2j-1), both."""
    return (diags[:, None] | (np.array([0, 2, 1, 3], np.uint64) << np.uint64(2 * j - 1))).ravel()


def _search(
    n: int,
    cap: int,
    stats: DecodeStats,
    level_keep: Callable[[int, np.ndarray], np.ndarray],
) -> None:
    """The prefix search both profiles run, one Hankel size per level.

    level_keep(j, test_set) gives the keep mask of the level-j diags (uint64).
    A profile is its level function: its level n is the finish and appends
    the results, so the search returns nothing; it stops once a level keeps nothing.
    """
    test_set = np.array([0, 1], dtype=np.uint64)
    for j in range(1, n + 1):
        t0 = time.perf_counter()
        kept = test_set[level_keep(j, test_set)]
        stats.level_seconds.append(time.perf_counter() - t0)
        stats.g.append(len(test_set))
        stats.f.append(len(kept))
        if len(kept) > cap:
            raise CandidateOverflow(j, len(kept), cap)
        if not kept.size:
            return
        if j < n:
            test_set = extend_prefix(kept, j)


def _exact_level(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int,
    found: List[Tuple[CodewordLabel, complex]],
    j: int,
    diags: np.ndarray,
) -> np.ndarray:
    """Keep mask from full restricted-slice reads, vectorized over candidates.

    Every drawn slice, demodulated by each candidate's quadratic phase
    and transformed, makes the per-suffix decision exact. A candidate
    passes a slice when its largest tone power reaches the bar, 2^j /
    (4 k C2) times the slice's share of hint^2, or when the slice's energy
    is over the gate; it is kept when it passes a (1 + C1) / 8k fraction.
    At j = n the one slice is the whole domain and the transform holds
    every tone's exact dot: each whose squared dot clears hint^2 / 2k is
    appended to found. That is 4x the level's bar, so every listed diag
    is also kept.

    Siblings share their transforms. A level-j diag's children differ
    only in its two new bits, b_o (bit 2j-3) and b_d (bit 2j-2), and
    these touch only the slice's high half (top coordinate t = 1): they
    add t (b_d + 2 b_o y_{j-2}) to the exponent. So each parent, the
    child with both bits clear, demodulates a slice once, and the two
    half-length transforms A (low half) and B (high half) give every
    child's spectrum [A + B', A - B'], fwht's own last stage, where B'
    is B with its quarters swapped when b_o is set (u -> u xor
    2^(j-2)), times -i when b_d is set. The spectra are the same bits
    as transforming each child's slice in full.
    """
    n, k = oracle.n, params.k
    hint_sq = oracle.norm_hint**2
    # the trailing 0 is part of the stream key: dropping it changes every draw
    rng = child_rng(seed, "suffix", j, 0)
    suffixes = draw_indices(1 << (n - j), params.resolved_suffix_samples(n), rng, np.uint32)
    width = 1 << j
    half = width >> 1
    ys = np.arange(width, dtype=np.uint32)
    pos = (suffixes[:, None] << np.uint32(j)) | ys[None, :]
    vals = oracle.query_many(pos.ravel()).reshape(len(suffixes), width)
    scale = 2.0 ** (j - n) * hint_sq
    bar = scale / (4.0 * k * C2) * width
    gated = np.einsum("sy,sy->s", np.abs(vals), np.abs(vals)) > (k / (C1 / 40.0)) * scale
    need = math.ceil((1.0 + C1) / (8.0 * k) * len(suffixes) - 1e-12)

    # children of one parent are contiguous in extend_prefix order, so one run-length
    # pass over the parent keys groups them (any other order only repeats a parent)
    keys = diags & np.uint64((1 << max(2 * j - 3, 0)) - 1)
    kinds = ((diags << np.uint64(1)) >> np.uint64(2 * j - 2)) & np.uint64(3)
    first = np.ones(len(diags), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.append(np.flatnonzero(first), len(diags))
    parents = keys[first]
    parent_of = np.cumsum(first) - 1

    def run(lo: int, hi: int) -> Tuple[np.ndarray, list]:
        spec = fwht(demodulate(vals, parents[lo:hi], j, ys).reshape(hi - lo, -1, 2, half), axis=-1)
        low, high = spec[:, :, 0], spec[:, :, 1]
        c0, c1 = starts[lo], starts[hi]
        keep = np.empty(c1 - c0, dtype=bool)
        hits = []
        for kind in range(4):
            at = np.flatnonzero(kinds[c0:c1] == kind)
            if not at.size:
                continue
            whole = at.size == hi - lo  # every parent has this child: no gather
            idx = parent_of[c0 + at] - lo
            a = low if whole else low[idx]
            b = high if whole else high[idx]
            if kind & 2:
                b = b * I_POWERS[3]
            if kind & 1:
                # u -> u xor 2^(j-2): the quarters of the high half swap
                a = a.reshape(a.shape[:-1] + (2, half >> 1))
                b = b.reshape(a.shape)[..., ::-1, :]
            top = (a + b).reshape(at.size, -1, half)
            bot = (a - b).reshape(top.shape)
            power = np.maximum(
                (top.real**2 + top.imag**2).max(axis=-1), (bot.real**2 + bot.imag**2).max(axis=-1)
            )
            keep[at] = ((power >= bar) | gated).sum(axis=1) >= need
            if j == n:
                full = np.concatenate([top[:, 0], bot[:, 0]], axis=-1)
                full /= math.sqrt(width)
                child = diags[c0 + at]
                hits += [
                    (CodewordLabel(HankelMat(n, int(child[r])), int(ell), 0), complex(full[r, ell]))
                    for r, ell in zip(*np.nonzero(np.abs(full) ** 2 >= hint_sq / (2.0 * k)))
                ]
        return keep, hits

    # a batch's children need about three times its demodulated rows again
    # (gathered halves, sums, powers), so parents are batched at 4x the row size
    edges = np.cumsum([0] + [len(c) for c in diag_chunks(parents, 4 * vals.size)])
    if params.threads > 1 and len(edges) > 2:
        with ThreadPoolExecutor(max_workers=params.threads) as pool:
            parts = list(pool.map(run, edges[:-1], edges[1:]))
    else:
        parts = [run(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    found.extend(hit for _, hits in parts for hit in hits)
    return np.concatenate([keep for keep, _ in parts])


def _lean_levels(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int,
    found: List[Tuple[CodewordLabel, complex]],
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The lean profile's level function: every statistic reads the same few positions.

    The two bits a level-j extension introduces are the new reverse
    diagonals h_{2j-2} (a diagonal entry) and h_{2j-3} (the adjacent
    off-diagonal). Against a single dominant codeword both have
    base-independent witnesses: the squared single difference of the
    demodulated signal along e_{j-1} equals (-1)^{mismatch} / N^2
    exactly (linear parts and unknown rows contribute factors of +-1
    that square away), and the second mixed difference along
    (e_{j-1}, e_{j-2}) isolates the off-diagonal entry the same way. So
    keeping a child only needs the sign of a mean over a handful of
    anchor positions. Probes nest across levels, and level n is the
    finish: when it keeps a diag, the linear part falls out of the same
    pair products after full demodulation, the coefficient is read off
    the whole pool, and each whose square clears hint^2 / 2k is appended
    to found. So the run touches O(POOL_BASES * n) positions total.
    Flipping a child's new diagonal bit negates s_diag exactly and its
    new off-diagonal bit negates s_off, so at most one of the four
    extensions clears both positive bars: each level keeps at most one
    prefix, and the candidate cap never binds for this profile.
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
        if j < n or not keep.any():
            return keep
        # finish: linear parts from the sign of the pair correlation along each coordinate
        kept = test_set[keep]
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
        found.extend(zip(labels, chats[heavy].tolist()))
        return keep

    return level_keep


def list_decode_hankel(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int = 0,
    kerdock: Optional[FieldContext] = None,
) -> Tuple[List[Tuple[CodewordLabel, complex]], DecodeStats]:
    """All Hankel codewords carrying a 1/k energy fraction, with estimates.

    Given a kerdock field, the lf-Kerdock subcode is listed by one shift
    instead of a search. For a word c with matrix P, s(y) conj s(y xor 1)
    is a Walsh tone of height |c|^2 at P e_0, its top row. Each u where the
    fwht of that product has magnitude hint^2 / 4k or more names
    lf_kerdock(kerdock, u); the fwht of the values already read, demodulated
    by it, gives the robust level n's dots, and each tone whose squared dot
    clears hint^2 / 2k is listed. The bar rests on the cross terms of
    distinct Kerdock words being flat, |c_a c_b| / sqrt(N) per tone, as
    their difference has full rank (criteria 02, 03); it does not cover a
    low-rank non-Kerdock neighbour of a heavy word, a rank-r difference
    putting |c_a c_b| 2^(-r/2) on each of 2^r tones. On 100 seeded inputs of
    1-3 Kerdock words (1.0, 0.7, 0.5; noise up to the signal energy; k = 3)
    at n = 6..10 the list held every Kerdock word of energy hint^2 / k, and
    99 equalled the whole-code list's Kerdock labels (one word of 0.25
    hint^2 at n = 6 fell under the bar); three words (1.0, 0.6, 0.4; noise
    0.2; k = 3) were listed at n = 13..20.

    Returns (results, stats) where results holds (label, coefficient)
    pairs sorted by descending estimated energy. The oracle is wrapped in
    a cache, so repeated positions are charged once; stats.queries is the
    count of distinct positions read and stats.queries_raw the total
    request volume. Each profile is its level function in the one search,
    at every n and k (see the module docstring for k >= 2^n). Raises
    CandidateOverflow when a level exceeds the cap, and ValueError before
    any read when n < 1, when a robust or Kerdock decode would exceed n =
    DENSE_MAX_N, when the norm hint squares to 0 (every bar would be 0
    and list every codeword), when a robust decode has k >= 2^n at n > 7,
    or when a kerdock field is not of the oracle's n or comes with lean.
    """
    if oracle.n < 1:
        raise ValueError(f"decoding needs n >= 1, got n={oracle.n}")
    if kerdock is not None and kerdock.n != oracle.n:
        raise ValueError(
            f"the Kerdock subcode's field has n={kerdock.n} but the oracle has "
            f"n={oracle.n}; give the field of the oracle's size"
        )
    if kerdock is not None and oracle.n > DENSE_MAX_N:
        raise ValueError(
            f"the Kerdock decode reads all 2^n positions and is limited to n <= {DENSE_MAX_N}, "
            f"got n={oracle.n}; a sampled Kerdock decode past that is ROADMAP item 11"
        )
    if kerdock is not None and params.profile == "lean":
        raise ValueError('the Kerdock decode reads all 2^n positions: use profile="robust"')
    if params.profile == "robust" and oracle.n > DENSE_MAX_N:
        raise ValueError(
            f"the robust profile reads all 2^n positions and is limited to "
            f'n <= {DENSE_MAX_N}, got n={oracle.n}; use profile="lean"'
        )
    if oracle.norm_hint**2 == 0:
        raise ValueError(
            f"norm hint {oracle.norm_hint:g} has a zero square (a zero signal?): every bar "
            "scales with hint^2, so every codeword would be listed; give a larger norm hint"
        )
    if params.profile == "robust" and params.k >= 1 << oracle.n and oracle.n > 7:
        raise ValueError(
            f"k >= 2^n (k={params.k}, n={oracle.n}) keeps every prefix at every level, so "
            "level n would test 2 * 4^(n-1) diags (about 6 s at n = 7); "
            f"lower k below 2^n = {1 << oracle.n}"
        )
    t0 = time.perf_counter()
    cached = oracle if isinstance(oracle, CachingOracle) else CachingOracle(oracle)
    n = cached.n
    stats = DecodeStats(n=n, k=params.k, profile=params.profile)

    results: List[Tuple[CodewordLabel, complex]] = []
    cap = params.resolved_cap()
    if kerdock is not None:
        ys = np.arange(1 << n, dtype=np.uint32)
        vals = cached.query_many(ys)
        peaks = np.abs(fwht(vals * np.conj(vals[ys ^ np.uint32(1)])))
        tops = np.flatnonzero(peaks >= cached.norm_hint**2 / (4.0 * params.k))
        stats.g, stats.f = [1 << n], [len(tops)]
        if len(tops) > cap:
            raise CandidateOverflow(1, len(tops), cap)
        diags = np.array([lf_kerdock(kerdock, int(u)).diag for u in tops], dtype=np.uint64)
        # the finish, from the values already read: the robust level n's dots, bit for bit
        bar = cached.norm_hint**2 / (2.0 * params.k)
        for batch in diag_chunks(diags, 4 * vals.size):
            dots = fwht(demodulate(vals, batch, n, ys))
            dots /= math.sqrt(1 << n)
            results += [
                (CodewordLabel(HankelMat(n, int(batch[r])), int(ell), 0), complex(dots[r, ell]))
                for r, ell in zip(*np.nonzero(np.abs(dots) ** 2 >= bar))
            ]
        stats.level_seconds.append(time.perf_counter() - t0)
    elif params.profile == "lean":
        _search(n, cap, stats, _lean_levels(cached, params, seed, results))
    else:
        _search(n, cap, stats, partial(_exact_level, cached, params, seed, results))

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
