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
n <= DENSE_MAX_N. Its first levels need no transform: a slice's largest
tone power is at least its energy, so a level below n where enough
slices are gated or have an energy over the tone bar keeps every prefix,
2 * 4^(j-1) at level j, from the energies alone. The bar is 2^j / (4 k
C2) times hint^2 2^(j-n), the mean slice energy when the hint is the
signal norm, so that holds while 2^j <= 4 k C2 when the hint does not
exceed the signal norm and most slices carry near-mean energy; a zero
signal passes no slice and ends at level one. At k >= 2^n, n = 1
included, every level reads every suffix (16k ceil(ln 200n) >
2^(n-j)), so one passing slice keeps a prefix; a tone whose squared dot
clears hint^2 / 2k gives its prefix a slice tone of power N |dot|^2 /
4^(n-j) or more, 4x the level bar, so level n lists every such tone of
the whole Hankel code, and the cap max(64 k^3, 4096) > 2^(2n-1) never
binds.

The four children of a kept prefix differ only in two diag bits, so
the robust level test shares their work: each parent's slices are
demodulated once and transformed as two halves, and every child's
spectrum is the last butterfly stage over those halves, written once per
cache-sized block of parents. Once the search reads every suffix, a
level's kept spectra are the next level's halves: _search hands them on
as the level's carry, read instead of a demodulate and a transform.

The lean profile is the query-sublinear one: it drives every decision
from one small global position pool, nesting pair probes across levels
so the whole run touches O(pool * n) positions; it is meant for clean,
very sparse signals where query counting is the point, and it trades
list completeness for that budget.

The kerdock profile is no search: one shift names the heavy lf-Kerdock
words' top rows; the values it read give their dots (list_decode_hankel).
"""

from __future__ import annotations

import math
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from kerdock.codebook import (
    BATCH_BYTES,
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
    numbers beats silently degrading. advice says what to change: a
    search's default is to raise candidate_cap (--cap) or lower k, and the
    Kerdock shift decode's is that the signal is far from a few Kerdock words.
    """

    def __init__(
        self,
        level: int,
        count: int,
        cap: int,
        advice: str = "raise candidate_cap (--cap) or lower k",
    ):
        super().__init__(f"level {level} kept {count} candidates, cap {cap}; {advice}")
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

# largest carry, the kept spectra one robust level hands the next: the
# parent rows of one level-test batch, which batches parents at 4x the row
# size, so a carried level is one batch
CARRY_BYTES = BATCH_BYTES // 4

# the level test writes its children's spectra a block of parents at a time, one
# kind's spectra of a block taking at most this: the block's four kinds and their
# powers take 1 MB, so they stay in a core's L2 cache
BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class DecoderParams:
    """Decoder configuration.

    k sets the heaviness scale 1/k. The module constants C1 (drop-side
    slack) and C2 (threshold relaxation) shape the two-sided suffix test;
    the per-suffix energy gate is (40 k/C1) 2^(j-n) hint^2. Each level
    tests ceil(8k/C1) * ceil(log(2n / DELTA)) suffixes, or every suffix
    when 2^(n-j) is smaller, each read in full and decided by transform,
    unless their energies alone keep every prefix; the last level is the
    finish (see the module docstring). candidate_cap
    aborts the run via CandidateOverflow instead of trimming; its default
    is the larger of 64 k^3 and 4096, whose floor lets small k through the
    wide middle levels of a noisy search (1,400-3,600 prefixes on two noisy
    words at k = 2, 3). The exact level test batches a level's sibling
    groups, each a parent's whole set of children (diag_chunks at four times
    the row size: at most 12 MB of demodulated parent rows, with room for
    the carry their kept children make), and threads runs those batches on
    that many threads; only a level with more than one batch gains (the
    README has measurements); a level its energies decide runs no batch
    unless it starts a carry. A level after one that read every suffix,
    kept at most CARRY_BYTES of spectra and was itself one batch or
    carried is carried: its batches read their parents' rows of that
    carry instead of demodulating and transforming.

    profile "lean" switches to the query-sublinear pooled probe regime
    with POOL_BASES anchor positions, about 8n positions in all at every
    k, and "kerdock" lists the lf-Kerdock subcode; see the module docstring.
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
        if self.profile not in ("robust", "lean", "kerdock"):
            raise ValueError("profile must be 'robust', 'lean' or 'kerdock'")

    def resolved_cap(self) -> int:
        return self.candidate_cap or max(64 * self.k**3, 4096)

    def resolved_suffix_samples(self, n: int) -> int:
        per = math.ceil(8.0 * self.k / C1)
        return per * math.ceil(math.log(2.0 * n / DELTA))


@dataclass
class DecodeStats:
    """Per-level candidate counts, seconds and reads, and the query bill of one decode.

    level_seconds[j - 1] is the wall time of level j's test; in both
    profiles level n is the finish, and a Kerdock decode's one level tests
    N top rows and keeps its candidates. level_reads[j - 1] counts the
    distinct positions first read during level j, so the counts sum to
    queries, this decode's reads alone, as queries_raw counts this decode's
    requests. Both are arrays, 8 bytes a level where a list holds about 32,
    so that callers keeping many stats keep little. format_decode_report
    leaves them out.
    """

    n: int
    k: int
    profile: str
    g: List[int] = field(default_factory=list)
    f: List[int] = field(default_factory=list)
    level_seconds: array = field(default_factory=lambda: array("d"))
    level_reads: array = field(default_factory=lambda: array("q"))
    queries: int = 0
    queries_raw: int = 0
    seconds: float = 0.0


def extend_prefix(diags: np.ndarray, j: int) -> np.ndarray:
    """The four (j+1)-sized extensions of each j-sized diag d: d, d|2^(2j), d|2^(2j-1), both."""
    return (diags[:, None] | (np.array([0, 2, 1, 3], np.uint64) << np.uint64(2 * j - 1))).ravel()


def _search(
    oracle: CachingOracle,
    cap: int,
    stats: DecodeStats,
    level_keep: Callable[[int, np.ndarray, Any], Tuple[np.ndarray, Any]],
) -> None:
    """The prefix search the robust and lean profiles run, one Hankel size per level.

    level_keep(j, test_set, carry) gives the keep mask of the level-j diags
    (uint64) and the carry for level j+1, what the profile hands on from
    level j; level 1 gets None. The search holds the carry, so a level is a
    function of its arguments. A profile is its level function: its level n
    is the finish and appends the results, so the search returns nothing; it
    stops once a level keeps nothing.
    """
    n, read = oracle.n, oracle.distinct_count
    test_set = np.array([0, 1], dtype=np.uint64)
    carry = None
    for j in range(1, n + 1):
        t0 = time.perf_counter()
        keep, carry = level_keep(j, test_set, carry)
        kept = test_set[keep]
        stats.level_seconds.append(time.perf_counter() - t0)
        stats.level_reads.append(oracle.distinct_count - read)
        read = oracle.distinct_count
        stats.g.append(len(test_set))
        stats.f.append(len(kept))
        if len(kept) > cap:
            raise CandidateOverflow(j, len(kept), cap)
        if not kept.size:
            return
        if j < n:
            test_set = extend_prefix(kept, j)


def _child_spectrum(a: np.ndarray, b: np.ndarray, swap: int, out: np.ndarray) -> None:
    """A child's spectrum from its parent's half transforms: fwht's last stage.

    a and b are the parent's low- and high-half transforms, each (parents,
    slices, half), b already times -i for a child with b_d set; out
    (parents, slices, 2 half) gets [A + B', A - B'], where B' is b with its
    quarters swapped (u -> u xor 2^(j-2)) when swap (b_o) is set.
    """
    if swap:
        a = a.reshape(a.shape[:-1] + (2, -1))
        b = b.reshape(a.shape)[..., ::-1, :]
    sides = out.reshape(out.shape[:2] + (2,) + a.shape[2:])
    np.add(a, b, out=sides[:, :, 0])
    np.subtract(a, b, out=sides[:, :, 1])


def _exact_levels(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int,
    found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Callable[[int, np.ndarray, Optional[np.ndarray]], Tuple[np.ndarray, Optional[np.ndarray]]]:
    """The robust profile's level function: keep masks from full restricted-slice reads.

    Every drawn slice, demodulated by each candidate's quadratic phase
    and transformed, makes the per-suffix decision exact. A candidate
    passes a slice when its largest tone power reaches the bar, 2^j /
    (4 k C2) times the slice's share of hint^2, or when the slice's energy
    is over the gate; it is kept when it passes a (1 + C1) / 8k fraction,
    as every candidate is, untransformed, below level n when the gated
    slices and those with energy over the bar reach it (a settled level):
    a slice's largest tone power is at least its energy. At j = n the one
    slice is the whole domain and the transform holds every tone's exact
    dot: each whose squared dot clears hint^2 / 2k goes into found (diags,
    ells and dots arrays). That is 4x the level's bar, so every listed diag
    is also kept.

    Siblings share their transforms. A level-j diag's children differ
    only in its two new bits, b_o (bit 2j-3) and b_d (bit 2j-2), and
    these touch only the slice's high half (top coordinate t = 1): they
    add t (b_d + 2 b_o y_{j-2}) to the exponent. So each parent, the
    child with both bits clear, gives two half-length transforms A (low
    half) and B (high half), and every child's spectrum is [A + B',
    A - B'] (_child_spectrum).

    Levels that read every suffix carry their spectra. Slice s of level j
    is level j-1's slices 2s and 2s+1 side by side, and a parent is a
    kept level-(j-1) diag D: with r = D >> (j-1), its exponent at y + t
    2^(j-1) is e_D(y) + 2t (r.y). So its A is D's level-(j-1) spectrum at
    slice 2s, and its B is D's spectrum at slice 2s+1 read at tone u xor
    r, (-1)^(r.y) being a Walsh shift. Such a level gathers its B from
    the carry in place of a demodulate and a transform. The first level
    that reads every suffix, sampled levels, and a level after one whose
    carry would exceed CARRY_BYTES or that transformed more than one batch
    demodulate and transform, a settled one only to start a carry.

    Each child's spectrum is computed once. A batch goes a block of
    parents at a time (one kind's spectra of a block take at most
    BLOCK_BYTES): the block's four kinds go into one (parents, kind,
    slices, width) array, whose powers give their keep mask, and its kept
    children's spectra, parent-major in kind order, are the carry's next
    rows. A level keeps those parts only when it may carry (below n, it
    reads every suffix and is carried or one batch) and drops them once
    they pass CARRY_BYTES; a settled level runs the blocks without the
    tone test. Every path gives the same bits as transforming each child's
    slice in full.

    level_keep(j, diags, carry) returns the keep mask and the carry for
    level j+1 (its kept spectra, or None). It must get whole sibling groups
    in extend_prefix order, as _search builds them: each row of
    diags.reshape(-1, 4), or (-1, 2) at j = 1, is one parent's children in
    kind (b_o + 2 b_d) order 0, 2, 1, 3, and the parents are level j-1's
    kept diags in order, carry's rows.
    """
    n, k = oracle.n, params.k
    hint_sq = oracle.norm_hint**2
    samples = params.resolved_suffix_samples(n)

    def level_keep(j: int, diags: np.ndarray, carry: Optional[np.ndarray]) -> tuple:
        # the trailing 0 is part of the stream key: dropping it changes every draw
        suffixes = draw_indices(1 << (n - j), samples, np.uint32, seed, "suffix", j, 0)
        width = 1 << j
        half = width >> 1
        ys = np.arange(width, dtype=np.uint32)
        pos = (suffixes[:, None] << np.uint32(j)) | ys[None, :]
        vals = oracle.query_many(pos.ravel()).reshape(len(suffixes), width)
        scale = 2.0 ** (j - n) * hint_sq
        bar = scale / (4.0 * k * C2) * width
        cut = hint_sq / (2.0 * k)
        mag = np.abs(vals)
        energy = np.einsum("sy,sy->s", mag, mag)
        gated = energy > (k / (C1 / 40.0)) * scale
        need = math.ceil((1.0 + C1) / (8.0 * k) * len(suffixes) - 1e-12)
        groups = diags.reshape(-1, 2 if j == 1 else 4)
        kinds = (0, 2, 1, 3)[: groups.shape[1]]
        # a slice's largest tone power is at least its energy (Parseval): enough slices
        # passing on energy keep every child. The margin covers the powers' rounding,
        # about j eps 2^(j/2) of the energy from the fwht, the einsum's less: under 1e-11 at j <= 20
        settled = j < n and (gated | (energy >= bar * (1 + 1e-6))).sum() >= need

        def fresh(parents: np.ndarray) -> np.ndarray:
            """The parents' half transforms, (parents, 2 * slices, half): A at 2s, B at 2s + 1."""
            rows = demodulate(vals, parents, j, ys).reshape(len(parents), -1, half)
            return fwht(rows, overwrite_input=True)

        def run(lo: int, hi: int) -> Tuple[np.ndarray, Optional[list]]:
            parents = groups[lo:hi, 0]
            src = fresh(parents) if carry is None else carry[lo:hi]
            keep = np.ones((hi - lo, len(kinds)), dtype=bool)
            parts, size = [] if carries else None, 0
            # a block's four kinds of spectra, (parents, kind, slices, width), and their powers
            step = max(1, BLOCK_BYTES // (16 * vals.size))
            spec = np.empty((min(step, hi - lo), len(kinds)) + vals.shape, dtype=np.complex128)
            power, square = np.empty(spec.shape), np.empty(spec.shape)
            for at in range(0, hi - lo, step):
                block = src[at : at + step]
                a, b, out = block[:, 0::2], block[:, 1::2], spec[: len(block)]
                if carry is not None:
                    # each carried parent D's B, read at tone u xor (D >> (j-1))
                    r = (parents[at : at + step] >> np.uint64(j - 1)).astype(np.intp)
                    u = np.arange(half) ^ r[:, None, None]
                    b = b[np.arange(len(b))[:, None, None], np.arange(b.shape[1])[:, None], u]
                bs = (b, b * I_POWERS[3])  # B and -i B
                for col, kind in enumerate(kinds):
                    _child_spectrum(a, bs[kind >> 1], kind & 1, out[:, col])
                if not settled:
                    pw = np.square(out.real, out=power[: len(block)])
                    pw += np.square(out.imag, out=square[: len(block)])
                    top = pw.max(axis=-1)
                    keep[at : at + step] = ((top >= bar) | gated).sum(axis=-1) >= need
                    if j == n:
                        # the tones that may clear the cut, of children whose top may; their dots
                        rows, cols = np.nonzero(top[:, :, 0] >= width * cut * (1 - 1e-6))
                        sub, tones = np.nonzero(pw[rows, cols, 0] >= width * cut * (1 - 1e-6))
                        rows, cols = rows[sub], cols[sub]
                        dots = out[rows, cols, 0, tones] / math.sqrt(width)
                        hit = np.abs(dots) ** 2 >= cut
                        found.append((groups[lo + at + rows, cols][hit], tones[hit], dots[hit]))
                if parts is not None:
                    # the kept children's spectra, parent-major in kind order: the carry's rows
                    parts.append(out[keep[at : at + step]])
                    size += parts[-1].nbytes
                    parts = parts if size <= CARRY_BYTES else None
            return keep, parts

        # parents are batched at 4x the row size, so a batch's rows take at most
        # CARRY_BYTES; beyond them it holds a few blocks of spectra and powers,
        # and its kept spectra at most twice (their parts and the carry joined from them)
        ends = np.cumsum([len(c) for c in diag_chunks(groups, 4 * vals.size)]).tolist()
        starts = [0] + ends[:-1]
        # a carry comes from the previous one or a lone batch: after several fresh
        # batches, the next level's parents fit one batch if they fit a carry
        carries = j < n and len(suffixes) == 1 << (n - j) and (carry is not None or len(ends) == 1)
        if settled and not (carries and 16 * groups.size * vals.size <= CARRY_BYTES):
            return np.ones(diags.shape, dtype=bool), None
        if params.threads > 1 and len(ends) > 1:
            with ThreadPoolExecutor(max_workers=params.threads) as pool:
                runs = list(pool.map(run, starts, ends))
        else:
            runs = list(map(run, starts, ends))
        keep = np.concatenate([keep for keep, _ in runs]).ravel()
        fits = carries and 16 * int(keep.sum()) * vals.size <= CARRY_BYTES
        return keep, np.concatenate([p for _, parts in runs for p in parts]) if fits else None

    return level_keep


def _lean_levels(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int,
    found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Callable[[int, np.ndarray, Optional[tuple]], Tuple[np.ndarray, tuple]]:
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
    prefix, and the candidate cap never binds for this profile. A level's
    carry is its values at bases and bases ^ e_{j-1}.
    """
    n = oracle.n
    rng = child_rng(seed, "pool")
    bases = np.unique(rng.integers(0, 1 << n, size=4 * POOL_BASES, dtype=np.uint64))
    rng.shuffle(bases)
    bases = bases[:POOL_BASES].astype(np.uint32)
    bar = 0.2

    def level_keep(j: int, test_set: np.ndarray, carry: Optional[tuple]) -> tuple:
        # the values at bases, read at level 1, and at bases ^ e_{j-2}
        v_base, v_prev = carry or (oracle.query_many(bases), None)
        d1 = np.uint32(1 << (j - 1))
        p1 = bases ^ d1
        v1 = oracle.query_many(p1)
        w0 = demodulate(v_base, test_set, j, bases)
        w1 = demodulate(v1, test_set, j, p1)
        t1 = w1 * np.conj(w0)
        sq = t1 * t1
        norm = np.mean(np.abs(sq), axis=1)
        s_diag = np.mean(sq.real, axis=1) / np.maximum(norm, 1e-300)
        keep = s_diag >= bar
        if j >= 2:
            p2 = p1 ^ np.uint32(1 << (j - 2))
            w2 = demodulate(oracle.query_many(p2), test_set, j, p2)
            wp = demodulate(v_prev, test_set, j, bases ^ (d1 >> 1))
            mixed = w2 * np.conj(w1) * np.conj(wp) * w0
            norm = np.mean(np.abs(mixed), axis=1)
            s_off = np.mean(mixed.real, axis=1) / np.maximum(norm, 1e-300)
            keep &= s_off >= bar
        if j < n or not keep.any():
            return keep, (v_base, v1)
        # finish: linear parts from the sign of the pair correlation along each coordinate,
        # over the pool the levels read: bases, bases ^ e_i and bases ^ e_i ^ e_{i-1}
        kept = test_set[keep]
        coords = np.uint32(1) << np.arange(n, dtype=np.uint32)
        probes = bases ^ coords[:, None]
        positions = np.unique(np.concatenate([bases[None], probes, probes[1:] ^ coords[:-1, None]]))
        walls = demodulate(oracle.query_many(positions), kept, n, positions)
        partners = np.searchsorted(positions, probes)
        anchors = np.conj(walls[:, None, np.searchsorted(positions, bases)])
        corr = np.mean(walls[:, partners] * anchors, axis=-1)
        ells = ((corr.real < 0.0) * coords).sum(axis=1, dtype=np.uint32)
        # coefficients: the whole pool, demodulated by each survivor's linear part
        eell = 2 * (np.bitwise_count(positions & ells[:, None]) & 1)
        chats = np.mean(walls * I_POWERS[(-eell) & 3], axis=1) * math.sqrt(1 << n)
        heavy = np.flatnonzero(np.abs(chats) ** 2 >= oracle.norm_hint**2 / (2.0 * params.k))
        found.append((kept[heavy], ells[heavy], chats[heavy]))
        return keep, (v_base, v1)

    return level_keep


class DecodedList(Sequence):
    """A decode's list of (label, coefficient) pairs, held as three read-only arrays.

    diags (uint64), ells (int64) and dots (complex128) are the listed tones
    in list order, so the list keeps 32 bytes a tone. Reading a pair builds
    its CodewordLabel and complex afresh; a pass over the list builds one
    HankelMat per diag and shares it among that diag's labels.
    """

    __slots__ = ("n", "diags", "ells", "dots")

    def __init__(self, n: int, diags: np.ndarray, ells: np.ndarray, dots: np.ndarray):
        for a in (diags, ells, dots):
            a.flags.writeable = False
        self.n, self.diags, self.ells, self.dots = n, diags, ells, dots

    def __len__(self) -> int:
        return len(self.dots)

    def __getitem__(self, i: int) -> Tuple[CodewordLabel, complex]:
        label = CodewordLabel(HankelMat(self.n, int(self.diags[i])), int(self.ells[i]), 0)
        return label, complex(self.dots[i])

    def __iter__(self) -> Iterator[Tuple[CodewordLabel, complex]]:
        mats = {}
        for d, ell, c in zip(self.diags.tolist(), self.ells.tolist(), self.dots.tolist()):
            if d not in mats:
                mats[d] = HankelMat(self.n, d)
            yield CodewordLabel(mats[d], ell, 0), c

    def __add__(self, other) -> List[Tuple[CodewordLabel, complex]]:
        return list(self) + list(other)


def list_decode_hankel(
    oracle: SampleOracle,
    params: DecoderParams,
    seed: int = 0,
) -> Tuple[DecodedList, DecodeStats]:
    """All Hankel codewords carrying a 1/k energy fraction, with estimates.

    profile="kerdock" lists the lf-Kerdock subcode by one shift instead of a
    search. For a word c with matrix P, s(y) conj s(y xor 1) is a Walsh tone
    of height |c|^2 at P e_0, its top row. Each u where the fwht of that
    product has magnitude hint^2 / 4k or more names lf_kerdock(ctx, u), for
    ctx = FieldContext.default(n); the fwht of the values it read, demodulated
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

    Returns (results, stats): a DecodedList of (label, coefficient) pairs by
    descending estimated energy, labelled only as they are read. The oracle is
    wrapped in a cache, so repeated positions are charged once; stats.queries
    counts the distinct positions this decode read and stats.queries_raw its
    requests. The robust and lean profiles are each a level function in the
    one search, at every n and k (see the module docstring for k >= 2^n).
    Raises CandidateOverflow when a level exceeds the cap, and ValueError
    before any read when n < 1, when a robust or Kerdock decode would exceed
    n = DENSE_MAX_N, when the norm hint squares to 0 (every bar would be 0 and
    list every codeword), or when a robust decode has k >= 2^n at n > 7.
    """
    if oracle.n < 1:
        raise ValueError(f"decoding needs n >= 1, got n={oracle.n}")
    if params.profile != "lean" and oracle.n > DENSE_MAX_N:
        fix = 'use profile="lean"' if params.profile == "robust" else "sampling is ROADMAP item 11"
        raise ValueError(
            f"the {params.profile} profile reads all 2^n positions and is limited to "
            f"n <= {DENSE_MAX_N}, got n={oracle.n}; {fix}"
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

    found = [(np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0, np.complex128))]
    read, raw = cached.distinct_count, cached.query_count
    cap = params.resolved_cap()
    if params.profile == "kerdock":
        ys = np.arange(1 << n, dtype=np.uint32)
        vals = cached.query_many(ys)
        peaks = np.abs(fwht(vals * np.conj(vals[ys ^ np.uint32(1)]), overwrite_input=True))
        tops = np.flatnonzero(peaks >= cached.norm_hint**2 / (4.0 * params.k))
        stats.g, stats.f = [1 << n], [len(tops)]
        if len(tops) > cap:
            # sparse-approx takes no --cap, and no k helps where every even top row
            # peaks (two adjacent spikes): name the input as the cause
            raise CandidateOverflow(1, len(tops), cap, "the signal is far from a few Kerdock words")
        ctx = FieldContext.default(n)
        diags = np.array([lf_kerdock(ctx, int(u)).diag for u in tops], dtype=np.uint64)
        # the finish, from the values already read: the robust level n's dots, bit for bit
        bar = cached.norm_hint**2 / (2.0 * params.k)
        for batch in diag_chunks(diags, 4 * vals.size):
            dots = fwht(demodulate(vals, batch, n, ys), overwrite_input=True)
            dots /= math.sqrt(1 << n)
            rows, ells = np.nonzero(np.abs(dots) ** 2 >= bar)
            found.append((batch[rows], ells, dots[rows, ells]))
        stats.level_seconds.append(time.perf_counter() - t0)
        stats.level_reads.append(cached.distinct_count - read)
    elif params.profile == "lean":
        _search(cached, cap, stats, _lean_levels(cached, params, seed, found))
    else:
        _search(cached, cap, stats, _exact_levels(cached, params, seed, found))

    # by descending |dot|^2 as Python computes it (numpy's rounds near-ties otherwise), diag, ell
    diags, ells, dots = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((ells, diags, [-abs(c) ** 2 for c in dots.tolist()]))
    results = DecodedList(n, diags[order], ells[order], dots[order])
    stats.queries = cached.distinct_count - read
    stats.queries_raw = cached.query_count - raw
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
