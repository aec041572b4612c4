"""Dense exhaustive references and structural verifiers.

Everything here trades time for certainty: exact dot products over whole
codebooks, exhaustive membership and rank counts, brute-force best-k
approximations. The sublinear decoders are tested against these, never the
other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from kerdock.codebook import (
    CodewordLabel,
    HankelMat,
    SymMat,
    check_commute,
    demodulate,
    dense_codeword,
    diag_chunks,
    exponents_at,
    gf2_inv,
    gf2_matmul,
    gf2_rank,
    gf2_rank_batch,
    gray_codeword,
    is_kerdock_label,
    kerdock_set,
    pair_dot,
    predict_dot_magnitude,
    rank_distance,
    trace_kerdock,
)
from kerdock.field import FieldContext, poly_mul
from kerdock.rng import child_rng
from kerdock.signal import fwht, signal_n

__all__ = [
    "dense_dot_table",
    "dense_heavy_set",
    "best_k_kerdock",
    "verify_kerdock_set",
    "count_hankel_by_rank",
    "verify_dickson",
    "IndependenceReport",
    "verify_independence",
    "verify_gray_independence",
    "verify_commute_equivalence",
    "verify_homomorphism",
    "random_sym_rows",
]


def dense_dot_table(values: np.ndarray, diags: Optional[np.ndarray] = None):
    """Exact <s, phi_(Q,l)> for every label whose Hankel diag is given, eps = 0.

    diags defaults to all 2^(2n-1) Hankel diags in order. Yields
    (diags_block, dots_block) with dots of shape (len(block), 2^n);
    dots_block[a, l] is the inner product against the codeword (Q_a, l).
    Blocks are sized to the decoder's demodulate-and-transform budget.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = signal_n(values.size)
    if diags is None:
        diags = np.arange(1 << (2 * n - 1), dtype=np.int64)
    ys = np.arange(1 << n, dtype=np.uint32)
    scale = 1.0 / np.sqrt(1 << n)
    for chunk in diag_chunks(diags, 1 << n):
        dots = fwht(demodulate(values, chunk, n, ys), axis=1) * scale
        yield chunk, dots


def dense_heavy_set(
    values: np.ndarray, threshold_sq: float, diags: Optional[np.ndarray] = None
) -> List[Tuple[CodewordLabel, complex]]:
    """All labels over the given diags whose exact |<s, phi>|^2 meets threshold_sq.

    Listed in the order of diags, then l; so sorted by (Q, l) by default.
    """
    n = signal_n(np.asarray(values).size)
    out = []
    for chunk, dots in dense_dot_table(values, diags):
        hits = np.nonzero(np.abs(dots) ** 2 >= threshold_sq)
        for a, ell in zip(*hits):
            lab = CodewordLabel(HankelMat(n, int(chunk[a])), int(ell), 0)
            out.append((lab, complex(dots[a, ell])))
    return out


def best_k_kerdock(
    ctx: FieldContext, values: np.ndarray, k: int
) -> Tuple[List[CodewordLabel], np.ndarray, float]:
    """Greedy brute-force k-term Kerdock approximation with joint refit.

    Each round scans every Kerdock codeword's exact dot against the residual
    and takes the largest |dot|, exact ties going to the smallest (Q, l), so
    the pick does not depend on how the scan is batched; coefficients are
    then refit jointly by least squares. Returns (labels, coefficients,
    error norm).
    """
    if k < 1:
        raise ValueError(f"best_k_kerdock needs k >= 1, got k={k}")
    values = np.asarray(values, dtype=np.complex128)
    diags = np.array(sorted(m.diag for m in kerdock_set(ctx)), dtype=np.int64)
    chosen: List[CodewordLabel] = []
    vectors: List[np.ndarray] = []
    residual = values.copy()
    for _ in range(k):
        picks = []
        for chunk, dots in dense_dot_table(residual, diags):
            mags = np.abs(dots)
            # argmax returns the first maximum, the smallest (Q, l) in the batch
            a, ell = np.unravel_index(np.argmax(mags), mags.shape)
            picks.append((-float(mags[a, ell]), int(chunk[a]), int(ell)))
        _, diag, ell = min(picks)
        lab = CodewordLabel(HankelMat(ctx.n, diag), ell, 0)
        if any(lab == c for c in chosen):
            break
        chosen.append(lab)
        vectors.append(dense_codeword(lab))
        basis = np.array(vectors)
        gram = basis.conj() @ basis.T
        rhs = basis.conj() @ values
        coeffs = np.linalg.solve(gram, rhs)
        residual = values - coeffs @ basis
    return chosen, coeffs, float(np.linalg.norm(residual))


# Structural verifiers -----------------------------------------------------


def verify_kerdock_set(ctx: FieldContext) -> Dict[str, bool]:
    """Exhaustive membership and rank checks of the linear-feedback family."""
    mats = kerdock_set(ctx)
    n = ctx.n
    contains_zero = any(m.diag == 0 for m in mats)
    nonzero_full = all(
        gf2_rank(m.rows) == n for m in mats if m.diag != 0
    )
    # one batched rank call per member: its sums with every later member
    rows = np.array([m.rows for m in mats], dtype=np.uint32)
    sums_full = all(
        bool((gf2_rank_batch(rows[i] ^ rows[i + 1 :], n) == n).all())
        for i in range(len(mats) - 1)
    )
    trace_match = {m.diag for m in mats} == {
        trace_kerdock(ctx, x).diag for x in range(1 << n)
    }
    size_ok = len({m.diag for m in mats}) == 1 << n
    return {
        "contains_zero": contains_zero,
        "nonzero_full_rank": nonzero_full,
        "pairwise_sums_full_rank": sums_full,
        "matches_trace_construction": trace_match,
        "size_2n": size_ok,
    }


def count_hankel_by_rank(n: int) -> Dict[int, int]:
    """Histogram of GF(2) rank over all 2^(2n-1) Hankel matrices."""
    if n > 9:
        raise ValueError("exhaustive rank count limited to n <= 9")
    diags = np.arange(1 << (2 * n - 1), dtype=np.uint32)
    mask = np.uint32((1 << n) - 1)
    rows = np.stack([(diags >> np.uint32(i)) & mask for i in range(n)], axis=1)
    ranks = gf2_rank_batch(rows, n)
    counts = np.bincount(ranks, minlength=n + 1)
    return {r: int(c) for r, c in enumerate(counts)}


def verify_dickson(
    n: int, num_pairs: int, seed: int = 0, tol: float = 1e-9
) -> Dict[str, object]:
    """Sampled check that RM(2) inner products obey the rank law.

    For every sampled label pair the exact |<phi_1, phi_2>| must be 0 or
    2^(-rank(Q1 xor Q2)/2), and must land on the branch that
    predict_dot_magnitude derives from the labels alone. Equal linear
    parts force the nonzero branch whenever the Q-difference has full
    rank; for degenerate differences the zero branch does occur even at
    equal l (the report counts those), so the nonzero guarantee is only
    asserted on the full-rank subpopulation.
    """
    rng = child_rng(seed, "dickson", n)
    failures = []
    branch_mismatches = []
    zero_with_equal_ell = 0
    full_rank_equal_ell = 0
    full_rank_equal_ell_zero = 0
    checked = 0
    for trial in range(num_pairs):
        rows1 = random_sym_rows(rng, n)
        rows2 = random_sym_rows(rng, n)
        same_ell = trial % 2 == 0
        ell1 = int(rng.integers(0, 1 << n))
        ell2 = ell1 if same_ell else int(rng.integers(0, 1 << n))
        eps1 = int(rng.integers(0, 4))
        eps2 = int(rng.integers(0, 4))
        a = CodewordLabel(SymMat(n, rows1), ell1, eps1)
        b = CodewordLabel(SymMat(n, rows2), ell2, eps2)
        mag = abs(pair_dot(a, b))
        r = rank_distance(a.q, b.q)
        expected = 2.0 ** (-r / 2.0)
        ok = abs(mag) <= tol or abs(mag - expected) <= tol
        if not ok:
            failures.append((a, b, mag, expected))
        if abs(mag - predict_dot_magnitude(a, b)) > tol:
            branch_mismatches.append((a, b, mag))
        if same_ell and mag <= tol:
            zero_with_equal_ell += 1
        if same_ell and r == n:
            full_rank_equal_ell += 1
            if mag <= tol:
                full_rank_equal_ell_zero += 1
        checked += 1
    return {
        "checked": checked,
        "failures": failures,
        "branch_mismatches": branch_mismatches,
        "zero_with_equal_ell": zero_with_equal_ell,
        "full_rank_equal_ell": full_rank_equal_ell,
        "full_rank_equal_ell_zero": full_rank_equal_ell_zero,
    }


def random_sym_rows(rng, n: int) -> tuple:
    """Rows of a symmetric n x n GF(2) matrix, one rng.integers(0, 2) draw per upper entry."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.integers(0, 2):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def _kerdock_codeword_values(ctx: FieldContext) -> np.ndarray:
    """All N^2 * 4 Kerdock codewords as Z4 rows of length N."""
    N = 1 << ctx.n
    labels = [
        CodewordLabel(m, ell, eps) for m in kerdock_set(ctx) for ell in range(N) for eps in range(4)
    ]
    return exponents_at(labels, np.arange(N, dtype=np.uint32)).astype(np.int8)


@dataclass
class IndependenceReport:
    n: int
    three_wise: bool
    three_half_wise: bool
    four_wise: bool
    three_half_witness: Optional[tuple] = None
    four_witness: Optional[tuple] = None


def verify_independence(n: int) -> IndependenceReport:
    """Exhaustive k-position balance checks of the Z4 Kerdock code.

    A uniformly random codeword should be uniform on any 3 positions; on a
    4th position, conditioned on the other three, the halves {0,2} and {1,3}
    should balance (the 3.5-wise property). Both are checked over every
    position combination, with witnesses for whichever fails.
    """
    if n not in (3, 4, 5):
        raise ValueError("exhaustive independence check supports n in {3,4,5}")
    cw = _kerdock_codeword_values(FieldContext.default(n)).astype(np.int64)
    N = 1 << n
    m = len(cw)
    three = True
    for t in combinations(range(N), 3):
        packed = (cw[:, t[0]] * 4 + cw[:, t[1]]) * 4 + cw[:, t[2]]
        if not (np.bincount(packed, minlength=64) == m // 64).all():
            three = False
            break
    three_half = True
    th_witness = None
    four = True
    four_witness = None
    for t in combinations(range(N), 4):
        packed3 = (cw[:, t[0]] * 4 + cw[:, t[1]]) * 4 + cw[:, t[2]]
        joint = np.bincount(packed3 * 4 + cw[:, t[3]], minlength=256).reshape(64, 4)
        if not (joint == m // 256).all():
            four = False
            if four_witness is None:
                four_witness = t
        if not ((joint[:, 0] == joint[:, 2]).all() and (joint[:, 1] == joint[:, 3]).all()):
            three_half = False
            if th_witness is None:
                th_witness = t
        if not three_half and not four:
            break
    return IndependenceReport(n, three, three_half and three, four, th_witness, four_witness)


def verify_gray_independence(n: int) -> bool:
    """Whether the Gray image of the Kerdock code is 4-wise independent."""
    if n not in (3, 4):
        raise ValueError("exhaustive Gray check supports n in {3,4}")
    cw = _kerdock_codeword_values(FieldContext.default(n))
    bits = gray_codeword(cw)
    m = len(bits)
    for t in combinations(range(2 << n), 4):
        packed = ((bits[:, t[0]] * 2 + bits[:, t[1]]) * 2 + bits[:, t[2]]) * 2 + bits[:, t[3]]
        if not (np.bincount(packed, minlength=16) == m // 16).all():
            return False
    return True


def verify_commute_equivalence(ctx: FieldContext) -> Dict[str, object]:
    """Three characterizations of Kerdock membership agree on every Hankel matrix.

    (a) the top row regenerates the matrix through the feedback recurrence,
    (b) the bilinear form commutes with multiplication by the generator,
    (c) u^T P v depends only on sqrt(uv):  u^T P v = w^T P w for w = sqrt(uv).
    Exhaustive over all 2^(2n-1) Hankel matrices; n <= 6.
    """
    n = ctx.n
    if n > 6:
        raise ValueError("exhaustive three-way check limited to n <= 6")
    size = 1 << n
    # carry-less products and sqrt(uv) lookup over all element pairs
    pm = np.empty((size, size), dtype=np.uint32)
    sq = np.empty((size, size), dtype=np.int64)
    for u in range(size):
        for v in range(size):
            pm[u, v] = poly_mul(u, v)
            sq[u, v] = ctx.sqrt(ctx.mul(u, v))
    pm_self = pm.diagonal()
    agree = True
    members = 0
    witness = None
    for diag in range(1 << (2 * n - 1)):
        mat = HankelMat(n, diag)
        a = is_kerdock_label(ctx, diag)
        b = check_commute(ctx, mat)
        bil = (np.bitwise_count(np.uint32(diag) & pm) & 1).astype(np.int64)
        qvec = (np.bitwise_count(np.uint32(diag) & pm_self) & 1).astype(np.int64)
        c = bool((bil == qvec[sq]).all())
        if not (a == b == c):
            agree = False
            if witness is None:
                witness = (diag, a, b, c)
        if a:
            members += 1
    return {"agree": agree, "members": members, "expected": size, "witness": witness}


def verify_homomorphism(ctx: FieldContext) -> Dict[str, bool]:
    """The normalized trace matrices multiply like the field itself.

    With J the inverse of the Gram matrix K_1, the map x -> K_x J satisfies
    (K_x J)(K_y J) = K_(xy) J and K_(x+y) = K_x + K_y. Exhaustive; n <= 8.
    """
    n = ctx.n
    if n > 8:
        raise ValueError("exhaustive homomorphism check limited to n <= 8")
    size = 1 << n
    k = [trace_kerdock(ctx, x).rows for x in range(size)]
    j_rows = gf2_inv(list(k[1]), n)
    kj = [gf2_matmul(k[x], j_rows) for x in range(size)]
    additive = all(
        all(ka ^ kb == kc for ka, kb, kc in zip(k[x], k[y], k[x ^ y]))
        for x in range(size)
        for y in range(size)
    )
    multiplicative = all(
        gf2_matmul(kj[x], kj[y]) == kj[ctx.mul(x, y)] for x in range(size) for y in range(size)
    )
    return {"additive": additive, "multiplicative": multiplicative}
