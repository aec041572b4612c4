"""Quadratic codebooks over Z4: second-order Reed-Muller, Hankel, Kerdock.

A codeword is indexed by a symmetric binary matrix Q, a linear part ell and a
phase eps; its value at position y (an n-bit int, bit i = coordinate i) is

    i^(y^T Q y + 2 ell.y + eps) / sqrt(N),   N = 2^n,

where y^T Q y is evaluated over the integers (diagonal entries count once,
off-diagonal pairs twice) and everything is reduced mod 4. Restricting Q to
Hankel matrices gives the Hankel codebook; restricting further to the
linear-feedback family gives a Kerdock codebook.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from kerdock.field import FieldContext

__all__ = [
    "SymMat",
    "HankelMat",
    "MatLike",
    "CodewordLabel",
    "diag_bits",
    "quad_form",
    "exponents_at",
    "codeword_sum",
    "hankel_exponents_batch",
    "demodulate",
    "diag_chunks",
    "BATCH_BYTES",
    "SLICE_ELEMS",
    "I_POWERS",
    "DENSE_MAX_N",
    "dense_codeword",
    "gf2_rank",
    "gf2_rank_batch",
    "gf2_inv",
    "gf2_matmul",
    "gf2_nullspace",
    "gray_codeword",
    "z4_to_z2_label",
    "pair_dot",
    "predict_dot_magnitude",
    "rank_distance",
    "check_commute",
    "lf_kerdock",
    "is_kerdock_label",
    "trace_kerdock",
    "kerdock_set",
    "format_label",
    "parse_label",
    "pack_hex",
    "unpack_hex",
]

# i^e for e in Z4; the only copy of this table in the package
I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)

# most rows x outputs in one pass of the exponent kernel, and positions in one slice of
# codeword_sum: both bound temporaries that grow with the input
SLICE_ELEMS = 1 << 16


@dataclass(frozen=True)
class SymMat:
    """Symmetric matrix over GF(2); row i is an int bitset."""

    n: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("row count must equal n")
        mask = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r & ~mask:
                raise ValueError("row has bits beyond n")
            for j in range(i):
                if (r >> j) & 1 != (self.rows[j] >> i) & 1:
                    raise ValueError("matrix is not symmetric")

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1


@dataclass(frozen=True)
class HankelMat:
    """Hankel matrix over GF(2): entry (i, j) depends only on i + j.

    diag packs the 2n-1 defining values, bit m = entry on antidiagonal m.
    """

    n: int
    diag: int

    def __post_init__(self):
        if self.diag & ~((1 << (2 * self.n - 1)) - 1):
            raise ValueError("diag has bits beyond 2n-1")

    def entry(self, i: int, j: int) -> int:
        return (self.diag >> (i + j)) & 1

    @cached_property
    def rows(self) -> tuple:
        mask = (1 << self.n) - 1
        return tuple((self.diag >> i) & mask for i in range(self.n))


MatLike = Union[SymMat, HankelMat]


def diag_bits(q: MatLike) -> int:
    """The diagonal of Q as an n-bit int: bit i is entry (i, i)."""
    return sum(((row >> i) & 1) << i for i, row in enumerate(q.rows))


@dataclass(frozen=True)
class CodewordLabel:
    """Index (Q, ell, eps) of one codeword; n is Q.n."""

    q: MatLike
    ell: int
    eps: int = 0

    def __post_init__(self):
        if self.ell & ~((1 << self.q.n) - 1):
            raise ValueError("ell has bits beyond n")
        if self.eps not in (0, 1, 2, 3):
            raise ValueError("eps must be in Z4")

    @property
    def n(self) -> int:
        return self.q.n


def quad_form(q: MatLike, y: int) -> int:
    """y^T Q y over the integers, reduced mod 4."""
    total = 0
    for i, row in enumerate(q.rows):
        if (y >> i) & 1:
            total += (row & y).bit_count()
    return total & 3


def _quad_exponents(rows: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """y^T Q y mod 4 as uint8, from the row bitmasks of Q.

    rows[i] holds row i of Q and broadcasts against ys (uint64), so one
    matrix or a stack of matrices is evaluated by the same loop. Diagonal
    bits count once and off-diagonal pairs twice, as in quad_form. A pass
    takes as many rows as keep rows x outputs within SLICE_ELEMS: a small
    input is one pass, and a large one a row at a time, with one uint64 word
    per output element.
    """
    shifts = np.arange(len(rows), dtype=np.uint64).reshape((-1,) + (1,) * (rows.ndim - 1))
    # bit i of every y, cast to uint8 as it is written: no uint64 temporary
    bits = np.empty(np.broadcast(shifts, ys).shape, dtype=np.uint8)
    np.right_shift(ys, shifts, out=bits, casting="unsafe")
    bits &= 1
    # uint8 wraparound is mod 256, a multiple of 4, so the mod-4 value survives
    total = np.zeros(np.broadcast(rows, ys).shape[1:], dtype=np.uint8)
    step = max(1, SLICE_ELEMS // max(1, total.size))
    for lo in range(0, len(rows), step):
        counts = np.bitwise_count(rows[lo : lo + step] & ys)
        # each row's counts times its bit plane, summed over the rows in one uint8 pass
        total += np.einsum("r...,r...->...", counts, bits[lo : lo + step])
    return total & 3


def exponents_at(labels: Sequence[CodewordLabel], ys: np.ndarray) -> np.ndarray:
    """Phase exponents mod 4 of each label (all of one n) at the given positions.

    One stacked pass over the labels; the output has shape (len(labels),) + ys.shape.
    """
    ys = np.asarray(ys, dtype=np.uint64)
    # one value per label, broadcast over ys; one label broadcasts without the label
    # axis, as each small ufunc call costs more with it (the lean path reads 4 positions)
    lead = (len(labels),) * (len(labels) != 1) + (1,) * ys.ndim
    rows = np.array([lab.q.rows for lab in labels], dtype=np.uint64).T
    total = _quad_exponents(rows.reshape((len(rows),) + lead), ys)
    ells = np.array([lab.ell for lab in labels], dtype=np.uint64).reshape(lead)
    total += np.uint8(2) * (np.bitwise_count(ys & ells) & np.uint8(1))
    total += np.array([lab.eps for lab in labels], dtype=np.uint8).reshape(lead)
    return (total & 3).reshape((len(labels),) + ys.shape)


def codeword_sum(
    terms: Iterable[Tuple[CodewordLabel, complex]], ys: np.ndarray
) -> np.ndarray:
    """Sum of coeff * codeword over (label, coeff) terms at positions ys.

    The one evaluator of codeword values, i^exponent / sqrt(N): exponents from
    one stacked pass, terms added in order, each as coeff * (1 / sqrt(N)) times
    a unit phase, so every caller that sums the same terms gets the same bits.
    The pass takes SLICE_ELEMS positions at a time, as its temporaries (a uint64
    word per label and position, a bit per row and position) grow with both.
    """
    terms = list(terms)
    labels = [label for label, _ in terms]
    out = np.zeros(np.shape(ys), dtype=np.complex128)
    flat, at = out.reshape(-1), np.ravel(ys)
    for lo in range(0, at.size, SLICE_ELEMS):
        part = flat[lo : lo + SLICE_ELEMS]
        for (label, coeff), e in zip(terms, exponents_at(labels, at[lo : lo + SLICE_ELEMS])):
            # the term's four values, looked up per position: the same bits as multiplying each
            part += (coeff * (1.0 / np.sqrt(1 << label.n)) * I_POWERS)[e]
    return out


def hankel_exponents_batch(diags: np.ndarray, j: int, ys: np.ndarray) -> np.ndarray:
    """y^T H y mod 4 for many j x j Hankel diags at the same positions.

    diags holds the 2j-1 reverse-diagonal bit masks; output has shape
    (len(diags), len(ys)). Row a of each matrix is just diag >> a, which
    keeps the whole evaluation inside vectorized word ops.
    """
    diags = np.asarray(diags, dtype=np.uint64)
    ys = np.asarray(ys, dtype=np.uint64)
    shifts = np.arange(j, dtype=np.uint64)[:, None, None]
    rows = (diags[None, :, None] >> shifts) & np.uint64((1 << j) - 1)
    return _quad_exponents(rows, ys[None, :])


def demodulate(values: np.ndarray, diags: np.ndarray, j: int, ys: np.ndarray) -> np.ndarray:
    """values * i^(-y^T H y) for every j x j Hankel diag, positions ys.

    values has ys as its last axis; the output gains a leading axis over
    diags, so a Walsh-Hadamard transform along the last axis turns the
    quadratic component H of each slice into a pure tone.
    """
    values = np.asarray(values)
    phases = I_POWERS[(-hankel_exponents_batch(diags, j, ys)) & 3]
    lead = (1,) * (values.ndim - 1)
    return values[None, ...] * phases.reshape(phases.shape[:1] + lead + phases.shape[1:])


# largest batch of demodulated rows diag_chunks hands out
BATCH_BYTES = 48 << 20


def diag_chunks(diags: np.ndarray, row_elems: int) -> List[np.ndarray]:
    """Split diags into batches whose demodulated rows take at most BATCH_BYTES.

    row_elems is the number of complex values demodulate produces per diag.
    """
    size = max(1, BATCH_BYTES // (16 * row_elems))
    return [diags[i : i + size] for i in range(0, len(diags), size)]


# largest n whose whole domain is ever held as one vector (2^20 complex: 16 MB)
DENSE_MAX_N = 20


def dense_codeword(label: CodewordLabel) -> np.ndarray:
    """All N values of the codeword as a complex vector of unit norm."""
    n = label.n
    if n > DENSE_MAX_N:
        raise ValueError(f"dense evaluation limited to n <= {DENSE_MAX_N}")
    return codeword_sum([(label, 1.0)], np.arange(1 << n, dtype=np.uint32))


# GF(2) linear algebra on int-bitset rows --------------------------------


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) by Gaussian elimination on integer bitsets."""
    rank = 0
    pivots: List[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def gf2_rank_batch(rows: np.ndarray, ncols: int) -> np.ndarray:
    """Ranks of many GF(2) matrices at once.

    rows has shape (m, nrows) with each entry an int bitset row; returns the
    rank of each of the m matrices. Elimination runs column by column with a
    per-matrix pivot choice, all in vectorized integer ops.
    """
    rem = np.array(rows, dtype=np.uint32, copy=True)
    m, nrows = rem.shape
    rank = np.zeros(m, dtype=np.int64)
    ar = np.arange(m)
    for c in range(ncols):
        has_bit = (rem >> np.uint32(c)) & np.uint32(1)
        any_pivot = has_bit.any(axis=1)
        pidx = np.argmax(has_bit, axis=1)
        piv = rem[ar, pidx] * any_pivot
        rem ^= has_bit * piv[:, None]
        # the xor above also cleared the pivot row; that is exactly retiring it
        rank += any_pivot
    return rank


def gf2_nullspace(rows: Iterable[int], n: int) -> List[int]:
    """Basis of {v : A v = 0 over GF(2)} for an n-column matrix."""
    pivots: dict = {}
    for row in rows:
        cur = int(row)
        while cur:
            c = cur.bit_length() - 1
            if c in pivots:
                cur ^= pivots[c]
            else:
                pivots[c] = cur
                break
    for c in sorted(pivots, reverse=True):
        for c2 in pivots:
            if c2 > c and (pivots[c2] >> c) & 1:
                pivots[c2] ^= pivots[c]
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = 1 << f
        for c, row in pivots.items():
            if (row >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def gf2_inv(rows: Sequence[int], n: int) -> List[int]:
    """Inverse of an n x n GF(2) matrix; raises ValueError if singular."""
    aug = [(rows[i] | (1 << (n + i))) for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if (aug[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    return [aug[i] >> n for i in range(n)]


def gf2_matmul(a_rows: Sequence[int], b_rows: Sequence[int]) -> List[int]:
    """Product of GF(2) matrices with rows as bitsets."""
    out = []
    for ar in a_rows:
        acc = 0
        r = ar
        while r:
            k = (r & -r).bit_length() - 1
            acc ^= b_rows[k]
            r &= r - 1
        out.append(acc)
    return out


# Gray map ----------------------------------------------------------------

# the Gray bits of each Z4 value: 0 -> 00, 1 -> 01, 2 -> 11, 3 -> 10
_GRAY = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)


def gray_codeword(z4_values: np.ndarray) -> np.ndarray:
    """Componentwise Gray map of the last axis, interleaved: 2y and 2y+1 get y's pair."""
    v = np.asarray(z4_values, dtype=np.int64) & 3
    return _GRAY[v].reshape(v.shape[:-1] + (2 * v.shape[-1],))


def z4_to_z2_label(q: MatLike) -> SymMat:
    """Binary quadratic label of the Gray image.

    Maps an n x n symmetric Q to the (n+1) x (n+1) symmetric matrix with zero
    diagonal built from d = diag(Q): first row/column carry d, and the lower
    block is d d^T + Q mod 2.
    """
    n = q.n
    rows = q.rows
    d = diag_bits(q)
    out = [d << 1]
    for i in range(n):
        di = (d >> i) & 1
        block = (d if di else 0) ^ rows[i]
        out.append(di | (block << 1))
    return SymMat(n + 1, tuple(out))


# Inner products and ranks ------------------------------------------------


def pair_dot(a: CodewordLabel, b: CodewordLabel) -> complex:
    """Exact inner product <a, b> = sum_y a(y) conj(b(y)).

    Accumulates integer counts of the exponent difference mod 4, so the only
    rounding is one final division. Dense in N; capped at n <= 14.
    """
    if a.n != b.n:
        raise ValueError("labels live on different domains")
    if a.n > 14:
        raise ValueError("exact pair_dot capped at n <= 14")
    ys = np.arange(1 << a.n, dtype=np.uint32)
    ea, eb = exponents_at([a, b], ys).astype(np.int64)
    counts = np.bincount((ea - eb) & 3, minlength=4)
    num = complex(int(counts[0]) - int(counts[2]), int(counts[1]) - int(counts[3]))
    return num / (1 << a.n)


def rank_distance(a: MatLike, b: MatLike) -> int:
    """Rank of the GF(2) difference of two label matrices."""
    return gf2_rank(x ^ y for x, y in zip(a.rows, b.rows))


def predict_dot_magnitude(a: CodewordLabel, b: CodewordLabel) -> float:
    """Closed-form |<a, b>| from the labels alone: 2^(-R/2) or exactly 0.

    The phase difference of the two codewords collapses to one quadratic
    form q_A(y) + 2 b.y with A = Q_a xor Q_b and b = diag(~Q_a & Q_b) xor
    l_a xor l_b, because over the integers x - y = (x xor y) - 2(~x & y)
    entrywise and off-diagonal signs do not matter mod 4. The character
    sum over y vanishes iff some radical vector v (A v = 0) has
    q_A(v)/2 + b.v odd; otherwise its magnitude is 2^(-R/2) with
    R = rank(A). The functional is linear on the radical, so checking a
    nullspace basis suffices. With l_a = l_b the zero branch is ruled out
    whenever A has full rank (distinct Kerdock matrices), but not for
    general symmetric pairs: Q_a = [[0,0],[0,1]], Q_b = [[1,1],[1,0]]
    gives zero at equal l.
    """
    if a.n != b.n:
        raise ValueError("labels live on different domains")
    n = a.n
    diff = tuple(x ^ y for x, y in zip(a.q.rows, b.q.rows))
    # diag_bits(b.q) has n bits, so the complement needs no mask
    lin = (~diag_bits(a.q) & diag_bits(b.q)) ^ a.ell ^ b.ell
    diff_q = SymMat(n, diff)
    rank = 0
    for v in gf2_nullspace(diff, n):
        half = quad_form(diff_q, v) >> 1
        if (half ^ (lin & v).bit_count()) & 1:
            return 0.0
        rank -= 1
    rank += n
    return 2.0 ** (-rank / 2.0)


# Kerdock constructions ----------------------------------------------------


def check_commute(ctx: FieldContext, q: MatLike) -> bool:
    """Whether the bilinear form of Q commutes with field multiplication.

    Checks u^T Q (xi v) = (xi u)^T Q v over the basis u = xi^i, v = xi^j,
    which extends to all field elements by linearity and to all multipliers
    because xi generates the multiplicative group. Q is symmetric, so
    e_i^T Q v is the parity of row i & v, and u^T Q e_j that of u & row j.
    """
    if q.n != ctx.n:
        raise ValueError("matrix size must match field degree")
    rows = q.rows
    shifted = [ctx.mul(ctx.xi, 1 << i) for i in range(ctx.n)]
    for i in range(ctx.n):
        for j in range(ctx.n):
            if ((rows[i] & shifted[j]) ^ (shifted[i] & rows[j])).bit_count() & 1:
                return False
    return True


def lf_kerdock(ctx: FieldContext, top_row: int) -> HankelMat:
    """Kerdock matrix from a top row via the linear-feedback fill.

    The first n antidiagonal values are the top row; each later value is the
    feedback combination a_j = sum_l a_{j-n+l} h_l of the previous n.
    """
    n = ctx.n
    h_low = ctx.h & ((1 << n) - 1)
    diag = top_row & ((1 << n) - 1)
    for j in range(n, 2 * n - 1):
        bit = (((diag >> (j - n)) & ((1 << n) - 1)) & h_low).bit_count() & 1
        diag |= bit << j
    return HankelMat(n, diag)


def is_kerdock_label(ctx: FieldContext, diag: int) -> bool:
    """Whether the diag is the left-multiplication matrix of its top row."""
    top = diag & ((1 << ctx.n) - 1)
    return lf_kerdock(ctx, top).diag == diag


def trace_kerdock(ctx: FieldContext, alpha: int) -> HankelMat:
    """Kerdock matrix with entries trace(alpha xi^(i+j))."""
    n = ctx.n
    diag = 0
    p = alpha
    for m in range(2 * n - 1):
        diag |= ctx.trace(p) << m
        p = ctx.mul(p, ctx.xi)
    return HankelMat(n, diag)


def kerdock_set(ctx: FieldContext) -> List[HankelMat]:
    """All 2^n Kerdock matrices, ordered by top row."""
    return [lf_kerdock(ctx, r) for r in range(1 << ctx.n)]


# Text form ----------------------------------------------------------------


def pack_hex(value: int, nbits: int) -> str:
    width = (nbits + 3) // 4
    return format(value, f"0{width}x")


def unpack_hex(text: str, nbits: int) -> int:
    value = int(text, 16)
    if value & ~((1 << nbits) - 1):
        raise ValueError(f"hex value exceeds {nbits} bits")
    return value


def format_label(label: CodewordLabel) -> str:
    """Serialize as 'n;Q=<hex>;l=<hex>;e=<int>'.

    Hankel matrices pack their 2n-1 antidiagonal bits; general symmetric
    matrices pack all n^2 entries row-major. The two widths differ for every
    n > 2, which is how parse_label tells them apart. At n <= 2 every
    symmetric matrix is Hankel, so the Hankel form is always written there.
    """
    n = label.n
    q = label.q
    if isinstance(q, SymMat) and n <= 2:
        # antidiagonals 0..n-1 run along the first row, n..2n-2 along the last
        q = HankelMat(n, q.rows[0] | ((q.rows[-1] >> 1) << n))
    if isinstance(q, HankelMat):
        qtext = pack_hex(q.diag, 2 * n - 1)
    else:
        packed = 0
        for i, row in enumerate(q.rows):
            packed |= row << (i * n)
        qtext = pack_hex(packed, n * n)
    return f"{n};Q={qtext};l={pack_hex(label.ell, n)};e={label.eps}"


def parse_label(text: str) -> CodewordLabel:
    parts = text.strip().split(";")
    if len(parts) != 4:
        raise ValueError("label must have 4 ;-separated fields")
    n = int(parts[0])
    fields = {}
    for p in parts[1:]:
        key, _, val = p.partition("=")
        fields[key.strip()] = val.strip()
    missing = [key for key in ("Q", "l", "e") if key not in fields]
    if missing:
        raise ValueError(f"label lacks the field(s) {', '.join(missing)}")
    qtext = fields["Q"]
    diag_w = (2 * n - 1 + 3) // 4
    full_w = (n * n + 3) // 4
    if len(qtext) == diag_w:
        q: MatLike = HankelMat(n, unpack_hex(qtext, 2 * n - 1))
    elif len(qtext) == full_w:
        packed = unpack_hex(qtext, n * n)
        mask = (1 << n) - 1
        q = SymMat(n, tuple((packed >> (i * n)) & mask for i in range(n)))
    else:
        raise ValueError("Q field width matches neither Hankel nor full form")
    return CodewordLabel(q, unpack_hex(fields["l"], n), int(fields["e"]))
