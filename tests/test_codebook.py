import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerdock.codebook import (
    I_POWERS,
    SLICE_ELEMS,
    CodewordLabel,
    HankelMat,
    SymMat,
    check_commute,
    codeword_sum,
    dense_codeword,
    diag_bits,
    exponents_at,
    format_label,
    gf2_inv,
    gf2_matmul,
    gf2_nullspace,
    gf2_rank,
    gf2_rank_batch,
    gray_codeword,
    gray_exp,
    hankel_exponents_batch,
    is_kerdock_label,
    kerdock_set,
    lf_kerdock,
    pack_hex,
    pair_dot,
    parse_label,
    predict_dot_magnitude,
    quad_form,
    rank_distance,
    trace_kerdock,
    unpack_hex,
    z4_to_z2_label,
)
from kerdock.field import FieldContext


def _random_label(rng, n, hankel=False):
    if hankel:
        q = HankelMat(n, int(rng.integers(1 << (2 * n - 1))))
    else:
        rows = [int(rng.integers(1 << n)) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                bit = (rows[i] >> j) & 1
                rows[j] = (rows[j] & ~(1 << i)) | (bit << i)
        q = SymMat(n, tuple(rows))
    return CodewordLabel(q, int(rng.integers(1 << n)), int(rng.integers(4)))


def test_hankel_rows_shift_the_antidiagonal_bits():
    m = HankelMat(3, 0b10110)
    assert m.rows == (0b110, 0b011, 0b101)
    assert m.diag & ((1 << m.n) - 1) == 0b110
    for i in range(3):
        for j in range(3):
            assert m.entry(i, j) == (0b10110 >> (i + j)) & 1


def test_symmat_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymMat(2, (0b10, 0b00))


def test_feedback_fill_known_values():
    # worked values for h = 1 + t^2 + t^3 at n = 3, frozen from hand
    # computation of the recurrence
    ctx = FieldContext(3, 0b1101)
    assert lf_kerdock(ctx, 0b111).diag == 0b10111  # fill (1,1,1,0,1)
    assert lf_kerdock(ctx, 0b111).rows == (0b111, 0b011, 0b101)
    assert lf_kerdock(ctx, 0b001).diag == 0b11001  # fill (1,0,0,1,1)


def test_quad_form_counts_diagonal_once_off_diagonal_twice():
    # y^T Q y over the integers mod 4: each off-diagonal pair enters twice
    m = SymMat(2, (0b10, 0b01))
    assert quad_form(m, 0b11) == 2
    d = SymMat(2, (0b11, 0b01))
    assert quad_form(d, 0b11) == 3  # 1 (diag) + 2 (pair)
    assert quad_form(d, 0b01) == 1
    assert quad_form(d, 0b10) == 0


def test_dense_exponents_matches_quad_form():
    rng = np.random.default_rng(0)
    ys = np.arange(16, dtype=np.uint32)
    for _ in range(20):
        lab = _random_label(rng, 4, hankel=bool(rng.integers(2)))
        e = exponents_at([CodewordLabel(lab.q, 0, 0)], ys)[0]
        for y in range(16):
            assert e[y] == quad_form(lab.q, y)
        if isinstance(lab.q, HankelMat):
            assert (hankel_exponents_batch([lab.q.diag], 4, ys)[0] == e).all()


def test_exponents_at_includes_linear_and_eps():
    rng = np.random.default_rng(1)
    lab = _random_label(rng, 5)
    ys = np.arange(32, dtype=np.uint32)
    e = exponents_at([lab], ys)[0]
    vals = codeword_sum([(lab, 1.0)], ys)
    for y in range(32):
        want = (quad_form(lab.q, y) + 2 * bin(y & lab.ell).count("1") + lab.eps) % 4
        assert e[y] == want
        assert abs(vals[y] - (1j**want) / np.sqrt(32)) < 1e-12


def _per_label_exponents(label, ys):
    """One label's exponents from the scalar quad_form: the reference for the stacked pass."""
    ys = np.asarray(ys, dtype=np.uint64)
    total = np.array([quad_form(label.q, int(y)) for y in ys.ravel()], dtype=np.uint8)
    total = total.reshape(ys.shape)
    total += np.uint8(2) * (np.bitwise_count(ys & np.uint64(label.ell)) & np.uint8(1))
    total += np.uint8(label.eps)
    return total & 3


def _per_term_sum(terms, ys):
    """codeword_sum one term at a time: each term's phases evaluated and added in order."""
    out = np.zeros(np.shape(ys), dtype=np.complex128)
    for label, coeff in terms:
        out += coeff * (1.0 / np.sqrt(1 << label.n)) * I_POWERS[_per_label_exponents(label, ys)]
    return out


def _hex(values):
    return [(v.real.hex(), v.imag.hex()) for v in np.ravel(values)]


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_stacked_exponents_equal_the_per_label_ones(count):
    # SymMat and HankelMat labels, eps 0..3 over the counts, on 1-d and 2-d positions
    rng = np.random.default_rng(count)
    for n in (1, 3, 6):
        labels = [_random_label(rng, n, hankel=bool(i % 2)) for i in range(count)]
        labels = [CodewordLabel(lab.q, lab.ell, (i + count) % 4) for i, lab in enumerate(labels)]
        for ys in (np.arange(1 << n), rng.integers(0, 1 << n, size=(3, 5))):
            stacked = exponents_at(labels, ys)
            assert stacked.dtype == np.uint8 and stacked.shape == (count,) + ys.shape
            for lab, row in zip(labels, stacked):
                assert row.tolist() == _per_label_exponents(lab, ys).tolist()
                assert row.tolist() == exponents_at([lab], ys)[0].tolist()
    for ys in (np.arange(5), ys, np.zeros(0, dtype=np.uint32)):
        assert exponents_at([], ys).dtype == np.uint8 and exponents_at([], ys).shape == (0,) + ys.shape


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_codeword_sum_equals_the_per_term_sum_bit_for_bit(count):
    # from two terms on, the second has a zero coefficient, so signed zeros reach the
    # sum; at four, three nonzero terms make the order of the additions show
    rng = np.random.default_rng([7, count])
    for n in (2, 5, 8):
        terms = [
            (_random_label(rng, n, hankel=bool(i % 2)), complex(*rng.standard_normal(2)))
            for i in range(count)
        ]
        terms[1:2] = [(lab, complex(-0.0, -0.0)) for lab, _ in terms[1:2]]
        ys = rng.integers(0, 1 << n, size=40)
        assert _hex(codeword_sum(terms, ys)) == _hex(_per_term_sum(terms, ys))
        assert _hex(codeword_sum(iter(terms), ys)) == _hex(_per_term_sum(terms, ys))
    assert codeword_sum([], ys).tolist() == [0j] * len(ys)


def test_a_stacked_codeword_sum_holds_no_full_size_words():
    # three terms at all 2^18 positions: one stacked pass would hold a uint64 word
    # per term and position (6 MB) beside the 4 MB output, and a bit per row and
    # position (4.5 MB); slices of positions keep the peak under the first two
    n = 18
    rng = np.random.default_rng(n)
    terms = [
        (_random_label(rng, n, hankel=bool(i % 2)), complex(*rng.standard_normal(2))) for i in range(3)
    ]
    ys = np.arange(1 << n, dtype=np.uint32)
    tracemalloc.start()
    try:
        got = codeword_sum(terms, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (16 + 8 * len(terms)) * ys.size
    # the slices' values are each position's own, in every slice
    at = np.concatenate([rng.integers(0, 1 << n, size=60), [0, (1 << 16) - 1, 1 << 16, (1 << n) - 1]])
    assert _hex(got[at]) == _hex(_per_term_sum(terms, at))


def test_dense_codeword_unit_norm_and_value_convention():
    rng = np.random.default_rng(2)
    lab = _random_label(rng, 4, hankel=True)
    v = dense_codeword(lab)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    y = 11
    want = 1j ** ((quad_form(lab.q, y) + 2 * bin(y & lab.ell).count("1") + lab.eps) % 4)
    assert abs(v[y] - want / 4.0) < 1e-12


def test_hankel_exponents_batch_matches_scalar_path():
    rng = np.random.default_rng(3)
    j = 6
    diags = rng.integers(0, 1 << (2 * j - 1), size=40, dtype=np.uint64)
    ys = rng.integers(0, 1 << j, size=33, dtype=np.uint32)
    batch = hankel_exponents_batch(diags, j, ys)
    for a, diag in enumerate(diags):
        m = HankelMat(j, int(diag))
        for b, y in enumerate(ys):
            assert batch[a, b] == quad_form(m, int(y))


def _kernel_passes(monkeypatch):
    """The rows of each pass of the exponent kernel, recorded from its einsum calls."""
    passes, einsum = [], np.einsum

    def counted(spec, counts, bits):
        passes.append(len(counts))
        return einsum(spec, counts, bits)

    monkeypatch.setattr(np, "einsum", counted)
    return passes


def _sizes_around_the_bound(per_position):
    """Even position counts whose output elements times rows fall below, at and above SLICE_ELEMS.

    per_position is the kernel's rows times labels (one when a single label
    drops the label axis); at the middle size the pass fills the bound exactly
    whenever per_position divides it, and the last is one row at a time.
    """
    at = SLICE_ELEMS // per_position & ~1
    return [max(2, at - 2), at, at + 2, SLICE_ELEMS]


@pytest.mark.parametrize("n", [1, 2, 9, 20, 24])
@pytest.mark.parametrize("count", [1, 3])
def test_the_exponent_kernel_matches_quad_form_around_its_pass_bound(n, count, monkeypatch):
    # a single label broadcasts without the label axis; a stack mixes SymMat and HankelMat
    rng = np.random.default_rng([n, count])
    passes = _kernel_passes(monkeypatch)
    for hankel in (False, True):
        labels = [_random_label(rng, n, hankel=hankel ^ bool(i % 2)) for i in range(count)]
        for size in _sizes_around_the_bound(n * count):
            flat = rng.integers(0, 1 << n, size=size, dtype=np.uint64)
            for ys in (flat, flat.reshape(-1, 2)):
                passes.clear()
                got = exponents_at(labels, ys)
                assert got.dtype == np.uint8 and got.shape == (count,) + ys.shape
                # every row once; as many rows a pass as fit the bound, so one pass while all do
                rows = max(1, SLICE_ELEMS // (count * size))
                assert sum(passes) == n and max(passes) == min(n, rows)
                at = np.concatenate([rng.integers(0, size, size=24), [0, size - 1]])
                for lab, row in zip(labels, got):
                    assert row.ravel()[at].tolist() == _per_label_exponents(lab, flat[at]).tolist()
    assert exponents_at(labels, np.zeros((0, 3), dtype=np.uint32)).shape == (count, 0, 3)


@pytest.mark.parametrize("j", [1, 2, 9, 20])
def test_hankel_exponents_batch_matches_quad_form_around_its_pass_bound(j, monkeypatch):
    rng = np.random.default_rng(j)
    diags = rng.integers(0, 1 << (2 * j - 1), size=5, dtype=np.uint64)
    passes = _kernel_passes(monkeypatch)
    for size in _sizes_around_the_bound(j * len(diags)):
        ys = rng.integers(0, 1 << j, size=size, dtype=np.uint32)
        passes.clear()
        got = hankel_exponents_batch(diags, j, ys)
        assert got.shape == (len(diags), size)
        assert sum(passes) == j and max(passes) == min(j, max(1, SLICE_ELEMS // got.size))
        at = np.concatenate([rng.integers(0, size, size=24), [0, size - 1]])
        for diag, row in zip(diags, got):
            m = HankelMat(j, int(diag))
            assert row[at].tolist() == [quad_form(m, int(y)) for y in ys[at]]


def test_the_exponent_kernel_holds_one_row_of_words_on_a_large_input():
    # 3 labels x 2^16 positions at n = 20 run a row at a time: the peak is the uint64
    # positions (8 B), the bit planes (20 B), one row's uint64 words and counts (3 x 9 B)
    # and the output (3 B), 58 B a position (3.80 MB), with 6 B of headroom here.
    # Stacking all 20 rows would hold 480 B a position of words alone
    rng = np.random.default_rng(20)
    labels = [_random_label(rng, 20, hankel=bool(i % 2)) for i in range(3)]
    ys = np.arange(1 << 16, dtype=np.uint32)
    exponents_at(labels, ys[:8])
    tracemalloc.start()
    try:
        exponents_at(labels, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * ys.size


def test_gray_image_of_phases():
    # i^v maps to the sign pair of the two Gray bits
    assert gray_exp(0) == (1, 1)
    assert gray_exp(1) == (1, -1)
    assert gray_exp(2) == (-1, -1)
    assert gray_exp(3) == (-1, 1)
    out = gray_codeword(np.array([0, 1, 2, 3]))
    assert out.tolist() == [0, 0, 0, 1, 1, 1, 1, 0]


@pytest.mark.parametrize("n", [1, 3, 6])
def test_diag_bits_reads_entry_i_i_of_either_matrix_kind(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        for q in (_random_label(rng, n).q, _random_label(rng, n, hankel=True).q):
            assert diag_bits(q) == sum(q.entry(i, i) << i for i in range(n))


def test_z4_to_z2_label_structure():
    rng = np.random.default_rng(4)
    lab = _random_label(rng, 4)
    q = lab.q
    b = z4_to_z2_label(q)
    n = q.n
    assert b.n == n + 1
    assert diag_bits(b) == 0
    d = diag_bits(q)
    for i in range(n):
        assert b.entry(0, i + 1) == (d >> i) & 1
        for j in range(n):
            want = (((d >> i) & (d >> j)) ^ (q.entry(i, j) if i != j else 0)) & 1
            if i == j:
                want = 0
            assert b.entry(i + 1, j + 1) == want


# GF(2) linear algebra -----------------------------------------------------


def test_gf2_rank_known_matrices():
    assert gf2_rank([0b11, 0b10]) == 2
    assert gf2_rank([0b11, 0b11]) == 1
    assert gf2_rank([0, 0]) == 0


@given(st.integers(2, 7), st.data())
@settings(max_examples=50, deadline=None)
def test_nullspace_vectors_annihilate(n, data):
    rows = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    basis = gf2_nullspace(rows, n)
    for v in basis:
        assert all(bin(r & v).count("1") % 2 == 0 for r in rows)
    assert len(basis) == n - gf2_rank(rows)


def test_gf2_inv_round_trip():
    rng = np.random.default_rng(5)
    n = 6
    while True:
        rows = tuple(int(rng.integers(1 << n)) for _ in range(n))
        if gf2_rank(rows) == n:
            break
    inv = gf2_inv(rows, n)
    identity = [1 << i for i in range(n)]
    assert gf2_matmul(rows, inv) == identity
    assert gf2_matmul(inv, rows) == identity


def test_gf2_inv_raises_on_singular():
    with pytest.raises(ValueError):
        gf2_inv((0b11, 0b11), 2)


def test_rank_batch_matches_scalar():
    rng = np.random.default_rng(6)
    n = 5
    rows = rng.integers(0, 1 << n, size=(30, n), dtype=np.uint32)
    batch = gf2_rank_batch(rows, n)
    for i in range(30):
        assert batch[i] == gf2_rank(int(x) for x in rows[i])


# Kerdock family -----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_kerdock_pairwise_differences_full_rank(n):
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    assert len({m.diag for m in mats}) == 1 << n
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            assert rank_distance(a, b) == n


def test_lf_and_trace_constructions_agree():
    ctx = FieldContext.default(4)
    lf = {lf_kerdock(ctx, t).diag for t in range(16)}
    tr = {trace_kerdock(ctx, x).diag for x in range(16)}
    assert lf == tr


def test_lf_kerdock_regenerates_from_top_row():
    ctx = FieldContext.default(6)
    for m in kerdock_set(ctx):
        assert lf_kerdock(ctx, m.diag & ((1 << ctx.n) - 1)).diag == m.diag


def _lf_fill_mask(ctx, diags):
    """Which diags (uint64) have every bit m >= n equal to the h_low parity of bits m-n..m-1."""
    n = ctx.n
    h_low = np.uint64(ctx.h & ((1 << n) - 1))
    keep = np.ones(diags.shape, dtype=bool)
    for m in range(n, 2 * n - 1):
        fill = np.bitwise_count((diags >> np.uint64(m - n)) & h_low) & 1
        keep &= ((diags >> np.uint64(m)) & np.uint64(1)) == fill
    return keep


@pytest.mark.parametrize("n", range(9, 17))
def test_lf_prefix_mask_on_random_and_near_miss_diags(n):
    # is_kerdock_label masks a diag to its top-row prefix and refills it; that must agree
    # with the bitwise fill rule, accept the trace construction's members and reject
    # their one-bit flips (random diags are almost never members, so those ride along)
    ctx = FieldContext.default(n)
    rng = np.random.default_rng(n)
    members = np.array(
        [trace_kerdock(ctx, int(a)).diag for a in rng.integers(1 << n, size=500)], dtype=np.uint64
    )
    flips = members ^ (np.uint64(1) << rng.integers(2 * n - 1, size=500).astype(np.uint64))
    noise = rng.integers(0, 1 << (2 * n - 1), size=5000, dtype=np.uint64)
    diags = np.concatenate([members, flips, noise])
    got = [is_kerdock_label(ctx, int(d)) for d in diags]
    assert got == _lf_fill_mask(ctx, diags).tolist()
    assert all(got[:500]) and not any(got[500:1000])


def test_check_commute_accepts_exactly_the_members():
    ctx = FieldContext.default(4)
    members = {m.diag for m in kerdock_set(ctx)}
    for diag in range(1 << 7):
        assert check_commute(ctx, HankelMat(4, diag)) == (diag in members)


# inner products and the rank law -------------------------------------------


def test_pair_dot_identical_labels():
    rng = np.random.default_rng(8)
    lab = _random_label(rng, 5)
    assert abs(pair_dot(lab, lab) - 1.0) < 1e-12


def test_pair_dot_eps_rotates_phase():
    rng = np.random.default_rng(9)
    a = _random_label(rng, 4)
    b = CodewordLabel(a.q, a.ell, (a.eps + 1) % 4)
    assert abs(pair_dot(a, b) - 1j ** ((a.eps - b.eps) % 4)) < 1e-12


@given(st.integers(2, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_dot_magnitude_obeys_rank_law_and_closed_form(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = _random_label(rng, n)
    b = _random_label(rng, n)
    mag = abs(pair_dot(a, b))
    r = rank_distance(a.q, b.q)
    assert min(mag, abs(mag - 2.0 ** (-r / 2.0))) < 1e-9
    assert abs(mag - predict_dot_magnitude(a, b)) < 1e-9


def test_zero_dot_at_equal_ell_witness():
    # rank-1 difference whose radical functional is odd: the dot vanishes
    # even though the linear parts agree
    q1 = SymMat(2, (0b00, 0b10))
    q2 = SymMat(2, (0b11, 0b01))
    a = CodewordLabel(q1, 0, 0)
    b = CodewordLabel(q2, 0, 0)
    assert rank_distance(q1, q2) == 1
    assert abs(pair_dot(a, b)) < 1e-12
    assert predict_dot_magnitude(a, b) == 0.0


def test_kerdock_pairs_equal_ell_hit_the_floor():
    ctx = FieldContext.default(5)
    mats = kerdock_set(ctx)
    for i in (1, 7, 19):
        a = CodewordLabel(mats[i], 9, 0)
        b = CodewordLabel(mats[(i + 3) % 32], 9, 0)
        assert abs(abs(pair_dot(a, b)) - 2.0 ** (-5 / 2.0)) < 1e-12


# text forms -----------------------------------------------------------------


def test_pack_hex_width_and_overflow():
    assert pack_hex(0x1A, 13) == "001a"
    assert unpack_hex("001a", 13) == 0x1A
    with pytest.raises(ValueError):
        unpack_hex("ffff", 13)


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_label_round_trip(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    lab = _random_label(rng, n, hankel=bool(data.draw(st.booleans())))
    again = parse_label(format_label(lab))
    assert again.n == lab.n and again.ell == lab.ell and again.eps == lab.eps
    if n <= 2:
        # every symmetric matrix this small is Hankel and is written as one
        assert again.q.rows == lab.q.rows
    else:
        assert type(again.q) is type(lab.q)
    ys = np.arange(1 << n, dtype=np.uint32)
    assert (exponents_at([again], ys) == exponents_at([lab], ys)).all()


def test_parse_label_rejects_missing_fields():
    with pytest.raises(ValueError, match="l"):
        parse_label("3;Q=1f;x=1;e=0")
    with pytest.raises(ValueError, match="Q"):
        parse_label("3;q=1f;l=1;e=0")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SymMat(3, (0, 0)), "row count must equal n"),
        (lambda: SymMat(2, (0b100, 0)), "row has bits beyond n"),
        (lambda: HankelMat(3, 1 << 5), "diag has bits beyond 2n-1"),
        (lambda: CodewordLabel(HankelMat(3, 0), 1 << 3, 0), "ell has bits beyond n"),
        (lambda: CodewordLabel(HankelMat(3, 0), 0, 4), "eps must be in Z4"),
        (lambda: dense_codeword(CodewordLabel(HankelMat(21, 0), 0, 0)), "dense evaluation limited to n <= 20"),
        (lambda: parse_label("3;Q=00;l=1"), "label must have 4 ;-separated fields"),
        (lambda: parse_label("3;Q=0000;l=1;e=0"), "Q field width matches neither Hankel nor full form"),
    ],
    ids=[
        "sym-row-count",
        "sym-bits-beyond-n",
        "hankel-bits-beyond-2n-1",
        "ell-bits-beyond-n",
        "eps-outside-z4",
        "dense-past-20",
        "label-field-count",
        "label-q-width",
    ],
)
def test_malformed_codebook_inputs_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_size_mismatches_are_refused_by_name():
    a = CodewordLabel(HankelMat(3, 0b10110), 1, 0)
    b = CodewordLabel(HankelMat(4, 0b1011001), 2, 0)
    with pytest.raises(ValueError, match="labels live on different domains"):
        pair_dot(a, b)
    with pytest.raises(ValueError, match="labels live on different domains"):
        predict_dot_magnitude(a, b)
    with pytest.raises(ValueError, match="matrix size must match field degree"):
        check_commute(FieldContext.default(4), a.q)
