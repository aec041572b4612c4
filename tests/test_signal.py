import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerdock.signal as signal_mod
from kerdock.codebook import (
    I_POWERS,
    CodewordLabel,
    HankelMat,
    SymMat,
    demodulate,
    dense_codeword,
    exponents_at,
    kerdock_set,
)
from kerdock.field import FieldContext
from kerdock.oracle import dense_dot_table, dense_heavy_set
from kerdock.pursuit import Representation
from kerdock.rng import child_rng, hashed_normals
from kerdock.signal import (
    CachingOracle,
    DenseOracle,
    SampleOracle,
    SyntheticOracle,
    draw_indices,
    estimate_dots,
    estimate_sq_norm,
    fwht,
    make_noisy,
    read_signal,
    signal_n,
    write_signal,
)


def _labels(n, count, seed=0):
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(mats), size=count, replace=False)
    return [
        CodewordLabel(mats[p], int(rng.integers(1 << n)), int(rng.integers(4)))
        for p in picks
    ]


# deterministic streams -----------------------------------------------------


def test_child_rng_reproducible_and_tag_sensitive():
    a = child_rng(7, "x", 3).integers(0, 1 << 30, size=8)
    b = child_rng(7, "x", 3).integers(0, 1 << 30, size=8)
    c = child_rng(7, "x", 4).integers(0, 1 << 30, size=8)
    assert (a == b).all()
    assert (a != c).any()


def test_hashed_normals_stateless_per_index():
    idx = np.array([5, 9, 5, 123456], dtype=np.int64)
    g = hashed_normals(3, "t", idx)
    assert g.shape == (4, 2)
    assert (g[0] == g[2]).all()
    again = hashed_normals(3, "t", idx[:1])
    assert (again[0] == g[0]).all()


def test_hashed_normals_roughly_standard():
    g = hashed_normals(0, "moments", np.arange(20000))
    assert abs(g.mean()) < 0.02
    assert abs(g.var() - 1.0) < 0.03


# oracles --------------------------------------------------------------------


def test_query_accounting_and_domain_check():
    o = DenseOracle(np.arange(8, dtype=np.complex128))
    assert o.n == 3
    o.query_many(np.array([0, 1, 1, 7]))
    assert o.query_count == 4
    assert o.query_many(np.array([5])).tolist() == [5 + 0j]
    assert o.query_count == 5
    with pytest.raises(ValueError):
        o.query_many(np.array([8]))
    with pytest.raises(ValueError):
        o.query_many(np.array([-1]))


def test_oracle_positions_fit_32_bits():
    # positions are served as uint32: a wider domain would wrap 2^32 to 0
    with pytest.raises(ValueError, match="0..32"):
        SyntheticOracle(33, [])
    tone = CodewordLabel(HankelMat(32, 0), 1 << 31, 0)
    o = SyntheticOracle(32, [(tone, 1.0)])
    assert o.query_many(np.array([0, (1 << 32) - 1])).tolist() == [2.0**-16, -(2.0**-16)]


def test_signal_n_is_the_log_of_a_power_of_two_length():
    assert [signal_n(1 << n) for n in range(21)] == list(range(21))


@pytest.mark.parametrize("size", [0, 3, 6, 12])
def test_every_length_reader_refuses_a_non_power_of_two(size, tmp_path):
    values = np.ones(size, dtype=np.complex128)
    readers = [
        lambda: signal_n(size),
        lambda: DenseOracle(values),
        lambda: write_signal(str(tmp_path / "s.sig"), values),
        lambda: next(dense_dot_table(values)),
        lambda: dense_heavy_set(values, 0.1),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="signal length must be a power of two"):
            read()


def test_dense_oracle_norm_hint_defaults_to_true_norm():
    vals = np.array([3.0, 4.0, 0.0, 0.0], dtype=np.complex128)
    assert DenseOracle(vals).norm_hint == 5.0
    assert DenseOracle(vals, norm_hint=9.0).norm_hint == 9.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e200, 1e200j])
def test_dense_oracle_refuses_an_overflowing_energy_without_a_warning(big):
    values = np.zeros(64, dtype=np.complex128)
    values[17] = big
    with pytest.raises(ValueError, match="norm hint must have a finite square, got inf"):
        DenseOracle(values)
    values[17] = big * 1e-50  # squares to 1e300, still finite
    assert DenseOracle(values).norm_hint == pytest.approx(1e150)


def test_synthetic_matches_dense_sum_when_noiseless():
    n = 5
    terms = [(lab, c) for lab, c in zip(_labels(n, 3), (1.0, 0.5j, -0.25))]
    o = SyntheticOracle(n, terms)
    ys = np.arange(1 << n)
    direct = sum(c * dense_codeword(lab) for lab, c in terms)
    assert np.allclose(o.query_many(ys), direct, atol=1e-12)
    assert abs(o.norm_hint - np.sqrt(1 + 0.25 + 0.0625)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 8, 9])
def test_every_evaluator_gives_the_same_bits(n):
    rng = np.random.default_rng(n)
    terms = [
        (lab, complex(rng.standard_normal(), rng.standard_normal()))
        for lab in _labels(n, 3, seed=n)
    ]
    ys = np.arange(1 << n)
    want = SyntheticOracle(n, terms).query_many(ys)
    assert np.array_equal(make_noisy(n, terms), want)
    assert np.array_equal(Representation(terms).evaluate(ys), want)
    assert np.array_equal(sum(c * dense_codeword(lab) for lab, c in terms), want)


def test_synthetic_noise_is_stateless_and_seeded():
    n = 6
    o = SyntheticOracle(n, [(_labels(n, 1)[0], 1.0)], noise_energy=0.5, seed=11)
    ys = np.array([3, 17, 3, 40])
    v = o.query_many(ys)
    assert v[0] == v[2]
    assert (o.query_many(ys) == v).all()
    other = SyntheticOracle(n, o.terms, noise_energy=0.5, seed=12)
    assert (other.query_many(ys) != v).any()


def test_synthetic_noise_energy_statistically_right():
    n = 8
    o = SyntheticOracle(n, [], noise_energy=2.0, seed=0)
    vals = o.query_many(np.arange(1 << n))
    assert abs(np.sum(np.abs(vals) ** 2) - 2.0) < 0.5


def test_caching_oracle_counts_distinct_positions():
    base = DenseOracle(np.arange(16, dtype=np.complex128))
    o = CachingOracle(base)
    ys = np.array([1, 2, 2, 3])
    assert (o.query_many(ys) == base.values[ys]).all()
    o.query_many(np.array([2, 3, 4]))
    assert o.query_count == 7
    assert o.distinct_count == 4  # {1,2,3,4}


def test_the_base_oracle_leaves_its_values_to_subclasses():
    with pytest.raises(NotImplementedError):
        SampleOracle(3, 1.0).query_many(np.array([0]))


class _PositionLog(SampleOracle):
    """Delegating oracle that records every position it serves."""

    def __init__(self, base):
        super().__init__(base.n, base.norm_hint)
        self.base = base
        self.served = []

    def _values(self, ys):
        self.served.extend(ys.tolist())
        return self.base.query_many(ys)


@pytest.mark.parametrize("n", [6, 24])
def test_caching_oracle_serves_each_position_once(n):
    top = 1 << n
    lab = CodewordLabel(HankelMat(n, 0b1011), 5, 1)
    truth = SyntheticOracle(n, [(lab, 0.8 - 0.6j)], noise_energy=0.5, seed=3)
    log = _PositionLog(truth)
    o = CachingOracle(log)
    rng = np.random.default_rng(n)
    first = rng.integers(0, top, size=12)
    requests = [
        np.array([], dtype=np.int64),  # empty, before anything is cached
        first,  # unsorted
        np.array([top - 1, 0, top - 1, 7, 0, 7]),  # repeats within one request
        rng.integers(0, top, size=(5, 6)),  # 2-D
        np.concatenate([first[::-1], rng.integers(0, top, size=10)]),  # hits and misses
        first.reshape(3, 4),  # all hits
        np.zeros((0, 3), dtype=np.int64),  # empty, 2-D
    ]
    total = 0
    for ys in requests:
        got = o.query_many(ys)
        want = truth.query_many(ys.ravel()).reshape(ys.shape)
        assert got.shape == ys.shape
        assert (got == want).all()
        total += ys.size
        assert o.query_count == total
    seen = np.unique(np.concatenate([ys.ravel() for ys in requests]))
    assert o.distinct_count == seen.size
    assert sorted(log.served) == seen.tolist()


def _demodulated(values, j, suffix, diag):
    """The restriction of values to suffix, demodulated by the j-bit Hankel diag."""
    ys = np.arange(1 << j, dtype=np.uint32)
    block = values[suffix << j : (suffix + 1) << j]
    return demodulate(block, np.array([diag], dtype=np.uint64), j, ys)[0]


def test_restricted_oracle_reads_the_suffix_block():
    vals = np.arange(32, dtype=np.complex128)
    got = _demodulated(vals, 2, 0b101, 0)
    assert (got == vals[0b101 << 2 : (0b101 << 2) + 4]).all()


@pytest.mark.parametrize("j, suffix", [(1, 5), (3, 2), (5, 0)])
def test_slice_oracle_demodulates_the_restriction(j, suffix):
    n = 5
    s = make_noisy(n, [(lab, c) for lab, c in zip(_labels(n, 2), (1.0, 0.3))], 0.25, 7)
    for diag in range(1 << (2 * j - 1)):
        chirp = dense_codeword(CodewordLabel(HankelMat(j, diag), 0, 0)) * np.sqrt(1 << j)
        want = s[suffix << j : (suffix + 1) << j] * np.conj(chirp)
        got = _demodulated(s, j, suffix, diag)
        assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_demodulation_turns_the_quadratic_into_a_tone():
    n = 4
    lab = _labels(n, 1, seed=3)[0]
    vals = _demodulated(2.0 * dense_codeword(lab), n, 0, lab.q.diag)
    spectrum = fwht(vals) / np.sqrt(1 << n)
    top = int(np.argmax(np.abs(spectrum)))
    assert top == lab.ell
    assert abs(abs(spectrum[top]) - 2.0) < 1e-12
    assert np.count_nonzero(np.abs(spectrum) > 1e-9) == 1


def test_demodulated_dot_identity():
    n = 5
    s = make_noisy(n, [(lab, c) for lab, c in zip(_labels(n, 2), (1.0, 0.3))], 0.25, 7)
    lab = _labels(n, 1, seed=9)[0]
    demod = DenseOracle(_demodulated(s, n, 0, lab.q.diag))
    lhs = estimate_dots(demod, [CodewordLabel(HankelMat(n, 0), lab.ell, lab.eps)], 1 << n)[0]
    rhs = estimate_dots(DenseOracle(s), [lab], 1 << n)[0]
    assert abs(lhs - rhs) < 1e-12


# dense synthesis and files ---------------------------------------------------


@pytest.mark.parametrize("energy", [-1.0, -1e-300, float("nan"), float("inf")])
def test_noise_energy_must_be_finite_and_non_negative(energy):
    lab = _labels(4, 1)[0]
    with pytest.raises(ValueError, match=str(energy)):
        SyntheticOracle(4, [(lab, 1.0)], noise_energy=energy)
    with pytest.raises(ValueError, match=str(energy)):
        make_noisy(4, [(lab, 1.0)], noise_energy=energy)


def test_make_noisy_exact_energy_split():
    n = 6
    terms = [(_labels(n, 1)[0], 2.0)]
    clean = make_noisy(n, terms)
    noisy = make_noisy(n, terms, noise_energy=0.75, seed=5)
    assert abs(np.linalg.norm(noisy - clean) ** 2 - 0.75) < 1e-12
    assert (make_noisy(n, terms, 0.75, 5) == noisy).all()


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    p = tmp_path / "sig.txt"
    write_signal(str(p), vals)
    assert p.read_text().splitlines()[0] == "n=4"
    back = read_signal(str(p))
    assert (back == vals).all()


def test_read_signal_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("m=4\n")
    with pytest.raises(ValueError):
        read_signal(str(p))


def test_read_signal_rejects_oversized_header_before_allocating(tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("n=40\n0 0\n")
    with pytest.raises(ValueError, match="n=40"):
        read_signal(str(p))


def test_read_signal_rejects_trailing_data(tmp_path):
    p = tmp_path / "long.txt"
    write_signal(str(p), np.ones(4, dtype=np.complex128))
    with open(p, "a") as fh:
        fh.write("\n")
    assert (read_signal(str(p)) == 1.0).all()  # blank lines are harmless
    with open(p, "a") as fh:
        fh.write("1 0\n")
    with pytest.raises(ValueError, match="trailing"):
        read_signal(str(p))


@pytest.mark.parametrize("bad", ["nan 0", "0 inf", "-inf -inf"])
def test_read_signal_rejects_non_finite_values(bad, tmp_path):
    p = tmp_path / "bad.txt"
    write_signal(str(p), np.ones(16, dtype=np.complex128))
    lines = p.read_text().splitlines()
    lines[1 + 11] = bad
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite value at position 11"):
        read_signal(str(p))


# estimators -------------------------------------------------------------------


def test_sq_norm_exact_in_exhaustive_mode():
    vals = np.array([1.0, 2.0, 2.0, 0.0], dtype=np.complex128)
    o = DenseOracle(vals)
    assert abs(estimate_sq_norm(o, 4) - 9.0) < 1e-12
    assert abs(estimate_sq_norm(o, 999) - 9.0) < 1e-12
    assert o.query_count == 8  # exhaustive both times, never oversampled
    # 2^n is a power of two, so 2^n times the mean is the plain sum, bit for bit
    for n in range(1, 11):
        s = make_noisy(n, [], noise_energy=1.0 + n, seed=n)
        for samples in (1 << n, (1 << n) + 7):
            assert estimate_sq_norm(DenseOracle(s), samples) == np.sum(np.abs(s) ** 2)


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_draw_indices_is_every_index_or_the_rng_draws(dtype):
    for count, size in [(1, 1), (8, 8), (8, 100)]:
        got = draw_indices(count, size, dtype, 3, "t", 1)
        assert got.dtype == dtype and got.tolist() == list(range(count))
    for count, size in [(2, 1), (9, 8), (1 << 20, 50)]:
        got = draw_indices(count, size, dtype, 3, "t", 1)
        want = child_rng(3, "t", 1).integers(0, count, size=size, dtype=dtype)
        assert got.dtype == dtype and got.tolist() == want.tolist()


def test_an_exhaustive_estimate_builds_no_generator(monkeypatch):
    # every position is read once, so nothing is drawn and no generator is keyed
    built = []

    def counting_child_rng(*key):
        built.append(key)
        return child_rng(*key)

    monkeypatch.setattr(signal_mod, "child_rng", counting_child_rng)
    n = 6
    o = SyntheticOracle(n, [(_labels(n, 1)[0], 1.0)], noise_energy=0.3, seed=2)
    for samples in (1 << n, (1 << n) + 5):
        estimate_dots(o, _labels(n, 3), samples, seed=4)
        estimate_sq_norm(o, samples, seed=4)
    assert built == []
    estimate_dots(o, _labels(n, 3), (1 << n) - 1, seed=4)
    assert built == [(4, "dot")]


def test_sq_norm_sampled_is_close():
    n = 10
    o = SyntheticOracle(n, [(_labels(n, 1)[0], 1.0)], noise_energy=0.3, seed=2)
    est = estimate_sq_norm(o, 400, seed=1)
    assert abs(est - 1.3) < 0.35


def test_estimate_dots_exact_in_exhaustive_mode():
    n = 4
    labels = _labels(n, 3, seed=5)
    s = make_noisy(n, [(labels[0], 1.5 - 0.5j)], noise_energy=0.1, seed=3)
    o = DenseOracle(s)
    got = estimate_dots(o, labels, 1 << n)
    for lab, g in zip(labels, got):
        want = np.vdot(dense_codeword(lab), s)
        assert abs(g - want) < 1e-12
    # 2^n times the mean equals the plain sum of the same products, bit for bit
    for n in range(1, 11):
        labels = _labels(n, min(3, 1 << n), seed=n)
        s = make_noisy(n, [(labels[0], 1.5 - 0.5j)], noise_energy=0.1, seed=n)
        ys = np.arange(1 << n)
        for samples in (1 << n, (1 << n) + 7):
            got = estimate_dots(DenseOracle(s), labels, samples)
            for lab, g in zip(labels, got):
                phases = np.conj(I_POWERS[exponents_at([lab], ys)[0]]) * (1.0 / np.sqrt(1 << n))
                assert g == np.sum(s * phases)


def _per_label_dots(o, labels, samples, seed):
    """estimate_dots one label at a time: each label's phases from its own codeword_sum."""
    ys = draw_indices(1 << o.n, samples, np.int64, seed, "dot")
    vals = o.query_many(ys)
    out = np.empty(len(labels), dtype=np.complex128)
    for i, label in enumerate(labels):
        unit = (1.0 / np.sqrt(1 << o.n)) * I_POWERS[exponents_at([label], ys)[0]]
        phases = np.conj(np.zeros(len(ys), dtype=np.complex128) + unit)
        out[i] = (1 << o.n) * np.mean(vals * phases)
    return out


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_estimate_dots_equals_the_per_label_estimates_bit_for_bit(count):
    # SymMat and Hankel labels, every eps; exhaustive and sampled draws, clean and noisy signals
    rng = np.random.default_rng([9, count])
    for n in (3, 6, 9):
        labels = [
            CodewordLabel(
                SymMat(n, tuple(1 << i for i in range(n)))
                if i % 2
                else HankelMat(n, int(rng.integers(1 << (2 * n - 1)))),
                int(rng.integers(1 << n)),
                (i + count) % 4,
            )
            for i in range(count)
        ]
        for noise in (0.0, 0.3):
            o = SyntheticOracle(n, [(labels[0], 0.5 - 1j)], noise_energy=noise, seed=n)
            for samples in (1 << n, (1 << n) + 3, 1 << (n - 1), 5):
                got = estimate_dots(o, labels, samples, seed=count)
                want = _per_label_dots(o, labels, samples, count)
                assert [(g.real.hex(), g.imag.hex()) for g in got] == [
                    (w.real.hex(), w.imag.hex()) for w in want
                ]
    assert estimate_dots(o, [], 5).shape == (0,)


def test_estimate_dot_sampled_concentrates():
    n = 10
    lab = _labels(n, 1, seed=8)[0]
    o = SyntheticOracle(n, [(lab, 1.0)], seed=0)
    est = estimate_dots(o, [lab], 512, seed=4)[0]
    assert abs(est - 1.0) < 0.2


# transform ---------------------------------------------------------------------


def test_fwht_matches_direct_character_sum():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    out = fwht(a)
    for ell in range(8):
        want = sum(a[y] * (-1) ** bin(ell & y).count("1") for y in range(8))
        assert abs(out[ell] - want) < 1e-12


@given(st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_fwht_involution(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    assert np.allclose(fwht(fwht(a)), (1 << n) * a, atol=1e-9)


def _fwht_stack_reference(a, axis=-1):
    """The stage-by-stage np.stack butterfly that the in-place fwht replaced."""
    a = np.array(a, dtype=np.complex128, copy=True)
    a = np.moveaxis(a, axis, -1)
    m = a.shape[-1]
    h = 1
    while h < m:
        a = a.reshape(a.shape[:-1] + (m // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack([top, bot], axis=-2).reshape(a.shape[:-3] + (m,))
        h *= 2
    return np.moveaxis(a, -1, axis)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.complex128).view(np.uint64)


@pytest.mark.parametrize("m", [1 << t for t in range(11)])
def test_fwht_equals_stack_butterfly_bit_for_bit(m):
    rng = np.random.default_rng(m)

    def draw(shape):
        # magnitudes spread over 12 decades, so any reordered sum shows in the low bits
        scale = 10.0 ** rng.uniform(-6, 6, size=shape)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale

    cases = [
        (draw((m,)), -1),
        (draw((m,)).real, 0),
        (draw((3, m)), -1),
        (draw((m, 3)), 0),
        (draw((2, 3, m)), -1),
        (draw((m, 2, 3)), 0),
        (draw((3, m)).T, 0),  # transposed views
        (draw((m, 3)).T, -1),
        (draw((4, 2 * m))[:, ::2], -1),  # strided along the transform axis
        (draw((2 * m, 3))[::2], 0),
        (draw((6, 2, m))[::2], -1),  # strided across rows
    ]
    for a, axis in cases:
        snapshot = a.copy()
        got = fwht(a, axis=axis)
        want = _fwht_stack_reference(a, axis=axis)
        assert got.shape == want.shape
        assert (_bits(got) == _bits(want)).all()
        assert (_bits(a) == _bits(snapshot)).all()


@pytest.mark.parametrize("m", [1, 2, 64])
def test_fwht_overwrite_input_transforms_in_place_with_the_same_bits(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((3, 2 * m)) + 1j * rng.standard_normal((3, 2 * m))
    own = a.copy()
    got = fwht(own, overwrite_input=True)
    assert np.shares_memory(got, own)
    assert (_bits(got) == _bits(fwht(a))).all() and (_bits(own) == _bits(got)).all()
    # the transform axis moved last is a C-contiguous view: its buffer is the input's
    own = a.copy()
    assert np.shares_memory(fwht(own.T, axis=0, overwrite_input=True), own)
    # anything else is copied first and left as it was
    frozen = a.copy()
    frozen.flags.writeable = False
    for other in (a[:, ::2], a.real, frozen, a.astype(np.complex64)):
        snapshot = np.array(other, copy=True)
        got = fwht(other, overwrite_input=True)
        assert not np.shares_memory(got, other)
        assert (_bits(got) == _bits(fwht(other))).all()
        assert (np.asarray(other) == snapshot).all()


def test_fwht_does_not_mutate_and_respects_axis():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4)).astype(np.complex128)
    snapshot = a.copy()
    row_wise = fwht(a, axis=-1)
    assert (a == snapshot).all()
    col_wise = fwht(a.T, axis=0).T
    for i in range(3):
        assert np.allclose(row_wise[i], fwht(a[i]))
        assert np.allclose(col_wise[i], fwht(a[i]))
    with pytest.raises(ValueError):
        fwht(np.zeros(3))


def _label(n):
    return CodewordLabel(HankelMat(n, 0), 0, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SyntheticOracle(4, [(_label(3), 1.0)]), "term dimension mismatch"),
        (lambda: make_noisy(4, [(_label(3), 1.0)]), "term dimension mismatch"),
        (lambda: make_noisy(21, [(_label(21), 1.0)]), "dense evaluation limited to n <= 20"),
    ],
    ids=["synthetic-dimension", "noisy-dimension", "noisy-past-20"],
)
def test_planted_signals_refuse_bad_terms(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_read_signal_names_a_short_line(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("n=1\n1.0 0.0\n2.0\n")
    with pytest.raises(ValueError, match="bad line at position 1"):
        read_signal(str(path))
