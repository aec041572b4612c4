import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kerdock.decoder as decoder_mod
from kerdock.codebook import (
    I_POWERS,
    CodewordLabel,
    HankelMat,
    SymMat,
    demodulate,
    dense_codeword,
    diag_chunks,
    is_kerdock_label,
    kerdock_set,
    lf_kerdock,
    pair_dot,
)
from kerdock.decoder import (
    CandidateOverflow,
    DecodeStats,
    DecoderParams,
    extend_prefix,
    format_decode_report,
    list_decode_hankel,
)
from kerdock.field import FieldContext
from kerdock.oracle import dense_heavy_set
from kerdock.signal import (
    CachingOracle,
    DenseOracle,
    SampleOracle,
    SyntheticOracle,
    draw_indices,
    fwht,
    make_noisy,
)


def _kerdock_terms(n, picks, coeffs, seed=0):
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    rng = np.random.default_rng(seed)
    out = []
    for p, c in zip(picks, coeffs):
        out.append((CodewordLabel(mats[p], int(rng.integers(1 << n)), 0), c))
    return out


def _keys(pairs):
    return {(lab.q.diag, lab.ell) for lab, _ in pairs}


def test_extend_prefix_grows_two_bits():
    for j in (1, 2, 7, 31):
        rng = np.random.default_rng(j)
        parents = rng.integers(0, 1 << (2 * j - 1), size=5, dtype=np.uint64)
        exts = extend_prefix(parents, j)
        assert exts.dtype == np.uint64
        # each parent's four children stay together, in the scalar formula's order
        expected = [
            int(d) | (a << (2 * j - 1)) | (b << (2 * j))
            for d in parents
            for a in (0, 1)
            for b in (0, 1)
        ]
        assert exts.tolist() == expected
        assert (exts & np.uint64((1 << (2 * j - 1)) - 1) == np.repeat(parents, 4)).all()
        assert (exts >> np.uint64(2 * j + 1) == 0).all()


def test_params_validation():
    with pytest.raises(ValueError):
        DecoderParams(k=0)
    with pytest.raises(ValueError):
        DecoderParams(k=2, profile="fast")
    with pytest.raises(ValueError):
        DecoderParams(k=2, candidate_cap=0)
    with pytest.raises(ValueError):
        DecoderParams(k=2, threads=0)


def test_params_resolved_defaults():
    p = DecoderParams(k=3)
    # max(64 k^3, 4096): the floor binds below k = 4
    assert DecoderParams(k=1).resolved_cap() == 4096
    assert p.resolved_cap() == 4096
    assert DecoderParams(k=5).resolved_cap() == 8000
    assert DecoderParams(k=3, candidate_cap=10).resolved_cap() == 10
    # ceil(8k/c1) * ceil(log(2n/delta)) at the defaults
    assert p.resolved_suffix_samples(10) == 48 * 8


def test_overflow_carries_diagnostics():
    err = CandidateOverflow(level=4, count=99, cap=64)
    assert err.level == 4 and err.count == 99 and err.cap == 64
    assert "99" in str(err) and "64" in str(err)
    assert "raise candidate_cap (--cap) or lower k" in str(err)


def test_robust_recovers_single_codeword_exactly():
    n = 6
    terms = _kerdock_terms(n, [5], [1.0 - 0.5j], seed=1)
    o = SyntheticOracle(n, terms)
    results, stats = list_decode_hankel(o, DecoderParams(k=2), seed=0)
    assert _keys([terms[0]]) <= _keys(results)
    by_key = {(lab.q.diag, lab.ell): c for lab, c in results}
    got = by_key[(terms[0][0].q.diag, terms[0][0].ell)]
    assert abs(got - (1.0 - 0.5j)) < 1e-9
    assert results[0][0].q.diag == terms[0][0].q.diag  # heaviest first
    assert stats.n == n and stats.profile == "robust"
    assert stats.queries <= stats.queries_raw


@pytest.mark.parametrize("profile", ["robust", "lean"])
def test_level_counts_track_the_prefix_tree(profile):
    n = 6
    o = SyntheticOracle(n, _kerdock_terms(n, [9], [1.0], seed=2))
    _, stats = list_decode_hankel(o, DecoderParams(k=2, profile=profile), seed=0)
    assert len(stats.g) == len(stats.f) == n
    assert stats.g[0] == 2
    for j in range(1, n):
        assert stats.g[j] == 4 * stats.f[j - 1]
    assert stats.f[-1] >= 1
    # one wall time per level, all inside the decode's own
    assert len(stats.level_seconds) == n and min(stats.level_seconds) > 0
    assert sum(stats.level_seconds) <= stats.seconds


def test_robust_output_is_sound_and_complete_for_heavy_labels():
    n = 6
    k = 6
    terms = _kerdock_terms(n, [3, 17], [1.0, -0.7j], seed=3)
    vals = make_noisy(n, terms, noise_energy=0.5, seed=4)
    o = DenseOracle(vals)
    results, _ = list_decode_hankel(o, DecoderParams(k=k), seed=0)
    hint_sq = o.norm_hint**2
    heavy = dense_heavy_set(vals, threshold_sq=hint_sq / k)
    assert _keys(heavy) <= _keys(results)
    # soundness: every output really carries at least a 1/(4k) fraction
    for lab, _ in results:
        exact = np.vdot(dense_codeword(lab), vals)
        assert abs(exact) ** 2 >= hint_sq / (4 * k)


def test_robust_never_reports_below_the_dense_prune():
    # with exhaustive finish the output is a subset of the dense scan
    n = 5
    k = 3
    terms = _kerdock_terms(n, [7], [1.0], seed=5)
    vals = make_noisy(n, terms, noise_energy=0.3, seed=6)
    o = DenseOracle(vals)
    results, _ = list_decode_hankel(o, DecoderParams(k=k), seed=1)
    prune = o.norm_hint**2 / (2 * k)
    dense = dense_heavy_set(vals, threshold_sq=prune)
    assert _keys(results) <= _keys(dense)
    assert _keys([terms[0]]) <= _keys(results)


def test_overflow_raised_when_cap_is_tiny():
    n = 7
    terms = _kerdock_terms(n, [2, 11], [1.0, 0.9], seed=7)
    o = SyntheticOracle(n, terms)
    with pytest.raises(CandidateOverflow) as exc:
        list_decode_hankel(o, DecoderParams(k=2, candidate_cap=2), seed=0)
    assert exc.value.cap == 2
    assert exc.value.count > 2


@pytest.mark.parametrize("k", [2, 3])
def test_default_cap_finishes_two_noisy_words(k):
    # the middle levels keep 1,400-3,600 prefixes, above the old 64 k^3 default
    n = 9
    ctx = FieldContext.default(n)
    terms = [
        (CodewordLabel(lf_kerdock(ctx, 0x15), 3, 0), 1.0),
        (CodewordLabel(lf_kerdock(ctx, 0x2E), 6, 0), 0.7),
    ]
    o = SyntheticOracle(n, terms, noise_energy=0.2, seed=1)
    results, stats = list_decode_hankel(o, DecoderParams(k=k), seed=0)
    assert _keys(terms) <= _keys(results)
    assert 64 * k**3 < max(stats.f) <= 4096


def test_empty_domain_is_refused_before_any_read():
    o = DenseOracle(np.ones(1, dtype=np.complex128))
    with pytest.raises(ValueError, match="n=0"):
        list_decode_hankel(o, DecoderParams(k=1), seed=0)
    assert o.query_count == 0


@pytest.mark.parametrize("profile", ["robust", "lean"])
def test_a_zero_hint_is_refused_before_any_read(profile):
    # a zero hint makes every bar 0, which >= admits: every codeword would be listed
    o = DenseOracle(np.zeros(1 << 5, dtype=np.complex128))
    with pytest.raises(ValueError, match="norm hint 0 has a zero square"):
        list_decode_hankel(o, DecoderParams(k=1, profile=profile), seed=0)
    assert o.query_count == 0


def test_a_kerdock_field_of_another_size_is_refused_before_any_read():
    o = DenseOracle(np.ones(1 << 6, dtype=np.complex128))
    with pytest.raises(ValueError, match="field has n=7 but the oracle has n=6"):
        list_decode_hankel(o, DecoderParams(k=1), seed=0, kerdock=FieldContext.default(7))
    assert o.query_count == 0


def _hex_list(results):
    return [(lab, c.real.hex(), c.imag.hex()) for lab, c in results]


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_kerdock_decode_lists_the_kerdock_subset_of_the_whole_code_list(n):
    # 1-3 words, noisy and dense or clean and synthetic: the shift decode lists
    # exactly the whole-code search's Kerdock labels, with the same coefficient
    # bits, and every heavy Kerdock word. Clean words of real coefficients have
    # dots with exact zero parts, so the sign of zero is compared too.
    ctx = FieldContext.default(n)
    kerdock_diags = np.array([m.diag for m in kerdock_set(ctx)], dtype=np.uint64)
    # the cap only aborts, it never changes a keep decision; the whole-code search needs room
    whole_params = DecoderParams(k=3, candidate_cap=1 << 16)
    rng = np.random.default_rng(n)
    listed, zeros = 0, 0
    for words in (1, 2, 3):
        picks = [int(p) for p in rng.choice(1 << n, size=words, replace=False)]
        terms = _kerdock_terms(n, picks, [1.0, 0.7, 0.5][:words], seed=int(rng.integers(1 << 16)))
        energy = sum(abs(c) ** 2 for _, c in terms)
        noisy = make_noisy(n, terms, noise_energy=float(rng.uniform(0.0, energy)), seed=words)
        inputs = [
            (noisy, lambda: DenseOracle(noisy)),
            (make_noisy(n, terms), lambda: SyntheticOracle(n, terms)),
        ]
        for vals, oracle in inputs:
            whole, _ = list_decode_hankel(oracle(), whole_params, seed=3)
            sub, stats = list_decode_hankel(oracle(), DecoderParams(k=3), seed=3, kerdock=ctx)
            kerdock_part = [t for t in _hex_list(whole) if is_kerdock_label(ctx, t[0].q.diag)]
            assert _hex_list(sub) == kerdock_part
            heavy = dense_heavy_set(vals, np.vdot(vals, vals).real / 3, diags=kerdock_diags)
            assert _keys(heavy) <= _keys(sub)
            # the finish transforms the values the shift read: each position is read once
            assert stats.g == [1 << n] and (stats.queries, stats.queries_raw) == (1 << n, 1 << n)
            listed += len(heavy)
            zeros += sum(c.real == 0.0 or c.imag == 0.0 for _, c in sub)
    assert listed and zeros


def test_the_kerdock_decode_aborts_over_the_cap():
    # a pair of adjacent spikes puts a peak of the full energy on every even top row
    n = 6
    vals = np.zeros(1 << n, dtype=np.complex128)
    vals[:2] = 1.0
    with pytest.raises(CandidateOverflow, match="kept 32 candidates, cap 31; the signal is far from"):
        list_decode_hankel(
            DenseOracle(vals), DecoderParams(k=1, candidate_cap=31), kerdock=FieldContext.default(n)
        )


@pytest.mark.parametrize("profile", ["robust", "lean"])
def test_a_zero_signal_ends_the_search_at_level_one(profile):
    o = DenseOracle(np.zeros(1 << 5, dtype=np.complex128), norm_hint=1.0)
    results, stats = list_decode_hankel(o, DecoderParams(k=2, profile=profile), seed=0)
    assert results == []
    assert stats.g == [2] and stats.f == [0]


def test_degenerate_small_domain_decodes_densely():
    n = 1
    lab = CodewordLabel(HankelMat(1, 1), 0, 0)
    o = DenseOracle(2.0 * dense_codeword(lab))
    results, stats = list_decode_hankel(o, DecoderParams(k=1), seed=0)
    # level 1 is level n: it tests both diags and lists the heavy tones
    assert stats.g == [2] and len(stats.f) == n
    assert _keys([(lab, 2.0)]) <= _keys(results)


def test_degenerate_large_k_decodes_densely():
    n = 3
    terms = _kerdock_terms(n, [4], [1.0], seed=8)
    o = SyntheticOracle(n, terms)
    results, stats = list_decode_hankel(o, DecoderParams(k=8), seed=0)
    assert _keys([terms[0]]) <= _keys(results)
    assert len(stats.g) == n


def test_lean_profile_recovers_within_linear_query_budget():
    n = 10
    terms = _kerdock_terms(n, [19], [0.8 + 0.6j], seed=9)
    o = SyntheticOracle(n, terms)
    params = DecoderParams(k=4, profile="lean")
    results, stats = list_decode_hankel(o, params, seed=0)
    assert _keys([terms[0]]) == _keys(results)
    got = results[0][1]
    assert abs(got - (0.8 + 0.6j)) < 1e-9
    assert stats.profile == "lean"
    assert stats.queries < (1 << n) // 8
    assert all(f == 1 for f in stats.f)


def test_the_lean_finish_reads_inside_level_n(monkeypatch):
    # a profile is its level function: nothing reads after its last level
    n = 10
    cached = CachingOracle(SyntheticOracle(n, _kerdock_terms(n, [19], [1.0], seed=9)))
    after = []
    search = decoder_mod._search

    def spy(size, cap, stats, level_keep):
        def level(j, test_set):
            keep = level_keep(j, test_set)
            after.append(cached.query_count)
            return keep

        return search(size, cap, stats, level)

    monkeypatch.setattr(decoder_mod, "_search", spy)
    results, stats = list_decode_hankel(cached, DecoderParams(k=4, profile="lean"), seed=0)
    assert len(results) == 1 and len(after) == n
    assert after[-1] == stats.queries_raw


@pytest.mark.parametrize("profile", ["robust", "lean"])
def test_the_kerdock_decode_past_its_size_limit_reads_nothing(profile):
    # the refusal names the Kerdock decode's own limit: the lean profile refuses it too
    o = SyntheticOracle(21, [])
    with pytest.raises(ValueError, match="limited to n <= 20, got n=21") as err:
        list_decode_hankel(o, DecoderParams(k=1, profile=profile), kerdock=FieldContext.default(21))
    assert "lean" not in str(err.value) and "item 11" in str(err.value)
    assert o.query_count == 0


def test_lean_profile_refuses_the_kerdock_subcode():
    # the Kerdock decode reads every position: it runs under the robust profile only
    o = SyntheticOracle(12, _kerdock_terms(12, [300], [1.0], seed=4))
    lean = DecoderParams(k=4, profile="lean")
    with pytest.raises(ValueError, match='use profile="robust"'):
        list_decode_hankel(o, lean, seed=1, kerdock=FieldContext.default(12))
    assert o.query_count == 0


@pytest.mark.parametrize("n", [6, 9, 12])
def test_lean_keeps_at_most_one_prefix_per_level(n):
    # flipping a child's new diag bit negates the statistic that tests it,
    # so at most one of the four extensions clears the positive bar
    rng = np.random.default_rng(n)
    for words in (1, 2, 3):
        picks = [int(p) for p in rng.choice(1 << n, size=words, replace=False)]
        coeffs = [1.0, 0.7, 0.5][:words]
        vals = make_noisy(n, _kerdock_terms(n, picks, coeffs, seed=n), noise_energy=0.3, seed=n)
        for seed in range(3):
            _, stats = list_decode_hankel(
                DenseOracle(vals), DecoderParams(k=2, profile="lean"), seed=seed
            )
            assert max(stats.f) <= 1


@pytest.mark.parametrize("n, k", [(1, 2), (6, 64), (8, 256)])
def test_lean_stays_lean_at_k_of_at_least_2_to_the_n(n, k):
    lab = CodewordLabel(HankelMat(n, (1 << (2 * n - 1)) - 1), 1, 0)
    o = SyntheticOracle(n, [(lab, 1.0)])
    results, stats = list_decode_hankel(o, DecoderParams(k=k, profile="lean"), seed=0)
    assert stats.profile == "lean" and len(stats.g) == n
    assert stats.queries <= 8 * n
    assert _keys([(lab, 1.0)]) <= _keys(results)


def test_lean_profile_survives_mild_noise():
    n = 10
    terms = _kerdock_terms(n, [27], [1.0], seed=10)
    o = SyntheticOracle(n, terms, noise_energy=0.05, seed=11)
    results, _ = list_decode_hankel(o, DecoderParams(k=4, profile="lean"), seed=2)
    assert _keys([terms[0]]) == _keys(results)
    assert abs(results[0][1] - 1.0) < 0.2


def test_decode_is_deterministic_and_thread_invariant():
    n = 6
    terms = _kerdock_terms(n, [3, 17], [1.0, -0.7j], seed=3)

    def run(threads):
        vals = make_noisy(n, terms, noise_energy=0.5, seed=4)
        o = DenseOracle(vals)
        params = DecoderParams(k=5, threads=threads)
        results, stats = list_decode_hankel(o, params, seed=3)
        return format_decode_report(results, stats)

    assert run(1) == run(1)
    assert run(1) == run(2)


def test_threaded_level_test_matches_serial(monkeypatch):
    # at n = 6 every level fits one default diag batch; tiny batches make the
    # level test hand several of them to the thread pool. At k = 1 levels 1..3
    # settle on slice energies and levels 4..6 test by transform, each in
    # several batches. Every level reads every suffix, so by default levels
    # 2..6 are carried: only level 1 transforms, for its carry (its halves are
    # one tone long), and the split levels read their rows of the carry; level
    # 3, settled, writes its carry in three batches too. With no carry budget
    # levels 4..6 transform their split batches afresh and levels 1..3 run none
    n = 6
    terms = _kerdock_terms(n, [3, 17], [1.0, -0.7j], seed=3)
    vals = make_noisy(n, terms, noise_energy=0.5, seed=4)
    settles = [_settles(DenseOracle(vals), DecoderParams(k=1), 3, j) for j in range(1, n + 1)]
    assert settles == [True] * 3 + [False] * 3
    batches, pools, lengths = [], [], set()

    def small_chunks(diags, row_elems):
        out = diag_chunks(diags, row_elems)
        out = [d[i : i + 3] for d in out for i in range(0, len(d), 3)]
        batches.append(len(out))
        return out

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    def counting_fwht(a, axis=-1, **kwargs):
        lengths.add(np.shape(a)[axis])
        return fwht(a, axis=axis, **kwargs)

    monkeypatch.setattr(decoder_mod, "diag_chunks", small_chunks)
    monkeypatch.setattr(decoder_mod, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(decoder_mod, "fwht", counting_fwht)

    def run(threads):
        params = DecoderParams(k=1, threads=threads)
        results, stats = list_decode_hankel(DenseOracle(vals), params, seed=3)
        return format_decode_report(results, stats)

    # transformed half lengths are 2^h for h in halves: level 1's alone when carried
    for carry_bytes, halves, split in ((decoder_mod.CARRY_BYTES, [0], 4), (0, [3, 4, 5], 3)):
        monkeypatch.setattr(decoder_mod, "CARRY_BYTES", carry_bytes)
        pools.clear()
        lengths.clear()
        serial = run(1)
        assert not pools and max(batches) > 1 and lengths == {1 << h for h in halves}
        assert run(2) == serial
        assert len(pools) == split


def _level_slices(oracle, params, seed, j):
    """Level j's drawn slices, one row each, with its tone bar, gate mask, pass count and energies."""
    n, k = oracle.n, params.k
    samples = params.resolved_suffix_samples(n)
    suffixes = draw_indices(1 << (n - j), samples, np.uint32, seed, "suffix", j, 0)
    pos = (suffixes[:, None] << np.uint32(j)) | np.arange(1 << j, dtype=np.uint32)[None, :]
    vals = oracle.query_many(pos.ravel()).reshape(len(suffixes), 1 << j)
    scale = 2.0 ** (j - n) * oracle.norm_hint**2
    bar = scale / (4.0 * k * decoder_mod.C2) * (1 << j)
    energy = np.einsum("sy,sy->s", np.abs(vals), np.abs(vals))
    gated = energy > (k / (decoder_mod.C1 / 40.0)) * scale
    need = np.ceil((1.0 + decoder_mod.C1) / (8.0 * k) * len(suffixes) - 1e-12)
    return vals, bar, gated, need, energy


def _settles(oracle, params, seed, j):
    """Whether level j keeps every child on its slice energies alone: below level n,
    enough slices are gated or have an energy 1e-6 over the bar, which their largest
    tone power then reaches too (Parseval)."""
    _, bar, gated, need, energy = _level_slices(oracle, params, seed, j)
    return bool(j < oracle.n and (gated | (energy >= bar * (1 + 1e-6))).sum() >= need)


def _per_child_level(oracle, params, seed, j, diags):
    """The level test with every child's slice demodulated and transformed in full."""
    vals, bar, gated, need, _ = _level_slices(oracle, params, seed, j)
    n, hint_sq, width = oracle.n, oracle.norm_hint**2, 1 << j
    ys = np.arange(width, dtype=np.uint32)
    keep, hits = [], []
    for chunk in diag_chunks(diags, vals.size):
        spec = fwht(demodulate(vals, chunk, j, ys), axis=-1)
        power = (spec.real**2 + spec.imag**2).max(axis=-1)
        keep.append(((power >= bar) | gated).sum(axis=1) >= need)
        if j == n:
            spec /= np.sqrt(width)
            for a, ell in zip(*np.nonzero(np.abs(spec[:, 0]) ** 2 >= hint_sq / (2.0 * params.k))):
                c = spec[a, 0, ell]
                hits.append((int(chunk[a]), int(ell), c.real.hex(), c.imag.hex()))
    return np.concatenate(keep), hits


def _slice_signal(kind, n):
    rng = np.random.default_rng([n, len(kind)])
    if kind == "clean":
        # one planted word: every value is +-1 or +-i over sqrt(N), exact zeros in each part
        lab = CodewordLabel(HankelMat(n, int(rng.integers(1 << (2 * n - 1)))), int(rng.integers(1 << n)), 0)
        return SyntheticOracle(n, [(lab, 1.0)])
    if kind == "integer":
        vals = rng.integers(-2, 3, size=1 << n) + 1j * rng.integers(-2, 3, size=1 << n)
    else:
        vals = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return DenseOracle(vals)


@pytest.mark.parametrize("kind", ["clean", "integer", "gaussian"])
def test_shared_spectra_match_the_per_child_transforms(monkeypatch, kind):
    # the carried chain, levels j = 1..n, each fed the previous level's kept
    # diags and so its carry: the keep masks, and at j = n the listed tones
    # with their coefficient bits, are those of transforming each child's
    # slice in full. Every level reads every suffix, so only level 1 transforms
    transformed = []

    def counting_fwht(a, **kwargs):
        transformed.append(j)
        return fwht(a, **kwargs)

    monkeypatch.setattr(decoder_mod, "fwht", counting_fwht)
    outcomes, listed = set(), 0
    for n in (1, 2, 3, 5, 8):
        oracle = _slice_signal(kind, n)
        # k = 4 lists many tones at n <= 5; k = 1 prunes the middle levels at n = 8
        params = DecoderParams(k=1 if n == 8 else 4)
        assert params.resolved_suffix_samples(n) >= 1 << (n - 1)
        found = []
        level_keep = decoder_mod._exact_levels(oracle, params, 5, found)
        diags = np.array([0, 1], dtype=np.uint64)
        for j in range(1, n + 1):
            got = level_keep(j, diags)
            want, want_hits = _per_child_level(oracle, params, 5, j, diags)
            assert got.tolist() == want.tolist(), (n, j)
            outcomes.update(want.tolist())
            if j == n:
                hits = [
                    (d, ell, c.real.hex(), c.imag.hex())
                    for part in found
                    for d, ell, c in zip(*(a.tolist() for a in part))
                ]
                assert sorted(hits) == sorted(want_hits)
                listed += len(hits)
            elif not got.any():
                break
            else:
                diags = extend_prefix(diags[got], j)
    assert outcomes == {False, True} and listed
    assert set(transformed) == {1}


def _carry(level_keep):
    """The kept spectra a robust level function holds for its next level, or None."""
    return level_keep.__closure__[level_keep.__code__.co_freevars.index("carry")].cell_contents


@pytest.mark.parametrize("kind", ["clean", "integer", "gaussian"])
def test_a_settled_level_keeps_and_carries_as_the_transforms_do(kind):
    # along the carried chain, a level that settles on its slice energies keeps
    # every child, as transforming each child's slice in full does, and the
    # carry it writes, from a fresh transform of its lone batch at level 1 or
    # from the previous carry later, holds those transforms bit for bit
    seen = set()
    for n in (3, 5, 7):
        oracle = _slice_signal(kind, n)
        params = DecoderParams(k=1 if n == 7 else 4)
        level_keep = decoder_mod._exact_levels(oracle, params, 5, [])
        diags = np.array([0, 1], dtype=np.uint64)
        for j in range(1, n + 1):
            got = level_keep(j, diags)
            want, _ = _per_child_level(oracle, params, 5, j, diags)
            assert got.tolist() == want.tolist(), (n, j)
            carry = _carry(level_keep)
            if carry is not None:
                vals = _level_slices(oracle, params, 5, j)[0]
                ys = np.arange(1 << j, dtype=np.uint32)
                assert carry.tobytes() == fwht(demodulate(vals, diags[got], j, ys)).tobytes()
            seen.add((_settles(oracle, params, 5, j), j == 1, carry is not None))
            if j == n or not got.any():
                break
            diags = extend_prefix(diags[got], j)
    assert {(True, True, True), (True, False, True), (False, False, True)} <= seen


@pytest.mark.parametrize("over, settles", [(0.0, False), (1e-7, False), (1e-5, True)])
def test_a_slice_energy_within_the_margin_of_the_bar_goes_to_the_transforms(monkeypatch, over, settles):
    # every level-1 slice of a flat signal at n = 10 has energy 2^-9, and a norm
    # hint of 2 / sqrt(1 + over) puts the bar (k = 1) at that energy over 1 +
    # over. An energy 1e-6 or more over the bar settles the level, which, being
    # sampled, then transforms nothing; one closer to the bar is tested by
    # transform. The keep mask is the per-child transforms' either way
    n = 10
    oracle = DenseOracle(I_POWERS[np.random.default_rng(n).integers(4, size=1 << n)] / 32.0)
    oracle.norm_hint = 2.0 / np.sqrt(1.0 + over)
    params = DecoderParams(k=1)
    _, bar, gated, need, energy = _level_slices(oracle, params, 0, 1)
    assert (energy == 2.0**-9).all() and not gated.any() and len(energy) >= need
    assert np.allclose(energy / bar, 1.0 + over, rtol=0, atol=1e-12)
    assert _settles(oracle, params, 0, 1) is settles
    calls = []
    monkeypatch.setattr(decoder_mod, "fwht", lambda a, **kwargs: calls.append(a.shape) or fwht(a, **kwargs))
    diags = np.array([0, 1], dtype=np.uint64)
    got = decoder_mod._exact_levels(oracle, params, 0, [])(1, diags)
    assert got.tolist() == _per_child_level(oracle, params, 0, 1, diags)[0].tolist()
    assert bool(calls) is not settles


@pytest.mark.parametrize("kind", ["clean", "integer", "gaussian"])
def test_the_finish_lists_from_its_tone_powers_what_the_full_spectra_list(monkeypatch, kind):
    # level n takes as candidates the tones whose power is within 1e-6 of the
    # cut hint^2 / 2k, then squares their dots exactly: the list is the full
    # spectra's, bit for bit, in descending |dot|^2 then diag then ell. A clean
    # word's rank-1 neighbours have |dot|^2 = 1/2, the cut at k = 1
    levels, factory = [], decoder_mod._exact_levels

    def spy(*args):
        level_keep = factory(*args)

        def spied(j, diags):
            levels.append(diags)
            return level_keep(j, diags)

        return spied

    monkeypatch.setattr(decoder_mod, "_exact_levels", spy)
    at_cut = 0
    for n in (2, 4, 6, 7):
        oracle = _slice_signal(kind, n)
        ys = np.arange(1 << n, dtype=np.uint32)
        for k in (1, 2, 4):
            params = DecoderParams(k=k, candidate_cap=1 << 15)
            levels.clear()
            results, stats = list_decode_hankel(oracle, params, seed=5)
            got = [(lab.q.diag, lab.ell, c.real.hex(), c.imag.hex()) for lab, c in results]
            keys = [(-abs(c) ** 2, lab.q.diag, lab.ell) for lab, c in results]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            if len(levels) < n:
                assert not got
                continue
            _, want = _per_child_level(oracle, params, 5, n, levels[-1])
            assert sorted(got) == sorted(want), (n, k)
            dots = fwht(demodulate(oracle.query_many(ys), levels[-1], n, ys)) / np.sqrt(1 << n)
            cut = oracle.norm_hint**2 / (2.0 * k)
            at_cut += int((np.abs(np.abs(dots) ** 2 / cut - 1.0) < 1e-6).sum())
    assert at_cut or kind != "clean"


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("k", [1, 4])
def test_the_level_test_gets_whole_sibling_groups(monkeypatch, noisy, k):
    # the robust level test reads each row of its test set, reshaped by 4 (by 2
    # at level 1), as one parent's children in kind order 0, 2, 1, 3, the
    # parents being the previous level's kept diags in order (its carry's rows)
    levels, factory = [], decoder_mod._exact_levels

    def spy(*args):
        level_keep = factory(*args)

        def spied(j, diags):
            keep = level_keep(j, diags)
            levels.append((j, diags.copy(), keep))
            return keep

        return spied

    monkeypatch.setattr(decoder_mod, "_exact_levels", spy)
    for n in range(1, 9):
        lab = CodewordLabel(HankelMat(n, (0x5A3C >> n) % (1 << (2 * n - 1))), n % 2, 0)
        vals = make_noisy(n, [(lab, 1.0)], noise_energy=0.1 if noisy else 0.0, seed=n)
        levels.clear()
        results, stats = list_decode_hankel(DenseOracle(vals), DecoderParams(k=k), seed=n)
        assert [len(d) for _, d, _ in levels] == stats.g
        assert (lab.q.diag, lab.ell) in _keys(results)
        for (_, before, kept), (_, diags, _) in zip(levels, levels[1:]):
            assert diags[::4].tolist() == before[kept].tolist()
        for j, diags, _ in levels:
            kinds = [0, 2] if j == 1 else [0, 2, 1, 3]
            groups = diags.reshape(-1, len(kinds))
            keys = groups & np.uint64((1 << max(2 * j - 3, 0)) - 1)
            assert (keys == keys[:, :1]).all() and len(np.unique(keys[:, 0])) == len(groups)
            assert (((groups << np.uint64(1)) >> np.uint64(2 * j - 2)) & np.uint64(3) == kinds).all()


def _carry_input(kind, n):
    rng = np.random.default_rng([n, 7])
    lab = CodewordLabel(HankelMat(n, int(rng.integers(1 << (2 * n - 1)))), int(rng.integers(1 << n)), 0)
    if kind == "clean":
        return SyntheticOracle(n, [(lab, 1.0)])
    if kind == "noisy":
        return DenseOracle(make_noisy(n, [(lab, 1.0)], noise_energy=0.1, seed=n))
    # integers: twice the word's values, i^e, with a unit knocked off one position in eight
    vals = np.rint(2.0 * np.sqrt(1 << n) * dense_codeword(lab))
    vals[rng.integers(1 << n, size=1 + (1 << n) // 8)] -= rng.choice([1, 1j, -1, -1j])
    return DenseOracle(vals)


def _decode_bits(oracle, k):
    results, stats = list_decode_hankel(oracle, DecoderParams(k=k), seed=3)
    listed = [(lab.q.diag, lab.ell, c.real.hex(), c.imag.hex()) for lab, c in results]
    return listed, stats.g, stats.f, stats.queries, stats.queries_raw


def test_a_carry_gives_the_bits_of_transforming_afresh(monkeypatch):
    # a budget of 0 turns every carry down, so every level demodulates and
    # transforms; 16 KB carries some levels and not others at n <= 7, and with
    # 3-parent batches a level after one with no carry transforms several
    # batches and hands on no carry. Both decode as the default budget does,
    # bit for bit
    cases = [(kind, n, k) for kind in ("clean", "noisy", "integer") for n in range(1, 11) for k in (1, 4)]
    carried = [_decode_bits(_carry_input(*case[:2]), case[2]) for case in cases]
    zeros = sum(part in ("0x0.0p+0", "-0x0.0p+0") for got in carried for hit in got[0] for part in hit[2:])
    assert zeros
    monkeypatch.setattr(decoder_mod, "CARRY_BYTES", 0)
    for case, want in zip(cases, carried):
        assert _decode_bits(_carry_input(*case[:2]), case[2]) == want, case
    monkeypatch.setattr(decoder_mod, "CARRY_BYTES", 1 << 14)
    monkeypatch.setattr(decoder_mod, "diag_chunks", lambda d, size: [d[i : i + 3] for i in range(0, len(d), 3)])
    for case, want in zip(cases, carried):
        if case[1] <= 7:
            assert _decode_bits(_carry_input(*case[:2]), case[2]) == want, case


def _slice_bits(kind, n, k):
    """_decode_bits of _slice_signal(kind, n), or the overflow's message."""
    try:
        return _decode_bits(_slice_signal(kind, n), k)
    except CandidateOverflow as err:
        return str(err)


@pytest.mark.parametrize("parents", [1, 3])
def test_blocks_of_parents_decode_as_the_default(monkeypatch, parents):
    # the level test writes its children's spectra in blocks of 1 or 3 parents
    # (every level here reads every suffix but level 1 of n = 9, k = 1, which has
    # one parent), so with 3 a level's last block is partial unless its parents
    # are a multiple of 3; with a budget of 64 children's spectra a lone batch's
    # kept spectra pass it part-way. Each decodes as the default does, bit for bit
    cases = [(kind, n, k) for kind in ("clean", "integer", "gaussian") for n in range(1, 10) for k in (1, 4)]
    want = [_slice_bits(*case) for case in cases]
    assert any(isinstance(bits, str) for bits in want) and not all(isinstance(bits, str) for bits in want)
    for budget in (None, 64):
        for case, bits in zip(cases, want):
            n = case[1]
            monkeypatch.setattr(decoder_mod, "BLOCK_BYTES", parents * 16 << n)
            if budget:
                monkeypatch.setattr(decoder_mod, "CARRY_BYTES", budget * 16 << n)
            assert _slice_bits(*case) == bits, (case, budget)


def test_a_carry_budget_passed_part_way_hands_on_no_carry(monkeypatch):
    # with a budget of 64 children's spectra and 3-parent blocks, a level that
    # tests a lone batch and keeps more than 64 children passes the budget after
    # some of its blocks: it hands on no carry, the next level transforms afresh
    # (the fwht row bill holds), and the list is the default's
    levels, factory = [], decoder_mod._exact_levels

    def spy(*args):
        level_keep = factory(*args)

        def spied(j, diags):
            keep = level_keep(j, diags)
            levels.append((int(keep.sum()), _carry(level_keep)))
            return keep

        return spied

    passed = 0
    for n in range(5, 10):
        rng = np.random.default_rng([n, 7])
        lab = CodewordLabel(HankelMat(n, int(rng.integers(1 << (2 * n - 1)))), int(rng.integers(1 << n)), 0)
        oracle = DenseOracle(make_noisy(n, [(lab, 1.0)], noise_energy=0.3, seed=n))
        want = _decode_bits(oracle, 1)
        monkeypatch.setattr(decoder_mod, "CARRY_BYTES", 64 * 16 << n)
        monkeypatch.setattr(decoder_mod, "BLOCK_BYTES", 3 * 16 << n)
        assert _decode_bits(oracle, 1) == want
        monkeypatch.setattr(decoder_mod, "_exact_levels", spy)
        levels.clear()
        carried, settles = _check_fwht_row_bill(monkeypatch, oracle, lab, n, 1)
        full = [DecoderParams(k=1).resolved_suffix_samples(n) >= 1 << (n - j) for j in range(1, n + 1)]
        for j in range(1, n):
            if full[j - 1] and not settles[j - 1] and levels[j - 1][0] > 64:
                assert levels[j - 1][1] is None and not carried[j], (n, j)
                passed += 1
        monkeypatch.undo()
    assert passed


def _level_temporaries(monkeypatch, oracle, params):
    """Each robust level's (j, kept, traced peak, carry): the peak counts what the
    level allocates after its last fwht returns, so beyond its transformed rows."""
    levels, factory, base = [], decoder_mod._exact_levels, [0]

    def mark():
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    def marking_fwht(a, **kwargs):
        out = fwht(a, **kwargs)
        mark()
        return out

    def spy(*args):
        level_keep = factory(*args)

        def spied(j, diags):
            mark()
            keep = level_keep(j, diags)
            peak = tracemalloc.get_traced_memory()[1] - base[0]
            levels.append((j, int(keep.sum()), peak, _carry(level_keep)))
            return keep

        return spied

    monkeypatch.setattr(decoder_mod, "fwht", marking_fwht)
    monkeypatch.setattr(decoder_mod, "_exact_levels", spy)
    tracemalloc.start()
    try:
        list_decode_hankel(oracle, params, seed=0)
    finally:
        tracemalloc.stop()
    return levels


def test_a_level_holds_its_carry_twice_and_a_few_blocks(monkeypatch):
    # beyond its transformed parent rows, a robust level holds its kept spectra
    # at most twice (the blocks' parts and the carry joined from them) and a few
    # blocks of spectra, powers and halves: on the carried n = 13, k = 1 decode
    # (16 parents of 8,192 values from level 6 on), and at n = 8, k = 4 with a
    # 1 MB carry budget that the kept spectra of levels 5..7 (2 to 8 MB)
    # overrun: level 5 settles and writes none, and levels 6 and 7, each one
    # batch, hold theirs only up to the budget and drop them
    slack = 16 * decoder_mod.BLOCK_BYTES
    lab = CodewordLabel(lf_kerdock(FieldContext.default(13), 0x2B), 5, 0)
    levels = _level_temporaries(monkeypatch, SyntheticOracle(13, [(lab, 1.0)]), DecoderParams(k=1))
    assert [carry is not None for *_, carry in levels] == [False] * 5 + [True] * 7 + [False]
    for j, _, peak, carry in levels:
        assert peak <= 2 * (0 if carry is None else carry.nbytes) + slack, j
    n = 8
    rng = np.random.default_rng([n, 7])
    lab = CodewordLabel(HankelMat(n, int(rng.integers(1 << (2 * n - 1)))), int(rng.integers(1 << n)), 0)
    oracle = DenseOracle(make_noisy(n, [(lab, 1.0)], noise_energy=0.1, seed=n))
    assert DecoderParams(k=4).resolved_suffix_samples(n) >= 1 << (n - 1)
    monkeypatch.undo()
    monkeypatch.setattr(decoder_mod, "CARRY_BYTES", 1 << 20)
    levels = _level_temporaries(monkeypatch, oracle, DecoderParams(k=4))
    assert [j for j, kept, _, _ in levels if j < n and 16 * kept << n > 1 << 20] == [5, 6, 7]
    for j, _, peak, carry in levels:
        held = decoder_mod.CARRY_BYTES if j < n and carry is None else 2 * (0 if carry is None else carry.nbytes)
        assert peak <= held + slack, j


def test_level_reads_sum_to_the_query_bill():
    # each level's count of positions it read first, for every profile
    n = 9
    vals = make_noisy(n, _kerdock_terms(n, [4], [1.0], seed=2), noise_energy=0.1, seed=3)
    decodes = [
        list_decode_hankel(DenseOracle(vals), DecoderParams(k=1), seed=1),
        list_decode_hankel(DenseOracle(vals), DecoderParams(k=2, profile="lean"), seed=1),
        list_decode_hankel(DenseOracle(vals), DecoderParams(k=2), kerdock=FieldContext.default(n)),
    ]
    for _, stats in decodes:
        assert len(stats.level_reads) == len(stats.g) and stats.level_reads.typecode == "q"
        assert sum(stats.level_reads) == stats.queries and stats.level_reads[0] > 0
    # the robust level 1 reads its drawn slices; every position is read by
    # the first level that reads every suffix, so the last reads none first
    robust = decodes[0][1].level_reads
    assert robust[0] <= 2 * DecoderParams(k=1).resolved_suffix_samples(n) < 1 << n
    assert robust[-1] == 0
    # the lean level 1 reads the pool's anchors and their e_0 partners
    assert decodes[1][1].level_reads[0] == 2 * decoder_mod.POOL_BASES


class _PositionLog(SampleOracle):
    """Delegating oracle that records every position it serves."""

    def __init__(self, base):
        super().__init__(base.n, base.norm_hint)
        self.base = base
        self.served = []

    def _values(self, ys):
        self.served.append(ys.copy())
        return self.base.query_many(ys)


def test_each_decode_bills_its_own_reads():
    # decodes through one base oracle, or one cache, each report the positions
    # they read themselves, whatever an earlier decode read
    n = 9
    vals = make_noisy(n, _kerdock_terms(n, [4], [1.0], seed=2), noise_energy=0.1, seed=3)
    oracle = DenseOracle(vals)
    _, robust = list_decode_hankel(oracle, DecoderParams(k=1), seed=1)
    _, lean = list_decode_hankel(oracle, DecoderParams(k=2, profile="lean"), seed=1)
    assert lean.queries == sum(lean.level_reads) == 8 * n - 4
    assert oracle.query_count == robust.queries + lean.queries
    _, again = list_decode_hankel(oracle, DecoderParams(k=1), seed=1)
    assert (again.queries, again.queries_raw) == (robust.queries, robust.queries_raw)
    assert robust.queries == 1 << n
    cached = CachingOracle(DenseOracle(vals))
    bills = [list_decode_hankel(cached, DecoderParams(k=1), seed=1)[1] for _ in range(2)]
    assert bills[0].queries == 1 << n and bills[1].queries == sum(bills[1].level_reads) == 0
    assert bills[1].queries_raw == bills[0].queries_raw


def test_robust_bill_is_bounded():
    # each level reads its drawn slices once; the last level is the finish
    n = 13
    lab = CodewordLabel(lf_kerdock(FieldContext.default(n), 0x2B), 5, 0)
    log = _PositionLog(SyntheticOracle(n, [(lab, 1.0)]))
    params = DecoderParams(k=1)
    results, stats = list_decode_hankel(log, params, seed=0)
    assert (lab.q.diag, lab.ell) in _keys(results)
    reads = np.concatenate(log.served)
    assert stats.queries == reads.size == np.unique(reads).size == 1 << n
    drawn = [min(1 << (n - j), params.resolved_suffix_samples(n)) for j in range(1, n + 1)]
    assert stats.queries_raw == sum(s << j for j, s in enumerate(drawn, start=1))


def _check_fwht_row_bill(monkeypatch, oracle, lab, n, k):
    # a level transforms two half-length rows per (parent, drawn suffix), the
    # parents being level j-1's kept diags (one, key 0, at level 1), unless it
    # is carried (the level before it read every suffix, kept at most
    # CARRY_BYTES of spectra and was one batch or carried) or it settles on
    # slice energies and starts no carry; no full-size candidate is
    # demodulated and transformed a second time
    rows = []

    def counting_fwht(a, axis=-1, **kwargs):
        rows.append(int(np.prod(np.shape(a)[:-1])))
        return fwht(a, axis=axis, **kwargs)

    monkeypatch.setattr(decoder_mod, "fwht", counting_fwht)
    params = DecoderParams(k=k)
    results, stats = list_decode_hankel(oracle, params, seed=0)
    assert (lab.q.diag, lab.ell) in _keys(results)
    drawn = [min(1 << (n - j), params.resolved_suffix_samples(n)) for j in range(1, n + 1)]
    parents = [1] + stats.f[:-1]
    carried = [False]
    for j in range(1, n):
        fits = drawn[j - 1] == 1 << (n - j) and 16 * stats.f[j - 1] << n <= decoder_mod.CARRY_BYTES
        lone = len(diag_chunks(np.arange(parents[j - 1]), 4 << n)) == 1
        carried.append(fits and (carried[-1] or lone))
    settles = [_settles(oracle, params, 0, j) for j in range(1, n + 1)]
    starts = [not c and after for c, after in zip(carried, carried[1:] + [False])]
    tested = [not c and (not s or a) for c, s, a in zip(carried, settles, starts)]
    assert sum(rows) == sum(2 * p * s for p, s, t in zip(parents, drawn, tested) if t)
    return carried, settles


def test_last_level_is_the_finish(monkeypatch):
    # levels 1..6 settle on slice energies and every level reads every suffix,
    # so only level 1 transforms, for the carry that levels 2..7 take
    n, k = 7, 10
    rng = np.random.default_rng(12)
    lab = CodewordLabel(HankelMat(n, int(rng.integers(1 << (2 * n - 1)))), 5, 0)
    vals = make_noisy(n, [(lab, 1.0)], noise_energy=0.5, seed=13)
    carried, settles = _check_fwht_row_bill(monkeypatch, DenseOracle(vals), lab, n, k)
    assert carried == [False] + [True] * (n - 1)
    assert settles == [True] * (n - 1) + [False]


def test_sampled_levels_transform_until_one_reads_every_suffix(monkeypatch):
    # at n = 13, k = 1, levels 1 and 2 settle on slice energies and, being
    # sampled, transform nothing; levels 3..6 transform (level 6 is the first
    # to read every suffix) and levels 7..13 are carried
    n, k = 13, 1
    lab = CodewordLabel(lf_kerdock(FieldContext.default(n), 0x2B), 5, 0)
    carried, settles = _check_fwht_row_bill(monkeypatch, SyntheticOracle(n, [(lab, 1.0)]), lab, n, k)
    assert carried == [False] * 6 + [True] * (n - 6)
    assert settles == [True] * 2 + [False] * (n - 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_energy_gate_passes_every_prefix(threads):
    # a hint far below the signal energy gates every slice: no level prunes,
    # and the last level lists exactly the dense scan at hint^2 / 2k
    n, k = 5, 1
    terms = _kerdock_terms(n, [6], [1.0], seed=14)
    vals = make_noisy(n, terms, noise_energy=0.1, seed=15)
    o = DenseOracle(vals)
    o.norm_hint = 0.05
    params = DecoderParams(k=k, candidate_cap=1 << 20, threads=threads)
    results, stats = list_decode_hankel(o, params, seed=0)
    assert stats.f == stats.g
    assert stats.f[-1] == 1 << (2 * n - 1)
    dense = dense_heavy_set(vals, threshold_sq=0.05**2 / (2 * k))
    assert 0 < len(dense) < (1 << (3 * n - 1))
    assert _keys(results) == _keys(dense)


def test_robust_size_guard_reads_nothing():
    o = SyntheticOracle(21, [])
    with pytest.raises(ValueError, match='profile="lean"'):
        list_decode_hankel(o, DecoderParams(k=1), seed=0)
    assert o.query_count == 0


def test_report_layout():
    n = 4
    lab = CodewordLabel(HankelMat(n, 0x2A), 5, 0)
    stats = DecodeStats(
        n=n, k=2, profile="robust", g=[2, 8], f=[2, 1], level_seconds=[0.5, 0.25], queries=7, queries_raw=9
    )
    text = format_decode_report([(lab, 1.5 + 0.25j)], stats)
    lines = text.splitlines()
    assert lines[0] == "2a 5 1.5 0.25 2.3125"
    assert lines[1] == "# levels 2"
    assert lines[2] == "# level 1 tested 2 kept 2"
    assert lines[3] == "# level 2 tested 8 kept 1"
    assert lines[4] == "# queries 7 raw 9"
    assert len(lines) == 5 and "seconds" not in text


def test_caller_supplied_cache_is_reused():
    n = 6
    o = CachingOracle(SyntheticOracle(n, _kerdock_terms(n, [5], [1.0], seed=1)))
    _, stats = list_decode_hankel(o, DecoderParams(k=2), seed=0)
    assert stats.queries == o.distinct_count


# exact kernel ---------------------------------------------------------------
#
# With n even, 1/sqrt(N) is a power of two, so a signal of Z4 codewords with
# dyadic coefficients has dyadic values, every sum in a transform is exact,
# and the kernel must agree with the scalar pair_dot reference bit for bit.


def _dyadic_terms(n):
    # two Hankel words (one with eps = 1) and identity + anti-identity, not Hankel at n = 4
    sym = SymMat(n, tuple((1 << i) | (1 << (n - 1 - i)) for i in range(n)))
    return [
        (CodewordLabel(HankelMat(n, 0b101), 1, 0), 1.0),
        (CodewordLabel(HankelMat(n, (1 << (2 * n - 1)) - 1), 2, 1), -0.5),
        (CodewordLabel(sym, 3, 3), 0.25j),
    ]


def _exact_dot(terms, label):
    return sum(c * pair_dot(lab, label) for lab, c in terms)


@pytest.mark.parametrize("n", [2, 4])
def test_demodulate_transform_equals_pair_dot_exactly(n):
    terms = _dyadic_terms(n)
    vals = sum(c * dense_codeword(lab) for lab, c in terms)
    ys = np.arange(1 << n, dtype=np.uint32)
    diags = np.arange(1 << (2 * n - 1))
    dots = fwht(demodulate(vals, diags, n, ys), axis=-1) / np.sqrt(1 << n)
    for diag in diags.tolist():
        for ell in range(1 << n):
            want = _exact_dot(terms, CodewordLabel(HankelMat(n, diag), ell, 0))
            assert dots[diag, ell] == want


@pytest.mark.parametrize("n, k", [(4, 2), (2, 4), (4, 16), (3, 8), (3, 11)])
def test_exact_finish_coefficients_equal_pair_dot(n, k):
    # every k runs every level and lists the last one's tones; at k >= 2^n
    # every heavy tone's prefix survives, so the list is the whole code's
    terms = _dyadic_terms(n)
    oracle = DenseOracle(sum(c * dense_codeword(lab) for lab, c in terms))
    results, stats = list_decode_hankel(oracle, DecoderParams(k=k))
    assert results and len(stats.g) == n
    # at odd n, 1/sqrt(N) rounds, so the dots agree to within an ulp or two
    tol = 0.0 if n % 2 == 0 else 4 * np.finfo(float).eps
    for lab, c in results:
        assert abs(c - _exact_dot(terms, lab)) <= tol
    if k >= 1 << n:
        prune = oracle.norm_hint**2 / (2.0 * k)
        want = {
            (d, ell)
            for d in range(1 << (2 * n - 1))
            for ell in range(1 << n)
            if abs(_exact_dot(terms, CodewordLabel(HankelMat(n, d), ell, 0))) ** 2 >= prune
        }
        assert {(lab.q.diag, lab.ell) for lab, _ in results} == want
