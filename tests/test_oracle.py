import numpy as np
import pytest

import kerdock.oracle as oracle_mod
from kerdock.codebook import (
    CodewordLabel,
    HankelMat,
    dense_codeword,
    gf2_rank,
    kerdock_set,
)
from kerdock.field import FieldContext
from kerdock.oracle import (
    best_k_kerdock,
    count_hankel_by_rank,
    dense_dot_table,
    dense_heavy_set,
    verify_commute_equivalence,
    verify_dickson,
    verify_gray_independence,
    verify_homomorphism,
    verify_independence,
    verify_kerdock_set,
)
from kerdock.signal import make_noisy


def _kerdock_diags(ctx):
    return np.array([m.diag for m in kerdock_set(ctx)])


def test_dot_table_matches_direct_inner_products():
    rng = np.random.default_rng(0)
    n = 4
    vals = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    seen = 0
    for chunk, dots in dense_dot_table(vals):
        for a in (0, len(chunk) // 2):
            for ell in (0, 5):
                lab = CodewordLabel(HankelMat(n, int(chunk[a])), ell, 0)
                want = np.vdot(dense_codeword(lab), vals)
                assert abs(dots[a, ell] - want) < 1e-10
        seen += len(chunk)
    assert seen == 1 << (2 * n - 1)


def test_dot_table_kerdock_family_size():
    ctx = FieldContext.default(4)
    vals = np.zeros(16, dtype=np.complex128)
    vals[0] = 1.0
    seen = sum(len(chunk) for chunk, _ in dense_dot_table(vals, _kerdock_diags(ctx)))
    assert seen == 16


def test_heavy_set_equals_brute_force():
    n = 5
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    terms = [
        (CodewordLabel(mats[3], 7, 0), 1.0),
        (CodewordLabel(mats[12], 1, 0), -0.5j),
    ]
    vals = make_noisy(n, terms, noise_energy=0.05, seed=1)
    heavy = dense_heavy_set(vals, threshold_sq=0.1, diags=_kerdock_diags(ctx))
    found = {(lab.q.diag, lab.ell): c for lab, c in heavy}
    want = {}
    for m in mats:
        for ell in range(1 << n):
            lab = CodewordLabel(m, ell, 0)
            d = np.vdot(dense_codeword(lab), vals)
            if abs(d) ** 2 >= 0.1:
                want[(m.diag, ell)] = d
    assert set(found) == set(want)
    for key in want:
        assert abs(found[key] - want[key]) < 1e-10
    # planted labels clear the bar despite mutual cross-talk
    for lab, _ in terms:
        assert (lab.q.diag, lab.ell) in found


def test_best_k_recovers_planted_kerdock_terms():
    n = 5
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    terms = [
        (CodewordLabel(mats[9], 20, 0), 1.0),
        (CodewordLabel(mats[4], 3, 0), 0.6),
        (CodewordLabel(mats[30], 31, 0), 0.3j),
    ]
    vals = make_noisy(n, terms)
    labels, coeffs, err = best_k_kerdock(ctx, vals, 3)
    got = {(lab.q.diag, lab.ell) for lab in labels}
    assert got == {(lab.q.diag, lab.ell) for lab, _ in terms}
    assert err < 1e-9
    by_key = {(lab.q.diag, lab.ell): c for lab, c in zip(labels, coeffs)}
    for lab, c in terms:
        assert abs(by_key[(lab.q.diag, lab.ell)] - c) < 1e-9


def test_best_k_refuses_a_k_below_one():
    ctx = FieldContext.default(3)
    with pytest.raises(ValueError, match="needs k >= 1, got k=0"):
        best_k_kerdock(ctx, np.ones(1 << 3, dtype=np.complex128), 0)


@pytest.mark.parametrize("k", [1, 2])
def test_best_k_does_not_depend_on_the_scan_batches(k, monkeypatch):
    # two equal-magnitude words: the largest |dot| ties up to rounding
    n = 6
    mats = kerdock_set(FieldContext.default(n))
    rng = np.random.default_rng(106)
    i, j = rng.choice(64, 2, replace=False)
    li, lj = rng.integers(64), rng.integers(64)
    c = np.exp(2j * np.pi * rng.uniform())
    vals = c * dense_codeword(CodewordLabel(mats[i], int(li), 0)) + c * dense_codeword(
        CodewordLabel(mats[j], int(lj), 0)
    )

    def picks():
        labels, coeffs, _ = best_k_kerdock(FieldContext.default(n), vals, k)
        return [(lab.q.diag, lab.ell) for lab in labels], [
            (complex(x).real.hex(), complex(x).imag.hex()) for x in coeffs
        ]

    def one_diag_batches(diags, row_elems):
        return [diags[a : a + 1] for a in range(len(diags))]

    whole = picks()
    monkeypatch.setattr(oracle_mod, "diag_chunks", one_diag_batches)
    assert picks() == whole


def test_best_k_error_is_monotone_in_k():
    rng = np.random.default_rng(7)
    n = 4
    ctx = FieldContext.default(n)
    vals = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    errs = [best_k_kerdock(ctx, vals, k)[2] for k in (1, 2, 4)]
    assert errs[0] >= errs[1] >= errs[2]


@pytest.mark.parametrize("n", [3, 4, 6])
def test_kerdock_set_properties(n):
    report = verify_kerdock_set(FieldContext.default(n))
    assert report == {
        "contains_zero": True,
        "nonzero_full_rank": True,
        "pairwise_sums_full_rank": True,
        "matches_trace_construction": True,
        "size_2n": True,
    }


def test_kerdock_set_check_catches_a_low_rank_pairwise_sum(monkeypatch):
    n = 5
    mats = kerdock_set(FieldContext.default(n))
    # the last member differs from member 1 by the rank-1 matrix e0 e0^T
    bad = mats[:-1] + [HankelMat(n, mats[1].diag ^ 1)]
    monkeypatch.setattr(oracle_mod, "kerdock_set", lambda ctx: bad)
    report = verify_kerdock_set(FieldContext.default(n))
    assert report["pairwise_sums_full_rank"] is False
    assert report["nonzero_full_rank"] is (gf2_rank(bad[-1].rows) == n)


def test_rank_histogram_counts():
    n = 4
    counts = count_hankel_by_rank(n)
    assert sum(counts.values()) == 1 << (2 * n - 1)
    assert counts[0] == 1
    # direct recount over every matrix
    direct = {}
    for diag in range(1 << (2 * n - 1)):
        r = gf2_rank(HankelMat(n, diag).rows)
        direct[r] = direct.get(r, 0) + 1
    assert counts == {r: direct.get(r, 0) for r in counts}


@pytest.mark.parametrize("n", [4, 6])
def test_low_rank_hankels_are_scarce(n):
    counts = count_hankel_by_rank(n)
    cum = 0
    for r in range(n + 1):
        cum += counts.get(r, 0)
        assert cum <= 1 << (4 * r)


def test_dickson_sampled_law_holds():
    report = verify_dickson(5, num_pairs=800, seed=0)
    assert report["checked"] == 800
    assert report["failures"] == []
    assert report["branch_mismatches"] == []
    assert report["full_rank_equal_ell"] > 0
    assert report["full_rank_equal_ell_zero"] == 0


def test_dickson_zero_at_equal_ell_happens_for_degenerate_pairs():
    # the zero branch under equal linear parts exists, just never at full rank
    report = verify_dickson(4, num_pairs=3000, seed=1)
    assert report["zero_with_equal_ell"] > 0
    assert report["full_rank_equal_ell_zero"] == 0


def test_independence_profile_odd_n():
    rep = verify_independence(3)
    assert rep.three_wise
    assert rep.three_half_wise
    assert not rep.four_wise
    assert rep.four_witness is not None


def test_independence_profile_even_n():
    rep = verify_independence(4)
    assert rep.three_wise
    assert not rep.three_half_wise
    assert rep.three_half_witness is not None


def test_gray_image_is_four_wise_independent_at_odd_n():
    assert verify_gray_independence(3)


def test_commute_equivalence_three_ways():
    eq = verify_commute_equivalence(FieldContext.default(4))
    assert eq["agree"]
    assert eq["members"] == eq["expected"] == 16
    assert eq["witness"] is None


def test_trace_matrices_multiply_like_the_field():
    rep = verify_homomorphism(FieldContext.default(4))
    assert rep == {"additive": True, "multiplicative": True}


# each verifier's failure branch, reached by breaking the primitive it calls


@pytest.mark.parametrize("mag", [0.0, 0.3])
def test_dickson_reports_a_broken_pair_dot(mag, monkeypatch):
    monkeypatch.setattr(oracle_mod, "pair_dot", lambda a, b: mag)
    report = verify_dickson(3, num_pairs=200, seed=0)
    assert report["branch_mismatches"]
    if mag:
        # 0.3 is neither 0 nor any 2^(-r/2)
        assert len(report["failures"]) == 200
    else:
        assert report["failures"] == []
        assert report["full_rank_equal_ell_zero"] == report["full_rank_equal_ell"] > 0


def _zero_quadratic_parts(monkeypatch, n):
    # every member's Q = 0 leaves the linear code 2 l.y + eps, even on every difference
    monkeypatch.setattr(oracle_mod, "kerdock_set", lambda ctx: [HankelMat(n, 0)] * (1 << n))


def test_independence_reports_a_code_that_is_not_three_wise(monkeypatch):
    _zero_quadratic_parts(monkeypatch, 3)
    rep = verify_independence(3)
    assert not rep.three_wise and not rep.three_half_wise and not rep.four_wise


def test_gray_check_reports_a_code_that_is_not_four_wise(monkeypatch):
    _zero_quadratic_parts(monkeypatch, 3)
    assert verify_gray_independence(3) is False


def test_commute_equivalence_reports_a_broken_commute_check(monkeypatch):
    monkeypatch.setattr(oracle_mod, "check_commute", lambda ctx, mat: False)
    eq = verify_commute_equivalence(FieldContext.default(4))
    assert eq["agree"] is False
    # diag 0 is a member by recurrence and by (c), not by the broken check
    assert eq["witness"] == (0, True, False, True)


def test_homomorphism_reports_a_broken_inverse(monkeypatch):
    # J = I leaves K_x K_y = K_xy, which fails because K_1 is not the identity
    monkeypatch.setattr(oracle_mod, "gf2_inv", lambda rows, n: [1 << i for i in range(n)])
    rep = verify_homomorphism(FieldContext.default(4))
    assert rep == {"additive": True, "multiplicative": False}


def test_best_k_stops_when_the_residual_picks_a_chosen_word_again():
    n = 6
    labels, coeffs, err = best_k_kerdock(FieldContext.default(n), np.zeros(1 << n), 2)
    assert len(labels) == 1
    assert coeffs.tolist() == [0.0] and err == 0.0


@pytest.mark.parametrize("n", [2, 6])
def test_independence_check_refuses_other_sizes(n):
    with pytest.raises(ValueError, match=r"supports n in \{3,4,5\}"):
        verify_independence(n)


@pytest.mark.parametrize("n", [2, 5])
def test_gray_check_refuses_other_sizes(n):
    with pytest.raises(ValueError, match=r"supports n in \{3,4\}"):
        verify_gray_independence(n)


def test_three_way_check_refuses_past_n_6():
    with pytest.raises(ValueError, match="limited to n <= 6"):
        verify_commute_equivalence(FieldContext.default(7))
