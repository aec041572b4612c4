import io
from dataclasses import replace

import numpy as np
import pytest

import kerdock.pursuit as pursuit_mod
from kerdock.codebook import CodewordLabel, HankelMat, dense_codeword, kerdock_set
from kerdock.decoder import DecoderParams
from kerdock.field import FieldContext
from kerdock.oracle import best_k_kerdock
from kerdock.pursuit import (
    PursuitParams,
    Representation,
    ResidualOracle,
    is_kerdock_label,
    read_representation,
    sparse_approx,
    write_representation,
)
from kerdock.rm1 import rm1_label
from kerdock.signal import DenseOracle, SampleOracle, SyntheticOracle, make_noisy


def _terms(n, picks, coeffs, ell_seed=0):
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    rng = np.random.default_rng(ell_seed)
    return [
        (CodewordLabel(mats[p], int(rng.integers(1 << n)), 0), c)
        for p, c in zip(picks, coeffs)
    ]


def _keys(pairs):
    return {(lab.q.diag, lab.ell) for lab, _ in pairs}


def _dense(n, rep):
    return rep.evaluate(np.arange(1 << n, dtype=np.uint32))


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_params_refuse_a_non_finite_eps(eps):
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
        PursuitParams(k=2, eps=eps)


def test_params_validation_and_defaults(monkeypatch):
    with pytest.raises(ValueError):
        PursuitParams(k=0, eps=0.1)
    with pytest.raises(ValueError):
        PursuitParams(k=2, eps=0.0)
    p = PursuitParams(k=3, eps=0.05)
    assert p.resolved_rounds() == 4
    assert PursuitParams(k=3, eps=0.5).resolved_rounds() == 2
    assert PursuitParams(k=3, eps=0.02).resolved_rounds() == 5
    # eps above e still runs one round
    assert PursuitParams(k=3, eps=3.0).resolved_rounds() == 1
    assert PursuitParams(k=3, eps=10.0).resolved_rounds() == 1
    # every inner decode runs the plain decoder at heaviness k, default cap included
    vals, params = _two_round_case()
    inner = []
    real = pursuit_mod.list_decode_hankel

    def spy(oracle, decoder_params, seed=0):
        inner.append(decoder_params)
        return real(oracle, decoder_params, seed)

    monkeypatch.setattr(pursuit_mod, "list_decode_hankel", spy)
    sparse_approx(DenseOracle(vals), params, seed=0)
    assert inner == [DecoderParams(k=params.k)] * 2


def test_coherence_regime_guard():
    o = SyntheticOracle(4, [])
    with pytest.raises(ValueError):
        sparse_approx(o, PursuitParams(k=2, eps=0.1), seed=0)


def test_empty_domain_is_refused_before_any_read():
    o = DenseOracle(np.ones(1, dtype=np.complex128))
    with pytest.raises(ValueError, match="n >= 1, got n=0"):
        sparse_approx(o, PursuitParams(k=1, eps=0.1), seed=0)
    assert o.query_count == 0


def test_representation_rejects_duplicate_labels():
    lab = CodewordLabel(HankelMat(3, 5), 1, 0)
    with pytest.raises(ValueError):
        Representation([(lab, 1.0), (lab, 2.0)])


def test_representation_compares_tone_labels_as_labels():
    # tone labels carry a SymMat, which has no diag
    rep = Representation([(rm1_label(3, 1), 1.0), (rm1_label(3, 2), 0.5)])
    assert len(rep.terms) == 2
    with pytest.raises(ValueError, match="distinct"):
        Representation([(rm1_label(3, 1), 1.0), (rm1_label(3, 2), 0.5), (rm1_label(3, 1), 2.0)])


def test_representation_evaluates_term_sum():
    n = 4
    terms = _terms(n, [2, 9], [1.0, -0.5j])
    rep = Representation(terms)
    direct = sum(c * dense_codeword(lab) for lab, c in terms)
    assert np.allclose(_dense(n, rep), direct, atol=1e-12)
    assert (_dense(n, Representation()) == 0).all()


def test_residual_oracle_subtracts_the_representation():
    n = 5
    terms = _terms(n, [4], [2.0])
    vals = make_noisy(n, terms, noise_energy=0.1, seed=1)
    base = DenseOracle(vals)
    res = ResidualOracle(base, Representation(terms), norm_hint=1.0)
    got = res.query_many(np.arange(1 << n))
    want = vals - terms[0][1] * dense_codeword(terms[0][0])
    assert np.allclose(got, want, atol=1e-12)
    assert res.norm_hint == 1.0
    assert res.query_count == 1 << n
    assert base.query_count == 1 << n


def test_is_kerdock_label_matches_the_family():
    n = 5
    ctx = FieldContext.default(n)
    members = {m.diag for m in kerdock_set(ctx)}
    for diag in range(1 << (2 * n - 1)):
        assert is_kerdock_label(ctx, diag) == (diag in members)


def test_pursuit_recovers_exact_sparse_signal():
    n = 9
    terms = _terms(n, [3, 40, 111], [1.0, 0.5, 0.25], ell_seed=2)
    o = SyntheticOracle(n, terms)
    rep = sparse_approx(o, PursuitParams(k=3, eps=0.05), seed=0)
    got = {(lab.q.diag, lab.ell): c for lab, c in rep.terms}
    # independent dot estimates leak coherence: (k-1) 2^(-n/2) max|c| per term
    leak = 2 * 2.0 ** (-n / 2.0) * 1.0 + 1e-6
    for lab, c in terms:
        assert abs(got[(lab.q.diag, lab.ell)] - c) <= leak
    err_sq = (
        np.linalg.norm(_dense(n, rep) - sum(c * dense_codeword(l) for l, c in terms))
        ** 2
    )
    assert err_sq <= 0.05 * (1.0 + 0.25 + 0.0625)


def test_pursuit_single_term():
    n = 7
    terms = _terms(n, [12], [1.5j], ell_seed=3)
    o = SyntheticOracle(n, terms)
    rep = sparse_approx(o, PursuitParams(k=1, eps=0.05), seed=1)
    assert len(rep.terms) == 1
    lab, c = rep.terms[0]
    assert (lab.q.diag, lab.ell) == (terms[0][0].q.diag, terms[0][0].ell)
    assert abs(c - 1.5j) < 1e-6


def test_pursuit_with_loose_eps_still_decodes():
    n = 6
    terms = _terms(n, [21], [1.0], ell_seed=11)
    rep = sparse_approx(SyntheticOracle(n, terms), PursuitParams(k=1, eps=3.0), seed=0)
    assert _keys(rep.terms) == _keys(terms)


def test_pursuit_noisy_error_within_budget():
    n = 8
    k = 2
    terms = _terms(n, [7, 60], [1.0, 0.8], ell_seed=4)
    vals = make_noisy(n, terms, noise_energy=0.4, seed=5)
    o = DenseOracle(vals)
    rep = sparse_approx(o, PursuitParams(k=k, eps=0.1), seed=2)
    err_sq = np.linalg.norm(vals - _dense(n, rep)) ** 2
    ctx = FieldContext.default(n)
    _, _, best = best_k_kerdock(ctx, vals, k)
    assert err_sq <= (1.0 + 0.1 + 6.0 * k**2 / np.sqrt(1 << n)) * best**2


def test_pursuit_respects_the_term_budget():
    n = 8
    terms = _terms(n, [1, 2, 3, 4], [1.0, 0.9, 0.8, 0.7], ell_seed=6)
    o = SyntheticOracle(n, terms, noise_energy=0.2, seed=7)
    rep = sparse_approx(o, PursuitParams(k=2, eps=0.1), seed=3)
    assert len(rep.terms) <= 2


def test_pursuit_outputs_only_kerdock_labels():
    n = 9
    ctx = FieldContext.default(n)
    terms = _terms(n, [5, 19], [1.0, 0.6], ell_seed=8)
    o = SyntheticOracle(n, terms, noise_energy=0.3, seed=9)
    rep = sparse_approx(o, PursuitParams(k=3, eps=0.1), seed=4)
    for lab, _ in rep.terms:
        assert is_kerdock_label(ctx, lab.q.diag)


def test_pursuit_is_deterministic():
    n = 8
    terms = _terms(n, [3, 40], [1.0, 0.5], ell_seed=2)
    a = sparse_approx(
        SyntheticOracle(n, terms, 0.1, seed=1), PursuitParams(k=2, eps=0.05), seed=5
    )
    b = sparse_approx(
        SyntheticOracle(n, terms, 0.1, seed=1), PursuitParams(k=2, eps=0.05), seed=5
    )
    assert [(l.q.diag, l.ell, c) for l, c in a.terms] == [
        (l.q.diag, l.ell, c) for l, c in b.terms
    ]


def test_representation_file_round_trip():
    n = 6
    terms = _terms(n, [2, 30], [1.25 - 0.5j, 0.125], ell_seed=10)
    rep = Representation(terms)
    buf = io.StringIO()
    write_representation(rep, buf)
    buf.seek(0)
    back = read_representation(buf, n)
    assert [(l.q.diag, l.ell, l.eps, c) for l, c in back.terms] == [
        (l.q.diag, l.ell, l.eps, c) for l, c in rep.terms
    ]


def test_read_representation_skips_comments_and_blanks():
    text = "# comment\n\n" + "003f 2a 1 1 -0.5\n"
    rep = read_representation(io.StringIO(text), 6)
    assert len(rep.terms) == 1
    lab, c = rep.terms[0]
    assert lab.q.diag == 0x3F and lab.ell == 0x2A and lab.eps == 1
    assert c == 1 - 0.5j


# query bill and early stop ----------------------------------------------------


class _PositionLog(SampleOracle):
    """Delegating oracle that records every position it serves."""

    def __init__(self, base):
        super().__init__(base.n, base.norm_hint)
        self.base = base
        self.served = []

    def _values(self, ys):
        self.served.append(ys.copy())
        return self.base.query_many(ys)


def _two_round_case():
    # noisy n=9 input whose second term is admitted by the second round
    n = 9
    terms = _terms(n, [3, 40], [1.0, 0.5], ell_seed=2)
    vals = make_noisy(n, terms, noise_energy=0.2, seed=5)
    return vals, PursuitParams(k=2, eps=0.1)


def _spy_decodes(monkeypatch):
    """Replace the inner decoder with a pass-through that logs (oracle, stats)."""
    seen = []
    real = pursuit_mod.list_decode_hankel

    def spy(oracle, params, seed=0):
        results, stats = real(oracle, params, seed)
        seen.append((oracle, stats))
        return results, stats

    monkeypatch.setattr(pursuit_mod, "list_decode_hankel", spy)
    return seen


def test_pursuit_stops_once_the_budget_is_full(monkeypatch):
    vals, params = _two_round_case()
    seen = _spy_decodes(monkeypatch)
    short = sparse_approx(DenseOracle(vals), replace(params, eps=0.5), seed=0)
    assert len(short.terms) == params.k
    seen.clear()
    long = sparse_approx(DenseOracle(vals), replace(params, eps=0.02), seed=0)
    assert [(l.q.diag, l.ell, l.eps, c) for l, c in long.terms] == [
        (l.q.diag, l.ell, l.eps, c) for l, c in short.terms
    ]
    # terms held at each inner decode: none runs after the round that filled the budget
    sizes = [len(getattr(o, "rep", Representation()).terms) for o, _ in seen]
    assert sizes == [0, 1]


def test_pursuit_stops_after_a_round_that_admits_nothing(monkeypatch):
    # two Kerdock terms under a budget of three: the round after both are in
    # admits nothing and leaves the residual as it was
    n = 9
    vals = make_noisy(n, _terms(n, [5, 19], [1.0, 0.6], ell_seed=8), 0.3, seed=5)
    seen = _spy_decodes(monkeypatch)
    rep = sparse_approx(DenseOracle(vals), PursuitParams(k=3, eps=0.1), seed=0)
    assert len(rep.terms) == 2
    sizes = [len(getattr(o, "rep", Representation()).terms) for o, _ in seen]
    assert sizes == [0, 2]


def test_residual_decodes_report_their_reads(monkeypatch):
    vals, params = _two_round_case()
    seen = _spy_decodes(monkeypatch)
    sparse_approx(DenseOracle(vals), params, seed=0)
    residual, stats = seen[1]
    assert isinstance(residual, ResidualOracle)
    assert stats.queries > 0
    assert residual.query_count == stats.queries


def test_pursuit_reads_each_base_position_at_most_once():
    vals, params = _two_round_case()
    log = _PositionLog(DenseOracle(vals))
    rep = sparse_approx(log, params, seed=0)
    assert len(rep.terms) == params.k
    reads = np.concatenate(log.served)
    assert reads.size <= vals.size
    assert np.unique(reads).size == reads.size
