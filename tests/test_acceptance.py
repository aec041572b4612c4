"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line
(run with -s to see them on success) and asserting the same condition.
The checks cross-validate the probabilistic components against the
exhaustive reference oracles, so they are slower than the unit suites;
every criterion also enforces its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from kerdock.cli import main as cli_main
from kerdock.codebook import (
    CodewordLabel,
    HankelMat,
    dense_codeword,
    format_label,
    kerdock_set,
    lf_kerdock,
)
from kerdock.decoder import CandidateOverflow, DecoderParams, list_decode_hankel
from kerdock.field import FieldContext, poly_table
from kerdock.oracle import (
    best_k_kerdock,
    count_hankel_by_rank,
    dense_heavy_set,
    verify_commute_equivalence,
    verify_dickson,
    verify_gray_independence,
    verify_independence,
    verify_kerdock_set,
)
from kerdock.pursuit import PursuitParams, sparse_approx
from kerdock.rm1 import km_list, rm1_label
from kerdock.signal import DenseOracle, SyntheticOracle, fwht, make_noisy


pytestmark = pytest.mark.slow


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_criterion_01_field_arithmetic():
    t0 = time.perf_counter()
    tabled = sorted(n for n in poly_table() if n <= 16)
    ok = True
    for n in tabled:
        ctx = FieldContext.default(n)
        xs = np.arange(1 << n, dtype=np.uint32)
        tv = ctx.trace_vec(xs)
        ok &= set(np.unique(tv).tolist()) <= {0, 1}
        ok &= int((tv == 0).sum()) == 1 << (n - 1)
        if n <= 10:
            pair = tv[(xs[:, None] ^ xs[None, :])]
            ok &= bool((pair == (tv[:, None] ^ tv[None, :])).all())
        if n <= 12:
            ok &= all(ctx.mul(ctx.sqrt(x), ctx.sqrt(x)) == x for x in range(1 << n))
    elapsed = time.perf_counter() - t0
    _verdict(1, "field-arithmetic", ok and elapsed < 30,
             f"n={{{tabled[0]}..{tabled[-1]}}} {elapsed:.1f}s")


def test_criterion_02_kerdock_construction():
    t0 = time.perf_counter()
    # worked small example: top row (1,1,1) over h = 1 + t^2 + t^3
    example = lf_kerdock(FieldContext(3, 0b1101), 0b111)
    ok = example.rows == (0b111, 0b011, 0b101)
    for n in (3, 5, 7, 9):
        rep = verify_kerdock_set(FieldContext.default(n))
        ok &= rep["nonzero_full_rank"]
        ok &= rep["pairwise_sums_full_rank"]
        ok &= rep["matches_trace_construction"]
        ok &= rep["size_2n"]
    for n in (3, 4, 5, 6):
        eq = verify_commute_equivalence(FieldContext.default(n))
        ok &= bool(eq["agree"]) and eq["members"] == eq["expected"]
    elapsed = time.perf_counter() - t0
    _verdict(2, "kerdock-construction", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_03_dot_magnitude_law():
    t0 = time.perf_counter()
    ok = True
    floor_pop = 0
    for n in (4, 5, 6):
        rep = verify_dickson(n, num_pairs=10000, seed=0, tol=1e-9)
        ok &= rep["checked"] == 10000
        ok &= rep["failures"] == []
        ok &= rep["branch_mismatches"] == []
        # equal-l nonzero floor, asserted on the full-rank subpopulation
        # (degenerate differences do reach zero at equal l; those are
        # counted, not forbidden)
        ok &= rep["full_rank_equal_ell"] > 0
        ok &= rep["full_rank_equal_ell_zero"] == 0
        floor_pop += rep["full_rank_equal_ell"]
    elapsed = time.perf_counter() - t0
    _verdict(3, "dot-magnitude-law", ok and elapsed < 60,
             f"3x10^4 pairs, {floor_pop} full-rank equal-l cases, {elapsed:.1f}s")


def test_criterion_04_positionwise_independence():
    t0 = time.perf_counter()
    odd = verify_independence(3)
    even = verify_independence(4)
    ok = odd.three_wise and odd.three_half_wise
    ok &= (not odd.four_wise) and odd.four_witness is not None
    ok &= even.three_wise
    ok &= (not even.three_half_wise) and even.three_half_witness is not None
    ok &= verify_gray_independence(3)
    elapsed = time.perf_counter() - t0
    _verdict(4, "positionwise-independence", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_05_hankel_rank_scarcity():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 9):
        counts = count_hankel_by_rank(n)
        cum = 0
        for r in range(n + 1):
            cum += counts.get(r, 0)
            ok &= cum <= 1 << (4 * r)
        ok &= sum(counts.values()) == 1 << (2 * n - 1)
    elapsed = time.perf_counter() - t0
    _verdict(5, "hankel-rank-scarcity", ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_06_tone_decoder():
    t0 = time.perf_counter()
    m, theta, trials = 10, 0.25, 100
    planted_ok = superset_ok = sound_ok = 0
    for trial in range(trials):
        rng = np.random.default_rng([600, trial])
        ell = int(rng.integers(1 << m))
        terms = [(rm1_label(m, ell), 1.0)]
        o = SyntheticOracle(m, terms, noise_energy=1.0, seed=trial)
        got = {e for e, _ in km_list(o, theta, seed=trial)}
        vals = SyntheticOracle(m, terms, noise_energy=1.0, seed=trial).query_many(
            np.arange(1 << m)
        )
        spec = fwht(vals) / np.sqrt(1 << m)
        total = float(np.sum(np.abs(vals) ** 2))
        heavy = set(np.flatnonzero(np.abs(spec) ** 2 >= theta * total).tolist())
        planted_ok += ell in got
        superset_ok += heavy <= got
        sound_ok += all(abs(spec[e]) ** 2 >= (theta / 4) * total for e in got)
    elapsed = time.perf_counter() - t0
    ok = planted_ok >= 95 and superset_ok >= 95 and sound_ok >= 95 and elapsed < 120
    _verdict(6, "tone-decoder", ok,
             f"planted {planted_ok}/100 superset {superset_ok}/100 "
             f"sound {sound_ok}/100 {elapsed:.1f}s")


def test_criterion_07_hankel_list_decoder():
    t0 = time.perf_counter()
    n, k, trials = 7, 10, 100
    superset_ok = sound_ok = 0
    for trial in range(trials):
        rng = np.random.default_rng([700, trial])
        nterms = int(rng.integers(1, 4))
        seen = set()
        terms = []
        while len(terms) < nterms:
            diag = int(rng.integers(1 << (2 * n - 1)))
            ell = int(rng.integers(1 << n))
            if (diag, ell) in seen:
                continue
            seen.add((diag, ell))
            coeff = (0.5 + rng.uniform(0, 1.0)) * np.exp(2j * np.pi * rng.uniform())
            terms.append((CodewordLabel(HankelMat(n, diag), ell, 0), coeff))
        noise = float(rng.uniform(0, 1.0)) * sum(abs(c) ** 2 for _, c in terms)
        vals = make_noisy(n, terms, noise_energy=noise, seed=trial)
        o = DenseOracle(vals)
        try:
            results, _ = list_decode_hankel(o, DecoderParams(k=k), seed=trial)
        except CandidateOverflow:
            continue
        hint_sq = o.norm_hint**2
        heavy = {(l.q.diag, l.ell) for l, _ in dense_heavy_set(vals, hint_sq / k)}
        got = {(l.q.diag, l.ell) for l, _ in results}
        superset_ok += heavy <= got
        sound_ok += all(
            abs(np.vdot(dense_codeword(l), vals)) ** 2 >= hint_sq / (4 * k)
            for l, _ in results
        )
    elapsed = time.perf_counter() - t0
    ok = superset_ok >= 95 and sound_ok >= 95 and elapsed < 600
    _verdict(7, "hankel-list-decoder", ok,
             f"superset {superset_ok}/100 sound {sound_ok}/100 {elapsed:.1f}s")


def test_criterion_08_query_sublinearity():
    t0 = time.perf_counter()
    k, ns, trials = 4, (10, 12, 14, 16), 3
    max_queries = {}
    recovered = 0
    for n in ns:
        ctx = FieldContext.default(n)
        worst = 0
        for trial in range(trials):
            rng = np.random.default_rng([800, n, trial])
            mat = lf_kerdock(ctx, int(rng.integers(1, 1 << n)))
            lab = CodewordLabel(mat, int(rng.integers(1 << n)), 0)
            o = SyntheticOracle(n, [(lab, 1.0)], seed=trial)
            results, stats = list_decode_hankel(
                o, DecoderParams(k=k, profile="lean"), seed=trial
            )
            got = {(l.q.diag, l.ell) for l, _ in results}
            recovered += (lab.q.diag, lab.ell) in got
            worst = max(worst, stats.queries)
        max_queries[n] = worst
    budget_ok = all(max_queries[n] < (1 << n) // 8 for n in ns)
    ratio = max_queries[16] / max_queries[10]
    ratio_ok = ratio < (16 / 10) ** 12
    # log-log slope of the query growth
    xs = np.log([float(n) for n in ns])
    ys = np.log([float(max_queries[n]) for n in ns])
    c = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.perf_counter() - t0
    ok = budget_ok and ratio_ok and recovered == len(ns) * trials and elapsed < 600
    _verdict(8, "query-sublinearity", ok,
             f"queries {[max_queries[n] for n in ns]} vs 2^n/8, "
             f"fit c={c:.2f}, recovered {recovered}/{len(ns) * trials}, {elapsed:.1f}s")


def test_criterion_09_sparse_approximation():
    t0 = time.perf_counter()
    n, k, trials = 9, 3, 100
    ctx = FieldContext.default(n)
    mats = kerdock_set(ctx)
    exact_ok = 0
    for trial in range(trials):
        rng = np.random.default_rng([900, trial])
        picks = rng.choice(len(mats), size=k, replace=False)
        terms = []
        for p, mag in zip(picks, (1.0, 0.5, 0.25)):
            coeff = mag * np.exp(2j * np.pi * rng.uniform())
            terms.append((CodewordLabel(mats[p], int(rng.integers(1 << n)), 0), coeff))
        o = SyntheticOracle(n, terms)
        try:
            rep = sparse_approx(o, PursuitParams(k=k, eps=0.05), seed=trial)
        except CandidateOverflow:
            continue
        s = sum(c * dense_codeword(l) for l, c in terms)
        approx = rep.evaluate(np.arange(1 << n, dtype=np.uint32))
        rel = np.linalg.norm(s - approx) ** 2 / np.linalg.norm(s) ** 2
        exact_ok += rel <= 0.05

    noisy_ok = 0
    noisy_trials = 20
    for trial in range(noisy_trials):
        rng = np.random.default_rng([901, trial])
        picks = rng.choice(len(mats), size=2, replace=False)
        terms = [
            (CodewordLabel(mats[p], int(rng.integers(1 << n)), 0), c)
            for p, c in zip(picks, (1.0, 0.8))
        ]
        vals = make_noisy(n, terms, noise_energy=0.2, seed=trial)
        o = DenseOracle(vals)
        rep = sparse_approx(o, PursuitParams(k=2, eps=0.1), seed=trial)
        err_sq = np.linalg.norm(
            vals - rep.evaluate(np.arange(1 << n, dtype=np.uint32))
        ) ** 2
        _, _, best = best_k_kerdock(ctx, vals, 2)
        noisy_ok += err_sq <= (1.0 + 0.1 + 6.0 * 4 / np.sqrt(1 << n)) * best**2
    elapsed = time.perf_counter() - t0
    ok = exact_ok >= 95 and noisy_ok == noisy_trials and elapsed < 600
    _verdict(9, "sparse-approximation", ok,
             f"exact {exact_ok}/100 noisy {noisy_ok}/{noisy_trials} {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    n = 6
    ctx = FieldContext.default(n)
    lab = CodewordLabel(lf_kerdock(ctx, 0x2B), 9, 0)
    plant = f"{format_label(lab)}:1.0"
    lean_lab = CodewordLabel(lf_kerdock(FieldContext.default(10), 0x5D), 3, 0)
    wide_lab = CodewordLabel(lf_kerdock(FieldContext.default(9), 0x10F), 4, 0)
    invocations = [
        ["gen-field", "--n", "8"],
        ["kerdock", "gen", "--all", "--n", "4"],
        ["decode", "--plant", plant, "--n", str(n), "--k", "3",
         "--noise-energy", "0.2", "--seed", "11"],
        ["decode", "--plant", plant, "--n", str(n), "--k", "3",
         "--noise-energy", "0.2", "--seed", "11", "--threads", "2"],
        ["decode", "--plant", f"{format_label(lean_lab)}:1.0", "--n", "10",
         "--k", "4", "--profile", "lean", "--seed", "5"],
        ["sparse-approx", "--plant", f"{format_label(wide_lab)}:1.0", "--n", "9",
         "--k", "2", "--eps", "0.1", "--seed", "2"],
        ["verify", "--suite", "field", "--n", "4"],
        ["bench", "--k", "2", "--n-list", "8", "--trials", "1", "--seed", "3"],
    ]
    ok = True
    for argv in invocations:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        ok &= first == second
    # file-writing paths byte-compare too
    labels = tmp_path / "labels.txt"
    coeffs = tmp_path / "coeffs.txt"
    labels.write_text(format_label(lab) + "\n")
    coeffs.write_text("1.0 0.0\n")
    outs = []
    for tag in ("a", "b"):
        clean = tmp_path / f"clean-{tag}.sig"
        noisy = tmp_path / f"noisy-{tag}.sig"
        assert cli_main(["encode", "--labels", str(labels), "--coeffs", str(coeffs),
                         "--out", str(clean)]) == 0
        assert cli_main(["corrupt", "--in", str(clean), "--noise-energy", "0.3",
                         "--seed", "4", "--out", str(noisy)]) == 0
        outs.append(clean.read_bytes() + noisy.read_bytes())
    capsys.readouterr()
    ok &= outs[0] == outs[1]
    with capsys.disabled():
        _verdict(10, "cli-determinism", ok,
                 f"{len(invocations)} invocations + encode/corrupt files")
