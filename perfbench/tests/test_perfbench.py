"""Tests of the benchmark's own logic: counting, checks, tracing and summaries.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

from kerdock.codebook import CodewordLabel, HankelMat, dense_codeword, lf_kerdock
from kerdock.decoder import DecoderParams, list_decode_hankel
from kerdock.field import FieldContext
from kerdock.pursuit import PursuitParams
from kerdock.signal import CachingOracle, DenseOracle, SyntheticOracle, make_noisy

from perfbench import layers, spans
from perfbench.run import END_TO_END, NAMES
from perfbench.summary import median, percentile, quartiles, rel_spread
from perfbench.workloads import (
    WORKLOADS,
    Case,
    CountingOracle,
    Outcome,
    Pursuit,
    check_list,
    check_planted,
    digest_terms,
    run_case,
)

ROOT = Path(__file__).resolve().parents[2]


def _kerdock_label(n, top, ell):
    return CodewordLabel(lf_kerdock(FieldContext.default(n), top), ell, 0)


# counting oracle ------------------------------------------------------------


def test_counting_oracle_matches_cache_distinct_count():
    n = 5
    rng = np.random.default_rng(3)
    counting = CountingOracle(DenseOracle(rng.standard_normal(1 << n) + 0j))
    cache = CachingOracle(counting)
    asked = set()
    for _ in range(6):
        ys = rng.integers(0, 1 << n, size=9)
        asked.update(ys.tolist())
        cache.query_many(ys)
        assert counting.reads == cache.distinct_count == len(asked)


def test_counting_oracle_matches_decode_query_bill():
    n = 6
    lab = _kerdock_label(n, 5, 3)
    case = Case(SyntheticOracle(n, [(lab, 1.0)]), [(lab, 1.0)], DecoderParams(k=2), 0)
    outcome, seconds = run_case(case)
    assert outcome.failure is None and seconds > 0
    assert outcome.reads == outcome.stats.queries > 0
    check_planted(case, outcome)
    assert outcome.failure is None and outcome.recovered == outcome.planted == 1
    # a repeated run gives the same output, bit for bit
    again, _ = run_case(case)
    assert digest_terms(again.terms) == digest_terms(outcome.terms)


# checks ---------------------------------------------------------------------


def test_overflow_is_counted_as_a_failed_operation():
    from perfbench.run import Loop

    class Overflowing(WORKLOADS["robust-sampled"]):
        n = 6

        def case(self, i):
            case = super().case(i)
            case.params = DecoderParams(k=1, candidate_cap=1)
            return case

    w = Overflowing(seed=1)
    w.setup()
    loop = Loop(w)
    outcome, _ = loop.run(0)
    assert outcome.failure.startswith("CandidateOverflow")
    assert loop.attempted == 1 and len(loop.failures) == 1
    assert outcome.planted == 1 and outcome.recovered == 0


def test_planted_check_rejects_a_list_without_the_planted_label():
    n = 6
    lab = _kerdock_label(n, 5, 3)
    other = _kerdock_label(n, 9, 3)
    case = Case(SyntheticOracle(n, [(lab, 1.0)]), [(lab, 1.0)], DecoderParams(k=2), 0)
    outcome = check_planted(case, Outcome([(other, 1.0)], None, reads=10))
    assert outcome.recovered == 0 and "not recovered" in outcome.failure


def test_list_check_rejects_a_missing_heavy_label():
    n, k = 5, 4
    lab = CodewordLabel(HankelMat(n, 0b101101101), 7, 0)
    values = make_noisy(n, [(lab, 1.0)], noise_energy=0.1, seed=1)
    hint = float(np.linalg.norm(values))
    full, _ = list_decode_hankel(DenseOracle(values), DecoderParams(k=k), seed=0)
    assert check_list(Outcome(full, None, 0), values, k, hint) is None
    missing = [t for t in full if (t[0].q.diag, t[0].ell) != (lab.q.diag, lab.ell)]
    assert "superset" in check_list(Outcome(missing, None, 0), values, k, hint)
    quiet = next(
        lab for lab in (CodewordLabel(HankelMat(n, d), 1, 0) for d in range(1 << (2 * n - 1)))
        if abs(np.vdot(dense_codeword(lab), values)) ** 2 < hint**2 / (40 * k)
    )
    weak = full + [(quiet, 0.0)]
    assert "soundness" in check_list(Outcome(weak, None, 0), values, k, hint)


def test_pursuit_check_rejects_representations_above_the_error_bound():
    w = Pursuit(seed=4)
    w.setup()
    clean, noisy = w.cases[0], w.cases[1]
    assert isinstance(clean.params, PursuitParams) and clean.params.k == 3
    assert w.check(clean, Outcome(list(clean.planted), None, 0)).failure is None
    assert w.check(noisy, Outcome(list(noisy.planted), None, 0)).failure is None
    # dropping the strongest term puts both above their bounds
    assert "clean pursuit error" in w.check(clean, Outcome(clean.planted[1:], None, 0)).failure
    assert "noisy pursuit error" in w.check(noisy, Outcome(noisy.planted[1:], None, 0)).failure


def test_workload_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def labels(seed):
        w = WORKLOADS["lean-sweep"](seed)
        w.setup()
        return [(c.planted[0][0].q.diag, c.planted[0][0].ell, c.op_seed) for c in w.cases]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)


# tracing --------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import kerdock.decoder
    import kerdock.oracle
    import kerdock.signal

    original = kerdock.signal.fwht
    tr = spans.Tracer(layers.HOOKS)
    tr.install()
    try:
        for module in (kerdock.signal, kerdock.decoder, kerdock.oracle):
            assert module.fwht is not original and module.fwht.__wrapped__ is original
        assert {"kerdock.decoder.km_list", "kerdock.rm1.estimate_dots",
                "kerdock.pursuit.exponents_at"} <= set(tr.bindings)
        frame = tr.enter("op")
        kerdock.decoder.fwht(np.ones((3, 8)), axis=-1)
        tr.leave(frame, 1.0)
        assert tr.calls["signal.fwht"] == 1
        assert tr.counters["fwht_rows"] == 3 and tr.counters["fwht_elems"] == 3 * 8 * 3
        assert tr.self_time["op"] < 1.0  # the child span is subtracted
        kerdock.decoder.fwht(np.ones(8))  # outside an operation: not recorded
        assert tr.calls["signal.fwht"] == 1
    finally:
        tr.uninstall()
    assert kerdock.signal.fwht is original and kerdock.decoder.fwht is original


def test_missing_target_is_reported_with_its_reason(monkeypatch):
    monkeypatch.setattr(spans, "FUNCTIONS", [("signal.fwht", "kerdock.signal", "no_such_fwht")])
    monkeypatch.setattr(spans, "METHODS", [])
    tr = spans.Tracer(layers.HOOKS)
    tr.install()
    tr.uninstall()
    assert "no_such_fwht not found" in tr.missing["signal.fwht"]
    op = layers.op_values(tr.snapshot(), reads=5, approx_err=None)
    out = layers.summarize(
        [op], [op], {"field": 0.0, "codebook": 0.0, "signal": 0.0},
        {"oracle.check_s": 0.0, "trace.op_s": 1.0, "trace.overhead_frac": 0.0}, tr.missing,
    )
    assert out["signal.fwht_elems"]["value"] is None
    assert "no_such_fwht" in out["signal.fwht_elems"]["missing"]
    assert out["signal.base_reads"]["value"] == 5


# summaries ------------------------------------------------------------------


def test_median_and_quartiles_follow_statistics_quantiles():
    data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = quartiles(data)
    assert (q1, q2, q3) == tuple(statistics.quantiles(data, n=4))
    assert median(data) == q2 == 3.5
    assert rel_spread(data) == pytest.approx((q3 - q1) / 3.5)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0) and rel_spread([2.0]) == 0.0
    assert rel_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert percentile(data, 10) == pytest.approx(float(np.percentile(data, 10)))
    assert percentile(data, 50) == median(data)
    assert percentile([4.0], 10) == 4.0


# the definition file --------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES) == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in layers.PER_LAYER.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
