"""Per-layer metrics: the counters each span records and how they are reported.

Every metric is per operation. Times are means over all traced operations;
counts and ratios come from the first traced pass over the first-pass
inputs, so they repeat exactly for a seed. A metric whose span target no
longer exists in the package is reported with a null value and the reason,
never as 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.spans import Tracer


def _fwht(tr: Tracer, args, kwargs, out, exc) -> None:
    if out is None:
        return
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    m = out.shape[axis]
    rows = out.size // m
    tr.counters["fwht_rows"] += rows
    tr.counters["fwht_elems"] += rows * m * (m.bit_length() - 1)


def _exponents(tr: Tracer, args, kwargs, out, exc) -> None:
    if out is not None:
        tr.counters["exponent_evals"] += np.size(out)


def _bucket(tr: Tracer, args, kwargs, out, exc) -> None:
    y1 = args[3] if len(args) > 3 else kwargs.get("y1")
    tr.counters["pair_samples"] += np.size(y1)


def _read(tr: Tracer, args, kwargs, out, exc) -> None:
    if tr.outermost("signal.read"):
        ys = args[1] if len(args) > 1 else kwargs.get("ys")
        tr.counters["raw_reads"] += np.size(ys)


def _decode(tr: Tracer, args, kwargs, out, exc) -> None:
    if type(exc).__name__ == "CandidateOverflow":
        tr.counters["overflows"] += 1
    if tr.inside("pursuit"):
        # an inner decode of a residual that already holds all k terms
        rep = getattr(args[0], "rep", None)
        if rep is not None and len(rep.terms) >= tr.context.get("k", float("inf")):
            tr.counters["idle_rounds"] += 1
    if out is None:
        return
    results, stats = out
    tr.counters["list_size"] += len(results)
    tested, kept = getattr(stats, "g", None), getattr(stats, "f", None)
    if tested is None or kept is None:
        tr.missing.setdefault("decoder.levels", "DecodeStats has no per-level g/f counts")
        return
    tr.counters["tested"] += sum(tested)
    tr.counters["kept"] += sum(kept)
    tr.counters["peak_kept"] = max(tr.counters["peak_kept"], max(kept, default=0))


HOOKS = {
    "signal.fwht": _fwht,
    "codebook.exponents": _exponents,
    "rm1.bucket": _bucket,
    "signal.read": _read,
    "decoder": _decode,
}


# name -> (unit, better, kind, spans it needs)
#   kind "time": mean seconds per traced operation, from span totals
#   kind "count": mean per operation over the first traced pass
#   kind "ratio", "setup", "run": computed in summarize()
PER_LAYER: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    "signal.fwht_s": ("s", "lower", "time", ("signal.fwht",)),
    "signal.fwht_calls": ("count", "lower", "count", ("signal.fwht",)),
    "signal.fwht_rows": ("count", "lower", "count", ("signal.fwht",)),
    "signal.fwht_elems": ("count", "lower", "count", ("signal.fwht",)),
    "codebook.exponents_s": ("s", "lower", "time", ("codebook.exponents",)),
    "codebook.exponent_calls": ("count", "lower", "count", ("codebook.exponents",)),
    "codebook.exponent_evals": ("count", "lower", "count", ("codebook.exponents",)),
    "decoder.s": ("s", "lower", "time", ("decoder",)),
    "decoder.self_s": ("s", "lower", "time", ("decoder",)),
    "decoder.calls": ("count", "lower", "count", ("decoder",)),
    "decoder.tested": ("count", "lower", "count", ("decoder", "decoder.levels")),
    "decoder.kept": ("count", "lower", "count", ("decoder", "decoder.levels")),
    "decoder.keep_ratio": ("ratio", "lower", "ratio", ("decoder", "decoder.levels")),
    "decoder.peak_kept": ("count", "lower", "count", ("decoder", "decoder.levels")),
    "decoder.list_size": ("count", "lower", "count", ("decoder",)),
    "decoder.overflows": ("count", "lower", "count", ("decoder",)),
    "rm1.km_list_s": ("s", "lower", "time", ("rm1.km_list",)),
    "rm1.km_list_calls": ("count", "lower", "count", ("rm1.km_list",)),
    "rm1.bucket_s": ("s", "lower", "time", ("rm1.bucket",)),
    "rm1.pair_samples": ("count", "lower", "count", ("rm1.bucket",)),
    "signal.read_s": ("s", "lower", "time", ("signal.read",)),
    "signal.base_reads": ("count", "lower", "count", ()),
    "signal.raw_reads": ("count", "lower", "count", ("signal.read",)),
    "signal.cache_hit_ratio": ("ratio", "higher", "ratio", ("signal.read",)),
    "signal.estimate_s": ("s", "lower", "time", ("signal.estimate",)),
    "pursuit.s": ("s", "lower", "time", ("pursuit",)),
    "pursuit.self_s": ("s", "lower", "time", ("pursuit",)),
    "pursuit.rounds": ("count", "lower", "count", ("pursuit", "decoder")),
    "pursuit.idle_rounds": ("count", "lower", "count", ("pursuit", "decoder")),
    "pursuit.inner_decode_s": ("s", "lower", "time", ("pursuit", "decoder")),
    "pursuit.residual_eval_s": ("s", "lower", "time", ("pursuit.residual_eval",)),
    "pursuit.approx_err": ("ratio", "lower", "count", ()),
    "field.setup_s": ("s", "lower", "setup", ()),
    "codebook.setup_s": ("s", "lower", "setup", ()),
    "signal.setup_s": ("s", "lower", "setup", ()),
    "oracle.check_s": ("s", "lower", "run", ()),
    "trace.op_s": ("s", "lower", "run", ()),
    "trace.overhead_frac": ("ratio", "lower", "run", ()),
}


def op_values(snap: Dict[str, dict], reads: int, approx_err: Optional[float]) -> Dict[str, float]:
    """The per-operation value of every time and count metric from one span snapshot.

    approx_err is None for an operation that is not a pursuit.
    """
    total, own, calls, c = snap["total"], snap["self"], snap["calls"], snap["counters"]
    edges = snap["edges"]
    rounds, inner_s = edges.get("pursuit>decoder", (0, 0.0))
    return {
        "signal.fwht_s": total.get("signal.fwht", 0.0),
        "signal.fwht_calls": calls.get("signal.fwht", 0),
        "signal.fwht_rows": c.get("fwht_rows", 0),
        "signal.fwht_elems": c.get("fwht_elems", 0),
        "codebook.exponents_s": total.get("codebook.exponents", 0.0),
        "codebook.exponent_calls": calls.get("codebook.exponents", 0),
        "codebook.exponent_evals": c.get("exponent_evals", 0),
        "decoder.s": total.get("decoder", 0.0),
        "decoder.self_s": own.get("decoder", 0.0),
        "decoder.calls": calls.get("decoder", 0),
        "decoder.tested": c.get("tested", 0),
        "decoder.kept": c.get("kept", 0),
        "decoder.peak_kept": c.get("peak_kept", 0),
        "decoder.list_size": c.get("list_size", 0),
        "decoder.overflows": c.get("overflows", 0),
        "rm1.km_list_s": total.get("rm1.km_list", 0.0),
        "rm1.km_list_calls": calls.get("rm1.km_list", 0),
        "rm1.bucket_s": total.get("rm1.bucket", 0.0),
        "rm1.pair_samples": c.get("pair_samples", 0),
        "signal.read_s": total.get("signal.read", 0.0),
        "signal.base_reads": reads,
        "signal.raw_reads": c.get("raw_reads", 0),
        "signal.estimate_s": total.get("signal.estimate", 0.0),
        "pursuit.s": total.get("pursuit", 0.0),
        "pursuit.self_s": own.get("pursuit", 0.0),
        "pursuit.rounds": rounds,
        "pursuit.idle_rounds": c.get("idle_rounds", 0),
        "pursuit.inner_decode_s": inner_s,
        "pursuit.residual_eval_s": total.get("pursuit.residual_eval", 0.0),
        "pursuit.approx_err": approx_err,
    }


def summarize(
    traced: Sequence[Dict[str, float]],
    first_pass: Sequence[Dict[str, float]],
    setup: Dict[str, float],
    run: Dict[str, float],
    missing: Dict[str, str],
) -> Dict[str, dict]:
    """Reported per-layer metrics from per-operation values.

    traced holds every traced operation, first_pass the first traced pass;
    setup maps field/codebook/signal to set-up seconds; run holds
    oracle.check_s, trace.op_s and trace.overhead_frac.
    """
    def mean(ops: Sequence[Dict[str, float]], name: str) -> float:
        return float(np.mean([op[name] for op in ops]))

    def total(name: str) -> float:
        return float(sum(op[name] for op in first_pass))

    out: Dict[str, dict] = {}
    for name, (unit, _, kind, needs) in PER_LAYER.items():
        gone = [missing[s] for s in needs if s in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
            continue
        if kind == "time":
            value = mean(traced, name)
        elif kind == "setup":
            value = setup[name.split(".")[0]]
        elif kind == "run":
            value = run[name]
        elif name == "decoder.keep_ratio":
            value = total("decoder.kept") / max(total("decoder.tested"), 1)
        elif name == "signal.cache_hit_ratio":
            value = 1.0 - total("signal.base_reads") / max(total("signal.raw_reads"), 1)
        elif name == "pursuit.approx_err":
            errs = [op[name] for op in first_pass if op[name] is not None]
            value = float(np.mean(errs)) if errs else 0.0
        else:
            value = mean(first_pass, name)
        out[name] = {"value": value, "unit": unit}
    return out
