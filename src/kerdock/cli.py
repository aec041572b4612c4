"""Command-line front end: encode, corrupt, decode, approximate, verify, bench.

Every subcommand is seed-deterministic: the same flags and seed produce
byte-identical stdout. Timing goes to stderr so it never breaks that
contract. Exit codes: 0 success or all checks passed, 1 a check or
decode failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from kerdock.codebook import (
    CodewordLabel,
    kerdock_set,
    lf_kerdock,
    pack_hex,
    parse_label,
    trace_kerdock,
    unpack_hex,
)
from kerdock.decoder import (
    CandidateOverflow,
    DecoderParams,
    format_decode_report,
    list_decode_hankel,
)
from kerdock.field import FieldContext, format_poly_line, primitive_poly
from kerdock.oracle import (
    count_hankel_by_rank,
    verify_commute_equivalence,
    verify_dickson,
    verify_gray_independence,
    verify_homomorphism,
    verify_independence,
    verify_kerdock_set,
)
from kerdock.pursuit import PursuitParams, sparse_approx, write_representation
from kerdock.signal import (
    DenseOracle,
    SampleOracle,
    SyntheticOracle,
    check_noise_energy,
    make_noisy,
    read_signal,
    scaled_noise,
    signal_n,
    write_signal,
)


def _finite(c: complex, what: str) -> complex:
    if not np.isfinite(c):
        raise ValueError(f"{what} must be finite, got {c}")
    return c


def _parse_plant(spec: str, n: int) -> List[Tuple[CodewordLabel, complex]]:
    """Parse 'label:coeff,label:coeff,...' into planted terms."""
    terms = []
    for item in spec.split(","):
        text, sep, coeff = item.rpartition(":")
        if not sep:
            raise ValueError(f"plant term needs label:coeff, got {item!r}")
        label = parse_label(text)
        if label.n != n:
            raise ValueError(f"plant label has n={label.n}, expected {n}")
        terms.append((label, _finite(complex(coeff), "plant coefficient")))
    return terms


def _load_oracle(args: argparse.Namespace, norm_hint: Optional[float] = None) -> SampleOracle:
    """Oracle from --in (dense file) or --plant (implicit synthesis), norm hint if given."""
    if args.infile:
        if args.noise_energy is not None:
            raise ValueError(
                "--noise-energy needs --plant; add noise to a file with `kerdock corrupt`"
            )
        if args.n is not None:
            raise ValueError("--n needs --plant; with --in the file header gives n")
        return DenseOracle(read_signal(args.infile), norm_hint)
    if args.n is None:
        raise ValueError("--plant requires --n")
    terms = _parse_plant(args.plant, args.n)
    return SyntheticOracle(args.n, terms, args.noise_energy or 0.0, args.seed, norm_hint)


def _cmd_gen_field(args: argparse.Namespace) -> int:
    h = args.h if args.h is not None else primitive_poly(args.n)
    ctx = FieldContext(args.n, h)
    print(format_poly_line(ctx.n, ctx.h))
    return 0


def _cmd_kerdock(args: argparse.Namespace) -> int:
    if args.all == (args.top_row is not None):
        raise ValueError("kerdock gen needs exactly one of --top-row and --all")
    ctx = FieldContext.default(args.n)
    if args.all:
        mats = kerdock_set(ctx)
    else:
        mats = [lf_kerdock(ctx, unpack_hex(args.top_row, ctx.n))]
    for m in mats:
        print(pack_hex(m.diag, 2 * ctx.n - 1))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    with open(args.labels) as fh:
        labels = [parse_label(line) for line in fh if line.strip()]
    with open(args.coeffs) as fh:
        rows = [line.split() for line in fh if line.strip()]
    for i, r in enumerate(rows, start=1):
        if len(r) > 2:
            raise ValueError(
                f"coefficient {i} has {len(r)} fields; give a real and at most an imaginary part"
            )
    coeffs = [_finite(complex(*map(float, r)), f"coefficient {i}") for i, r in enumerate(rows, 1)]
    if not labels:
        raise ValueError(f"no labels in {args.labels}")
    if len(labels) != len(coeffs):
        raise ValueError(f"{len(labels)} labels but {len(coeffs)} coefficients")
    n = labels[0].n
    values = make_noisy(n, list(zip(labels, coeffs)))
    write_signal(args.out, values)
    print(f"wrote {args.out} n={n} terms={len(labels)}")
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    check_noise_energy(args.noise_energy)
    values = read_signal(args.infile)
    n = signal_n(values.size)
    nu = scaled_noise(np.random.default_rng(args.seed), values.size, args.noise_energy)
    write_signal(args.out, values + nu)
    print(f"wrote {args.out} n={n} added-noise-energy={args.noise_energy:g}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    params = DecoderParams(
        k=args.k, candidate_cap=args.cap, threads=args.threads, profile=args.profile
    )
    if args.norm_hint is not None and not 0.0 < args.norm_hint < float("inf"):
        raise ValueError(f"--norm-hint must be positive and finite, got {args.norm_hint}")
    oracle = _load_oracle(args, args.norm_hint)
    results, stats = list_decode_hankel(oracle, params, seed=args.seed)
    sys.stdout.write(format_decode_report(results, stats))
    print(f"# seconds {stats.seconds:.3f}", file=sys.stderr)
    return 0


def _cmd_sparse_approx(args: argparse.Namespace) -> int:
    params = PursuitParams(k=args.k, eps=args.eps)
    oracle = _load_oracle(args)
    # open --out first, so a bad path fails before the pursuit reads or prints anything
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        rep = sparse_approx(oracle, params, seed=args.seed)
        write_representation(rep, sys.stdout)
        if fh:
            write_representation(rep, fh)
    return 0


# one verify check: its name, whether it passed, and what it printed after the name
Check = Tuple[str, bool, str]


def _suite_field(n: int) -> List[Check]:
    ctx = FieldContext.default(n)
    xs = np.arange(1 << n, dtype=np.uint64)
    tr = ctx.trace_vec(xs)
    zeros = int((tr == 0).sum())
    if n <= 10:
        a, b = np.repeat(xs, 1 << n), np.tile(xs, 1 << n)
        lin_how = "exhaustive"
    else:
        a, b = np.random.default_rng(0).integers(0, 1 << n, size=(2, 1 << 16), dtype=np.uint64)
        lin_how = "sampled"
    lin = bool((ctx.trace_vec(a ^ b) == (ctx.trace_vec(a) ^ ctx.trace_vec(b))).all())
    if n <= 12:
        some, sq_how = xs, "exhaustive"
    else:
        some = np.random.default_rng(1).integers(0, 1 << n, size=4096, dtype=np.uint64)
        sq_how = "sampled"
    sq_ok = all(ctx.square(ctx.sqrt(int(x))) == int(x) for x in some)
    return [
        ("field.trace-image", bool(np.isin(tr, (0, 1)).all()), ""),
        ("field.trace-zero-count", zeros == 1 << (n - 1), f"count={zeros}"),
        ("field.trace-linear", lin, lin_how),
        ("field.sqrt-squares-back", sq_ok, sq_how),
    ]


def _suite_kerdock(n: int) -> List[Check]:
    ctx = FieldContext.default(n)
    checks = [(f"kerdock.{key}", bool(val), "") for key, val in verify_kerdock_set(ctx).items()]
    if n <= 6:
        eq = verify_commute_equivalence(ctx)
        agree = bool(eq["agree"]) and eq["members"] == eq["expected"]
        checks.append(("kerdock.commute-equivalence", agree, f"members={eq['members']}"))
    return checks


def _suite_dickson(n: int) -> List[Check]:
    report = verify_dickson(n, num_pairs=3000, seed=0)
    return [
        ("dickson.magnitude-law", len(report["failures"]) == 0, f"checked={report['checked']}"),
        ("dickson.branch-rule", len(report["branch_mismatches"]) == 0, ""),
        (
            "dickson.full-rank-equal-ell-nonzero",
            report["full_rank_equal_ell_zero"] == 0,
            f"population={report['full_rank_equal_ell']}",
        ),
    ]


def _suite_independence(n: int) -> List[Check]:
    report = verify_independence(n)
    checks = [("independence.3-wise", report.three_wise, "")]
    if n % 2 == 1:
        witness = f"witness={report.four_witness}"
        checks += [
            ("independence.3.5-wise", report.three_half_wise, ""),
            ("independence.4-wise-violated", not report.four_wise, witness),
        ]
    else:
        witness = f"witness={report.three_half_witness}"
        checks.append(("independence.3.5-wise-violated", not report.three_half_wise, witness))
    if n == 3:
        checks.append(("independence.gray-4-wise", verify_gray_independence(n), ""))
    return checks


def _suite_rank_count(n: int) -> List[Check]:
    counts = count_hankel_by_rank(n)
    ranks = sorted(counts)
    cums = itertools.accumulate(counts[r] for r in ranks)
    scarce = all(cum <= 1 << (4 * r) for r, cum in zip(ranks, cums))
    detail = " ".join(f"{r}:{counts[r]}" for r in ranks)
    return [("rank-count.cumulative-2^4r", scarce, detail)]


def _suite_homomorphism(n: int) -> List[Check]:
    report = verify_homomorphism(FieldContext.default(n))
    return [(f"homomorphism.{key}", bool(val), "") for key, val in report.items()]


def _up_to(top: int) -> Tuple[range, str]:
    return range(1, top + 1), f"exact check needs n <= {top}"


# each suite, the n it runs at, and the reason its SKIP line gives at any other n; the ranges
# are the n that pair_dot, verify_independence, count_hankel_by_rank and verify_homomorphism
# accept, and kerdock stops at 12, where its pairwise rank check (2^(2n-1) matrices) takes
# about 8 s
_SUITES: Dict[str, Tuple[Callable[[int], List[Check]], range, str]] = {
    "field": (_suite_field, range(1, sys.maxsize), ""),
    "kerdock": (_suite_kerdock, *_up_to(12)),
    "dickson": (_suite_dickson, *_up_to(14)),
    "independence": (_suite_independence, range(3, 6), "exhaustive check needs n in {3,4,5}"),
    "rank-count": (_suite_rank_count, *_up_to(9)),
    "homomorphism": (_suite_homomorphism, *_up_to(8)),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"verify needs n >= 1, got n={args.n}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines: List[str] = []
    skipped = failed = 0
    for name in names:
        suite, sizes, reason = _SUITES[name]
        if args.n not in sizes:
            lines.append(f"SKIP {name} ({reason})")
            skipped += 1
            continue
        for check, passed, detail in suite(args.n):
            tail = f" {detail}" if detail else ""
            lines.append(f"{'PASS' if passed else 'FAIL'} {check}{tail}")
            failed += not passed
    for line in lines:
        print(line)
    tail = f", {skipped} skipped" if skipped else ""
    verdict = "FAILURES PRESENT" if failed else "ALL PASS"
    print(f"{verdict} ({len(lines) - skipped} checks{tail})")
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    # every n's field is built up front, so an untabled n fails before the first row is printed
    ctxs = [FieldContext.default(int(x)) for x in args.n_list.split(",")]
    params = DecoderParams(k=args.k, profile="lean")
    peaks = []  # (n, max queries) for the fit
    for ctx in ctxs:
        n = ctx.n
        counts = []
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, n, trial])
            alpha = int(rng.integers(1, 1 << n))
            label = CodewordLabel(
                trace_kerdock(ctx, alpha), int(rng.integers(1 << n)), 0
            )
            oracle = SyntheticOracle(n, [(label, 1.0)], seed=trial)
            results, stats = list_decode_hankel(
                oracle, params, seed=args.seed + trial
            )
            hit = any(lab == label for lab, _ in results)
            counts.append((stats.queries, hit, stats.seconds))
        qs = [q for q, _, _ in counts]
        hits = sum(1 for _, h, _ in counts if h)
        peaks.append((n, max(qs)))
        print(
            f"n={n} k={args.k} trials={args.trials} max-queries={max(qs)} "
            f"mean-queries={sum(qs)/len(qs):.1f} domain={1 << n} "
            f"recovered={hits}/{args.trials}"
        )
        print(
            f"# n={n} seconds/trial {sum(d for _, _, d in counts)/len(counts):.4f}",
            file=sys.stderr,
        )
    if len(peaks) >= 2:
        (n0, q0), (n1, q1) = peaks[0], peaks[-1]
        c = math.log(q1 / q0) / math.log(n1 / n0) if q1 != q0 else 0.0
        print(f"fit queries ~ n^c with c={c:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kerdock", description="Kerdock / Hankel codebook toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-field", help="emit or validate a field context")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=lambda s: int(s, 0), default=None)
    p.set_defaults(func=_cmd_gen_field)

    p = sub.add_parser("kerdock", help="Kerdock matrix family operations")
    p.add_argument("action", choices=["gen"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top-row", default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_kerdock)

    p = sub.add_parser("encode", help="synthesize a dense signal file")
    p.add_argument("--labels", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("corrupt", help="add scaled noise to a signal file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--noise-energy", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_corrupt)

    # the signal source and budget shared by decode and sparse-approx
    source = argparse.ArgumentParser(add_help=False)
    one = source.add_mutually_exclusive_group(required=True)
    one.add_argument("--in", dest="infile", default=None)
    one.add_argument("--plant", default=None)
    source.add_argument("--noise-energy", type=float, default=None)
    source.add_argument("--n", type=int, default=None)
    source.add_argument("--k", type=int, required=True)
    source.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decode", parents=[source], help="run the Hankel list decoder")
    p.add_argument("--norm-hint", type=float, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--profile", choices=["robust", "lean"], default="robust")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("sparse-approx", parents=[source], help="greedy Kerdock pursuit")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sparse_approx)

    p = sub.add_parser("verify", help="run exhaustive oracle suites")
    p.add_argument(
        "--suite",
        choices=sorted(_SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="query-count scaling table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", default="10,12,14,16")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CandidateOverflow as exc:
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
