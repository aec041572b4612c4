"""Digests of seeded outputs: a pin that output stays bit for bit.

Each case runs one seeded computation and hashes what it returns, so a
change to any listed label, coefficient bit, level count or query count
changes its digest. The slices:

- pursuit: sparse_approx at seed 0 on k planted lf-Kerdock words at
  n = 6..10 and k = 1..3 within the sqrt(N)/6 coherence regime, clean
  and at noise 0.1 (tests/pursuit_digests.txt);
- robust: list_decode_hankel at seed 0 on k planted Hankel words
  (at most three) at n = 1..10 with k in {1, 3}, plus k = 2^n + 1 at
  n = 2..6 (at n = 1 that is k = 3), clean and at noise 0.2; n = 7
  takes about 6 s per case and is left out;
- lean: the lean profile at k = 1 on one planted Hankel word at
  n = 1..24, clean and at noise 0.1;
- heavy: dense_heavy_set at n = 3..7 on two Hankel words at noise 0.2,
  with the bar |s|^2 / 4;
- bestk: best_k_kerdock at n = 6..9 and k = 1..3 on k lf-Kerdock words
  at noise 0.1;
- km: km_list at theta = 0.2 and seed 0 on two RM(1) tones at
  m = 1..12, clean and at noise 0.2;
- verify: the stdout of `kerdock verify --suite all --n N` at
  N = 1..10, run in-process, which covers every suite, both branches
  of the independence suite, the Gray check and every SKIP line;
- cli: the acceptance criterion-10 CLI invocations, run in-process
  (tests/cli_digests.txt).

A decode digest covers the labels, the coefficient hex, the per-level
tested and kept counts and both query counts, or the level, count and
cap of a CandidateOverflow; a reference digest covers its labels and
hex; a km digest covers the tones, the coefficient hex and the query
count. A cli digest is the sha256 of an invocation's stdout, as
`kerdock ... | sha256sum` prints it, or of the encode and corrupt
output files' bytes, and a verify digest is the sha256 of its stdout
in the same way. The robust, lean, heavy, bestk, km and verify slices
go to tests/output_digests.txt. tests/test_pursuit.py and
tests/test_output_digests.py recompute every digest and name each case
that differs from its file.

Usage: python3 scripts/output_digests.py
"""

import argparse
import contextlib
import hashlib
import io
import math
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from kerdock.cli import main as cli_main
from kerdock.codebook import CodewordLabel, HankelMat, format_label, lf_kerdock
from kerdock.decoder import CandidateOverflow, DecoderParams, list_decode_hankel
from kerdock.field import FieldContext
from kerdock.oracle import best_k_kerdock, dense_heavy_set
from kerdock.pursuit import PursuitParams, sparse_approx
from kerdock.rm1 import km_list, rm1_label
from kerdock.signal import DenseOracle, SyntheticOracle, make_noisy

TESTS = Path(__file__).resolve().parent.parent / "tests"
PURSUIT_OUT = TESTS / "pursuit_digests.txt"
OUT = TESTS / "output_digests.txt"
CLI_OUT = TESTS / "cli_digests.txt"
MAGNITUDES = (1.0, 0.7, 0.5)
NOISE = 0.1
ROBUST_NOISE = 0.2

Case = Tuple[str, Callable[[], str]]


def _hash(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(f"{part};".encode())
    return h.hexdigest()


def _term_text(lab: CodewordLabel, c: complex) -> str:
    return f"{lab.q.diag:x} {lab.ell:x} {lab.eps} {c.real.hex()} {c.imag.hex()}"


def _hankel_terms(n: int, count: int, rng: np.random.Generator) -> list:
    """count Hankel words of MAGNITUDES with drawn diags, linear parts and phases."""
    return [
        (
            CodewordLabel(HankelMat(n, int(rng.integers(1 << (2 * n - 1)))), int(rng.integers(1 << n)), 0),
            complex(MAGNITUDES[i] * np.exp(2j * np.pi * rng.uniform())),
        )
        for i in range(count)
    ]


def _kerdock_terms(n: int, k: int, rng: np.random.Generator) -> list:
    """k lf-Kerdock words of MAGNITUDES with drawn top rows, linear parts and phases."""
    ctx = FieldContext.default(n)
    return [
        (
            CodewordLabel(lf_kerdock(ctx, int(rng.integers(1 << n))), int(rng.integers(1 << n)), 0),
            complex(mag * np.exp(2j * np.pi * rng.uniform())),
        )
        for mag in MAGNITUDES[:k]
    ]


def _dense_or_clean(n: int, terms: list, noise: float, rng: np.random.Generator):
    """A DenseOracle over make_noisy seeded from rng at a positive noise, else a SyntheticOracle."""
    if noise:
        return DenseOracle(make_noisy(n, terms, noise_energy=noise, seed=int(rng.integers(1 << 31))))
    return SyntheticOracle(n, terms)


def _decode_digest(oracle, params: DecoderParams) -> str:
    try:
        found, stats = list_decode_hankel(oracle, params, seed=0)
    except CandidateOverflow as err:
        return _hash([f"overflow {err.level} {err.count} {err.cap}"])
    return _hash(
        [_term_text(lab, c) for lab, c in found]
        + [f"g {stats.g}", f"f {stats.f}", f"queries {stats.queries} raw {stats.queries_raw}"]
    )


def pursuit_digest(n: int, k: int, noisy: bool) -> str:
    """sha256 of the case's representation: labels and coefficient hex."""
    rng = np.random.default_rng([n, k, int(noisy)])
    oracle = _dense_or_clean(n, _kerdock_terms(n, k, rng), NOISE if noisy else 0.0, rng)
    rep = sparse_approx(oracle, PursuitParams(k=k, eps=0.1), seed=0)
    return _hash(_term_text(lab, c) for lab, c in rep.terms)


def robust_digest(n: int, k: int, noisy: bool) -> str:
    rng = np.random.default_rng([1, n, k, int(noisy)])
    oracle = _dense_or_clean(n, _hankel_terms(n, min(k, 3), rng), ROBUST_NOISE if noisy else 0.0, rng)
    return _decode_digest(oracle, DecoderParams(k=k))


def lean_digest(n: int, noisy: bool) -> str:
    rng = np.random.default_rng([2, n, int(noisy)])
    terms = _hankel_terms(n, 1, rng)
    oracle = SyntheticOracle(n, terms, NOISE if noisy else 0.0, seed=int(rng.integers(1 << 31)))
    return _decode_digest(oracle, DecoderParams(k=1, profile="lean"))


def heavy_digest(n: int) -> str:
    rng = np.random.default_rng([3, n])
    terms = _hankel_terms(n, 2, rng)
    vals = make_noisy(n, terms, noise_energy=ROBUST_NOISE, seed=int(rng.integers(1 << 31)))
    heavy = dense_heavy_set(vals, float(np.vdot(vals, vals).real) / 4.0)
    return _hash(_term_text(lab, c) for lab, c in heavy)


def best_k_digest(n: int, k: int) -> str:
    rng = np.random.default_rng([4, n, k])
    terms = _kerdock_terms(n, k, rng)
    vals = make_noisy(n, terms, noise_energy=NOISE, seed=int(rng.integers(1 << 31)))
    labels, coeffs, err = best_k_kerdock(FieldContext.default(n), vals, k)
    return _hash([_term_text(lab, complex(c)) for lab, c in zip(labels, coeffs)] + [err.hex()])


def km_digest(m: int, noisy: bool) -> str:
    rng = np.random.default_rng([5, m, int(noisy)])
    ells = rng.choice(1 << m, size=2, replace=False)
    terms = [
        (rm1_label(m, int(ell)), complex(mag * np.exp(2j * np.pi * rng.uniform())))
        for ell, mag in zip(ells, MAGNITUDES)
    ]
    oracle = _dense_or_clean(m, terms, ROBUST_NOISE if noisy else 0.0, rng)
    tones = km_list(oracle, 0.2, seed=0)
    return _hash(
        [f"{ell:x} {c.real.hex()} {c.imag.hex()}" for ell, c in tones]
        + [f"queries {oracle.query_count}"]
    )


def _cli(argv: List[str]) -> str:
    """Run one CLI invocation in-process; its stdout (stderr is dropped)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"kerdock {' '.join(argv)} exited {code}")
    return out.getvalue()


def cli_stdout_digest(argv: List[str]) -> str:
    return hashlib.sha256(_cli(argv).encode()).hexdigest()


def cli_files_digest(label: str) -> str:
    """sha256 of the signal file encoding label at 1.0, followed by its corrupted copy."""
    with tempfile.TemporaryDirectory() as tmp:
        labels, coeffs, clean, noisy = (Path(tmp) / name for name in ("labels", "coeffs", "clean", "noisy"))
        labels.write_text(label + "\n")
        coeffs.write_text("1.0 0.0\n")
        _cli(["encode", "--labels", str(labels), "--coeffs", str(coeffs), "--out", str(clean)])
        _cli(["corrupt", "--in", str(clean), "--noise-energy", "0.3", "--seed", "4", "--out", str(noisy)])
        return hashlib.sha256(clean.read_bytes() + noisy.read_bytes()).hexdigest()


def cli_cases() -> List[Case]:
    """The criterion-10 invocations (tests/test_acceptance.py), one case each, then the files."""
    label = format_label(CodewordLabel(lf_kerdock(FieldContext.default(6), 0x2B), 9, 0))
    lean = format_label(CodewordLabel(lf_kerdock(FieldContext.default(10), 0x5D), 3, 0)) + ":1.0"
    wide = format_label(CodewordLabel(lf_kerdock(FieldContext.default(9), 0x10F), 4, 0)) + ":1.0"
    robust = ["decode", "--plant", label + ":1.0", "--n", "6", "--k", "3", "--noise-energy", "0.2", "--seed", "11"]
    invocations = {
        "gen-field": ["gen-field", "--n", "8"],
        "kerdock-gen": ["kerdock", "gen", "--all", "--n", "4"],
        "decode-robust": robust,
        "decode-robust-threads2": robust + ["--threads", "2"],
        "decode-lean": ["decode", "--plant", lean, "--n", "10", "--k", "4", "--profile", "lean", "--seed", "5"],
        "sparse-approx": ["sparse-approx", "--plant", wide, "--n", "9", "--k", "2", "--eps", "0.1", "--seed", "2"],
        "verify-field": ["verify", "--suite", "field", "--n", "4"],
        "bench": ["bench", "--k", "2", "--n-list", "8", "--trials", "1", "--seed", "3"],
    }
    cases = [(f"cli-{name}", partial(cli_stdout_digest, argv)) for name, argv in invocations.items()]
    return cases + [("cli-encode-corrupt-files", partial(cli_files_digest, label))]


def pursuit_cases() -> List[Case]:
    return [
        (f"n{n}-k{k}-{'noisy' if noisy else 'clean'}", partial(pursuit_digest, n, k, noisy))
        for n in range(6, 11)
        for k in range(1, min(3, math.floor(math.sqrt(1 << n) / 6.0)) + 1)
        for noisy in (False, True)
    ]


def output_cases() -> List[Case]:
    def tag(noisy: bool) -> str:
        return "noisy" if noisy else "clean"

    robust_sizes = [(n, k) for n in range(1, 11) for k in (1, 3)]
    robust_sizes += [(n, (1 << n) + 1) for n in range(2, 7)]  # 2^1 + 1 = 3 is listed
    return (
        [
            (f"robust-n{n}-k{k}-{tag(noisy)}", partial(robust_digest, n, k, noisy))
            for n, k in robust_sizes
            for noisy in (False, True)
        ]
        + [
            (f"lean-n{n}-{tag(noisy)}", partial(lean_digest, n, noisy))
            for n in range(1, 25)
            for noisy in (False, True)
        ]
        + [(f"heavy-n{n}", partial(heavy_digest, n)) for n in range(3, 8)]
        + [(f"bestk-n{n}-k{k}", partial(best_k_digest, n, k)) for n in range(6, 10) for k in (1, 2, 3)]
        + [
            (f"km-m{m}-{tag(noisy)}", partial(km_digest, m, noisy))
            for m in range(1, 13)
            for noisy in (False, True)
        ]
        + [
            (
                f"verify-all-n{n}",
                partial(cli_stdout_digest, ["verify", "--suite", "all", "--n", str(n)]),
            )
            for n in range(1, 11)
        ]
    )


# each pinned file and the cases it holds
CORPUS: Dict[Path, Callable[[], List[Case]]] = {
    PURSUIT_OUT: pursuit_cases,
    OUT: output_cases,
    CLI_OUT: cli_cases,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args()
    for path, cases in CORPUS.items():
        lines = [f"{name} {digest()}\n" for name, digest in cases()]
        path.write_text("".join(lines))
        print(f"wrote {len(lines)} digests to {path.name}")


if __name__ == "__main__":
    main()
