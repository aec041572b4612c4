"""The benchmark's seeded workloads: inputs, the operation, and its reference check.

Every input is built here from (seed, workload, index) with numpy's own
generator, so the package receives only finished oracles. Each operation is
one ``list_decode_hankel`` or one ``sparse_approx`` call with the library
defaults, over a ``CountingOracle`` that the benchmark owns. Checks use the
exhaustive references in ``kerdock.oracle`` and run outside the timed call.
"""

from __future__ import annotations

import hashlib
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from kerdock.codebook import CodewordLabel, HankelMat, dense_codeword, kerdock_set, lf_kerdock
from kerdock.decoder import DecoderParams, DecodeStats, list_decode_hankel
from kerdock.field import FieldContext
from kerdock.oracle import best_k_kerdock, dense_heavy_set
from kerdock.pursuit import PursuitParams, sparse_approx
from kerdock.signal import DenseOracle, SampleOracle, SyntheticOracle, make_noisy

Terms = List[Tuple[CodewordLabel, complex]]


class CountingOracle(SampleOracle):
    """Delegating oracle that counts every position it serves.

    The decoder wraps whatever it is handed in its own cache, so placed
    directly over the signal this counts the positions the package actually
    reads from the signal: the query bill. It counts in ``_values`` on its
    own, independent of the package's accounting in ``query_many``.
    """

    def __init__(self, base: SampleOracle):
        super().__init__(base.n, base.norm_hint)
        self.base = base
        self.reads = 0

    def _values(self, ys: np.ndarray) -> np.ndarray:
        self.reads += int(ys.size)
        return self.base.query_many(ys)


@dataclass
class Case:
    """One generated input: the signal oracle, what was planted, and the call."""

    signal: SampleOracle
    planted: Terms
    params: object  # DecoderParams or PursuitParams
    op_seed: int
    values: Optional[np.ndarray] = None  # dense signal, where the reference needs it
    sizes: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one operation returned, and what the reference check made of it."""

    terms: Terms
    stats: Optional[DecodeStats]
    reads: int
    recovered: int = 0
    planted: int = 0
    approx_err: Optional[float] = None  # set for pursuits only
    failure: Optional[str] = None


def run_case(case: Case) -> Tuple[Outcome, float]:
    """Run one operation; returns the outcome and the seconds the call took.

    A raised exception (CandidateOverflow included) is an outcome with a
    failure, never a skipped operation.
    """
    counting = CountingOracle(case.signal)
    t0 = time.perf_counter()
    try:
        if isinstance(case.params, PursuitParams):
            rep = sparse_approx(counting, case.params, seed=case.op_seed)
            terms, stats = rep.terms, None
        else:
            terms, stats = list_decode_hankel(counting, case.params, seed=case.op_seed)
    except Exception as exc:  # CandidateOverflow included: counted as a failure, not fatal
        failure = f"{type(exc).__name__}: {exc}"
        outcome = Outcome([], None, counting.reads, planted=len(case.planted), failure=failure)
        return outcome, time.perf_counter() - t0
    return Outcome(terms, stats, counting.reads), time.perf_counter() - t0


def _key(label: CodewordLabel) -> Tuple[int, int]:
    return label.q.diag, label.ell


def digest_terms(terms: Terms) -> str:
    """Bit-exact digest of an output list: labels and coefficients."""
    h = hashlib.sha256()
    for lab, c in terms:
        c = complex(c)
        h.update(f"{lab.q.diag:x} {lab.ell:x} {lab.eps} {c.real.hex()} {c.imag.hex()};".encode())
    return h.hexdigest()


def rel_error(values: np.ndarray, terms: Terms) -> float:
    """||s - approx||^2 / ||s||^2 with the approximation evaluated densely."""
    approx = np.zeros_like(values)
    for lab, c in terms:
        approx += c * dense_codeword(lab)
    return float(np.linalg.norm(values - approx) ** 2 / np.linalg.norm(values) ** 2)


def check_recovery(outcome: Outcome, planted: Terms) -> Outcome:
    """Planted recovery: count planted labels in the output."""
    got = {_key(lab) for lab, _ in outcome.terms}
    outcome.planted = len(planted)
    outcome.recovered = sum(_key(lab) in got for lab, _ in planted)
    return outcome


def check_list(outcome: Outcome, values: np.ndarray, k: int, norm_hint: float) -> Optional[str]:
    """Acceptance-07 checks of one decode of a dense signal.

    Superset: every label with exact |<s, phi>|^2 >= hint^2 / k is listed.
    Soundness: every listed label has exact |<s, phi>|^2 >= hint^2 / (4 k).
    """
    hint_sq = norm_hint**2
    # one exhaustive pass at the soundness threshold also yields the heavy set
    sound = {_key(lab): abs(c) ** 2 for lab, c in dense_heavy_set(values, hint_sq / (4 * k))}
    heavy = {key for key, e in sound.items() if e >= hint_sq / k}
    got = {_key(lab) for lab, _ in outcome.terms}
    if not heavy <= got:
        return f"superset: {len(heavy - got)} heavy labels missing"
    if not got <= sound.keys():
        return f"soundness: {len(got - sound.keys())} listed labels below hint^2/(4k)"
    return None


def noisy_pursuit_bound(n: int, eps: float, best_err: float) -> float:
    """Acceptance-09 bound on ||s - approx||^2 for a noisy 2-term pursuit."""
    return (1.0 + eps + 6.0 * 4 / math.sqrt(1 << n)) * best_err**2


class Workload:
    """A named, seeded input family. Subclasses build cases and check outcomes.

    ``first_pass`` inputs are built during set-up and always run, so the
    counts and digests taken over them repeat exactly for a seed; later
    inputs are built on demand outside the timed call. A round is
    ``round_size`` consecutive inputs that cover each input class of the
    workload once; runs end on a whole round.
    """

    name = ""
    why = ""
    first_pass = 1
    round_size = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._tag = zlib.crc32(self.name.encode())

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self._tag, i])

    def setup(self) -> Dict[str, float]:
        """Build field tables, the dictionary and the first-pass inputs, timed by layer."""
        t0 = time.perf_counter()
        self.build_fields()
        t1 = time.perf_counter()
        self.build_dictionary()
        t2 = time.perf_counter()
        self.cases = [self.case(i) for i in range(self.first_pass)]
        t3 = time.perf_counter()
        return {"field": t1 - t0, "codebook": t2 - t1, "signal": t3 - t2}

    def case_at(self, i: int) -> Case:
        return self.cases[i] if i < len(self.cases) else self.case(i)

    def build_fields(self) -> None:
        pass

    def build_dictionary(self) -> None:
        pass

    def case(self, i: int) -> Case:
        raise NotImplementedError

    def check(self, case: Case, outcome: Outcome) -> Outcome:
        raise NotImplementedError


def _query_bill_failure(outcome: Outcome) -> Optional[str]:
    if outcome.stats is not None and outcome.reads != outcome.stats.queries:
        return f"query bill: counted {outcome.reads}, stats report {outcome.stats.queries}"
    return None


def check_planted(case: Case, outcome: Outcome) -> Outcome:
    """Clean planted decodes: the query bill matches and every planted word is listed."""
    check_recovery(outcome, case.planted)
    outcome.failure = _query_bill_failure(outcome)
    if outcome.failure is None and outcome.recovered < outcome.planted:
        outcome.failure = f"{outcome.planted - outcome.recovered} planted words not recovered"
    return outcome


class DenseList(Workload):
    name = "dense-list"
    why = "FWHT and exponent kernels: every prefix survives, ~8.2k single-row FWHTs per decode"
    first_pass = 8
    n, k = 7, 10

    def case(self, i: int) -> Case:
        rng = self.rng(i)
        n = self.n
        nterms = int(rng.integers(1, 4))
        terms: Terms = []
        seen = set()
        while len(terms) < nterms:
            diag = int(rng.integers(1 << (2 * n - 1)))
            ell = int(rng.integers(1 << n))
            if (diag, ell) in seen:
                continue
            seen.add((diag, ell))
            coeff = (0.5 + rng.uniform(0, 1.0)) * np.exp(2j * np.pi * rng.uniform())
            terms.append((CodewordLabel(HankelMat(n, diag), ell, 0), complex(coeff)))
        noise = float(rng.uniform(0, 1.0)) * sum(abs(c) ** 2 for _, c in terms)
        values = make_noisy(n, terms, noise_energy=noise, seed=int(rng.integers(1 << 31)))
        return Case(
            DenseOracle(values), terms, DecoderParams(k=self.k), int(rng.integers(1 << 31)),
            values=values, sizes={"n": n, "k": self.k, "terms": len(terms)},
        )

    def check(self, case: Case, outcome: Outcome) -> Outcome:
        check_recovery(outcome, case.planted)
        outcome.failure = _query_bill_failure(outcome) or check_list(
            outcome, case.values, self.k, case.signal.norm_hint
        )
        return outcome


class Pursuit(Workload):
    name = "pursuit"
    why = "pursuit layer: residual oracles, repeated inner decodes, base re-reads of positions"
    first_pass = 8
    round_size = 2  # clean, then noisy
    n = 9

    def build_fields(self) -> None:
        self.ctx = FieldContext.default(self.n)

    def build_dictionary(self) -> None:
        self.mats = kerdock_set(self.ctx)

    def case(self, i: int) -> Case:
        # even indices: clean 3-term synthetic (acceptance-09 exact part);
        # odd indices: 2-term dense signal with noise 0.2 (its noisy part)
        rng = self.rng(i)
        n = self.n
        if i % 2 == 0:
            picks = rng.choice(len(self.mats), size=3, replace=False)
            terms = [
                (
                    CodewordLabel(self.mats[p], int(rng.integers(1 << n)), 0),
                    complex(mag * np.exp(2j * np.pi * rng.uniform())),
                )
                for p, mag in zip(picks, (1.0, 0.5, 0.25))
            ]
            return Case(
                SyntheticOracle(n, terms), terms, PursuitParams(k=3, eps=0.05),
                int(rng.integers(1 << 31)), values=sum(c * dense_codeword(lab) for lab, c in terms),
                sizes={"n": n, "k": 3, "terms": 3, "noise": 0.0},
            )
        picks = rng.choice(len(self.mats), size=2, replace=False)
        terms = [
            (CodewordLabel(self.mats[p], int(rng.integers(1 << n)), 0), complex(c))
            for p, c in zip(picks, (1.0, 0.8))
        ]
        values = make_noisy(n, terms, noise_energy=0.2, seed=int(rng.integers(1 << 31)))
        return Case(
            DenseOracle(values), terms, PursuitParams(k=2, eps=0.1),
            int(rng.integers(1 << 31)), values=values,
            sizes={"n": n, "k": 2, "terms": 2, "noise": 0.2},
        )

    def check(self, case: Case, outcome: Outcome) -> Outcome:
        check_recovery(outcome, case.planted)
        outcome.approx_err = rel_error(case.values, outcome.terms)
        params: PursuitParams = case.params
        if params.k == 3:
            if outcome.approx_err > params.eps:
                outcome.failure = f"clean pursuit error {outcome.approx_err:.4g} > eps {params.eps}"
        else:
            err_sq = outcome.approx_err * np.linalg.norm(case.values) ** 2
            _, _, best = best_k_kerdock(self.ctx, case.values, params.k)
            bound = noisy_pursuit_bound(self.n, params.eps, best)
            if err_sq > bound:
                outcome.failure = f"noisy pursuit error {err_sq:.4g} > bound {bound:.4g}"
        return outcome


class LeanSweep(Workload):
    name = "lean-sweep"
    why = "sublinear lean path: 8n reads, no FWHT or rm1; crosses the cache's mirror-to-dict switch at n=20"
    ns = (16, 18, 20, 22, 24)
    first_pass = 2 * len(ns)
    round_size = len(ns)
    k = 4

    def build_fields(self) -> None:
        self.ctxs = {n: FieldContext.default(n) for n in self.ns}

    def case(self, i: int) -> Case:
        rng = self.rng(i)
        n = self.ns[i % len(self.ns)]
        lab = CodewordLabel(
            lf_kerdock(self.ctxs[n], int(rng.integers(1, 1 << n))), int(rng.integers(1 << n)), 0
        )
        terms = [(lab, 1.0 + 0j)]
        return Case(
            SyntheticOracle(n, terms), terms, DecoderParams(k=self.k, profile="lean"),
            int(rng.integers(1 << 31)), sizes={"n": n, "k": self.k, "terms": 1},
        )

    def check(self, case: Case, outcome: Outcome) -> Outcome:
        return check_planted(case, outcome)


class RobustSampled(Workload):
    name = "robust-sampled"
    why = "smallest default robust decode on the sampled level test (2^13 > exact_read_limit): rm1.km_list"
    n, k = 13, 1

    def build_fields(self) -> None:
        self.ctx = FieldContext.default(self.n)

    def case(self, i: int) -> Case:
        rng = self.rng(i)
        n = self.n
        lab = CodewordLabel(
            lf_kerdock(self.ctx, int(rng.integers(1, 1 << n))), int(rng.integers(1 << n)), 0
        )
        terms = [(lab, 1.0 + 0j)]
        return Case(
            SyntheticOracle(n, terms), terms, DecoderParams(k=self.k),
            int(rng.integers(1 << 31)), sizes={"n": n, "k": self.k, "terms": 1},
        )

    def check(self, case: Case, outcome: Outcome) -> Outcome:
        return check_planted(case, outcome)


WORKLOADS = {w.name: w for w in (DenseList, Pursuit, LeanSweep, RobustSampled)}
