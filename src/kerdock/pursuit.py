"""Sparse approximation over the Kerdock dictionary by greedy pursuit.

Each round list-decodes the current residual over the Kerdock subcode,
admits the heaviest new labels into the representation, and re-estimates
every coefficient against the original signal. The Kerdock set's pairwise
full-rank property does the heavy lifting: distinct members are nearly
orthogonal, so independently estimated coefficients are accurate to
O(k/sqrt(N)) without joint least squares. The low-rank Hankel neighbors
of a heavy word are never listed: the inner decode names lf-Kerdock diags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, TextIO, Tuple

import numpy as np

from kerdock.codebook import (
    DENSE_MAX_N,
    CodewordLabel,
    HankelMat,
    codeword_sum,
    pack_hex,
    unpack_hex,
)
from kerdock.decoder import DecoderParams, list_decode_hankel
from kerdock.rng import child_rng
from kerdock.signal import CachingOracle, SampleOracle, estimate_dots, estimate_sq_norm


@dataclass(frozen=True)
class PursuitParams:
    """Term budget k and target accuracy eps.

    eps sets the round count, max(1, ceil(log(1/eps)) + 1); every round
    decodes the residual with DecoderParams(k=k, profile="kerdock"). The
    coherence regime check (k at most sqrt(N)/6, so that mu*k <= 1/6 and
    per-term estimates stay inside half a coefficient) happens at decode
    time, when n is known.
    """

    k: int
    eps: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.eps < float("inf"):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    def resolved_rounds(self) -> int:
        # eps > e would give no round at all
        return max(1, math.ceil(math.log(1.0 / self.eps)) + 1)


@dataclass
class Representation:
    """A k-term Kerdock approximation: distinct labels with coefficients."""

    terms: List[Tuple[CodewordLabel, complex]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len({lab for lab, _ in self.terms}) != len(self.terms):
            raise ValueError("representation labels must be distinct")

    def evaluate(self, ys: np.ndarray) -> np.ndarray:
        """Sum of the terms at the given positions."""
        return codeword_sum(self.terms, ys)


class ResidualOracle(SampleOracle):
    """Original signal minus the running representation, per query.

    Each position served costs one base query plus O(k n^2) phase
    evaluations and is charged to query_count like any oracle's; the
    representation is never materialized. The norm hint must be supplied
    by the caller (the base hint no longer applies once terms are subtracted).
    """

    def __init__(self, base: SampleOracle, rep: Representation, norm_hint: float):
        super().__init__(base.n, norm_hint)
        self.base = base
        self.rep = rep

    def _values(self, ys: np.ndarray) -> np.ndarray:
        return self.base.query_many(ys) - self.rep.evaluate(ys)


def sparse_approx(
    oracle: SampleOracle,
    params: PursuitParams,
    seed: int = 0,
) -> Representation:
    """Greedy k-term Kerdock pursuit of the signal behind the oracle.

    Round structure: decode the residual over the lf-Kerdock subcode,
    admit the largest new coefficients up to the budget, then re-estimate
    every kept coefficient against the original oracle so errors do not
    compound. Residual norm hints for later rounds come from a sampled
    energy estimate with head-room. A full budget of k terms (no later
    round could admit one), a round that admits nothing (the residual is
    unchanged) or a residual estimated at zero ends the loop early. All
    reads share one cache: each position is read at most once. Raises
    ValueError before any read when n < 6 (no k >= 1 fits the coherence
    regime), n > DENSE_MAX_N (the inner shift decodes read every
    position) or k > sqrt(N)/6.
    """
    n = oracle.n
    if n < 1:
        raise ValueError(f"sparse approximation needs n >= 1, got n={n}")
    k_max = math.floor(math.sqrt(1 << n) / 6.0)
    if k_max < 1:
        raise ValueError(
            f"sparse approximation needs n >= 6, got n={n}: below that the "
            f"sqrt(N)/6 coherence regime admits no term"
        )
    if n > DENSE_MAX_N:
        raise ValueError(
            f"sparse approximation decodes each residual's Kerdock subcode by a shift "
            f"decode that reads every position: it needs n <= {DENSE_MAX_N}, got n={n}"
        )
    if params.k > k_max:
        raise ValueError(
            f"k={params.k} exceeds the sqrt(N)/6 coherence regime: "
            f"the largest allowed k at n={n} is {k_max}; lower k or raise n"
        )
    inner = DecoderParams(k=params.k, profile="kerdock")
    est_samples = min(1 << n, 1 << 14)
    rep = Representation()
    cached = oracle if isinstance(oracle, CachingOracle) else CachingOracle(oracle)

    for rnd in range(params.resolved_rounds()):
        if len(rep.terms) == params.k:
            break
        if rnd == 0:
            residual: SampleOracle = cached
        else:
            probe = ResidualOracle(cached, rep, oracle.norm_hint)
            est = estimate_sq_norm(
                probe,
                max(256, 16 * params.k),
                seed=int(child_rng(seed, "rhint", rnd).integers(1 << 30)),
            )
            if est <= 1e-18 * max(oracle.norm_hint**2, 1.0):
                break
            residual = ResidualOracle(cached, rep, math.sqrt(2.0 * est))
        # the shift decode draws nothing, so it takes no seed
        found, _ = list_decode_hankel(residual, inner)
        have = {lab for lab, _ in rep.terms}
        fresh = [(lab, c) for lab, c in found if lab not in have]
        fresh.sort(key=lambda t: -abs(t[1]))
        room = params.k - len(rep.terms)
        if not fresh[:room]:
            break
        labels = [lab for lab, _ in rep.terms] + [lab for lab, _ in fresh[:room]]
        dots = estimate_dots(
            cached,
            labels,
            est_samples,
            seed=int(child_rng(seed, "coeff", rnd).integers(1 << 30)),
        )
        rep = Representation([(lab, complex(c)) for lab, c in zip(labels, dots)])

    rep.terms.sort(key=lambda t: (-abs(t[1]) ** 2, t[0].q.diag, t[0].ell))
    return rep


def write_representation(rep: Representation, fh: TextIO) -> None:
    """One term per line: P-diag-hex ell-hex eps re(c) im(c)."""
    for lab, c in rep.terms:
        n = lab.n
        fh.write(
            f"{pack_hex(lab.q.diag, 2 * n - 1)} {pack_hex(lab.ell, n)} "
            f"{lab.eps} {c.real:.17g} {c.imag:.17g}\n"
        )


def read_representation(fh: TextIO, n: int) -> Representation:
    """Inverse of write_representation for an n-bit domain."""
    terms = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        dh, lh, eps, re_s, im_s = line.split()
        lab = CodewordLabel(
            HankelMat(n, unpack_hex(dh, 2 * n - 1)), unpack_hex(lh, n), int(eps)
        )
        terms.append((lab, complex(float(re_s), float(im_s))))
    return Representation(terms)
