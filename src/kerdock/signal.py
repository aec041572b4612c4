"""Signals on the hypercube and chosen-sampling oracle access.

A signal is a complex function on n-bit positions; decoders only ever touch it
through a SampleOracle, which charges one query per position served. Inner
products follow <a, b> = sum_y a(y) conj(b(y)), and codewords are the unit
vectors from the codebook module.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from kerdock.codebook import DENSE_MAX_N, I_POWERS, CodewordLabel, codeword_sum, exponents_at
from kerdock.rng import child_rng, hashed_normals

__all__ = [
    "SampleOracle",
    "DenseOracle",
    "SyntheticOracle",
    "CachingOracle",
    "make_noisy",
    "scaled_noise",
    "check_noise_energy",
    "signal_n",
    "write_signal",
    "read_signal",
    "draw_indices",
    "estimate_sq_norm",
    "estimate_dots",
    "fwht",
]


def check_noise_energy(noise_energy: float) -> None:
    """Raise ValueError unless noise_energy is finite and non-negative (not NaN)."""
    if not 0.0 <= noise_energy < float("inf"):
        raise ValueError(f"noise energy must be finite and non-negative, got {noise_energy}")


def signal_n(size: int) -> int:
    """The n of a signal of 2^n values; ValueError for any other length."""
    n = int(size - 1).bit_length()
    if size != 1 << n:
        raise ValueError("signal length must be a power of two")
    return n


class SampleOracle:
    """Chosen-sampling access to a signal on n-bit positions.

    Subclasses implement _values(ys); query accounting lives here so every
    oracle charges exactly one query per position served.
    """

    def __init__(self, n: int, norm_hint: float):
        # query_many serves positions as uint32
        if not 0 <= n <= 32:
            raise ValueError(f"n must lie in 0..32, got {n}")
        self.n = n
        self.norm_hint = float(norm_hint)
        # every decoder bar scales with norm_hint**2
        if not math.isfinite(self.norm_hint * self.norm_hint):
            raise ValueError(f"norm hint must have a finite square, got {self.norm_hint}")
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def query_many(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64)
        if ys.size and (ys.min() < 0 or ys.max() >> self.n):
            raise ValueError("position outside domain")
        self._count += int(ys.size)
        return self._values(ys.astype(np.uint32))

    def _values(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseOracle(SampleOracle):
    """Oracle over a fully materialized signal vector."""

    def __init__(self, values: np.ndarray, norm_hint: Optional[float] = None):
        values = np.asarray(values, dtype=np.complex128)
        n = signal_n(values.size)
        if norm_hint is None:
            with np.errstate(over="ignore"):  # SampleOracle refuses an infinite hint
                norm_hint = float(np.linalg.norm(values))
        super().__init__(n, norm_hint)
        self.values = values

    def _values(self, ys: np.ndarray) -> np.ndarray:
        return self.values[ys]


class SyntheticOracle(SampleOracle):
    """Planted sparse signal synthesized per query, never materialized.

    The signal is sum_i c_i phi_i plus independent complex Gaussian noise of
    expected total energy noise_energy, derived statelessly from (seed, y) so
    a position always reads the same. Each query costs O(k n) word operations.
    """

    def __init__(
        self,
        n: int,
        terms: Sequence[Tuple[CodewordLabel, complex]],
        noise_energy: float = 0.0,
        seed: int = 0,
        norm_hint: Optional[float] = None,
    ):
        for label, _ in terms:
            if label.n != n:
                raise ValueError("term dimension mismatch")
        check_noise_energy(noise_energy)
        if norm_hint is None:
            try:
                energy = sum(abs(c) ** 2 for _, c in terms) + noise_energy
            except OverflowError:  # a float ** 2 past the float range raises
                energy = math.inf
            norm_hint = float(np.sqrt(energy))
        super().__init__(n, norm_hint)
        self.terms = list(terms)
        self.noise_energy = float(noise_energy)
        self.seed = int(seed)

    def _values(self, ys: np.ndarray) -> np.ndarray:
        out = codeword_sum(self.terms, ys)
        if self.noise_energy > 0:
            g = hashed_normals(self.seed, "plant-noise", ys)
            sigma = np.sqrt(self.noise_energy / (2 << self.n))
            out += sigma * (g[:, 0] + 1j * g[:, 1])
        return out


class CachingOracle(SampleOracle):
    """Memoizing wrapper: repeated positions are served from cache for free.

    query_count still counts every request; the wrapped oracle's own counter
    advances only on cache misses, so it measures distinct positions read.
    The positions read so far are kept sorted (uint32) beside their values
    (complex128): 20 bytes per distinct position, so 20 MiB for a robust
    n=20 decode, which reads all 2^20 positions.
    """

    def __init__(self, base: SampleOracle):
        super().__init__(base.n, base.norm_hint)
        self.base = base
        self._pos = np.empty(0, dtype=np.uint32)
        self._val = np.empty(0, dtype=np.complex128)

    @property
    def distinct_count(self) -> int:
        return self.base.query_count

    def _values(self, ys: np.ndarray) -> np.ndarray:
        flat = ys.ravel()
        at = np.searchsorted(self._pos, flat)
        known = at < self._pos.size
        known[known] = self._pos[at[known]] == flat[known]
        if not known.all():
            # np.unique's hash path (numpy 2.4) took 40 us on 512 positions and 0.4 s on 2^20
            new = np.sort(flat[~known])
            new = new[np.append(True, new[1:] != new[:-1])]
            pos = np.concatenate([self._pos, new])
            order = np.argsort(pos, kind="stable")
            self._pos = pos[order]
            self._val = np.concatenate([self._val, self.base.query_many(new)])[order]
            at = np.searchsorted(self._pos, flat)
        return self._val[at].reshape(ys.shape)


def make_noisy(
    n: int,
    terms: Sequence[Tuple[CodewordLabel, complex]],
    noise_energy: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Dense planted signal with noise rescaled to exact total energy.

    The noise vector is scaled_noise drawn from the stream (seed, "noise").
    """
    check_noise_energy(noise_energy)
    if any(label.n != n for label, _ in terms):
        raise ValueError("term dimension mismatch")
    if n > DENSE_MAX_N:
        raise ValueError(f"dense evaluation limited to n <= {DENSE_MAX_N}")
    out = codeword_sum(terms, np.arange(1 << n, dtype=np.uint32))
    if noise_energy > 0:
        out += scaled_noise(child_rng(seed, "noise"), 1 << n, noise_energy)
    return out


def scaled_noise(rng: np.random.Generator, size: int, energy: float) -> np.ndarray:
    """Complex Gaussian noise vector whose squared norm is energy to float precision.

    Draws 2 * size standard normals from rng, real and imaginary parts interleaved.
    """
    g = rng.standard_normal(2 * size)
    nu = g[0::2] + 1j * g[1::2]
    nu *= np.sqrt(energy) / np.linalg.norm(nu)
    return nu


def write_signal(path: str, values: np.ndarray) -> None:
    """Text form: 'n=<int>' header then one 're im' line per position."""
    values = np.asarray(values, dtype=np.complex128)
    n = signal_n(values.size)
    with open(path, "w") as fh:
        fh.write(f"n={n}\n")
        for v in values:
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def read_signal(path: str) -> np.ndarray:
    """Inverse of write_signal; n > DENSE_MAX_N is rejected before allocating.

    A nan or inf value is rejected with its position.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise ValueError("signal file must start with 'n=<int>'")
        n = int(header[2:])
        if not 0 <= n <= DENSE_MAX_N:
            raise ValueError(f"signal header n={n} outside 0..{DENSE_MAX_N}")
        values = np.empty(1 << n, dtype=np.complex128)
        for i in range(1 << n):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise ValueError(f"bad line at position {i}")
            values[i] = complex(float(parts[0]), float(parts[1]))
        if any(line.strip() for line in fh):
            raise ValueError(f"trailing data after the {1 << n} positions")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite value at position {bad[0]}")
    return values


def draw_indices(count: int, size: int, rng: np.random.Generator, dtype) -> np.ndarray:
    """Indices into range(count): every one once when size >= count, else size draws.

    The draws are rng.integers(0, count, size, dtype); numpy's stream depends
    on the dtype, so a caller keeps its dtype to keep its draws.
    """
    if size >= count:
        return np.arange(count, dtype=dtype)
    return rng.integers(0, count, size=size, dtype=dtype)


def estimate_sq_norm(o: SampleOracle, samples: int, seed: int = 0) -> float:
    """Unbiased estimate of ||s||^2; exact when samples >= 2^n (each position once)."""
    ys = draw_indices(1 << o.n, samples, child_rng(seed, "sqnorm"), np.int64)
    vals = o.query_many(ys)
    return float((1 << o.n) * np.mean(np.abs(vals) ** 2))


def estimate_dots(
    o: SampleOracle, labels: Sequence[CodewordLabel], samples: int, seed: int = 0
) -> np.ndarray:
    """Unbiased estimates of <s, phi_label> for many labels off one shared sample set.

    Exact in exhaustive mode (samples >= 2^n: each position once).
    """
    ys = draw_indices(1 << o.n, samples, child_rng(seed, "dot"), np.int64)
    vals = o.query_many(ys)
    # conj of the values codeword_sum gives one unit term, 0 + i^e / sqrt(N), per exponent e
    phases = np.conj(np.zeros(4, dtype=np.complex128) + (1.0 / np.sqrt(1 << o.n)) * I_POWERS)
    exps = exponents_at(labels, ys)
    return np.array([(1 << o.n) * np.mean(vals * phases[e]) for e in exps], dtype=np.complex128)


def fwht(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[l] = sum_y (-1)^(l.y) a[y]."""
    # one C-contiguous copy, transform axis last; each stage writes back in place
    out = np.array(np.moveaxis(np.asarray(a), axis, -1), dtype=np.complex128, order="C")
    m = out.shape[-1]
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < m:
        pairs = out.reshape(out.shape[:-1] + (m // (2 * h), 2, h))
        top, bot = pairs[..., 0, :], pairs[..., 1, :]
        total = top + bot
        np.subtract(top, bot, out=bot)
        top[...] = total
        h *= 2
    return np.moveaxis(out, -1, axis)
