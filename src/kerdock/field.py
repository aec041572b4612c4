"""Binary field arithmetic GF(2^n) on integer bitsets.

A field element is a plain int whose bit i is the coefficient of t^i in the
polynomial basis 1, t, ..., t^(n-1); no wrapper object, no hidden context.
All operations take a FieldContext that pins n and a primitive modulus h(t).
The bit vector of an element doubles as its coordinate vector in the basis
(1, xi, ..., xi^(n-1)) where xi is the class of t, so "element as vector" is
the identity on ints.
"""

from __future__ import annotations

import functools
import importlib.resources
import types
from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

__all__ = [
    "FieldContext",
    "poly_mul",
    "poly_mod",
    "poly_gcd",
    "poly_degree",
    "is_irreducible",
    "is_primitive",
    "primitive_poly",
    "poly_table",
    "parse_poly_line",
    "format_poly_line",
]


def poly_degree(a: int) -> int:
    """Degree of a as a polynomial over GF(2); degree of 0 is -1."""
    return a.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product in GF(2)[t], no reduction."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_mod(a: int, h: int) -> int:
    dh = poly_degree(h)
    da = poly_degree(a)
    while da >= dh:
        a ^= h << (da - dh)
        da = poly_degree(a)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _poly_modexp_t(exp: int, h: int) -> int:
    """t^exp mod h by square and multiply."""
    result = 1
    base = poly_mod(2, h)
    while exp:
        if exp & 1:
            result = poly_mod(poly_mul(result, base), h)
        base = poly_mod(poly_mul(base, base), h)
        exp >>= 1
    return result


def _prime_factors(m: int) -> List[int]:
    """Distinct prime factors by trial division; fine for m < 2^50."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def is_irreducible(h: int, n: int) -> bool:
    """Whether h of degree n is irreducible over GF(2)."""
    if poly_degree(h) != n or n < 1:
        return False
    if n == 1:
        return True
    # t^(2^n) == t mod h, and no factor of degree n/p for prime p | n
    if _poly_modexp_t(1 << n, h) != poly_mod(2, h):
        return False
    for p in _prime_factors(n):
        g = poly_gcd(_poly_modexp_t(1 << (n // p), h) ^ poly_mod(2, h), h)
        if g != 1:
            return False
    return True


def is_primitive(h: int, n: int) -> bool:
    """Whether h is primitive: irreducible with t of multiplicative order 2^n - 1.

    The order check walks the divisors of 2^n - 1 via its prime factorization
    (trial division; n <= 24 keeps every factor small).
    """
    # with h_0 = 1, t is a unit of the field GF(2)[t]/h of 2^n elements, so t^(2^n - 1) = 1
    if not h & 1 or not is_irreducible(h, n):
        return False
    order = (1 << n) - 1
    for q in _prime_factors(order):
        if _poly_modexp_t(order // q, h) == 1:
            return False
    return True


def parse_poly_line(line: str) -> tuple[int, int]:
    """Parse 'n: h_0 h_1 ... h_n' into (n, h as int bitset)."""
    head, _, tail = line.partition(":")
    n = int(head.strip())
    coeffs = [int(c) for c in tail.split()]
    if len(coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients, got {len(coeffs)}")
    if any(c not in (0, 1) for c in coeffs):
        raise ValueError("coefficients must be 0 or 1")
    h = 0
    for i, c in enumerate(coeffs):
        h |= c << i
    if not (h & 1) or not (h >> n) & 1:
        raise ValueError("polynomial must have h_0 = h_n = 1")
    return n, h


def format_poly_line(n: int, h: int) -> str:
    coeffs = " ".join(str((h >> i) & 1) for i in range(n + 1))
    return f"{n}: {coeffs}"


@functools.cache
def poly_table() -> Mapping[int, int]:
    """The shipped table of one primitive polynomial per n in [1, 24], read-only."""
    text = (
        importlib.resources.files("kerdock.data")
        .joinpath("primitive_polys.txt")
        .read_text()
    )
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, h = parse_poly_line(line)
        table[n] = h
    return types.MappingProxyType(table)


def primitive_poly(n: int) -> int:
    table = poly_table()
    if n not in table:
        raise ValueError(f"no tabled primitive polynomial for n={n}")
    return table[n]


@dataclass(frozen=True)
class FieldContext:
    """GF(2^n) with a fixed primitive modulus; frozen, compared and hashed on (n, h)."""

    n: int
    h: int

    @staticmethod
    @functools.cache
    def default(n: int) -> "FieldContext":
        """The context of the shipped modulus for n, built and validated once per n."""
        return FieldContext(n, primitive_poly(n))

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > 32:
            raise ValueError(f"n must be <= 32, got n={self.n}: trace_vec holds elements in uint32")
        if poly_degree(self.h) != self.n or not (self.h & 1):
            raise ValueError("h must be monic of degree n with h_0 = 1")
        if not is_primitive(self.h, self.n):
            raise ValueError("h must be primitive: xi has to generate the units")

    @property
    def xi(self) -> int:
        """The class of t, a multiplicative generator."""
        return poly_mod(2, self.h)

    def mul(self, a: int, b: int) -> int:
        return poly_mod(poly_mul(a, b), self.h)

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def sqrt(self, a: int) -> int:
        """Unique square root, a^(2^(n-1)); inverse of squaring."""
        for _ in range(self.n - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a: int) -> int:
        """Trace to GF(2) by n-1 repeated squarings; value is 0 or 1."""
        acc = a
        sq = a
        for _ in range(self.n - 1):
            sq = self.mul(sq, sq)
            acc ^= sq
        # the trace is fixed by squaring, so it lies in GF(2) once h is checked irreducible
        return acc

    # vectorized paths ----------------------------------------------------

    @functools.cached_property
    def trace_mask(self) -> int:
        """Bitmask m with trace(x) = parity(x & m), by linearity of trace."""
        return sum(self.trace(1 << i) << i for i in range(self.n))

    def trace_vec(self, xs: np.ndarray) -> np.ndarray:
        """Trace of many elements at once."""
        arr = np.asarray(xs, dtype=np.uint32)
        return (np.bitwise_count(arr & np.uint32(self.trace_mask)) & 1).astype(np.uint8)
