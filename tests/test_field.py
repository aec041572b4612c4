import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerdock.field as field_mod
from kerdock.field import (
    FieldContext,
    format_poly_line,
    is_irreducible,
    is_primitive,
    parse_poly_line,
    poly_degree,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_table,
    primitive_poly,
)


def test_poly_mul_known_values():
    # (1+t)(1+t) = 1 + t^2 over GF(2)
    assert poly_mul(0b11, 0b11) == 0b101
    assert poly_mul(0b10, 0b10) == 0b100
    assert poly_mul(0, 0b1101) == 0
    assert poly_mul(1, 0b1101) == 0b1101


def test_poly_mod_reduces_degree():
    h = 0b1011  # t^3 + t + 1
    assert poly_mod(0b1000, h) == 0b011
    assert poly_degree(poly_mod(0b1100101, h)) < 3


@given(st.integers(0, 1 << 12), st.integers(0, 1 << 12), st.integers(0, 1 << 12))
def test_poly_mul_is_commutative_and_distributive(a, b, c):
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(a, b ^ c) == poly_mul(a, b) ^ poly_mul(a, c)


def test_is_primitive_classifies_degree_4():
    # t^4+t+1 is primitive; t^4+t^3+t^2+t+1 is irreducible but has order 5
    assert is_primitive(0b10011, 4)
    assert is_irreducible(0b11111, 4)
    assert not is_primitive(0b11111, 4)


def test_t_is_irreducible_but_not_primitive():
    # t is 0 in GF(2)[t]/t, so it generates no unit group
    assert is_irreducible(0b10, 1)
    assert not is_primitive(0b10, 1)


def test_poly_table_covers_1_through_20_and_is_primitive():
    table = poly_table()
    assert set(table) >= set(range(1, 21))
    for n, h in table.items():
        assert poly_degree(h) == n
        assert is_primitive(h, n)


def test_poly_table_is_read_only():
    before = primitive_poly(5)
    with pytest.raises(TypeError):
        poly_table()[5] = 7
    assert primitive_poly(5) == before
    assert poly_table() is poly_table()


def test_poly_line_round_trip():
    n, h = parse_poly_line(format_poly_line(5, primitive_poly(5)))
    assert (n, h) == (5, primitive_poly(5))


def test_context_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FieldContext(3, 0b1111)  # t^3+t^2+t+1 = (t+1)(t^2+1), reducible
    with pytest.raises(ValueError):
        FieldContext(3, 0b0110)  # h_0 = 0


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_generator_has_full_order(n):
    ctx = FieldContext.default(n)
    seen = set()
    x = 1
    for _ in range((1 << n) - 1):
        x = ctx.mul(x, ctx.xi)
        seen.add(x)
    assert len(seen) == (1 << n) - 1


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_trace_is_linear_and_balanced(n):
    ctx = FieldContext.default(n)
    xs = np.arange(1 << n, dtype=np.uint64)
    tr = ctx.trace_vec(xs)
    assert set(np.unique(tr)) <= {0, 1}
    assert int((tr == 0).sum()) == 1 << (n - 1)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << n, size=500, dtype=np.uint64)
    b = rng.integers(0, 1 << n, size=500, dtype=np.uint64)
    assert (ctx.trace_vec(a ^ b) == (ctx.trace_vec(a) ^ ctx.trace_vec(b))).all()


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_vec_matches_the_scalar_trace(n):
    ctx = FieldContext.default(n)
    xs = np.arange(1 << n, dtype=np.uint64)
    assert ctx.trace_vec(xs).tolist() == [ctx.trace(int(x)) for x in xs]


def test_a_read_trace_mask_leaves_equality_and_hashing_alone():
    used = FieldContext.default(8)
    mask = used.trace_mask
    fresh = FieldContext.default(8)
    assert used == fresh and hash(used) == hash(fresh)
    assert {used: "ok"}[fresh] == "ok"
    assert fresh.trace_mask == mask
    assert used != FieldContext(8, 0b101110001)


def test_the_default_context_is_built_and_validated_once_per_n(monkeypatch):
    checked = []
    real = field_mod.is_primitive
    monkeypatch.setattr(field_mod, "is_primitive", lambda h, n: checked.append(n) or real(h, n))
    FieldContext.default.cache_clear()
    got = [FieldContext.default(n) for n in (5, 8, 5, 8, 8)]
    assert checked == [5, 8]
    assert got[0] is got[2] and got[1] is got[3] is got[4]
    assert (got[0].h, got[1].h) == (primitive_poly(5), primitive_poly(8))
    # a modulus other than the shipped one is still checked on every construction
    with pytest.raises(ValueError, match="primitive"):
        FieldContext(8, 0b100011011)  # x^8+x^4+x^3+x+1: irreducible, xi of order 51
    with pytest.raises(ValueError, match="monic"):
        FieldContext(8, 0b10001110)
    assert checked == [5, 8, 8] and FieldContext.default(8) is got[1]


@pytest.mark.parametrize("n", [2, 5, 9])
def test_sqrt_is_the_inverse_of_squaring(n):
    ctx = FieldContext.default(n)
    for x in range(1 << n):
        assert ctx.square(ctx.sqrt(x)) == x
        assert ctx.sqrt(ctx.square(x)) == x


def test_frobenius_is_additive():
    ctx = FieldContext.default(6)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = int(rng.integers(64)), int(rng.integers(64))
        assert ctx.square(a ^ b) == ctx.square(a) ^ ctx.square(b)


@settings(max_examples=60)
@given(st.integers(2, 12), st.data())
def test_mul_matches_poly_reference(n, data):
    ctx = FieldContext.default(n)
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    assert ctx.mul(a, b) == poly_mod(poly_mul(a, b), ctx.h)


def test_trace_matches_sum_of_frobenius_orbits():
    ctx = FieldContext.default(7)
    for x in (0, 1, 5, 77, 127):
        acc, y = 0, x
        for _ in range(7):
            acc ^= y
            y = ctx.square(y)
        assert ctx.trace(x) == acc


def test_gcd_of_multiples():
    a = poly_mul(0b111, 0b1011)
    b = poly_mul(0b111, 0b1101)
    g = poly_gcd(a, b)
    assert poly_mod(a, g) == 0 and poly_mod(b, g) == 0
    assert poly_degree(g) >= 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("4: 1 1 0 1", "expected 5 coefficients, got 4"),
        ("4: 1 1 0 0 2", "coefficients must be 0 or 1"),
        ("4: 0 1 0 0 1", "polynomial must have h_0 = h_n = 1"),
        ("4: 1 1 0 0 0", "polynomial must have h_0 = h_n = 1"),
    ],
    ids=["count", "not-binary", "h0-zero", "hn-zero"],
)
def test_parse_poly_line_refuses_malformed_lines(line, message):
    with pytest.raises(ValueError, match=message):
        parse_poly_line(line)


def test_field_context_refuses_n_below_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        FieldContext(0, 1)


def test_is_irreducible_rejects_a_degree_mismatch_and_a_hidden_factor():
    assert not is_irreducible(0b10011, 5)
    # (t+1)(t^2+t+1)(t^3+t+1) has t^64 = t mod h but a factor of degree 6/3 = 2
    h = 0b1010011
    assert poly_mul(poly_mul(0b11, 0b111), 0b1011) == h
    assert not is_irreducible(h, 6)
