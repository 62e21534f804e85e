"""Field arithmetic tests: frozen small-field values plus exhaustive laws."""

import math
import random

import numpy as np
import pytest

from apnspectra.gf2m import (
    Field,
    canonical_polynomial,
    field,
    is_irreducible,
    _poly_mod,
    _poly_mul,
)

W = 0x2  # the basis element x, a generator of GF(4)*


# ----------------------------------------------------------------------
# independent irreducibility oracle: p of degree m is irreducible iff
# x^(2^m) = x mod p and gcd(x^(2^(m/q)) - x, p) = 1 for every prime q | m
# ----------------------------------------------------------------------

def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _sq_mod(a, p):
    return _poly_mod(_poly_mul(a, a), p)


def _x_pow_2e_mod(e, p):
    a = 0b10
    for _ in range(e):
        a = _sq_mod(a, p)
    return a


def irreducible_by_frobenius(p, m):
    if _x_pow_2e_mod(m, p) != 0b10:
        return False
    for q in range(2, m + 1):
        if m % q == 0 and all(q % r for r in range(2, q)):
            if _poly_gcd(_x_pow_2e_mod(m // q, p) ^ 0b10, p) != 1:
                return False
    return True


def test_canonical_polynomials_lex_least_and_irreducible():
    expected_small = {2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
                      8: 0x11b}
    for m in range(2, 17):
        p = canonical_polynomial(m)
        assert p.bit_length() - 1 == m
        assert irreducible_by_frobenius(p, m)
        # nothing smaller of degree m is irreducible
        for q in range((1 << m) + 1, p):
            assert not irreducible_by_frobenius(q, m)
        if m in expected_small:
            assert p == expected_small[m]


def test_is_irreducible_agrees_with_frobenius_oracle():
    for p in range(4, 1 << 9):
        m = p.bit_length() - 1
        assert is_irreducible(p) == irreducible_by_frobenius(p, m)


# ----------------------------------------------------------------------
# frozen examples
# ----------------------------------------------------------------------

def test_add_examples():
    F = field(2)
    for x in F.elements():
        assert F.add(x, x) == 0
        assert F.add(x, 0) == x
    assert F.add(W, 1) == W ^ 1


def test_mul_examples():
    F = field(2)
    for x in F.elements():
        assert F.mul(x, 1) == x
        assert F.mul(x, 0) == 0
    # X*X mod X^2+X+1 = X+1
    assert F.mul(W, W) == 0x3


def test_inv_examples():
    F = field(2)
    assert F.inv(1) == 1
    assert F.inv(W) == 0x3  # w * w^2 = w^3 = 1
    for m in (2, 3, 5):
        G = field(m)
        for x in G.nonzero_elements():
            assert G.mul(x, G.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        field(3).inv(0)


def test_frobenius_examples():
    F = field(2)
    assert F.frobenius(W, 0) == W
    assert F.frobenius(W, 2) == W  # order m
    assert F.frobenius(W, 1) == 0x3
    for m in (3, 4):
        G = field(m)
        for x in G.elements():
            for e in (-2, -1, 0, 1, m, 2 * m + 1):
                assert G.frobenius(G.frobenius(x, e), -e) == x


def test_trace_examples():
    assert field(2).trace(0) == 0
    assert field(3).trace(1) == 1  # Tr(1) = m mod 2
    assert field(2).trace(W) == 1  # w + w^2 = 1 in GF(4)


def test_is_cube_examples():
    assert field(2).is_cube(0)
    assert not field(2).is_cube(W)  # cubes of GF(4)* are just {1}
    F3 = field(3)
    assert all(F3.is_cube(x) for x in F3.elements())


def test_pow_examples():
    F = field(2)
    for x in F.elements():
        assert F.pow(x, 1) == x
    assert F.pow(0, 5) == 0
    assert F.pow(0, 0) == 1
    assert F.pow(W, 3) == 1  # w has order 3


# ----------------------------------------------------------------------
# laws, exhaustively on small fields
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_trace_in_gf2_and_frobenius_invariant(m):
    F = field(m)
    for x in F.elements():
        t = F.trace(x)
        assert t in (0, 1)
        assert F.trace(F.sqr(x)) == t


@pytest.mark.parametrize("m", [2, 3, 4])
def test_frobenius_is_field_automorphism(m):
    F = field(m)
    for e in range(m):
        for x in F.elements():
            for y in F.elements():
                fx, fy = F.frobenius(x, e), F.frobenius(y, e)
                assert F.frobenius(F.add(x, y), e) == F.add(fx, fy)
                assert F.frobenius(F.mul(x, y), e) == F.mul(fx, fy)
    for x in F.elements():
        assert F.frobenius(x, m) == x


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_cube_counts(m):
    F = field(m)
    cubes = {F.pow(x, 3) for x in F.nonzero_elements()}
    flagged = {x for x in F.nonzero_elements() if F.is_cube(x)}
    assert flagged == cubes
    if m % 2 == 0:
        assert len(cubes) == (F.order - 1) // 3
    else:
        assert len(cubes) == F.order - 1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_inv_agrees_with_pow(m):
    F = field(m)
    for x in F.nonzero_elements():
        assert F.inv(x) == F.pow(x, F.order - 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_mul_is_commutative_associative_distributive(m):
    F = field(m)
    xs = list(F.elements())[: min(F.order, 8)]
    for x in xs:
        for y in xs:
            assert F.mul(x, y) == F.mul(y, x)
            for z in xs:
                assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
                assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_gcd_sanity_for_cube_bijection():
    # cubing is bijective exactly when gcd(3, 2^m - 1) = 1 (odd m)
    for m in range(2, 9):
        assert (math.gcd(3, (1 << m) - 1) == 1) == (m % 2 == 1)


# ----------------------------------------------------------------------
# element validation, encoding, bulk tables
# ----------------------------------------------------------------------

def test_element_range_checked():
    F = field(3)
    with pytest.raises(ValueError):
        F.add(8, 1)  # element of a larger field
    with pytest.raises(ValueError):
        F.mul(1, -1)
    with pytest.raises(TypeError):
        F.mul(1.5, 1)


def test_hex_roundtrip():
    F = field(6)
    for x in (0, 1, 0x2a, 0x3f):
        assert F.from_hex(F.to_hex(x)) == x
    assert F.to_hex(0x2a) == "2a"
    assert F.poly_hex() == "43"


def test_field_equality_and_custom_poly():
    assert field(4) == Field(4)
    assert field(4) != field(5)
    other = Field(4, 0x19)  # x^4 + x^3 + 1, also irreducible
    assert other != field(4)
    assert other.mul(0x2, 0x2) == 0x4
    with pytest.raises(ValueError):
        Field(4, 0x11)  # x^4 + 1 is reducible
    with pytest.raises(ValueError):
        Field(4, 0x7)  # wrong degree
    with pytest.raises(ValueError):
        Field(1)


def _frobenius_by_squaring(F, x, e):
    for _ in range(e):
        x = F.mul(x, x)
    return x


def test_bulk_tables_match_scalar_ops():
    F = field(4)
    mt = F.mul_table
    ft = F.frobenius_table(2)
    for x in F.elements():
        assert ft[x] == _frobenius_by_squaring(F, x, 2)
        for y in F.elements():
            assert mt[x, y] == F.mul(x, y)


# x is not primitive for any of these moduli (order 5 for 0x1f, 51 for
# 0x11b), so a log table to the base x would be wrong on them
@pytest.mark.parametrize("F", [Field(4, 0x1f)]
                         + [field(m) for m in (8, 9, 12, 14, 16)], ids=repr)
def test_log_tables_match_reference_mul(F):
    rng = random.Random(F.poly)
    q = F.order
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(400)]
    ys = [q - 1, 0, q - 1] + [rng.randrange(q) for _ in range(400)]
    expect = [F.mul(x, y) for x, y in zip(xs, ys)]
    assert F.mul_array(np.array(xs), np.array(ys)).tolist() == expect
    assert [F.scalar_mul(x, y) for x, y in zip(xs, ys)] == expect
    c = xs[3]
    assert (F.mul_array(c, np.array(ys)).tolist()
            == [F.mul(c, y) for y in ys])
    for e in range(F.m):
        ft = F.frobenius_table(e)
        assert [int(ft[x]) for x in xs[:40]] == [
            _frobenius_by_squaring(F, x, e) for x in xs[:40]]


def test_trace_masks_encode_trace_pairing():
    for m in (2, 3, 4, 5):
        F = field(m)
        masks = F.trace_masks
        par = F.parity_table
        for c in F.elements():
            for v in F.elements():
                assert par[v & masks[c]] == F.trace(F.mul(c, v))
