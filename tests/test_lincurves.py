"""Linearized-pair derivations against the symbolic and truth-table oracles."""

import random

import numpy as np
import pytest

from apnspectra.errors import ParameterError
from apnspectra.families import (
    Butterfly,
    Carlet11,
    Taniguchi,
    ZhouPott,
    build_function,
    taniguchi_as_general,
)
from apnspectra.gf2m import field
from apnspectra.lincurves import (
    InfinityPoint,
    LinearizedBivariate,
    bezout_bound_check,
    derive_pair,
    derive_pair_generic,
    infinity_point,
    kernel_dimension,
    kernel_zero_set,
    kernel_zero_set_generic,
    recombine,
)
from apnspectra.vbf import component_truth_table, linear_structures


def every_selector(m):
    q = 1 << m
    for c in range(1, q * q):
        yield c & (q - 1), c >> m


# ----------------------------------------------------------------------
# kernel computation basics
# ----------------------------------------------------------------------

def test_kernel_identity_like_system():
    F = field(3)
    a = LinearizedBivariate(F, 1, ((1, 0),))  # X
    b = LinearizedBivariate(F, 1, ((0, 1),))  # Y
    assert kernel_dimension(a, b) == 0
    assert kernel_zero_set(a, b) == [0]


def test_kernel_with_artin_schreier_factor():
    F = field(3)
    a = LinearizedBivariate(F, 1, ((1, 0), (1, 0)))  # X^2 + X
    b = LinearizedBivariate(F, 1, ((0, 1),))  # Y
    assert kernel_dimension(a, b) == 1
    assert kernel_zero_set(a, b) == [0, 1]  # {(0,0), (1,0)}


def test_trailing_zero_coefficients_trimmed():
    F = field(3)
    a = LinearizedBivariate(F, 1, ((1, 0), (0, 0), (0, 0)))
    assert a.d == 0
    assert a.coeffs == ((1, 0),)
    z = LinearizedBivariate(F, 1, ((0, 0), (0, 0)))
    assert z.is_zero()
    with pytest.raises(ParameterError):
        infinity_point(z)


def test_mismatched_pairs_rejected():
    a = LinearizedBivariate(field(3), 1, ((1, 0),))
    b = LinearizedBivariate(field(3), 2, ((0, 1),))
    with pytest.raises(ParameterError):
        kernel_dimension(a, b)
    c = LinearizedBivariate(field(4), 1, ((0, 1),))
    with pytest.raises(ParameterError):
        kernel_dimension(a, c)


# ----------------------------------------------------------------------
# published coefficient records
# ----------------------------------------------------------------------

def test_taniguchi_mu_zero_case():
    pair = derive_pair(Taniguchi(3, 1, 0x3, 0x5), lam=0x2, mu=0)
    assert pair.case == "mu_zero"
    assert kernel_zero_set(pair.A, pair.B) == [0]  # forces X = Y = 0


def test_butterfly_coefficient_records():
    m, alpha, beta = 3, 0x6, 0x2
    F = field(m)
    d = F.pow(alpha, 3) ^ beta
    for lam, mu in [(1, 0), (0x3, 0x5), (0, 0x7)]:
        pair = derive_pair(Butterfly(m, alpha, beta), lam, mu)
        c1 = lam ^ F.mul(mu, d)
        c2 = F.mul(lam, alpha) ^ F.mul(mu, F.sqr(alpha))
        c3 = F.mul(lam, F.sqr(alpha)) ^ F.mul(mu, alpha)
        c4 = F.mul(lam, d) ^ mu
        assert pair.A.coeffs[0] == (c1, c2)
        assert pair.B.coeffs[0] == (c3, c4)
        if (F.sqr(c1), F.sqr(c3)) != (0, 0):
            assert pair.A.coeffs[1] == (F.sqr(c1), F.sqr(c3))
        assert not pair.swap_xy


def test_zhoupott_lambda_zero_reduction():
    F = field(4)
    pair = derive_pair(ZhouPott(4, 1, 2, 0x7), lam=0, mu=0x5)
    assert pair.case == "lambda_zero"
    # A collapses to Y-terms only, B to X-terms only
    assert all(c == 0 for c, _ in pair.A.coeffs)
    assert all(d == 0 for _, d in pair.B.coeffs)


def test_zero_selector_rejected():
    with pytest.raises(ParameterError):
        derive_pair(Taniguchi(3, 1, 1, 1), 0, 0)


def test_no_published_pair_for_general_shape():
    gen = taniguchi_as_general(Taniguchi(3, 1, 1, 1))
    with pytest.raises(ParameterError):
        derive_pair(gen, 1, 0)
    # the symbolic path covers it and matches the concrete family's
    a0, b0 = derive_pair_generic(gen, 0x3, 0x5)
    a1, b1 = derive_pair_generic(Taniguchi(3, 1, 1, 1), 0x3, 0x5)
    F = field(3)
    assert (kernel_zero_set_generic(F, a0, b0)
            == kernel_zero_set_generic(F, a1, b1))


# ----------------------------------------------------------------------
# the central cross-oracle identity: published pair == symbolic pair ==
# brute-force linear structures, as whole zero sets
# ----------------------------------------------------------------------

@pytest.mark.parametrize("params", [
    Taniguchi(3, 1, 0x3, 0x5),
    Taniguchi(3, 2, 0x1, 0x7),
    Taniguchi(2, 1, 0x2, 0x3),
    Taniguchi(3, 1, 0x0, 0x6),
    Carlet11(3, 0, 1, 0x3, 0x6, 0x1, 0x0),
    Carlet11(3, 1, 0, 0x2, 0x5, 0x4, 0x7),
    Carlet11(3, 2, 1, 0x1, 0x1, 0x1, 0x1),  # degenerate triple, a = 1
    Carlet11(4, 1, 2, 0x5, 0x9, 0xa, 0x3),
    ZhouPott(3, 1, 1, 0x4),
    ZhouPott(4, 1, 2, 0x7),
    ZhouPott(4, 3, 0, 0x2),
    ZhouPott(4, 1, 3, 0xb),
    Butterfly(3, 0x6, 0x2),
    Butterfly(3, 0x2, 0x4),
])
def test_pair_zero_sets_match_brute_force(params):
    F = field(params.m)
    fn = build_function(params)
    for lam, mu in every_selector(params.m):
        directions = linear_structures(component_truth_table(fn, (lam, mu)))
        pair = derive_pair(params, lam, mu)
        assert pair.direction_zero_set() == directions
        a0, b0 = derive_pair_generic(params, lam, mu)
        assert kernel_zero_set_generic(F, a0, b0) == directions
        assert kernel_dimension(pair.A, pair.B) == len(directions).bit_length() - 1


def test_degenerate_butterfly_zero_sets():
    F = field(3)
    alpha = 0x3
    beta = F.pow(alpha ^ 1, 3)
    assert beta != 0
    params = Butterfly(3, alpha, beta)
    fn = build_function(params)
    for lam, mu in every_selector(3):
        directions = linear_structures(component_truth_table(fn, (lam, mu)))
        pair = derive_pair(params, lam, mu)
        assert pair.direction_zero_set() == directions


# ----------------------------------------------------------------------
# batched selectors: one pair over all components == the scalar pairs
# ----------------------------------------------------------------------

BATCH_INSTANCES = [
    Taniguchi(3, 1, 0x3, 0x5),
    Carlet11(3, 2, 1, 0x1, 0x1, 0x1, 0x1),  # degenerate: shared_infinity
    ZhouPott(3, 1, 1, 0x4),
    Butterfly(3, 0x6, 0x2),
    Taniguchi(4, 3, 0x2, 0x7),
    Carlet11(4, 1, 2, 0x5, 0x9, 0xa, 0x3),
    ZhouPott(4, 1, 2, 0x7),
    Taniguchi(5, 2, 0x11, 0x6),
    Carlet11(5, 0, 2, 0x1d, 0x3, 0x0, 0x14),
    ZhouPott(5, 2, 3, 0x13),
    Butterfly(5, 0x7, 0x1b),
    Taniguchi(6, 5, 0x21, 0x3e),
    Carlet11(6, 1, 0, 0x2b, 0x11, 0x3c, 0x5),
    ZhouPott(6, 1, 0, 0x2a),
]


@pytest.mark.parametrize("params", BATCH_INSTANCES)
def test_batched_pair_matches_scalar_pairs(params):
    q = 1 << params.m
    sel = np.arange(1, q * q).reshape(q - 1, q + 1)
    pair = derive_pair(params, sel & (q - 1), sel >> params.m)
    dims = kernel_dimension(pair.A, pair.B)
    assert dims.shape == sel.shape
    assert pair.case.shape == sel.shape
    for c, dim, case in zip(sel.flat, dims.flat, pair.case.flat):
        one = derive_pair(params, int(c) & (q - 1), int(c) >> params.m)
        assert (kernel_dimension(one.A, one.B), one.case) == (dim, case), c


@pytest.mark.parametrize("lam, mu, error", [
    ([1, 0, 2], [1, 0, 3], ParameterError),  # zero selector in the batch
    ([1, 8, 2], [1, 1, 3], ValueError),  # element outside GF(8)
    ([1, 2, 3], [1, -1, 3], ValueError),
])
def test_batched_selectors_rejected_like_scalar(lam, mu, error):
    params = Taniguchi(3, 1, 0x3, 0x5)
    with pytest.raises(error):
        derive_pair(params, np.array(lam), np.array(mu))
    bad = next(i for i, (x, y) in enumerate(zip(lam, mu))
               if (x, y) == (0, 0) or not (0 <= x < 8 and 0 <= y < 8))
    with pytest.raises(error):
        derive_pair(params, lam[bad], mu[bad])


def test_batched_selectors_must_share_shape():
    with pytest.raises(ValueError):
        derive_pair(Taniguchi(3, 1, 0x3, 0x5), np.array([1, 2]),
                    np.array([1, 2, 3]))


# ----------------------------------------------------------------------
# points at infinity
# ----------------------------------------------------------------------

def test_taniguchi_infinity_points():
    m, k, alpha, beta = 3, 1, 0x3, 0x5
    F = field(m)
    for lam in F.elements():
        for mu in F.nonzero_elements():
            pair = derive_pair(Taniguchi(m, k, alpha, beta), lam, mu)
            assert infinity_point(pair.A) == InfinityPoint(1, 0)
            px = F.frobenius(F.mul(mu, alpha), -2 * k)
            py = F.frobenius(F.mul(mu, beta), -k)
            want = InfinityPoint(1, F.div(py, px)) if px else InfinityPoint(0, 1)
            assert infinity_point(pair.B) == want
            assert infinity_point(pair.A) != infinity_point(pair.B)


def test_carlet_infinity_point_relation():
    m, i, j = 3, 0, 1
    F = field(m)
    k = (j - i) % m
    params = Carlet11(m, i, j, 0x3, 0x6, 0x1, 0x2)
    for lam in F.elements():
        for mu in F.nonzero_elements():
            pair = derive_pair(params, lam, mu)
            st = F.mul(mu, params.s)
            ut = F.mul(mu, params.u)
            p = infinity_point(pair.A)
            # the point is (eta : 1 : 0) with eta^(2^k) = u~ / s~
            if p.px == 1:
                eta = F.div(1, p.py)
            else:
                eta = 0
            assert F.frobenius(eta, k) == F.div(ut, st)


def test_pure_power_top_form():
    F = field(3)
    a = LinearizedBivariate(F, 1, ((0, 1), (0, 0), (0, 5)))  # only Y powers
    assert infinity_point(a) == InfinityPoint(1, 0)


# ----------------------------------------------------------------------
# degree-sum bound
# ----------------------------------------------------------------------

def test_bezout_report_on_taniguchi():
    params = Taniguchi(3, 1, 0x3, 0x5)
    for lam in field(3).elements():
        for mu in field(3).nonzero_elements():
            pair = derive_pair(params, lam, mu)
            rep = bezout_bound_check(pair.A, pair.B)
            assert rep.degree_sum == 4
            assert rep.distinct_infinity
            assert rep.bound_satisfied
            assert rep.kernel_dim in (0, 2)


def test_bezout_identical_curves_not_asserted():
    F = field(3)
    a = LinearizedBivariate(F, 1, ((1, 1), (0, 3)))
    rep = bezout_bound_check(a, a)
    assert not rep.distinct_infinity
    assert rep.bound_satisfied is None


def test_bezout_random_distinct_infinity_pairs():
    rng = random.Random(20240817)
    F = field(3)
    checked = 0
    while checked < 500:
        k = rng.choice([1, 2])
        d1 = rng.randint(1, 2)
        d2 = rng.randint(1, 2)
        a = LinearizedBivariate(F, k, tuple(
            (rng.randrange(8), rng.randrange(8)) for _ in range(d1 + 1)))
        b = LinearizedBivariate(F, k, tuple(
            (rng.randrange(8), rng.randrange(8)) for _ in range(d2 + 1)))
        if a.is_zero() or b.is_zero() or a.d != d1 or b.d != d2:
            continue
        if infinity_point(a) == infinity_point(b):
            continue
        rep = bezout_bound_check(a, b)
        assert rep.bound_satisfied
        checked += 1


def test_recombination_preserves_kernel():
    F = field(3)
    params = Taniguchi(3, 1, 0x3, 0x5)
    for lam, mu in [(1, 1), (0x4, 0x2), (0, 0x3)]:
        pair = derive_pair(params, lam, mu)
        base = kernel_dimension(pair.A, pair.B)
        for c in F.elements():
            assert kernel_dimension(recombine(pair.A, c, pair.B), pair.B) == base
            assert (kernel_zero_set(recombine(pair.A, c, pair.B), pair.B)
                    == kernel_zero_set(pair.A, pair.B))


def test_bound_requires_coprime_step():
    F = field(4)
    a = LinearizedBivariate(F, 2, ((1, 0), (0, 1)))
    with pytest.raises(ParameterError):
        bezout_bound_check(a, a)
