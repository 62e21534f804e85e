"""Family builders, embeddings, and APN predicates against brute force."""

import math
import random

import numpy as np
import pytest

from apnspectra.errors import ParameterError
from apnspectra.families import (
    Butterfly,
    Carlet11,
    CarletGeneral,
    LinearizedMap,
    Taniguchi,
    ZhouPott,
    build_function,
    butterfly_degenerate,
    carlet11_as_general,
    carlet11_degenerate_triple,
    carlet11_is_apn,
    carlet_general_is_apn,
    derivative_kernel_map,
    kernel_obstruction_set,
    taniguchi_as_general,
    taniguchi_is_apn,
    validate,
    zhoupott_apn_predicate,
    zhoupott_as_general,
    _POINT_EVALUATORS,
)
from apnspectra.gf2m import field
from apnspectra.linalg import gf2_kernel_basis, gf2_rank_batch, gf2_span
from apnspectra.vbf import differential_spectrum
from apnspectra.verifier import zhoupott_grid

W = 0x2


# ----------------------------------------------------------------------
# truth tables
# ----------------------------------------------------------------------

def test_taniguchi_vanishes_at_origin():
    fn = build_function(Taniguchi(2, 1, 1, 1))
    assert fn.output_pair(0, 0) == (0, 0)


def test_zhoupott_example_point():
    fn = build_function(ZhouPott(2, 1, 2, W))
    assert fn.output_pair(1, 0) == (0, 1)


def test_butterfly_axis_values():
    # F(x, 0) = (x^3, (alpha^3 + beta) x^3) straight from the definition
    for alpha, beta in [(1, 1), (W, 1), (3, 5)]:
        F = field(3)
        fn = build_function(Butterfly(3, alpha, beta))
        d = F.pow(alpha, 3) ^ beta
        for x in F.elements():
            cube = F.pow(x, 3)
            assert fn.output_pair(x, 0) == (cube, F.mul(d, cube))


def test_butterfly_against_plain_reimplementation():
    F = field(3)
    alpha, beta = 0x5, 0x3
    fn = build_function(Butterfly(3, alpha, beta))

    def r(x, y):
        return F.pow(x ^ F.mul(alpha, y), 3) ^ F.mul(beta, F.pow(y, 3))

    for x in F.elements():
        for y in F.elements():
            assert fn.output_pair(x, y) == (r(x, y), r(y, x))


@pytest.mark.parametrize("params", [
    Taniguchi(3, 1, 0x3, 0x5),
    Taniguchi(4, 3, 0x9, 0x2),
    Carlet11(3, 0, 1, 0x3, 0x6, 0x1, 0x0),
    Carlet11(4, 1, 2, 0x5, 0x9, 0xa, 0x3),
    ZhouPott(4, 1, 2, 0x7),
    ZhouPott(3, 2, 1, 0x4),
    Butterfly(3, 0x6, 0x2),
    Butterfly(5, 0x11, 0x1f),
    Taniguchi(9, 2, 0x1a5, 0x0c3),
    Taniguchi(10, 3, 0x2f1, 0x11d),
    Carlet11(9, 1, 3, 0x0e7, 0x151, 0x02a, 0x1fc),
    Carlet11(10, 0, 3, 0x3a9, 0x06d, 0x2b4, 0x000),
    ZhouPott(9, 2, 1, 0x133),
    ZhouPott(10, 3, 2, 0x2c5),
    Butterfly(9, 0x0b6, 0x1d3),
    CarletGeneral(9, 4, LinearizedMap((0x1, 0, 0x5e, 0, 0, 0, 0, 0, 0)),
                  LinearizedMap((0, 0x13b, 0, 0, 0, 0, 0, 0, 0)),
                  LinearizedMap((0, 0, 0, 0, 0, 0, 0, 0x0f0, 0)),
                  LinearizedMap((0x1c1, 0, 0, 0, 0, 0, 0, 0, 0x002))),
    CarletGeneral(10, 7, LinearizedMap((0, 0x3ff, 0, 0, 0, 0, 0, 0, 0, 0)),
                  LinearizedMap((0x1, 0, 0, 0, 0, 0x123, 0, 0, 0, 0)),
                  LinearizedMap((0, 0, 0, 0x0aa, 0, 0, 0, 0, 0, 0)),
                  LinearizedMap((0, 0, 0, 0, 0, 0, 0, 0, 0, 0x2d7))),
])
def test_bulk_builder_matches_point_evaluator(params):
    F = field(params.m)
    fn = build_function(params)
    ev = _POINT_EVALUATORS[type(params)]
    q = F.order
    # every point up to m = 5, fixed-seed samples above
    points = (range(q * q) if q <= 32
              else random.Random(params.m).sample(range(q * q), 500))
    for i in points:
        assert fn.table[i] == ev(params, F, i & (q - 1), i >> F.m)


@pytest.mark.parametrize("params,embed", [
    (Taniguchi(3, 1, 0x3, 0x5), taniguchi_as_general),
    (Taniguchi(4, 1, 0x0, 0x7), taniguchi_as_general),
    (ZhouPott(4, 3, 2, 0x7), zhoupott_as_general),
    (ZhouPott(4, 1, 3, 0x2), zhoupott_as_general),
    (Carlet11(3, 0, 1, 0x3, 0x6, 0x1, 0x0), carlet11_as_general),
    (Carlet11(4, 1, 2, 0x5, 0x9, 0xa, 0x3), carlet11_as_general),
    (Carlet11(4, 3, 2, 0x1, 0x1, 0x1, 0x1), carlet11_as_general),
])
def test_general_shape_embeddings_produce_identical_tables(params, embed):
    assert np.array_equal(build_function(params).table,
                          build_function(embed(params)).table)


def test_validation_errors():
    with pytest.raises(ParameterError):
        build_function(Taniguchi(4, 2, 1, 1))  # gcd(k, m) != 1
    with pytest.raises(ParameterError):
        build_function(Taniguchi(3, 1, 1, 0))  # beta = 0
    with pytest.raises(ParameterError):
        build_function(Carlet11(3, 0, 1, 0, 1, 1, 1))  # s*t = 0
    with pytest.raises(ParameterError):
        build_function(Carlet11(4, 0, 2, 1, 1, 1, 1))  # gcd(i-j, m) != 1
    with pytest.raises(ParameterError):
        build_function(ZhouPott(4, 1, 2, 0))  # alpha = 0
    with pytest.raises(ParameterError):
        build_function(Butterfly(4, 1, 1))  # m even
    with pytest.raises(ParameterError):
        build_function(Butterfly(3, 0, 1))
    with pytest.raises(ParameterError):
        validate(Taniguchi(3, 1, 1, 1), field(4))  # degree mismatch


# ----------------------------------------------------------------------
# published APN tests vs brute-force uniformity
# ----------------------------------------------------------------------

def test_taniguchi_root_scan_examples():
    assert not taniguchi_is_apn(3, 1, 0, 1)  # x = 1 is a root of x^3 + 1
    assert not taniguchi_is_apn(3, 1, 1, 0)  # x = 0 is a root when beta = 0
    F = field(3)
    hits = [(a, b) for a in F.nonzero_elements() for b in F.nonzero_elements()
            if taniguchi_is_apn(3, 1, a, b)]
    assert hits  # scans all 64 pairs; at least one is root-free
    a, b = hits[0]
    assert differential_spectrum(build_function(Taniguchi(3, 1, a, b))).uniformity == 2


@pytest.mark.parametrize("m", [2, 3])
def test_taniguchi_predicate_equals_uniformity(m):
    F = field(m)
    ks = [k for k in range(1, m) if __import__("math").gcd(k, m) == 1] or [1]
    for k in ks:
        for a in F.elements():
            for b in F.nonzero_elements():
                brute = differential_spectrum(
                    build_function(Taniguchi(m, k, a, b))).is_apn
                assert taniguchi_is_apn(m, k, a, b) == brute


def test_carlet11_root_scan_examples():
    assert not carlet11_is_apn(3, 0, 1, 1, 1, 0, 0)  # x = 1 root of x^3 + 1
    F = field(3)
    found = None
    for u in F.elements():
        for v in F.elements():
            if carlet11_is_apn(3, 0, 1, 1, 1, u, v):
                found = (u, v)
                break
        if found:
            break
    assert found is not None
    u, v = found
    fn = build_function(Carlet11(3, 0, 1, 1, 1, u, v))
    assert differential_spectrum(fn).uniformity == 2


def test_carlet11_degenerate_triple_detection():
    F = field(3)
    assert carlet11_degenerate_triple(3, 0, 1, 1, 1, 1, 1) == 1
    assert carlet11_degenerate_triple(3, 0, 1, 1, 1, 0, 1) is None  # a = 0
    # build a matching triple, then break one coordinate
    i, j, t = 0, 1, 0x3
    for a in F.nonzero_elements():
        apow = F.frobenius(a, j - i)
        u = F.mul(a, t)
        v = F.mul(apow, t)
        s = F.mul(F.mul(apow, a), t)
        assert carlet11_degenerate_triple(3, i, j, s, t, u, v) == a
        assert carlet11_degenerate_triple(3, i, j, s, t, u, v ^ 1) is None
        # degenerate triples are never APN: the scan finds the known root
        assert not carlet11_is_apn(3, i, j, s, t, u, v)
        root = F.frobenius(F.inv(a), -i)  # root^(2^i) = a^(-1)
        g = (F.mul(s, F.mul(F.frobenius(root, i), F.frobenius(root, j)))
             ^ F.mul(u, F.frobenius(root, i))
             ^ F.mul(v, F.frobenius(root, j)) ^ t)
        assert g == 0
    with pytest.raises(ParameterError):
        carlet11_degenerate_triple(3, 0, 1, 1, 0, 1, 1)  # t = 0


def test_zhoupott_predicate_examples():
    F4 = field(4)
    noncube = next(x for x in F4.nonzero_elements() if not F4.is_cube(x))
    assert zhoupott_apn_predicate(4, 1, 2, noncube)
    assert not zhoupott_apn_predicate(4, 1, 2, 1)  # 1 is a cube
    assert not zhoupott_apn_predicate(4, 1, 1, noncube)  # odd j
    with pytest.raises(ParameterError):
        zhoupott_apn_predicate(3, 1, 2, 1)  # odd m
    with pytest.raises(ParameterError):
        zhoupott_apn_predicate(4, 1, 2, 0)


def test_zhoupott_predicate_equals_uniformity_m4_j2():
    F = field(4)
    for alpha in F.nonzero_elements():
        brute = differential_spectrum(
            build_function(ZhouPott(4, 1, 2, alpha))).is_apn
        assert zhoupott_apn_predicate(4, 1, 2, alpha) == brute


# ----------------------------------------------------------------------
# derivative-kernel criterion
# ----------------------------------------------------------------------

def test_derivative_kernel_map_matches_closed_form():
    # for the Taniguchi embedding the composed map must equal
    # a^(2^(3k)+2^(2k)) Y^(2^(2k)) + alpha a^(2^(2k)) b^(2^k) Y^(2^k)
    #   + beta b^(2^k+1) Y
    m, k, alpha, beta = 3, 1, 0x3, 0x5
    F = field(m)
    gen = taniguchi_as_general(Taniguchi(m, k, alpha, beta))
    for a in F.elements():
        for b in F.elements():
            if a == 0 and b == 0:
                continue
            tmap = gf2_span(derivative_kernel_map(gen, a, b))
            for y in F.elements():
                expect = (F.mul(F.mul(F.frobenius(a, 3 * k), F.frobenius(a, 2 * k)),
                                F.frobenius(y, 2 * k))
                          ^ F.mul(F.mul(alpha, F.mul(F.frobenius(a, 2 * k),
                                                     F.frobenius(b, k))),
                                  F.frobenius(y, k))
                          ^ F.mul(F.mul(beta, F.mul(F.frobenius(b, k), b)), y))
                assert tmap[y] == expect


def test_derivative_kernel_map_axis_directions():
    gen = taniguchi_as_general(Taniguchi(3, 1, 0x3, 0x5))
    F = field(3)
    a = 0x4
    columns = derivative_kernel_map(gen, a, 0)
    # with b = 0 only the P-composition survives
    scale = F.mul(F.frobenius(a, 1), a)
    assert columns.tolist() == [gen.p.evaluate(F, F.mul(scale, 1 << t))
                                for t in range(3)]
    assert gf2_rank_batch(columns) == 3
    with pytest.raises(ParameterError):
        derivative_kernel_map(gen, 0, 0)
    with pytest.raises(ParameterError):
        derivative_kernel_map(gen, np.array([1, 0, 2]), np.array([0, 0, 5]))


@pytest.mark.parametrize("params", [
    taniguchi_as_general(Taniguchi(3, 2, 0x6, 0x3)),
    zhoupott_as_general(ZhouPott(4, 3, 2, 0x7)),
    CarletGeneral(4, 1, LinearizedMap((0x3, 0, 0x7, 0)),
                  LinearizedMap((0, 0x5, 0, 0)),
                  LinearizedMap((0x9, 0, 0, 0x2)),
                  LinearizedMap((0, 0, 0xb, 0))),
])
def test_derivative_kernel_map_batch_equals_scalar_calls(params):
    F = field(params.m)
    q = F.order
    d = np.arange(1, q * q)
    batch = derivative_kernel_map(params, d >> F.m, d & (q - 1))
    assert batch.shape == (q * q - 1, F.m)
    for i in d:
        assert batch[i - 1].tolist() == derivative_kernel_map(
            params, int(i >> F.m), int(i & (q - 1))).tolist()


def test_taniguchi_kernels_trivial_when_apn():
    m, k = 3, 1
    F = field(m)
    apn_pair = next((a, b) for a in F.nonzero_elements()
                    for b in F.nonzero_elements()
                    if taniguchi_is_apn(m, k, a, b))
    gen = taniguchi_as_general(Taniguchi(m, k, *apn_pair))
    for a in F.elements():
        for b in F.elements():
            if (a, b) != (0, 0):
                assert gf2_kernel_basis(derivative_kernel_map(gen, a, b)) == []


@pytest.mark.parametrize("m,k", [(3, 1), (3, 2)])
def test_criterion_agrees_with_uniformity_taniguchi(m, k):
    F = field(m)
    for a in F.elements():
        for b in F.nonzero_elements():
            p = Taniguchi(m, k, a, b)
            crit = carlet_general_is_apn(taniguchi_as_general(p))
            brute = differential_spectrum(build_function(p)).is_apn
            assert crit == brute == taniguchi_is_apn(m, k, a, b)


def test_criterion_agrees_with_uniformity_zhoupott_m2():
    F = field(2)
    p = ZhouPott(2, 1, 2, W)
    assert carlet_general_is_apn(zhoupott_as_general(p))
    assert differential_spectrum(build_function(p)).uniformity == 2
    # an odd j is APN at m = 2 although some derivative-kernel maps are
    # singular: their kernels miss the obstruction set {0, 1}
    p = ZhouPott(2, 1, 1, W)
    d = np.arange(1, 16)
    columns = derivative_kernel_map(zhoupott_as_general(p), d >> 2, d & 3)
    assert gf2_rank_batch(columns).min() == 1
    assert carlet_general_is_apn(zhoupott_as_general(p))
    assert differential_spectrum(build_function(p)).is_apn


def test_criterion_visits_every_direction_once(monkeypatch):
    from apnspectra import families

    visited = []

    def recording(params, a, b, f=None):
        visited.extend(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
        return derivative_kernel_map(params, a, b, f)

    monkeypatch.setattr(families, "derivative_kernel_map", recording)
    m = 6
    q = 1 << m
    apn = next(Taniguchi(m, 1, a, b) for a in range(q) for b in range(1, q)
               if taniguchi_is_apn(m, 1, a, b))
    assert carlet_general_is_apn(taniguchi_as_general(apn))
    assert sorted(visited) == [(a, b) for a in range(q) for b in range(q)
                               if (a, b) != (0, 0)]


def _compose(F, outer, inner):
    """The linearized map outer(inner(x))."""
    coeffs = [0] * F.m
    for e, a in enumerate(outer.coeffs):
        for d, c in enumerate(inner.coeffs):
            if a and c:
                coeffs[(d + e) % F.m] ^= F.mul(a, F.frobenius(c, e))
    return LinearizedMap(tuple(coeffs))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_criterion_agrees_with_uniformity_on_multi_term_maps(m):
    # A random linearized map applied after a random Carlet 2011 embedding
    # gives P, Q, R and S with several terms each; (XY, A(G)) is affine
    # equivalent to (XY, G) when A is invertible, so both verdicts occur.
    F = field(m)
    q = F.order
    rng = random.Random(f"multi-term:{m}")
    verdicts = set()
    multi_term_apn = 0
    for _ in range(40):
        i = rng.randrange(m)
        j = rng.choice([j for j in range(m) if math.gcd(j - i, m) == 1])
        base = carlet11_as_general(Carlet11(
            m, i, j, rng.randrange(1, q), rng.randrange(1, q),
            rng.randrange(q), rng.randrange(q)))
        outer = LinearizedMap(tuple(rng.randrange(q) for _ in range(m)))
        maps = [_compose(F, outer, g)
                for g in (base.p, base.q, base.r, base.s)]
        p = CarletGeneral(m, base.k, *maps)
        crit = carlet_general_is_apn(p)
        assert crit == differential_spectrum(build_function(p)).is_apn, p
        verdicts.add(crit)
        multi_term_apn += crit and any(
            sum(1 for c in g.coeffs if c) > 1 for g in maps)
    assert verdicts == {True, False}
    # the APN draws at m = 2 all have monomial maps
    assert multi_term_apn or m == 2


def test_criterion_on_taniguchi_pair_at_m8():
    # the APN and three-root draws of the m = 8 spectrum test
    apn = Taniguchi(8, 1, 0x9f, 0x46)
    three_roots = Taniguchi(8, 1, 0xd6, 0x39)
    assert carlet_general_is_apn(taniguchi_as_general(apn))
    assert taniguchi_is_apn(8, 1, 0x9f, 0x46)
    assert not carlet_general_is_apn(taniguchi_as_general(three_roots))


def test_zhoupott_criterion_equals_simple_predicate_m6():
    # Zhou-Pott necessity: the exact criterion must agree with the j/cube
    # predicate.  The Hasse-Weil argument needs 2^(m/2) > 2(2^k - 1), which
    # excludes k = 5 at m = 6, so each step is reported on its own line.
    m = 6
    counts = {}
    for p in zhoupott_grid(m):
        crit = carlet_general_is_apn(zhoupott_as_general(p))
        assert crit == zhoupott_apn_predicate(m, p.k, p.j, p.alpha), p
        total, apn = counts.get(p.k, (0, 0))
        counts[p.k] = (total + 1, apn + crit)
    for k, (total, apn) in sorted(counts.items()):
        inside = (1 << (m // 2)) > 2 * ((1 << k) - 1)
        print(f"zhoupott m=6 k={k} ({'inside' if inside else 'outside'} "
              f"2^(m/2) > 2(2^k-1)): {total} instances, {apn} APN, "
              f"0 mismatches")
    assert counts == {1: (252, 84), 5: (252, 84)}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_obstruction_mask_equals_defining_set(m):
    F = field(m)
    for k in range(1, m):
        if math.gcd(k, m) != 1:
            continue
        expect = np.zeros(F.order, dtype=bool)
        for u in F.elements():
            uk1 = F.mul(F.frobenius(u, k), u)
            for t in F.elements():
                expect[F.mul(uk1, F.frobenius(t, k) ^ t)] = True
        assert np.array_equal(kernel_obstruction_set(F, k), expect)


def test_obstruction_mask_is_whole_field_from_m3():
    # so the criterion needs no odd/even split: for m >= 3 a nonzero
    # kernel element always lies in the obstruction set
    for m in range(3, 11):
        F = field(m)
        for k in range(1, m):
            if math.gcd(k, m) == 1:
                assert kernel_obstruction_set(F, k).all()
    mask = kernel_obstruction_set(field(2), 1)
    assert np.flatnonzero(mask).tolist() == [0, 1]
    with pytest.raises(ValueError):
        mask[2] = True


def test_obstruction_set_contains_cubes_for_even_m():
    # u^(2^k+1) ranges over the cubes when m is even and k is odd
    F = field(4)
    sigma = kernel_obstruction_set(F, 1)
    cubes = [F.pow(x, 3) for x in F.elements()]
    assert sigma[cubes].all()


# ----------------------------------------------------------------------
# butterfly branch test
# ----------------------------------------------------------------------

def test_butterfly_degenerate_identity():
    F = field(3)
    for alpha in F.nonzero_elements():
        w = alpha ^ 1
        beta = F.mul(F.sqr(w), w)
        if beta:
            assert butterfly_degenerate(3, alpha, beta)
        for other in F.nonzero_elements():
            if other != beta:
                assert not butterfly_degenerate(3, alpha, other)
    # alpha = 1 has (1+alpha)^3 = 0, excluded by beta != 0
    assert all(not butterfly_degenerate(3, 1, b) for b in F.nonzero_elements())
    with pytest.raises(ParameterError):
        butterfly_degenerate(4, 1, 1)


def test_butterfly_known_apn_instance():
    F = field(3)
    hit = False
    for alpha in F.nonzero_elements():
        if F.trace(alpha) != 0:
            continue
        beta = F.pow(alpha, 3) ^ alpha
        assert beta != 0
        assert not butterfly_degenerate(3, alpha, beta)
        fn = build_function(Butterfly(3, alpha, beta))
        assert differential_spectrum(fn).uniformity == 2
        hit = True
    assert hit
