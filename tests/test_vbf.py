"""Walsh transform, component, and differential-spectrum tests.

The frozen expected values come from the quartic-time defining sum
(walsh_transform_direct) and from hand enumeration on 4- and 16-point
tables; the fast butterfly is always checked against those, never against
itself.  The rank path of component_spectrum_summary is checked against
the fast butterfly (walsh_spectrum_summary) and against the pair kernels;
the rank path of differential_spectrum against the bincount
(difference_table_spectrum).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apnspectra import vbf
from apnspectra.errors import MemoryCapError, ParameterError
from apnspectra.families import (
    CarletGeneral,
    LinearizedMap,
    Taniguchi,
    build_function,
    carlet_general_is_apn,
    taniguchi_as_general,
    taniguchi_is_apn,
)
from apnspectra.gf2m import field
from apnspectra.lincurves import derive_pair, kernel_dimension
from apnspectra.vbf import (
    VectorialFunction,
    component_spectrum_summary,
    component_truth_table,
    difference_table_spectrum,
    differential_spectrum,
    fwht,
    is_quadratic,
    linear_space_dimensions,
    linear_structures,
    plateau_level,
    spectrum_report,
    trace_pairing_permutation,
    walsh_spectrum_summary,
    walsh_transform,
    walsh_transform_direct,
)
from apnspectra.verifier import (
    DEFAULT_SEED,
    _instances_for_triangle,
    butterfly_grid,
    carlet11_sampled_grid,
    taniguchi_grid,
    zhoupott_grid,
)


def random_function(m, seed):
    rng = np.random.default_rng(seed)
    F = field(m)
    table = rng.integers(0, F.order * F.order, size=F.order * F.order,
                         dtype=np.int64)
    return VectorialFunction(F, table)


def linear_identity(m):
    F = field(m)
    return VectorialFunction(F, np.arange(F.order * F.order, dtype=np.int64))


# ----------------------------------------------------------------------
# fast transform vs defining sum
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_fwht_equals_direct_sum(n):
    rng = np.random.default_rng(1000 + n)
    bits = rng.integers(0, 2, size=1 << n)
    assert np.array_equal(fwht(1 - 2 * bits), walsh_transform_direct(bits))


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht([1, -1, 1])
    with pytest.raises(ValueError):
        walsh_transform([0, 1, 1])


def test_all_zero_table():
    spec = walsh_transform(np.zeros(16, dtype=np.uint8))
    assert spec.values[0] == 16
    assert np.all(spec.values[1:] == 0)
    assert spec.plateau_level == 4  # single spike = n-plateaued


def test_quadratic_bent_form():
    # f = x1 x2 + x3 x4 on 4 bits (bits 0,1 and 2,3 of the index)
    idx = np.arange(16)
    bits = ((idx & 1) * ((idx >> 1) & 1)) ^ (((idx >> 2) & 1) * ((idx >> 3) & 1))
    spec = walsh_transform(bits)
    assert np.all(np.abs(spec.values) == 4)
    assert spec.plateau_level == 0
    assert spec.distinct_abs == (4,)


def test_parseval_on_random_table():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=64)
    spec = walsh_transform(bits)
    assert int(np.sum(spec.values.astype(object) ** 2)) == 2 ** 12


def test_plateau_level_classification():
    n = 4
    bent = walsh_transform(((np.arange(16) & 1) * ((np.arange(16) >> 1) & 1))
                           ^ (((np.arange(16) >> 2) & 1) * ((np.arange(16) >> 3) & 1)))
    assert plateau_level(bent) == 0
    # linear function trace: f(x) = bit 0 of x
    lin = walsh_transform((np.arange(16) & 1).astype(np.uint8))
    assert plateau_level(lin) == n
    assert lin.distinct_abs == (0, 16)
    # 2-plateaued: quadratic in 2 of 4 variables
    semi = walsh_transform(((np.arange(16) & 1) * ((np.arange(16) >> 1) & 1)))
    assert plateau_level(semi) == 2
    assert semi.distinct_abs == (0, 8)
    # a non-plateaued table
    bumpy = np.zeros(16, dtype=np.uint8)
    bumpy[0] = 1
    assert plateau_level(walsh_transform(bumpy)) is None


# ----------------------------------------------------------------------
# components and the trace pairing
# ----------------------------------------------------------------------

def test_component_zero_second_coordinate():
    m = 2
    F = field(m)
    table = np.arange(F.order * F.order, dtype=np.int64) & (F.order - 1)
    fn = VectorialFunction(F, table)  # F2 == 0
    for mu in F.nonzero_elements():
        assert not component_truth_table(fn, (0, mu)).any()


def test_component_of_linear_projection_is_trace():
    m = 3
    F = field(m)
    idx = np.arange(F.order * F.order, dtype=np.int64)
    fn = VectorialFunction(F, idx & (F.order - 1))  # F(x, y) = (x, 0)
    for lam in F.nonzero_elements():
        tab = component_truth_table(fn, (lam, 0))
        expect = np.array([F.trace(F.mul(lam, int(i) & (F.order - 1)))
                           for i in idx], dtype=np.uint8)
        assert np.array_equal(tab, expect)


def test_zero_selector_rejected():
    with pytest.raises(ParameterError):
        component_truth_table(linear_identity(2), (0, 0))


def test_component_enumeration_order_and_summary():
    fn = random_function(2, seed=5)
    levels, peaks = component_spectrum_summary(fn)
    assert levels.shape == (15,)
    for c in range(1, 16):
        tab = component_truth_table(fn, (c & 3, c >> 2))
        spec = walsh_transform(tab)
        want = spec.plateau_level if spec.plateau_level is not None else -1
        assert levels[c - 1] == want
        assert peaks[c - 1] == int(np.abs(spec.values).max())


@pytest.mark.parametrize("m", [2, 3])
def test_trace_pairing_matches_bitwise_after_substitution(m):
    # the defining sum under the trace pairing equals the fast bitwise
    # transform composed with the Gram substitution, at every index
    fn = random_function(m, seed=m)
    perm = trace_pairing_permutation(fn.field)
    for c in (1, 2, (1 << (2 * m)) - 1):
        tab = component_truth_table(fn, (c & (fn.field.order - 1), c >> m))
        fast = fwht(1 - 2 * tab.astype(np.int64))
        direct = walsh_transform_direct(tab, pairing="trace", field=fn.field)
        assert np.array_equal(direct, fast[perm])
        # and the spectra agree as multisets
        assert sorted(direct.tolist()) == sorted(fast.tolist())


# ----------------------------------------------------------------------
# rank path: certificate, agreement with the transform, fallback
# ----------------------------------------------------------------------

def assert_rank_path_matches_transform(fn):
    assert is_quadratic(fn)
    levels, peaks = component_spectrum_summary(fn)
    want_levels, want_peaks = walsh_spectrum_summary(fn)
    assert levels.dtype == peaks.dtype == np.int64
    assert np.array_equal(levels, want_levels)
    assert np.array_equal(peaks, want_peaks)


@pytest.mark.parametrize("m", [2, 3])
def test_rank_path_matches_transform_on_every_triangle_instance(m):
    for p in _instances_for_triangle(m, DEFAULT_SEED):
        assert_rank_path_matches_transform(build_function(p))


def family_samples():
    """Fixed-seed instances of each family at m = 4-6, two CarletGeneral."""
    rng = random.Random(20261018)
    out = []
    for m in (4, 5, 6):
        grids = [taniguchi_grid(m), carlet11_sampled_grid(m), zhoupott_grid(m)]
        if m % 2:
            grids.append(butterfly_grid(m))
        out += [rng.choice(g) for g in grids]
    out.append(CarletGeneral(4, 1, LinearizedMap((0x3, 0, 0x7, 0)),
                             LinearizedMap((0, 0x5, 0, 0)),
                             LinearizedMap((0x9, 0, 0, 0x2)),
                             LinearizedMap((0, 0, 0xb, 0))))
    out.append(CarletGeneral(5, 2, LinearizedMap((0x1, 0x13, 0, 0, 0)),
                             LinearizedMap((0, 0, 0x1e, 0, 0x7)),
                             LinearizedMap((0, 0x5, 0, 0, 0)),
                             LinearizedMap((0x11, 0, 0, 0x9, 0))))
    return out


@pytest.mark.parametrize("params", family_samples(), ids=repr)
def test_rank_path_matches_transform_on_family_samples(params):
    assert_rank_path_matches_transform(build_function(params))


def test_affine_tables_are_certified():
    fn = linear_identity(3)
    assert is_quadratic(fn)
    levels, peaks = component_spectrum_summary(fn)
    assert np.all(levels == 6) and np.all(peaks == 64)


def test_affine_terms_leave_the_levels_alone():
    # F(x) + x + c with F(0) != 0 afterwards: still quadratic, same spectrum
    fn = build_function(Taniguchi(3, 1, 3, 5))
    idx = np.arange(fn.table.shape[0], dtype=np.int64)
    shifted = VectorialFunction(fn.field, fn.table ^ idx ^ 0x2b)
    assert_rank_path_matches_transform(shifted)
    for got, want in zip(component_spectrum_summary(shifted),
                         component_spectrum_summary(fn)):
        assert np.array_equal(got, want)


def test_single_bit_flips_fail_the_certificate_and_fall_back():
    small = build_function(Taniguchi(2, 1, 1, 2))
    larger = build_function(Taniguchi(3, 1, 3, 5))
    flips = [(small, i, b) for i in range(16) for b in range(4)]
    flips += [(larger, i, b) for i, b in random.Random(3).sample(
        [(i, b) for i in range(64) for b in range(6)], 24)]
    non_plateaued = rank_path_wrong = 0
    for fn, i, b in flips:
        flipped = fn.flip_output_bit(i, b)
        assert not is_quadratic(flipped)
        levels, peaks = component_spectrum_summary(flipped)
        want_levels, want_peaks = walsh_spectrum_summary(flipped)
        assert np.array_equal(levels, want_levels)
        assert np.array_equal(peaks, want_peaks)
        non_plateaued += int(np.count_nonzero(levels == -1))
        want = difference_table_spectrum(flipped)
        assert_same_differential(differential_spectrum(flipped), want)
        rank_path_wrong += vbf._rank_differential_spectrum(flipped) != want
    # the rank path never yields -1, so the transform produced these
    assert non_plateaued > 0
    # and the rank path would have miscounted these tables
    assert rank_path_wrong > 0


def test_odd_rank_is_reported_as_corruption(monkeypatch):
    fn = build_function(Taniguchi(3, 1, 3, 5))
    rank = vbf.gf2_rank_batch
    monkeypatch.setattr(vbf, "gf2_rank_batch", lambda rows: rank(rows) | 1)
    with pytest.raises(AssertionError, match="odd rank"):
        component_spectrum_summary(fn)


def taniguchi_root_count(F, p):
    """Roots of x^(2^k+1) + alpha x + beta in GF(2^m), by a direct scan."""
    return sum(1 for x in F.elements()
               if F.mul(F.frobenius(x, p.k), x) ^ F.mul(p.alpha, x) ^ p.beta
               == 0)


def test_taniguchi_claims_at_m8():
    # the first fixed-seed draws holding an APN and a three-root instance
    m = 8
    F = field(m)
    q = F.order
    rng = random.Random(20261018)
    apn = three_roots = None
    while apn is None or three_roots is None:
        p = Taniguchi(m, rng.choice((1, 3, 5, 7)), rng.randrange(1, q),
                      rng.randrange(1, q))
        if apn is None and taniguchi_is_apn(m, p.k, p.alpha, p.beta):
            apn = p
        elif three_roots is None and taniguchi_root_count(F, p) == 3:
            three_roots = p
    selectors = np.arange(1, q * q)
    reports = {}
    for p in (apn, three_roots):
        fn = build_function(p)
        levels, _ = component_spectrum_summary(fn)
        pair = derive_pair(p, selectors & (q - 1), selectors >> m)
        assert np.array_equal(levels, kernel_dimension(pair.A, pair.B))
        reports[p] = spectrum_report(fn)
    n = 2 * m
    classical = reports[apn]
    assert classical.classical
    assert classical.bent_count == 2 * ((1 << n) - 1) // 3 == 43690
    assert classical.nonlinearity == (1 << (n - 1)) - (1 << (n // 2)) == 32512
    assert max(reports[three_roots].counts) == 4


# ----------------------------------------------------------------------
# spectrum report and differential spectrum
# ----------------------------------------------------------------------

def test_linear_map_report():
    fn = linear_identity(2)
    rep = spectrum_report(fn)
    assert rep.nonlinearity == 0
    assert rep.counts == {4: 15}  # every component is affine
    assert not rep.classical


def test_report_counts_total():
    fn = random_function(2, seed=9)
    rep = spectrum_report(fn)
    assert sum(rep.counts.values()) + rep.non_plateaued == 15
    assert rep.bent_count == rep.counts.get(0, 0)


def test_differential_spectrum_of_linear_map():
    fn = linear_identity(2)
    d = differential_spectrum(fn)
    assert d.uniformity == 16  # every derivative is constant
    assert not d.is_apn
    assert d.histogram[16] == 15  # one full bin per direction
    assert d.histogram[0] == 15 * 15


def assert_same_differential(got, want):
    assert got.uniformity == want.uniformity
    assert list(got.histogram.items()) == list(want.histogram.items())


def assert_rank_differential_matches_table(fn):
    assert is_quadratic(fn)
    got = differential_spectrum(fn)
    assert_same_differential(got, difference_table_spectrum(fn))
    # each of the 2^n - 1 rows has 2^n entries summing to 2^n
    size = 1 << fn.n
    assert sum(got.histogram.values()) == (size - 1) * size
    assert sum(k * v for k, v in got.histogram.items()) == (size - 1) * size


@pytest.mark.parametrize("m", [2, 3])
def test_rank_differential_matches_table_on_every_triangle_instance(m):
    for p in _instances_for_triangle(m, DEFAULT_SEED):
        assert_rank_differential_matches_table(build_function(p))


@pytest.mark.parametrize("params", family_samples(), ids=repr)
def test_rank_differential_matches_table_on_family_samples(params):
    # at m = 6 the 4095 directions end in a partial block
    assert_rank_differential_matches_table(build_function(params))


def test_rank_differential_matches_table_on_affine_tables():
    assert_rank_differential_matches_table(linear_identity(3))
    # F(x) + x + c with F(0) != 0 afterwards
    fn = build_function(Taniguchi(3, 1, 3, 5))
    idx = np.arange(fn.table.shape[0], dtype=np.int64)
    shifted = VectorialFunction(fn.field, fn.table ^ idx ^ 0x2b)
    assert_rank_differential_matches_table(shifted)
    assert_same_differential(differential_spectrum(shifted),
                             differential_spectrum(fn))


def test_certified_tables_take_the_rank_path(monkeypatch):
    fn = build_function(Taniguchi(3, 1, 3, 5))
    want = differential_spectrum(fn)

    def bincount_called(fn):
        raise RuntimeError("bincount")

    monkeypatch.setattr(vbf, "difference_table_spectrum", bincount_called)
    assert_same_differential(differential_spectrum(fn), want)
    with pytest.raises(RuntimeError, match="bincount"):
        differential_spectrum(fn.flip_output_bit(5, 0))


def test_rank_differential_of_taniguchi_pair_at_m8():
    # the APN and three-root draws of test_taniguchi_claims_at_m8; the
    # bincount would take about 42 s each
    assert differential_spectrum(
        build_function(Taniguchi(8, 1, 0x9f, 0x46))).uniformity == 2
    assert differential_spectrum(
        build_function(Taniguchi(8, 1, 0xd6, 0x39))).uniformity == 8


@st.composite
def carlet_general_instances(draw):
    """Arbitrary linearized maps, or a Taniguchi embedding (often APN)."""
    m = draw(st.integers(2, 4))
    q = 1 << m
    k = draw(st.sampled_from([k for k in range(1, m) if math.gcd(k, m) == 1]))
    if draw(st.booleans()):
        alpha = draw(st.integers(0, q - 1))
        beta = draw(st.integers(1, q - 1))
        return taniguchi_as_general(Taniguchi(m, k, alpha, beta))
    coeffs = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    maps = [LinearizedMap(tuple(draw(coeffs))) for _ in range(4)]
    return CarletGeneral(m, k, *maps)


@settings(derandomize=True, deadline=None)
@given(carlet_general_instances())
def test_rank_differential_and_criterion_agree_with_table(params):
    fn = build_function(params)
    want = difference_table_spectrum(fn)
    assert_same_differential(vbf._rank_differential_spectrum(fn), want)
    assert carlet_general_is_apn(params) == (want.uniformity == 2)


def test_differential_counts_always_even():
    fn = random_function(2, seed=11)
    d = differential_spectrum(fn)
    assert all(k % 2 == 0 for k in d.histogram if d.histogram[k])


# ----------------------------------------------------------------------
# linear structures
# ----------------------------------------------------------------------

def test_linear_structures_of_constant_and_linear_tables():
    assert linear_structures(np.zeros(16, dtype=np.uint8)) == list(range(16))
    lin = (np.arange(16) & 1).astype(np.uint8)
    assert linear_structures(lin) == list(range(16))  # derivative constant
    idx = np.arange(16)
    bent = ((idx & 1) * ((idx >> 1) & 1)) ^ (((idx >> 2) & 1) * ((idx >> 3) & 1))
    assert linear_structures(bent) == [0]


@pytest.mark.parametrize("m,seed", [(2, 3), (2, 4), (3, 5)])
def test_packed_linear_space_matches_naive(m, seed):
    fn = random_function(m, seed)
    dims = linear_space_dimensions(fn)
    q = fn.field.order
    for c in range(1, q * q):
        tab = component_truth_table(fn, (c & (q - 1), c >> m))
        structures = linear_structures(tab)
        assert len(structures) == 1 << dims[c - 1]


def test_plateau_equals_linear_space_dim_for_quadratic():
    # a handmade quadratic component: f(x, y) = trace(x * y)
    m = 3
    F = field(m)
    idx = np.arange(F.order * F.order)
    tab = np.array([F.trace(F.mul(int(i) & (F.order - 1), int(i) >> m))
                    for i in idx], dtype=np.uint8)
    spec = walsh_transform(tab)
    assert spec.plateau_level == len(linear_structures(tab)).bit_length() - 1


# ----------------------------------------------------------------------
# table plumbing
# ----------------------------------------------------------------------

def test_output_pair_and_flip():
    fn = linear_identity(2)
    assert fn.output_pair(0x2, 0x3) == (0x2, 0x3)
    flipped = fn.flip_output_bit(5, 0)
    assert flipped.table[5] == fn.table[5] ^ 1
    assert fn.table[5] == 5  # original untouched


def test_memory_cap(monkeypatch):
    monkeypatch.setenv("APNSPECTRA_MAX_M", "2")
    with pytest.raises(MemoryCapError):
        linear_identity(3)
    monkeypatch.setenv("APNSPECTRA_MAX_M", "3")
    linear_identity(3)
    monkeypatch.setenv("APNSPECTRA_MAX_M", "bogus")
    with pytest.raises(MemoryCapError):
        linear_identity(3)
