"""GF(2) kernel basis and span against brute-force subset enumeration."""

import random

import numpy as np
import pytest

from apnspectra.linalg import gf2_kernel_basis, gf2_span

MAX_BITS = 12


def subset_xors(vectors):
    """XOR of every subset of vectors, indexed by the subset's bit mask."""
    out = []
    for mask in range(1 << len(vectors)):
        acc = 0
        for j, v in enumerate(vectors):
            if mask >> j & 1:
                acc ^= int(v)
        out.append(acc)
    return out


def column_lists():
    """Fixed-seed column lists of 0 to 10 columns, up to 12 bits each,
    with zero, repeated and full-rank columns mixed in."""
    rng = random.Random(20261018)
    cases = [
        [],
        [0],
        [0, 0, 0],
        [5, 5],
        [1 << t for t in range(10)],  # full rank
        [0xfff, 0xfff, 0, 0x800, 0x7ff],  # last = first + fourth
    ]
    for ncols in range(11):
        for _ in range(6):
            bits = rng.randint(1, MAX_BITS)
            cols = [rng.getrandbits(bits) for _ in range(ncols)]
            if cols and rng.random() < 0.5:
                cols[rng.randrange(ncols)] = 0
            if ncols > 1 and rng.random() < 0.5:
                cols[rng.randrange(ncols)] = cols[rng.randrange(ncols)]
            cases.append(cols)
    return cases


CASES = column_lists()


@pytest.mark.parametrize("cols", CASES)
def test_kernel_basis_spans_exactly_the_zero_combinations(cols):
    basis = gf2_kernel_basis(cols)
    kernel = {mask for mask, acc in enumerate(subset_xors(cols)) if acc == 0}
    combos = subset_xors(basis)
    # independent: all 2^len(basis) combinations are distinct
    assert len(set(combos)) == 1 << len(basis)
    assert set(combos) == kernel
    assert all(type(v) is int for v in basis)


@pytest.mark.parametrize("cols", CASES)
def test_span_matches_subset_enumeration(cols):
    assert sorted(gf2_span(cols)) == sorted(subset_xors(cols))


@pytest.mark.parametrize("cols", CASES[::7])
def test_numpy_int_inputs_match_python_ints(cols):
    basis = gf2_kernel_basis(cols)
    for np_cols in (np.array(cols, dtype=np.int64),
                    [np.int64(c) for c in cols],
                    np.array(cols, dtype=np.uint16)):
        np_basis = gf2_kernel_basis(np_cols)
        assert np_basis == basis
        assert all(type(v) is int for v in np_basis)
        span = gf2_span(np_cols)
        assert span == gf2_span(cols)
        assert all(type(v) is int for v in span)
