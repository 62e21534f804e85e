"""GF(2) kernel basis and span against brute-force subset enumeration;
the batched rank against the kernel basis."""

import random

import numpy as np
import pytest

from apnspectra.linalg import gf2_kernel_basis, gf2_rank_batch, gf2_span

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


def rank_batches():
    """Fixed-seed batches of r x r matrices, r up to 26 (n = 2m, m = 13):
    dense, low-rank, alternating, zero, repeated-row and full-rank ones."""
    rng = np.random.default_rng(20261018)
    batches = []
    for r in (1, 2, 3, 4, 6, 9, 12, 16, 21, 26):
        dense = rng.integers(0, 1 << r, size=(12, r))
        # rows drawn from the span of k random rows have rank at most k
        k = rng.integers(0, r + 1, size=12)
        gens = rng.integers(0, 1 << r, size=(12, r))
        used = (np.arange(r) < k[:, None])[:, None, :]
        combos = rng.integers(0, 2, size=(12, r, r)) * used
        low = np.bitwise_xor.reduce(combos * gens[:, None, :], axis=2)
        upper = np.triu(rng.integers(0, 2, size=(12, r, r)), 1)
        alternating = (upper ^ upper.transpose(0, 2, 1)) @ (1 << np.arange(r))
        special = np.array([np.zeros(r, dtype=np.int64),  # zero matrix
                            np.full(r, (1 << r) - 1),  # one repeated row
                            # the identity with every odd row zeroed
                            np.where(np.arange(r) % 2, 0, 1 << np.arange(r)),
                            1 << np.arange(r),  # identity: full rank
                            (2 << np.arange(r)) - 1])  # triangular: full rank
        batches.append(np.concatenate([dense, low, alternating, special]))
    return batches


BATCHES = rank_batches()


def kernel_rank(rows):
    # the rank of the rows is their number less the dimension of the
    # kernel of the map sending e_j to row j
    return len(rows) - len(gf2_kernel_basis(rows))


@pytest.mark.parametrize("rows", BATCHES, ids=lambda b: f"r{b.shape[1]}")
def test_rank_batch_matches_kernel_basis(rows):
    ranks = gf2_rank_batch(rows)
    assert ranks.dtype == np.int64 and ranks.shape == (len(rows),)
    assert ranks.tolist() == [kernel_rank(m) for m in rows]
    r = rows.shape[1]
    assert ranks[-5:].tolist() == [0, 1, (r + 1) // 2, r, r]
    # leading batch axes are kept
    assert np.array_equal(gf2_rank_batch(rows[:36].reshape(3, 12, r)),
                          ranks[:36].reshape(3, 12))


def test_rank_batch_of_small_and_empty_batches():
    assert gf2_rank_batch([[0]]).tolist() == [0]
    assert gf2_rank_batch([[1]]).tolist() == [1]
    empty = gf2_rank_batch(np.zeros((0, 26), dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert gf2_rank_batch(np.zeros((4, 0), dtype=np.int64)).tolist() == [0] * 4


def test_rank_batch_leaves_its_input_alone():
    rows = BATCHES[-1].copy()
    gf2_rank_batch(rows)
    assert np.array_equal(rows, BATCHES[-1])


@pytest.mark.parametrize("rows", BATCHES[::3], ids=lambda b: f"r{b.shape[1]}")
def test_rank_batch_numpy_int_inputs(rows):
    ranks = gf2_rank_batch(rows)
    assert np.array_equal(gf2_rank_batch(rows.tolist()), ranks)
    assert np.array_equal(
        gf2_rank_batch([[np.int64(v) for v in row] for row in rows]), ranks)
    assert np.array_equal(gf2_rank_batch(rows.astype(np.uint32)), ranks)
    if rows.shape[1] <= 16:
        assert np.array_equal(gf2_rank_batch(rows.astype(np.uint16)), ranks)
