"""Tiny GF(2) linear algebra on int-encoded bit vectors."""

from __future__ import annotations

import numpy as np


def gf2_kernel_basis(columns) -> list[int]:
    """Kernel basis of the map sending e_j to columns[j].

    Returns ints whose bit j is the e_j coordinate of a kernel basis
    vector; the kernel dimension is the length of the list.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, col in enumerate(columns):
        col = int(col)
        combo = 1 << j
        while col:
            h = col.bit_length() - 1
            if h in pivots:
                pcol, pcombo = pivots[h]
                col ^= pcol
                combo ^= pcombo
            else:
                pivots[h] = (col, combo)
                break
        if col == 0:
            kernel.append(combo)
    return kernel


def gf2_span(basis) -> list[int]:
    """All 2^len(basis) GF(2) combinations of the basis vectors."""
    out = [0]
    for b in basis:
        out += [v ^ int(b) for v in out]
    return out


def gf2_rank_batch(rows) -> np.ndarray:
    """GF(2) rank of each matrix in a batch, rows packed as int bit masks.

    ``rows`` has shape (..., r): the last axis holds the r rows of one
    matrix, bit j of a row being its column-j entry (j < 63).  Row i, once
    reduced, is a pivot when nonzero, and its lowest set bit is XORed out
    of every later row; every matrix of the batch is eliminated at once.
    Returns an int64 array of shape ``rows.shape[:-1]``.
    """
    # row index first, so that each step reads contiguous batch slices
    a = np.moveaxis(np.array(rows, dtype=np.int64), -1, 0).copy()
    rank = np.zeros(a.shape[1:], dtype=np.int64)
    for i in range(a.shape[0]):
        pivot = a[i]
        low = pivot & -pivot
        rank += pivot != 0
        later = a[i + 1:]
        later ^= np.where(later & low, pivot, 0)
    return rank
