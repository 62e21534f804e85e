"""Tiny GF(2) linear algebra on int-encoded bit vectors."""

from __future__ import annotations


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
