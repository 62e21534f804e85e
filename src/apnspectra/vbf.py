"""Truth-table analysis of maps on GF(2^m) x GF(2^m).

A :class:`VectorialFunction` stores the full table of a map
F: GF(2^m)^2 -> GF(2^m)^2.  Input pairs (x, y) are packed into a 2m-bit
index with x in the low m bits and y in the high m bits; output pairs pack
the same way, so addition of inputs or outputs is a plain XOR of packed
values.

Component functions are selected by a pair (lam, mu) via the trace pairing
trace(lam * F1) + trace(mu * F2).  The Walsh transform itself runs the
standard fast butterfly, whose index pairing is the bitwise dot product;
the spectrum (and hence plateau levels, nonlinearity, bent counts) is the
same for any nondegenerate pairing, and ``trace_pairing_permutation`` gives
the exact index substitution relating the two conventions, which the test
suite verifies against a quartic-time direct evaluation.

Plateau levels of all components (``component_spectrum_summary``) take one
of two paths, chosen by the table alone.  ``is_quadratic`` certifies
deg F <= 2 from the algebraic normal form.  A certified table takes the
rank path: component c is then (n - rank M_c)-plateaued, where M_c is the
matrix of the alternating form c.B(x, y) with
B(x, y) = F(x+y) + F(x) + F(y) + F(0), and all M_c are ranked in batches by
``linalg.gf2_rank_batch``.  Any other table falls back to
``walsh_spectrum_summary``, the fast transform of every component, which
the tests also keep as the rank path's oracle.

The differential spectrum (``differential_spectrum``) forks on the same
certificate.  For a certified table each derivative
D_aF(x) = B(x, a) + F(a) + F(0) is affine, so row a of the difference
table follows from the rank of L_a = B(., a), again by
``linalg.gf2_rank_batch``.  Any other table is bincounted row by row by
``difference_table_spectrum``, the fallback and the oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import MemoryCapError, ParameterError
from .gf2m import Field
from .linalg import gf2_rank_batch

DEFAULT_MAX_M = 13
MAX_M_ENV = "APNSPECTRA_MAX_M"

_COMPONENT_CHUNK = 256  # selectors per transform chunk
_RANK_CHUNK = 4096  # selectors per batch of component matrices
_DIRECTION_BLOCK = 1024  # directions per batch of derivative maps


def max_table_m() -> int:
    """Degree cap for truth tables (override with APNSPECTRA_MAX_M)."""
    raw = os.environ.get(MAX_M_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise MemoryCapError(f"{MAX_M_ENV}={raw!r} is not an integer")
    return DEFAULT_MAX_M


@dataclass(frozen=True, eq=False)
class VectorialFunction:
    """Exhaustive table of F: GF(2^m)^2 -> GF(2^m)^2, outputs packed."""

    field: Field
    table: np.ndarray  # int64, length 2^(2m), entry = F1 | F2 << m

    def __post_init__(self):
        m = self.field.m
        if m > max_table_m():
            raise MemoryCapError(
                f"m={m} exceeds the truth-table cap {max_table_m()} "
                f"(set {MAX_M_ENV} to raise it)")
        n = 1 << (2 * m)
        if self.table.shape != (n,):
            raise ValueError(f"table must have length {n}")

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def n(self) -> int:
        """Input dimension over GF(2)."""
        return 2 * self.field.m

    def f1(self) -> np.ndarray:
        return self.table & (self.field.order - 1)

    def f2(self) -> np.ndarray:
        return self.table >> self.field.m

    def output_pair(self, x: int, y: int) -> tuple[int, int]:
        v = int(self.table[self.field.check(x) | (self.field.check(y) << self.field.m)])
        return v & (self.field.order - 1), v >> self.field.m

    def flip_output_bit(self, index: int, bit: int) -> "VectorialFunction":
        """Copy with one output bit toggled (corruption self-tests)."""
        t = self.table.copy()
        t[index] ^= 1 << bit
        return VectorialFunction(self.field, t)


# ----------------------------------------------------------------------
# Walsh transform
# ----------------------------------------------------------------------

def fwht(values) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis (int64 copy).

    out[u] = sum_x (-1)^(u.x) in[x] with the bitwise dot product on
    indices; n * 2^n integer butterflies.
    """
    a = np.array(values, dtype=np.int64)
    n = a.shape[-1]
    if n & (n - 1) or n == 0:
        raise ValueError(f"length {n} is not a power of two")
    h = 1
    while h < n:
        v = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        x = v[..., 0, :] + v[..., 1, :]
        y = v[..., 0, :] - v[..., 1, :]
        v[..., 0, :] = x
        v[..., 1, :] = y
        h *= 2
    return a


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Transform values of one Boolean function plus their classification."""

    values: np.ndarray  # int64, length 2^n
    distinct_abs: tuple[int, ...]
    plateau_level: int | None  # None = not plateaued

    @property
    def n(self) -> int:
        return int(self.values.shape[0]).bit_length() - 1

    def is_plateaued(self) -> bool:
        return self.plateau_level is not None


def _classify_distinct_abs(distinct_abs: tuple[int, ...], n: int) -> int | None:
    nonzero = [v for v in distinct_abs if v]
    if len(nonzero) != 1:
        return None  # Parseval rules out the all-zero spectrum
    peak = nonzero[0]
    if peak & (peak - 1):
        return None  # not a power of two
    return 2 * (peak.bit_length() - 1) - n


def plateau_level(spectrum: WalshSpectrum) -> int | None:
    """s with |values| in {0, 2^((n+s)/2)}, or None if not plateaued."""
    return _classify_distinct_abs(spectrum.distinct_abs, spectrum.n)


def walsh_transform(table) -> WalshSpectrum:
    """Transform a 0/1 table of length 2^n and classify its spectrum."""
    bits = np.asarray(table)
    w = fwht(1 - 2 * bits.astype(np.int64))
    n = w.shape[0].bit_length() - 1
    _check_parseval(w[None, :], n)
    distinct = tuple(int(v) for v in np.unique(np.abs(w)))
    return WalshSpectrum(w, distinct, _classify_distinct_abs(distinct, n))


def _check_parseval(w_rows: np.ndarray, n: int) -> None:
    """Every transform row must satisfy sum W^2 = 2^(2n)."""
    sums = np.einsum("ij,ij->i", w_rows, w_rows)
    if not np.all(sums == np.int64(1) << (2 * n)):
        raise AssertionError("Parseval check failed: transform is corrupt")


def walsh_transform_direct(table, pairing="bitwise", field: Field | None = None) -> np.ndarray:
    """Defining-sum Walsh transform, O(4^n); the slow reference path.

    pairing="bitwise" uses popcount(x & u) mod 2; pairing="trace" pairs the
    two m-bit coordinates with trace(x_i * u_i) and needs ``field``.
    """
    bits = np.asarray(table, dtype=np.int64)
    n = bits.shape[0].bit_length() - 1
    idx = np.arange(1 << n)
    if pairing == "bitwise":
        par = _bit_parity(idx[:, None] & idx[None, :])
    elif pairing == "trace":
        if field is None or 2 * field.m != n:
            raise ValueError("trace pairing needs the matching field")
        masks = field.trace_masks
        q = field.order
        lo = idx & (q - 1)
        hi = idx >> field.m
        p = field.parity_table
        par = (p[lo[:, None] & masks[lo][None, :]]
               ^ p[hi[:, None] & masks[hi][None, :]]).astype(np.int64)
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    signs = 1 - 2 * ((bits[None, :] + par) & 1)
    return signs.sum(axis=1, dtype=np.int64)


def trace_pairing_permutation(field: Field) -> np.ndarray:
    """Index substitution u -> d(u) with trace-paired W[u] = bitwise W[d(u)].

    d applies the trace Gram map per m-bit coordinate, an invertible
    GF(2)-linear substitution determined by the basis.
    """
    masks = field.trace_masks
    idx = np.arange(1 << (2 * field.m))
    lo = idx & (field.order - 1)
    hi = idx >> field.m
    return masks[lo] | (masks[hi] << field.m)


def _bit_parity(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


# ----------------------------------------------------------------------
# component functions
# ----------------------------------------------------------------------

def component_truth_table(fn: VectorialFunction, selector) -> np.ndarray:
    """0/1 table of trace(lam*F1) + trace(mu*F2) at every input."""
    lam, mu = selector
    f = fn.field
    f.check(lam)
    f.check(mu)
    if lam == 0 and mu == 0:
        raise ParameterError("component selector must be nonzero")
    masks = f.trace_masks
    par = f.parity_table
    return par[fn.f1() & masks[lam]] ^ par[fn.f2() & masks[mu]]


def _component_bit_chunks(fn: VectorialFunction, chunk: int = _COMPONENT_CHUNK):
    """Yield (selectors, bits) for all 2^(2m)-1 nonzero selectors in order.

    Selectors are packed as lam | mu << m and enumerated ascending from 1.
    """
    f = fn.field
    q = f.order
    masks = f.trace_masks
    par = f.parity_table
    f1 = fn.f1()
    f2 = fn.f2()
    total = q * q
    for start in range(1, total, chunk):
        cs = np.arange(start, min(start + chunk, total))
        lam = masks[cs & (q - 1)]
        mu = masks[cs >> f.m]
        bits = par[f1[None, :] & lam[:, None]] ^ par[f2[None, :] & mu[:, None]]
        yield cs, bits


def component_spectrum_summary(fn: VectorialFunction):
    """Per-component (plateau level, max |W|) over all nonzero selectors.

    Returns (levels, peaks): int64 arrays of length 2^(2m)-1 in selector
    order; level -1 marks a component that is not plateaued.  A table
    certified quadratic by ``is_quadratic`` is summarised by GF(2) ranks,
    any other by ``walsh_spectrum_summary``; both give the same arrays.
    """
    if is_quadratic(fn):
        return _rank_spectrum_summary(fn)
    return walsh_spectrum_summary(fn)


def walsh_spectrum_summary(fn: VectorialFunction):
    """Per-component (plateau level, max |W|) from the fast transform.

    Returns (levels, peaks) as ``component_spectrum_summary`` does, for
    any table; it is the fallback and the oracle of the rank path.
    """
    n = fn.n
    count = (1 << n) - 1
    levels = np.empty(count, dtype=np.int64)
    peaks = np.empty(count, dtype=np.int64)
    for cs, bits in _component_bit_chunks(fn):
        w = fwht(1 - 2 * bits.astype(np.int64))
        _check_parseval(w, n)
        absw = np.abs(w)
        mx = absw.max(axis=1)
        flat = ((absw == 0) | (absw == mx[:, None])).all(axis=1)
        power2 = (mx > 0) & ((mx & (mx - 1)) == 0)
        log2 = np.rint(np.log2(np.maximum(mx, 1))).astype(np.int64)
        lev = np.where(flat & power2, 2 * log2 - n, -1)
        levels[cs - 1] = lev
        peaks[cs - 1] = mx
    return levels, peaks


def is_quadratic(fn: VectorialFunction) -> bool:
    """Certificate that deg F <= 2: no ANF monomial has degree above two.

    One XOR butterfly (the Moebius transform) turns the packed table into
    the algebraic normal form of all 2m output bits at once.
    """
    anf = fn.table.copy()
    size = anf.shape[0]
    h = 1
    while h < size:
        v = anf.reshape(size // (2 * h), 2, h)
        v[:, 1, :] ^= v[:, 0, :]
        h *= 2
    # an index keeps a set bit after its two lowest are cleared exactly
    # when its monomial has degree three or more
    support = np.flatnonzero(anf)
    support &= support - 1
    support &= support - 1
    return not support.any()


def _polar(t: np.ndarray, x, y) -> np.ndarray:
    """B(x, y) = F(x+y) + F(x) + F(y) + F(0) of table t, broadcasting."""
    return t[x ^ y] ^ t[x] ^ t[y] ^ t[0]


def _rank_spectrum_summary(fn: VectorialFunction):
    """``component_spectrum_summary`` of a table of degree at most two.

    Row i of M_c packs the bits c.B(e_i, e_j) over j, where c.v is the
    component functional trace(lam * v1) + trace(mu * v2).  M_c is GF(2)
    linear in c, so the rows for a block of selectors are the rows of the
    block's first selector XOR a span built once from the unit selectors.
    An alternating form has even rank, so an odd rank means a corrupt
    matrix or elimination.
    """
    n = fn.n
    f = fn.field
    q = f.order
    t = fn.table
    e = np.int64(1) << np.arange(n, dtype=np.int64)
    form = _polar(t, e[:, None], e[None, :])
    lam = f.trace_masks[e & (q - 1)][:, None, None]
    mu = f.trace_masks[e >> f.m][:, None, None]
    par = f.parity_table
    unit = (par[form & lam] ^ par[(form >> f.m) & mu]).astype(np.int64) @ e
    low = min(n, _RANK_CHUNK.bit_length() - 1)
    span = np.zeros((1, n), dtype=np.int64)  # rows of M_c for c < 2^low
    for b in range(low):
        span = np.concatenate([span, span ^ unit[b]])
    rank = np.empty(1 << n, dtype=np.int64)
    for start in range(0, 1 << n, len(span)):
        first = np.zeros(n, dtype=np.int64)  # rows of M_start
        for b in range(low, n):
            if start >> b & 1:
                first ^= unit[b]
        rank[start:start + len(span)] = gf2_rank_batch(span ^ first)
    rank = rank[1:]
    if np.any(rank & 1):
        raise AssertionError("odd rank: a component form is not alternating")
    levels = n - rank
    peaks = np.int64(1) << ((n + levels) // 2)
    return levels, peaks


@dataclass(frozen=True)
class SpectrumReport:
    """Aggregate of all component spectra of one vectorial function."""

    m: int
    counts: dict  # plateau level -> number of components
    non_plateaued: int
    bent_count: int
    semibent_count: int
    nonlinearity: int
    classical: bool


def spectrum_report(fn: VectorialFunction) -> SpectrumReport:
    """Classify every component; also the nonlinearity and classical flag.

    classical means: levels within {0, 2} and exactly 2(2^n - 1)/3 bent
    components, the spectrum every known quadratic APN family in even
    dimension exhibits.
    """
    n = fn.n
    levels, peaks = component_spectrum_summary(fn)
    values, freq = np.unique(levels[levels >= 0], return_counts=True)
    counts = {int(v): int(k) for v, k in zip(values, freq)}
    non_plateaued = int(np.count_nonzero(levels < 0))
    bent = counts.get(0, 0)
    semibent = counts.get(1, 0) + counts.get(2, 0)
    nl = (1 << (n - 1)) - int(peaks.max()) // 2
    classical = (non_plateaued == 0
                 and set(counts) <= {0, 2}
                 and bent == 2 * ((1 << n) - 1) // 3)
    return SpectrumReport(fn.m, counts, non_plateaued, bent, semibent, nl,
                          classical)


# ----------------------------------------------------------------------
# differential spectrum
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DifferentialSpectrum:
    """Distribution of derivative solution counts over (a != 0, b)."""

    uniformity: int
    histogram: dict  # solution count -> frequency

    @property
    def is_apn(self) -> bool:
        return self.uniformity == 2


def differential_spectrum(fn: VectorialFunction) -> DifferentialSpectrum:
    """Histogram |{x : F(x+a) + F(x) = b}| over all a != 0 and all b.

    A table certified quadratic by ``is_quadratic`` is counted by GF(2)
    ranks, any other by ``difference_table_spectrum``; both give the same
    uniformity and the same histogram, keys ascending.
    """
    if is_quadratic(fn):
        return _rank_differential_spectrum(fn)
    return difference_table_spectrum(fn)


def difference_table_spectrum(fn: VectorialFunction) -> DifferentialSpectrum:
    """``differential_spectrum`` by bincounting every row of the table.

    4^n steps for any table; it is the fallback and the oracle of the rank
    path.
    """
    tab = fn.table
    n_total = tab.shape[0]
    idx = np.arange(n_total)
    hist = np.zeros(n_total + 1, dtype=np.int64)
    uniformity = 0
    for a in range(1, n_total):
        row = np.bincount(tab[idx ^ a] ^ tab, minlength=n_total)
        hist += np.bincount(row, minlength=n_total + 1)
        uniformity = max(uniformity, int(row.max()))
    histogram = {int(k): int(v) for k, v in enumerate(hist) if v}
    return DifferentialSpectrum(uniformity, histogram)


def _rank_differential_spectrum(fn: VectorialFunction) -> DifferentialSpectrum:
    """``differential_spectrum`` of a table of degree at most two.

    D_aF(x) = B(x, a) + F(a) + F(0) is affine, so if L_a = B(., a) has rank
    r, row a of the difference table holds 2^r entries 2^(n-r) and zeros
    elsewhere.  The columns L_a(e_j) of a block of directions are ranked
    in one call.
    """
    n = fn.n
    n_total = 1 << n
    t = fn.table
    e = np.int64(1) << np.arange(n, dtype=np.int64)
    count = np.zeros(n + 1, dtype=np.int64)  # directions per rank
    for lo in range(1, n_total, _DIRECTION_BLOCK):
        a = np.arange(lo, min(lo + _DIRECTION_BLOCK, n_total), dtype=np.int64)
        rank = gf2_rank_batch(_polar(t, a[:, None], e[None, :]))
        count += np.bincount(rank, minlength=n + 1)
    r = np.arange(n + 1)
    hist = np.zeros(n_total + 1, dtype=np.int64)
    hist[n_total >> r] += count << r
    hist[0] += (count * (n_total - (1 << r))).sum()
    histogram = {int(k): int(v) for k, v in enumerate(hist) if v}
    uniformity = n_total >> int(np.flatnonzero(count)[0])
    return DifferentialSpectrum(uniformity, histogram)


# ----------------------------------------------------------------------
# linear structures (brute force over all directions)
# ----------------------------------------------------------------------

def linear_structures(table) -> list[int]:
    """Directions u (packed) whose derivative of the 0/1 table is constant.

    Plain quadratic-time scan; this is the independent oracle for plateau
    levels, so it deliberately uses nothing but the definition.
    """
    bits = np.asarray(table, dtype=np.uint8)
    n_total = bits.shape[0]
    idx = np.arange(n_total)
    out = []
    for u in range(n_total):
        d = bits[idx ^ u] ^ bits
        if np.all(d == d[0]):
            out.append(u)
    return out


def linear_space_dimensions(fn: VectorialFunction) -> np.ndarray:
    """Brute-force linear-space dimension of every component.

    Scans all 2^n directions for all 2^n - 1 components at once with the
    component bits packed 64 per machine word.  Each component's constant
    directions form a subspace, so the dimension is log2 of their count;
    the count is verified to be a power of two.
    """
    n_total = 1 << fn.n
    count = n_total - 1
    words = (count + 63) // 64
    packed = np.zeros((n_total, words), dtype=np.uint64)
    for cs, bits in _component_bit_chunks(fn, chunk=64):
        word = int(cs[0] - 1) >> 6
        shifts = ((cs - 1) & 63).astype(np.uint64)
        packed[:, word] = np.bitwise_or.reduce(
            bits.T.astype(np.uint64) << shifts[None, :], axis=1)
    idx = np.arange(n_total)
    const_counts = np.zeros(count, dtype=np.int64)
    for u in range(n_total):
        diff = packed[idx ^ u] ^ packed
        nonconst = np.bitwise_or.reduce(diff ^ diff[0], axis=0)
        const_bits = np.unpackbits(
            (~nonconst).view(np.uint8), bitorder="little")[:count]
        const_counts += const_bits
    if np.any(const_counts & (const_counts - 1)):
        raise AssertionError("linear structures did not form a subspace")
    dims = np.zeros(count, dtype=np.int64)
    cc = const_counts.copy()
    while np.any(cc > 1):
        step = cc > 1
        dims[step] += 1
        cc[step] >>= 1
    return dims
