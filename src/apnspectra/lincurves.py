"""Linearized bivariate pairs attached to quadratic components.

For a quadratic component f(X, Y) = trace(lam*XY + mu*G(X, Y)) the linear
part of every directional derivative collapses to trace(A x^(2^d1) +
B y^(2^d2)) for two bivariate linearized polynomials A, B; the component's
linear space is their common zero set, and for the families here A and B
take the single-step shape

    C_0 X + D_0 Y + C_1 X^(2^k) + D_1 Y^(2^k) + ... + C_d X^(2^(dk)) + ...

with gcd(k, m) = 1.  In that shape a pair without a common component has
at most 2^(d1+d2) common rational zeros (the linear-disjointness descent
from the degree bound on projective intersections), so the component is
s-plateaued with s <= d1 + d2.  Distinct points at infinity witness the
no-common-component hypothesis, which is how every use here certifies it.

``derive_pair`` returns the published coefficient records for the four
concrete families; ``derive_pair_generic`` recomputes the same data from
scratch by formally differentiating the trace form, and exists purely as a
test oracle for the hardcoded tables.

The selectors (lam, mu) of ``derive_pair`` may be ints or equal-shape int
arrays.  An array call gives one batched pair: every coefficient is an
array over the selectors, ``case`` is an array of labels and
``kernel_dimension`` returns an int array, so a sweep over all 4^m - 1
components makes one call of each.  Each family's formulas are written once,
over field operations that take ints or arrays alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError
from .families import (
    Butterfly,
    Carlet11,
    CarletGeneral,
    FamilyParams,
    Taniguchi,
    ZhouPott,
    validate,
)
from .gf2m import Field, field as canonical_field
from .linalg import gf2_kernel_basis, gf2_span


def _is_zero(c) -> bool:
    """Whether a coefficient is zero for every selector of its batch."""
    return not c.any() if isinstance(c, np.ndarray) else c == 0


@dataclass(frozen=True)
class LinearizedBivariate:
    """sum_e C_e X^(2^(ek)) + D_e Y^(2^(ek)) with coefficient pairs (C_e, D_e).

    A coefficient is an element, or for a batched polynomial an int array
    over the selectors (ints and arrays may mix).  Trailing pairs that are
    zero for every selector are trimmed on construction; the top index d
    defines the formal degree 2^(dk).  The all-zero polynomial is kept as a
    single (0, 0) pair.
    """

    field: Field
    k: int
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        coeffs = list(self.coeffs)
        while (len(coeffs) > 1 and _is_zero(coeffs[-1][0])
               and _is_zero(coeffs[-1][1])):
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(_is_zero(c) and _is_zero(dc) for c, dc in self.coeffs)


@functools.lru_cache(maxsize=None)
def _frobenius_basis(f: Field, e: int) -> list[int]:
    """(2^t)^(2^e) for t < m: x^(2^e) on the polynomial basis, as ints."""
    return f.frobenius_table(e)[1 << np.arange(f.m)].tolist()


def _pair_columns(a: LinearizedBivariate,
                  b: LinearizedBivariate) -> list[int] | np.ndarray:
    """a(v) | b(v) << m at the 2m basis vectors v of GF(2^m)^2, read off
    the coefficients: a list of ints, or an (..., 2m) array over the
    selectors of a batched pair.  The map's kernel is the common zero set."""
    f, m = a.field, a.field.m
    shapes = [c.shape for poly in (a, b) for pair in poly.coeffs
              for c in pair if isinstance(c, np.ndarray)]
    mul = f.mul_array if shapes else f.scalar_mul
    zero = np.zeros(np.broadcast_shapes(*shapes), np.int64) if shapes else 0
    cols = [zero] * (2 * m)
    for shift, poly in ((0, a), (m, b)):
        for e, pair in enumerate(poly.coeffs):
            images = _frobenius_basis(f, e * poly.k % m)
            for slot, c in enumerate(pair):
                if _is_zero(c):
                    continue
                for t, image in enumerate(images):
                    j = slot * m + t
                    cols[j] = cols[j] ^ (mul(c, image) << shift)
    return np.stack(cols, axis=-1) if shapes else cols


def _basis_columns(f: Field, a, b) -> list[int]:
    """a(e_t) | b(e_t) << m over the basis e_t of GF(2^m)^2, for evaluators
    a, b: (x, y) -> element; the map's kernel is their common zero set."""
    basis = ([(1 << t, 0) for t in range(f.m)]
             + [(0, 1 << t) for t in range(f.m)])
    return [a(x, y) | (b(x, y) << f.m) for x, y in basis]


@dataclass(frozen=True)
class InfinityPoint:
    """Projective point (px : py : 0), first nonzero coordinate scaled to 1."""

    px: int
    py: int


@dataclass(frozen=True)
class DerivedPair:
    """Component (A, B) system plus the derivation branch it fell into.

    The published records are written after a bijective change of the two
    variables, which differs between families: ``swap_xy`` says whether the
    coordinates were exchanged, ``twist`` is the Frobenius exponent e such
    that a zero (x, y) of (A, B) corresponds to the derivative direction
    (x^(2^e), y^(2^e)).  Neither affects the common-zero dimension.
    """

    A: LinearizedBivariate
    B: LinearizedBivariate
    # "generic" | "mu_zero" | "lambda_zero" | "shared_infinity"; an array
    # of these per selector for a batched pair
    case: str | np.ndarray
    swap_xy: bool
    twist: int = 0

    def direction_zero_set(self) -> list[int]:
        """Common zeros of (A, B) as packed derivative directions."""
        f = self.A.field
        q = f.order
        out = []
        for z in kernel_zero_set(self.A, self.B):
            x, y = z & (q - 1), z >> f.m
            if self.twist:
                x = f.frobenius(x, self.twist)
                y = f.frobenius(y, self.twist)
            if self.swap_xy:
                x, y = y, x
            out.append(x | (y << f.m))
        return sorted(out)


# ----------------------------------------------------------------------
# hardcoded per-family pairs
# ----------------------------------------------------------------------

class _Ops(NamedTuple):
    """The field operations the pair formulas are written in."""

    mul: Callable  # (x, y) -> x * y
    frob: Callable  # (x, e) -> x^(2^e), e taken mod m
    label: Callable  # [(condition, case), ...] -> first case that holds


def _first_label(rules) -> str:
    return next((case for cond, case in rules if cond), "generic")


def _label_array(rules) -> np.ndarray:
    return np.select([cond for cond, _ in rules],
                     [case for _, case in rules], "generic")


def _ops(f: Field, batched: bool) -> _Ops:
    """Operations over Python ints, or over int arrays (broadcasting
    against ints) for a batch of selectors."""
    if batched:
        return _Ops(f.mul_array, lambda x, e: f.frobenius_table(e)[x],
                    _label_array)
    return _Ops(f.scalar_mul, lambda x, e: int(f.frobenius_table(e)[x]),
                _first_label)


def _check_selectors(f: Field, lam, mu) -> tuple[np.ndarray, np.ndarray]:
    """Selector arrays validated as Field.check validates one element."""
    lam, mu = np.asarray(lam), np.asarray(mu)
    if lam.shape != mu.shape:
        raise ValueError(f"selector arrays differ in shape: {lam.shape} "
                         f"and {mu.shape}")
    for sel in (lam, mu):
        if not np.issubdtype(sel.dtype, np.integer):
            raise TypeError(f"selectors must be ints, got {sel.dtype}")
        if sel.size and (sel.min() < 0 or sel.max() >= f.order):
            raise ValueError(f"selector outside GF(2^{f.m})")
    if np.any((lam == 0) & (mu == 0)):
        raise ParameterError("component selector must be nonzero")
    return lam.astype(np.int64), mu.astype(np.int64)


def derive_pair(params: FamilyParams, lam, mu,
                f: Field | None = None) -> DerivedPair:
    """The (A, B) system of the component (lam, mu) of the given family.

    lam and mu are field elements, or equal-shape int arrays of them.
    Arrays give one batched pair over all their selectors: its
    coefficients are arrays, ``case`` is an array of labels and
    ``kernel_dimension`` of it is an int array of the same shape.
    """
    f = f or canonical_field(params.m)
    validate(params, f)
    batched = isinstance(lam, np.ndarray) or isinstance(mu, np.ndarray)
    if batched:
        lam, mu = _check_selectors(f, lam, mu)
    else:
        lam, mu = f.check(lam), f.check(mu)
        if lam == 0 and mu == 0:
            raise ParameterError("component selector must be nonzero")
    if isinstance(params, Taniguchi):
        build = _pair_taniguchi
    elif isinstance(params, Carlet11):
        build = _pair_carlet11
    elif isinstance(params, ZhouPott):
        build = _pair_zhoupott
    elif isinstance(params, Butterfly):
        build = _pair_butterfly
    else:
        raise ParameterError(f"no published pair for {type(params).__name__}"
                             "; use derive_pair_generic")
    return build(params, lam, mu, f, _ops(f, batched))


def _pair_taniguchi(p: Taniguchi, lam, mu, f: Field,
                    ops: _Ops) -> DerivedPair:
    mul, frob = ops.mul, ops.frob
    k = p.k
    lk = frob(lam, k)
    a = LinearizedBivariate(f, k, (
        (mul(frob(mu, -k), frob(p.alpha, -k)), frob(mu, -2 * k)),
        (lk, 0),
        (0, frob(mu, -k)),
    ))
    b = LinearizedBivariate(f, k, (
        (mul(mu, p.beta), 0),
        (0, lk),
        (mul(frob(mu, k), frob(p.beta, k)), mul(mu, p.alpha)),
    ))
    return DerivedPair(a, b, ops.label([(mu == 0, "mu_zero")]), swap_xy=True)


def _pair_carlet11(p: Carlet11, lam, mu, f: Field, ops: _Ops) -> DerivedPair:
    mul, frob = ops.mul, ops.frob
    k = (p.j - p.i) % p.m
    st, tt = mul(mu, p.s), mul(mu, p.t)
    ut, vt = mul(mu, p.u), mul(mu, p.v)
    lj = frob(lam, p.j)
    a = LinearizedBivariate(f, k, (
        (st, vt),
        (0, lj),
        (frob(st, k), frob(ut, k)),
    ))
    b = LinearizedBivariate(f, k, (
        (ut, tt),
        (lj, 0),
        (frob(vt, k), frob(tt, k)),
    ))
    uv = mul(ut, vt)
    case = ops.label([(mu == 0, "mu_zero"),
                      ((uv != 0) & (uv == mul(st, tt)), "shared_infinity")])
    return DerivedPair(a, b, case, swap_xy=False, twist=-p.i % p.m)


def _pair_zhoupott(p: ZhouPott, lam, mu, f: Field, ops: _Ops) -> DerivedPair:
    mul, frob = ops.mul, ops.frob
    k = p.k
    lk = frob(lam, k)
    ma = mul(mu, p.alpha)
    a = LinearizedBivariate(f, k, (
        (0, mu),
        (lk, 0),
        (0, frob(mu, k)),
    ))
    b = LinearizedBivariate(f, k, (
        (frob(ma, -p.j), 0),
        (0, lk),
        (frob(ma, k - p.j), 0),
    ))
    case = ops.label([(mu == 0, "mu_zero"), (lam == 0, "lambda_zero")])
    return DerivedPair(a, b, case, swap_xy=True)


def _pair_butterfly(p: Butterfly, lam, mu, f: Field,
                    ops: _Ops) -> DerivedPair:
    mul = ops.mul
    al = p.alpha
    d = f.pow(al, 3) ^ p.beta
    c1 = lam ^ mul(mu, d)
    c2 = mul(lam, al) ^ mul(mu, f.sqr(al))
    c3 = mul(lam, f.sqr(al)) ^ mul(mu, al)
    c4 = mul(lam, d) ^ mu
    a = LinearizedBivariate(f, 2, ((c1, c2), (mul(c1, c1), mul(c3, c3))))
    b = LinearizedBivariate(f, 2, ((c3, c4), (mul(c2, c2), mul(c4, c4))))
    return DerivedPair(a, b, ops.label([(mu == 0, "mu_zero")]),
                       swap_xy=False)


# ----------------------------------------------------------------------
# kernels, infinity points, degree bound
# ----------------------------------------------------------------------

def _require_compatible(a: LinearizedBivariate, b: LinearizedBivariate) -> None:
    if a.field != b.field or a.k != b.k:
        raise ParameterError("pair must share field and Frobenius step")


def kernel_dimension(a: LinearizedBivariate, b: LinearizedBivariate):
    """GF(2) dimension of the common zero set of (a, b) on GF(2^m)^2.

    An int; for a batched pair an int array of the dimensions, one per
    selector, each row eliminated by ``gf2_kernel_basis``.
    """
    _require_compatible(a, b)
    cols = _pair_columns(a, b)
    if isinstance(cols, list):
        return len(gf2_kernel_basis(cols))
    rows = cols.reshape(-1, cols.shape[-1]).tolist()
    dims = [len(gf2_kernel_basis(row)) for row in rows]
    return np.array(dims, dtype=np.int64).reshape(cols.shape[:-1])


def kernel_zero_set(a: LinearizedBivariate, b: LinearizedBivariate) -> list[int]:
    """The common zeros themselves, packed x | y << m, sorted (one pair,
    not a batch)."""
    _require_compatible(a, b)
    return sorted(gf2_span(gf2_kernel_basis(_pair_columns(a, b))))


def infinity_point(poly: LinearizedBivariate) -> InfinityPoint:
    """The unique projective zero of the top form at infinity.

    The top form C_d X^(2^(dk)) + D_d Y^(2^(dk)) is the 2^(dk)-th power of
    a line, whose point at infinity is (D_d^(2^(-dk)) : C_d^(2^(-dk)) : 0).
    """
    f = poly.field
    c, dcoef = poly.coeffs[-1]
    if c == 0 and dcoef == 0:
        raise ParameterError("zero polynomial has no point at infinity")
    e = -poly.d * poly.k
    px = f.frobenius(dcoef, e)
    py = f.frobenius(c, e)
    if px:
        return InfinityPoint(1, f.div(py, px))
    return InfinityPoint(0, 1)


@dataclass(frozen=True)
class BezoutReport:
    """Kernel size versus the degree-sum bound, with its witness."""

    kernel_dim: int
    degree_sum: int
    distinct_infinity: bool
    bound_satisfied: bool | None  # None when no no-common-factor witness


def bezout_bound_check(a: LinearizedBivariate,
                       b: LinearizedBivariate) -> BezoutReport:
    """kernel_dim <= d1 + d2, asserted only under distinct infinity points.

    Distinct points at infinity certify that the two curves share no
    component, which is the hypothesis of the degree bound.
    """
    _require_compatible(a, b)
    if math.gcd(a.k % a.field.m, a.field.m) != 1:
        raise ParameterError("degree bound requires gcd(k, m) = 1")
    dim = kernel_dimension(a, b)
    degree_sum = a.d + b.d
    if a.is_zero() or b.is_zero():
        distinct = False
    else:
        distinct = infinity_point(a) != infinity_point(b)
    return BezoutReport(dim, degree_sum, distinct,
                        dim <= degree_sum if distinct else None)


def recombine(a: LinearizedBivariate, c: int,
              b: LinearizedBivariate) -> LinearizedBivariate:
    """a + c*b; an invertible recombination, so kernels are unchanged."""
    _require_compatible(a, b)
    f = a.field
    f.check(c)
    length = max(len(a.coeffs), len(b.coeffs))
    out = []
    for e in range(length):
        ca, da = a.coeffs[e] if e < len(a.coeffs) else (0, 0)
        cb, db = b.coeffs[e] if e < len(b.coeffs) else (0, 0)
        out.append((ca ^ f.mul(c, cb), da ^ f.mul(c, db)))
    return LinearizedBivariate(f, a.k, tuple(out))


# ----------------------------------------------------------------------
# generic symbolic-derivative oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FrobeniusFunctional:
    """sum of c * var^(2^e) terms, var in {first, second} direction slot."""

    field: Field
    terms: tuple[tuple[int, int, int], ...]  # (coeff, var 0|1, exp)

    def evaluate(self, u: int, v: int) -> int:
        f = self.field
        acc = 0
        for c, var, e in self.terms:
            acc ^= f.mul(c, f.frobenius(v if var else u, e))
        return acc


def _quadratic_terms(params: FamilyParams, lam: int, mu: int, f: Field):
    """f = trace(sum of c * L1^(2^a) * L2^(2^b)) with linear forms L1, L2.

    Each entry is (c, (cx1, cy1, a), (cx2, cy2, b)) for the form
    c * (cx1 X + cy1 Y)^(2^a) * (cx2 X + cy2 Y)^(2^b).
    """
    m = f.m
    terms = []
    if not isinstance(params, Butterfly):
        terms.append((lam, (1, 0, 0), (0, 1, 0)))  # lam * X * Y
    if isinstance(params, Taniguchi):
        terms += [
            (mu, (1, 0, 3 * params.k % m), (1, 0, 2 * params.k % m)),
            (f.mul(mu, params.alpha), (1, 0, 2 * params.k % m),
             (0, 1, params.k % m)),
            (f.mul(mu, params.beta), (0, 1, params.k % m), (0, 1, 0)),
        ]
    elif isinstance(params, Carlet11):
        i, j = params.i % m, params.j % m
        terms += [
            (f.mul(mu, params.s), (1, 0, i), (1, 0, j)),
            (f.mul(mu, params.u), (1, 0, i), (0, 1, j)),
            (f.mul(mu, params.v), (1, 0, j), (0, 1, i)),
            (f.mul(mu, params.t), (0, 1, i), (0, 1, j)),
        ]
    elif isinstance(params, ZhouPott):
        terms += [
            (mu, (1, 0, params.k % m), (1, 0, 0)),
            (f.mul(mu, params.alpha), (0, 1, (params.k + params.j) % m),
             (0, 1, params.j % m)),
        ]
    elif isinstance(params, Butterfly):
        al = params.alpha
        terms += [
            (lam, (1, al, 1), (1, al, 0)),
            (f.mul(lam, params.beta), (0, 1, 1), (0, 1, 0)),
            (mu, (al, 1, 1), (al, 1, 0)),
            (f.mul(mu, params.beta), (1, 0, 1), (1, 0, 0)),
        ]
    elif isinstance(params, CarletGeneral):
        k = params.k % m
        for e, (pe, qe, re, se) in enumerate(zip(params.p.coeffs,
                                                 params.q.coeffs,
                                                 params.r.coeffs,
                                                 params.s.coeffs)):
            ke = (k + e) % m
            if pe:
                terms.append((f.mul(mu, pe), (1, 0, ke), (1, 0, e)))
            if qe:
                terms.append((f.mul(mu, qe), (1, 0, ke), (0, 1, e)))
            if re:
                terms.append((f.mul(mu, re), (1, 0, e), (0, 1, ke)))
            if se:
                terms.append((f.mul(mu, se), (0, 1, ke), (0, 1, e)))
    else:
        raise ParameterError(f"unknown family {type(params).__name__}")
    return [t for t in terms if t[0]]


def derive_pair_generic(params: FamilyParams, lam: int, mu: int,
                        f: Field | None = None):
    """Formally differentiate the trace form of the component (lam, mu).

    Returns two FrobeniusFunctional objects (one per coordinate slot) in
    plain direction variables; their common zeros are exactly the
    component's linear structures.  Test oracle for derive_pair.
    """
    f = f or canonical_field(params.m)
    validate(params, f)
    f.check(lam)
    f.check(mu)
    if lam == 0 and mu == 0:
        raise ParameterError("component selector must be nonzero")
    m = f.m
    slot_terms: tuple[dict, dict] = ({}, {})
    for c, (cx1, cy1, a), (cx2, cy2, b) in _quadratic_terms(params, lam, mu, f):
        for (sa, s_cx, s_cy), (sb, o_cx, o_cy) in (
                ((a, cx1, cy1), (b, cx2, cy2)),
                ((b, cx2, cy2), (a, cx1, cy1))):
            # trace(c * P^(2^sa) * q^(2^sb)) contributions, normalized to
            # exponent 0 on the table variable
            base = f.frobenius(c, -sa)
            shift = (sb - sa) % m
            for slot, s_coef in ((0, s_cx), (1, s_cy)):
                if not s_coef:
                    continue
                lead = f.mul(base, f.check(s_coef))
                for var, o_coef in ((0, o_cx), (1, o_cy)):
                    if not o_coef:
                        continue
                    coef = f.mul(lead, f.frobenius(f.check(o_coef), shift))
                    key = (var, shift)
                    acc = slot_terms[slot]
                    acc[key] = acc.get(key, 0) ^ coef
    functionals = []
    for acc in slot_terms:
        terms = tuple((c, var, e) for (var, e), c in sorted(acc.items()) if c)
        functionals.append(FrobeniusFunctional(f, terms))
    return functionals[0], functionals[1]


def kernel_zero_set_generic(f: Field, fa: FrobeniusFunctional,
                            fb: FrobeniusFunctional) -> list[int]:
    """Common zeros of two functionals in direction variables, sorted."""
    cols = _basis_columns(f, fa.evaluate, fb.evaluate)
    return sorted(gf2_span(gf2_kernel_basis(cols)))
