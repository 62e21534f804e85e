"""Quadratic vectorial function families on GF(2^m) x GF(2^m).

Five constructions are supported, every one of the form
F(X, Y) = (XY, G(X, Y)) except the butterfly:

* Taniguchi:      G = X^(2^(3k)+2^(2k)) + a X^(2^(2k)) Y^(2^k) + b Y^(2^k+1)
* Carlet11:       G = s X^(2^i+2^j) + u X^(2^i) Y^(2^j) + v X^(2^j) Y^(2^i)
                      + t Y^(2^i+2^j)
* ZhouPott:       G = X^(2^k+1) + a Y^((2^k+1) 2^j)
* CarletGeneral:  G = P(X^(2^k+1)) + Q(X^(2^k) Y) + R(X Y^(2^k)) + S(Y^(2^k+1))
                  for GF(2)-linear maps P, Q, R, S
* Butterfly:      F = (R(X, Y), R(Y, X)) with R = (X + aY)^3 + bY^3, m odd

The first four specialize CarletGeneral; ``*_as_general`` expose the
embeddings, and each family also has a direct evaluator (fewer
compositions) that must produce the identical table.

Each family ships its published APN test alongside the generic
derivative-kernel criterion: F of the CarletGeneral shape is APN iff the
linear map ``derivative_kernel_map(params, a, b)`` has kernel meeting
``kernel_obstruction_set`` only in 0 for every direction (a, b) != (0, 0);
for m >= 3 that set is the whole field, so every kernel must be trivial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gf2m import Field, field as canonical_field
from .linalg import gf2_kernel_basis, gf2_rank_batch, gf2_span
from .vbf import VectorialFunction


@dataclass(frozen=True)
class LinearizedMap:
    """GF(2)-linear map L(x) = sum_e coeffs[e] * x^(2^e) on GF(2^m)."""

    coeffs: tuple[int, ...]

    @classmethod
    def zero(cls, m: int) -> "LinearizedMap":
        return cls((0,) * m)

    @classmethod
    def monomial(cls, m: int, e: int, c: int) -> "LinearizedMap":
        coeffs = [0] * m
        coeffs[e % m] ^= c
        return cls(tuple(coeffs))

    def evaluate(self, f: Field, x: int) -> int:
        acc = 0
        for e, c in enumerate(self.coeffs):
            if c:
                acc ^= f.mul(c, f.frobenius(x, e))
        return acc

    def evaluate_array(self, f: Field, xs: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(xs)
        for e, c in enumerate(self.coeffs):
            if c:
                acc ^= f.mul_array(c, f.frobenius_table(e)[xs])
        return acc


@dataclass(frozen=True)
class Taniguchi:
    m: int
    k: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class Carlet11:
    m: int
    i: int
    j: int
    s: int
    t: int
    u: int
    v: int


@dataclass(frozen=True)
class ZhouPott:
    m: int
    k: int
    j: int
    alpha: int


@dataclass(frozen=True)
class Butterfly:
    m: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class CarletGeneral:
    m: int
    k: int
    p: LinearizedMap
    q: LinearizedMap
    r: LinearizedMap
    s: LinearizedMap


FamilyParams = Taniguchi | Carlet11 | ZhouPott | Butterfly | CarletGeneral

FAMILY_NAMES = {
    Taniguchi: "taniguchi",
    Carlet11: "carlet11",
    ZhouPott: "zhoupott",
    Butterfly: "butterfly",
    CarletGeneral: "carletgeneral",
}


def family_name(params: FamilyParams) -> str:
    return FAMILY_NAMES[type(params)]


def validate(params: FamilyParams, f: Field) -> None:
    """Check the family's parameter constraints; raise ParameterError."""
    if f.m != params.m:
        raise ParameterError(f"field degree {f.m} != params degree {params.m}")
    if isinstance(params, Taniguchi):
        _require_coprime(params.k, f.m, "k")
        f.check(params.alpha)
        if f.check(params.beta) == 0:
            raise ParameterError("taniguchi requires beta != 0")
    elif isinstance(params, Carlet11):
        _require_coprime(params.i - params.j, f.m, "i-j")
        if f.mul(f.check(params.s), f.check(params.t)) == 0:
            raise ParameterError("carlet11 requires s*t != 0")
        f.check(params.u)
        f.check(params.v)
    elif isinstance(params, ZhouPott):
        # m odd is allowed for spectrum analysis; only the APN predicate
        # needs m even.
        _require_coprime(params.k, f.m, "k")
        if params.j < 0:
            raise ParameterError("zhoupott requires j >= 0")
        if f.check(params.alpha) == 0:
            raise ParameterError("zhoupott requires alpha != 0")
    elif isinstance(params, Butterfly):
        if f.m % 2 == 0:
            raise ParameterError("butterfly requires odd m")
        if f.check(params.alpha) == 0 or f.check(params.beta) == 0:
            raise ParameterError("butterfly requires alpha, beta != 0")
    elif isinstance(params, CarletGeneral):
        _require_coprime(params.k, f.m, "k")
        for lmap in (params.p, params.q, params.r, params.s):
            if len(lmap.coeffs) != f.m:
                raise ParameterError("linearized map must have m coefficients")
            for c in lmap.coeffs:
                f.check(c)
    else:
        raise ParameterError(f"unknown family {type(params).__name__}")


def _require_coprime(k: int, m: int, name: str) -> None:
    if math.gcd(k % m, m) != 1:
        raise ParameterError(f"gcd({name}, m) must be 1, got "
                             f"gcd({k % m}, {m}) != 1")


# ----------------------------------------------------------------------
# truth-table builders
# ----------------------------------------------------------------------

def build_function(params: FamilyParams, f: Field | None = None) -> VectorialFunction:
    """Evaluate the family at all 2^(2m) inputs."""
    if f is None:
        f = canonical_field(params.m)
    validate(params, f)
    return VectorialFunction(f, _TABLE_BUILDERS[type(params)](params, f))


def _xy_grid(f: Field):
    q = f.order
    idx = np.arange(q * q, dtype=np.int64)
    return idx & (q - 1), idx >> f.m


def _pack(f: Field, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    return f1 | (f2 << f.m)


def _table_taniguchi(p: Taniguchi, f: Field) -> np.ndarray:
    x, y = _xy_grid(f)
    mul = f.mul_array
    x2k = f.frobenius_table(2 * p.k)[x]
    yk = f.frobenius_table(p.k)[y]
    g = (mul(f.frobenius_table(3 * p.k)[x], x2k)
         ^ mul(p.alpha, mul(x2k, yk))
         ^ mul(p.beta, mul(yk, y)))
    return _pack(f, mul(x, y), g)


def _table_carlet11(p: Carlet11, f: Field) -> np.ndarray:
    x, y = _xy_grid(f)
    mul = f.mul_array
    xi, xj = f.frobenius_table(p.i)[x], f.frobenius_table(p.j)[x]
    yi, yj = f.frobenius_table(p.i)[y], f.frobenius_table(p.j)[y]
    g = (mul(p.s, mul(xi, xj)) ^ mul(p.u, mul(xi, yj))
         ^ mul(p.v, mul(xj, yi)) ^ mul(p.t, mul(yi, yj)))
    return _pack(f, mul(x, y), g)


def _table_zhoupott(p: ZhouPott, f: Field) -> np.ndarray:
    x, y = _xy_grid(f)
    mul = f.mul_array
    g = (mul(f.frobenius_table(p.k)[x], x)
         ^ mul(p.alpha, f.frobenius_table(p.j)[mul(f.frobenius_table(p.k)[y], y)]))
    return _pack(f, mul(x, y), g)


def _table_butterfly(p: Butterfly, f: Field) -> np.ndarray:
    x, y = _xy_grid(f)
    mul = f.mul_array
    sq = f.frobenius_table(1)

    def branch(x_, y_):
        t = x_ ^ mul(p.alpha, y_)
        return mul(sq[t], t) ^ mul(p.beta, mul(sq[y_], y_))

    return _pack(f, branch(x, y), branch(y, x))


def _table_carlet_general(p: CarletGeneral, f: Field) -> np.ndarray:
    x, y = _xy_grid(f)
    mul = f.mul_array
    xk = f.frobenius_table(p.k)[x]
    yk = f.frobenius_table(p.k)[y]
    g = (p.p.evaluate_array(f, mul(xk, x)) ^ p.q.evaluate_array(f, mul(xk, y))
         ^ p.r.evaluate_array(f, mul(x, yk)) ^ p.s.evaluate_array(f, mul(yk, y)))
    return _pack(f, mul(x, y), g)


def _point_taniguchi(p: Taniguchi, f: Field, x: int, y: int) -> int:
    x2k = f.frobenius(x, 2 * p.k)
    yk = f.frobenius(y, p.k)
    g = (f.mul(f.frobenius(x, 3 * p.k), x2k)
         ^ f.mul(p.alpha, f.mul(x2k, yk))
         ^ f.mul(p.beta, f.mul(yk, y)))
    return f.mul(x, y) | (g << f.m)


def _point_carlet11(p: Carlet11, f: Field, x: int, y: int) -> int:
    xi, xj = f.frobenius(x, p.i), f.frobenius(x, p.j)
    yi, yj = f.frobenius(y, p.i), f.frobenius(y, p.j)
    g = (f.mul(p.s, f.mul(xi, xj)) ^ f.mul(p.u, f.mul(xi, yj))
         ^ f.mul(p.v, f.mul(xj, yi)) ^ f.mul(p.t, f.mul(yi, yj)))
    return f.mul(x, y) | (g << f.m)


def _point_zhoupott(p: ZhouPott, f: Field, x: int, y: int) -> int:
    # the Y exponent is formed as a plain integer and fed to pow
    g = f.pow(x, (1 << p.k) + 1) ^ f.mul(p.alpha,
                                         f.pow(y, ((1 << p.k) + 1) << p.j))
    return f.mul(x, y) | (g << f.m)


def _point_butterfly(p: Butterfly, f: Field, x: int, y: int) -> int:
    def branch(x_, y_):
        t = x_ ^ f.mul(p.alpha, y_)
        return f.mul(f.sqr(t), t) ^ f.mul(p.beta, f.mul(f.sqr(y_), y_))

    return branch(x, y) | (branch(y, x) << f.m)


def _point_carlet_general(p: CarletGeneral, f: Field, x: int, y: int) -> int:
    xk = f.frobenius(x, p.k)
    yk = f.frobenius(y, p.k)
    g = (p.p.evaluate(f, f.mul(xk, x)) ^ p.q.evaluate(f, f.mul(xk, y))
         ^ p.r.evaluate(f, f.mul(x, yk)) ^ p.s.evaluate(f, f.mul(yk, y)))
    return f.mul(x, y) | (g << f.m)


_TABLE_BUILDERS = {
    Taniguchi: _table_taniguchi,
    Carlet11: _table_carlet11,
    ZhouPott: _table_zhoupott,
    Butterfly: _table_butterfly,
    CarletGeneral: _table_carlet_general,
}

# Scalar oracles through the checked Field.mul, read only by the tests.
_POINT_EVALUATORS = {
    Taniguchi: _point_taniguchi,
    Carlet11: _point_carlet11,
    ZhouPott: _point_zhoupott,
    Butterfly: _point_butterfly,
    CarletGeneral: _point_carlet_general,
}


# ----------------------------------------------------------------------
# embeddings into the general shape
# ----------------------------------------------------------------------

def taniguchi_as_general(p: Taniguchi) -> CarletGeneral:
    m = p.m
    return CarletGeneral(m, p.k,
                         p=LinearizedMap.monomial(m, 2 * p.k, 1),
                         q=LinearizedMap.monomial(m, p.k, p.alpha),
                         r=LinearizedMap.zero(m),
                         s=LinearizedMap.monomial(m, 0, p.beta))


def zhoupott_as_general(p: ZhouPott) -> CarletGeneral:
    m = p.m
    return CarletGeneral(m, p.k,
                         p=LinearizedMap.monomial(m, 0, 1),
                         q=LinearizedMap.zero(m),
                         r=LinearizedMap.zero(m),
                         s=LinearizedMap.monomial(m, p.j, p.alpha))


def carlet11_as_general(p: Carlet11) -> CarletGeneral:
    m = p.m
    return CarletGeneral(m, (p.j - p.i) % m,
                         p=LinearizedMap.monomial(m, p.i, p.s),
                         q=LinearizedMap.monomial(m, p.i, p.v),
                         r=LinearizedMap.monomial(m, p.i, p.u),
                         s=LinearizedMap.monomial(m, p.i, p.t))


# ----------------------------------------------------------------------
# published APN tests
# ----------------------------------------------------------------------

def taniguchi_is_apn(m: int, k: int, alpha: int, beta: int,
                     f: Field | None = None) -> bool:
    """APN iff x^(2^k+1) + alpha*x + beta has no root (checked by scan).

    beta = 0 is outside the family but the root test still applies (x = 0
    is then a root, so the answer is False).
    """
    f = f or canonical_field(m)
    _require_coprime(k, m, "k")
    f.check(alpha)
    f.check(beta)
    return all(f.mul(f.frobenius(x, k), x) ^ f.mul(alpha, x) ^ beta
               for x in f.elements())


def carlet11_is_apn(m: int, i: int, j: int, s: int, t: int, u: int, v: int,
                    f: Field | None = None) -> bool:
    """APN iff s*x^(2^i+2^j) + u*x^(2^i) + v*x^(2^j) + t has no root."""
    f = f or canonical_field(m)
    _require_coprime(i - j, m, "i-j")
    if f.mul(f.check(s), f.check(t)) == 0:
        raise ParameterError("carlet11 requires s*t != 0")
    f.check(u)
    f.check(v)
    return all(f.mul(s, f.mul(f.frobenius(x, i), f.frobenius(x, j)))
               ^ f.mul(u, f.frobenius(x, i))
               ^ f.mul(v, f.frobenius(x, j)) ^ t
               for x in f.elements())


def carlet11_degenerate_triple(m: int, i: int, j: int, s: int, t: int,
                               u: int, v: int,
                               f: Field | None = None) -> int | None:
    """The nonzero a with u = a*t, v = a^(2^(j-i))*t, s = a^(2^(j-i)+1)*t.

    These triples are the family's closed-form nonlinearity case; returns a
    when all three relations hold, else None.  They are not the only
    non-classical instances: a non-degenerate triple whose polynomial
    s*x^(2^i+2^j) + u*x^(2^i) + v*x^(2^j) + t has exactly three roots also
    has 4-plateaued components.
    """
    f = f or canonical_field(m)
    if f.check(t) == 0:
        raise ParameterError("degenerate-triple test requires t != 0")
    a = f.div(u, t)
    if a == 0:
        return None
    a_pow = f.frobenius(a, j - i)
    if v != f.mul(a_pow, t):
        return None
    if s != f.mul(f.mul(a_pow, a), t):
        return None
    return a


def zhoupott_apn_predicate(m: int, k: int, j: int, alpha: int,
                           f: Field | None = None) -> bool:
    """APN test for even m: j even and alpha a non-cube."""
    f = f or canonical_field(m)
    if m % 2:
        raise ParameterError("zhoupott APN predicate needs even m")
    _require_coprime(k, m, "k")
    if f.check(alpha) == 0:
        raise ParameterError("zhoupott requires alpha != 0")
    return j % 2 == 0 and not f.is_cube(alpha)


def butterfly_degenerate(m: int, alpha: int, beta: int,
                         f: Field | None = None) -> bool:
    """Whether beta = (1+alpha)^3, the branch losing the plateau bound."""
    f = f or canonical_field(m)
    if m % 2 == 0:
        raise ParameterError("butterfly requires odd m")
    if f.check(alpha) == 0 or f.check(beta) == 0:
        raise ParameterError("butterfly requires alpha, beta != 0")
    w = alpha ^ 1
    return beta == f.mul(f.sqr(w), w)


# ----------------------------------------------------------------------
# the general derivative-kernel criterion
# ----------------------------------------------------------------------

def derivative_kernel_map(params: CarletGeneral, a, b,
                          f: Field | None = None) -> np.ndarray:
    """Columns T(x^t), t < m, on the last axis, of the linear map
    T: Y -> P(a^(2^k+1) Y) + Q(a^(2^k) b Y) + R(a b^(2^k) Y) + S(b^(2^k+1) Y)
    whose kernel carries the derivative solutions at the direction (a, b).

    a and b are field elements or equal-shape int arrays of them.
    """
    f = f or canonical_field(params.m)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if ((a | b) >> f.m).any() or not (a | b).all():
        raise ParameterError(f"direction (a, b) must be a nonzero pair of "
                             f"elements of GF(2^{f.m})")
    mul = f.mul_array
    ak, bk = f.frobenius_table(params.k)[a], f.frobenius_table(params.k)[b]
    basis = 1 << np.arange(f.m, dtype=np.int64)
    columns = np.zeros(a.shape + (f.m,), dtype=np.int64)
    for lmap, scale in ((params.p, mul(ak, a)), (params.q, mul(ak, b)),
                        (params.r, mul(a, bk)), (params.s, mul(bk, b))):
        columns ^= lmap.evaluate_array(f, mul(scale[..., None], basis))
    return columns


@functools.lru_cache(maxsize=None)
def kernel_obstruction_set(f: Field, k: int) -> np.ndarray:
    """Read-only mask of {u^(2^k+1) (t^(2^k) + t) : u, t in GF(2^m)}.

    It is the whole field for every m >= 3 (for odd m because
    u -> u^(2^k+1) is then a bijection) and {0, 1} at m = 2.  The products
    are formed about 2^20 at a time, so memory stays bounded for large m.
    """
    idx = np.arange(f.order, dtype=np.int64)
    scales = f.mul_array(f.frobenius_table(k), idx)
    offsets = f.frobenius_table(k) ^ idx
    mask = np.zeros(f.order, dtype=bool)
    step = max(1, (1 << 20) >> f.m)
    for lo in range(0, f.order, step):
        mask[f.mul_array(scales[lo:lo + step, None], offsets)] = True
    mask.flags.writeable = False
    return mask


# directions per batched kernel-map and rank call of the criterion
_DIRECTION_BLOCK = 1024


def carlet_general_is_apn(params: CarletGeneral,
                          f: Field | None = None) -> bool:
    """APN iff every derivative-kernel map, (a, b) != 0, has kernel
    meeting ``kernel_obstruction_set`` only in 0.

    Each block of directions is built and ranked in one call; only the
    rank-deficient maps have their kernels enumerated.
    """
    f = f or canonical_field(params.m)
    validate(params, f)
    obstruction = kernel_obstruction_set(f, params.k % f.m)
    for lo in range(1, f.order ** 2, _DIRECTION_BLOCK):
        d = np.arange(lo, min(lo + _DIRECTION_BLOCK, f.order ** 2))
        columns = derivative_kernel_map(params, d >> f.m, d % f.order, f)
        for cols in columns[gf2_rank_batch(columns) < f.m]:
            if obstruction[gf2_span(gf2_kernel_basis(cols))[1:]].any():
                return False
    return True
