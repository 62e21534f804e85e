"""Exact arithmetic in GF(2^m) over a canonical polynomial basis.

Field elements are plain ints: bit i is the coefficient of x^i, so 0 and 1
are the field's zero and one and addition is ``^``.  A :class:`Field` object
fixes the extension degree m and the reduction polynomial and provides all
arithmetic; elements carry no per-object wrapper, which keeps bulk
truth-table work cheap.

Unless a reduction polynomial is given explicitly, each degree m uses the
canonical one: the lexicographically least irreducible polynomial of degree
m, i.e. the numerically smallest integer encoding with bit m set.  The
first few are

    m=2: 0x7 (x^2+x+1)    m=3: 0xb (x^3+x+1)     m=4: 0x13 (x^4+x+1)
    m=5: 0x25 (x^5+x^2+1) m=6: 0x43 (x^6+x+1)    m=7: 0x83 (x^7+x+1)
    m=8: 0x11b (x^8+x^4+x^3+x+1)

(the full table for 2 <= m <= 16 is printed by ``canonical_polynomial`` and
documented in the README).  All reported element literals are hex encodings
of the coefficient bit-vector in this basis.

``Field.mul`` is the checked shift-and-add reference; every fast multiply
and Frobenius table reads one lazy pair of log/antilog tables, for every m.
"""

from __future__ import annotations

import functools

import numpy as np

MIN_M = 2
MAX_M = 16

# The full multiplication table has 4^m entries and is only built up to
# this degree; the log/antilog tables behind it exist for every m.
BULK_TABLE_MAX_M = 8


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b, both polynomials over GF(2)."""
    db = _poly_degree(b)
    while _poly_degree(a) >= db and a:
        a ^= b << (_poly_degree(a) - db)
    return a


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    db = _poly_degree(b)
    q = 0
    while _poly_degree(a) >= db and a:
        shift = _poly_degree(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials, no reduction."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def is_irreducible(poly: int) -> bool:
    """Test irreducibility over GF(2) by trial division.

    Divides by every polynomial of degree 1 .. deg(poly)//2; fine for the
    degrees this package supports (<= 16).
    """
    deg = _poly_degree(poly)
    if deg < 1:
        return False
    if deg == 1:
        return True
    for q in range(2, 1 << (deg // 2 + 1)):
        if _poly_mod(poly, q) == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_polynomial(m: int) -> int:
    """Lexicographically least irreducible polynomial of degree m."""
    if not MIN_M <= m <= MAX_M:
        raise ValueError(f"extension degree m={m} outside supported range "
                         f"[{MIN_M}, {MAX_M}]")
    # Candidates need a nonzero constant term, otherwise x divides them.
    for p in range((1 << m) + 1, 1 << (m + 1), 2):
        if is_irreducible(p):
            return p
    raise AssertionError(f"no irreducible polynomial of degree {m}")


class Field:
    """GF(2^m) with a fixed reduction polynomial.

    Immutable after construction (the lazy numpy tables are write-once
    caches), so instances are safe to share across threads.
    """

    def __init__(self, m: int, reduction_poly: int | None = None) -> None:
        if not MIN_M <= m <= MAX_M:
            raise ValueError(f"extension degree m={m} outside supported range "
                             f"[{MIN_M}, {MAX_M}]")
        if reduction_poly is None:
            reduction_poly = canonical_polynomial(m)
        if _poly_degree(reduction_poly) != m:
            raise ValueError(f"reduction polynomial {reduction_poly:#x} does "
                             f"not have degree {m}")
        if not is_irreducible(reduction_poly):
            raise ValueError(f"reduction polynomial {reduction_poly:#x} is "
                             f"reducible over GF(2)")
        self.m = m
        self.poly = reduction_poly
        self.order = 1 << m
        self._tables: dict = {}

    # ------------------------------------------------------------------
    # scalar arithmetic
    # ------------------------------------------------------------------

    def check(self, x: int) -> int:
        """Validate that x encodes an element of this field."""
        if not isinstance(x, (int, np.integer)):
            raise TypeError(f"field element must be int, got {type(x)!r}")
        if not 0 <= x < self.order:
            raise ValueError(f"{x:#x} is not an element of GF(2^{self.m}) "
                             f"(wrong field?)")
        return int(x)

    def add(self, x: int, y: int) -> int:
        """x + y (coefficient-wise XOR)."""
        return self.check(x) ^ self.check(y)

    def mul(self, x: int, y: int) -> int:
        """x * y reduced modulo the reduction polynomial."""
        a = self.check(x)
        b = self.check(y)
        r = 0
        top = 1 << self.m
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & top:
                a ^= self.poly
            b >>= 1
        return r

    def sqr(self, x: int) -> int:
        return self.mul(x, x)

    def inv(self, x: int) -> int:
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.check(x) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        r0, r1 = self.poly, x
        s0, s1 = 0, 1
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ _poly_mul(q, s1)
        # r0 is the gcd, necessarily 1 since the modulus is irreducible.
        return _poly_mod(s0, self.poly)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        """x^e by square-and-multiply, with 0^0 = 1.

        For nonzero x the exponent is reduced mod 2^m - 1; for x = 0 it is
        not (0^e = 0 for every e > 0).
        """
        self.check(x)
        if e < 0:
            raise ValueError("negative exponent; use inv() and a positive one")
        if x == 0:
            return 0 if e else 1
        e %= self.order - 1
        r = 1
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def frobenius(self, x: int, e: int = 1) -> int:
        """x^(2^e); e may be negative and is interpreted mod m."""
        self.check(x)
        e %= self.m
        if e == 0:
            return int(x)
        return int(self.frobenius_table(e)[x])

    def trace(self, x: int) -> int:
        """Absolute trace x + x^2 + ... + x^(2^(m-1)), always 0 or 1."""
        self.check(x)
        acc = 0
        y = x
        for _ in range(self.m):
            acc ^= y
            y = self.mul(y, y)
        return acc

    def is_cube(self, x: int) -> bool:
        """Whether x = y^3 for some y.

        Cubing is a bijection when m is odd (gcd(3, 2^m - 1) = 1); for even
        m the nonzero cubes are the index-3 subgroup.
        """
        self.check(x)
        if self.m % 2 == 1 or x == 0:
            return True
        return self.pow(x, (self.order - 1) // 3) == 1

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def to_hex(self, x: int) -> str:
        """Lowercase hex of the coefficient bit-vector."""
        return format(self.check(x), "x")

    def from_hex(self, s: str) -> int:
        return self.check(int(s, 16))

    def poly_hex(self) -> str:
        return format(self.poly, "x")

    # ------------------------------------------------------------------
    # bulk numpy tables (lazy, write-once)
    # ------------------------------------------------------------------

    def _cached(self, key, build):
        tab = self._tables.get(key)
        if tab is None:
            tab = build()
            self._tables[key] = tab
        return tab

    @property
    def log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, exp) to the least primitive g; x is not always primitive.

        exp[i] = g^i for i < 2(q-1), so exp[log[a] + log[b]] needs no mod;
        log[0] = 0 is a placeholder that callers mask.
        """

        def build():
            q = self.order
            for g in range(2, q):
                powers = [1]
                while (x := self.mul(powers[-1], g)) != 1:
                    powers.append(x)
                if len(powers) == q - 1:
                    break
            exp = np.array(powers + powers, dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            log[exp[:q - 1]] = np.arange(q - 1, dtype=np.int64)
            return log, exp

        return self._cached("logexp", build)

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise products; a and b broadcast (ints or int arrays)."""
        log, exp = self.log_exp
        a, b = np.asarray(a), np.asarray(b)
        return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])

    @property
    def mul_table(self) -> np.ndarray:
        """Full (2^m, 2^m) multiplication table; only for m <= 8."""
        if self.m > BULK_TABLE_MAX_M:
            raise MemoryError(f"mul_table not built for m={self.m} > "
                              f"{BULK_TABLE_MAX_M}")

        def build():
            idx = np.arange(self.order, dtype=np.int64)
            return self.mul_array(idx[:, None], idx[None, :])

        return self._cached("mul", build)

    def frobenius_table(self, e: int) -> np.ndarray:
        """Vector of x -> x^(2^e) over all field elements."""
        e %= self.m

        def build():
            log, exp = self.log_exp
            t = exp[(log << e) % (self.order - 1)]
            t[0] = 0
            return t

        return self._cached(("frob", e), build)

    @property
    def trace_masks(self) -> np.ndarray:
        """masks[c] has bit i set iff trace(c * x^i) = 1.

        trace(c * v) = parity(popcount(v & masks[c])), which turns the trace
        pairing into a cheap bitwise operation; masks[.] is also the linear
        substitution that carries the trace pairing to the plain bitwise dot
        product on indices.
        """

        def build():
            base = [sum(self.trace(self.mul(1 << t, 1 << i)) << i
                        for i in range(self.m)) for t in range(self.m)]
            masks = np.zeros(self.order, dtype=np.int64)
            idx = np.arange(self.order)
            for t in range(self.m):
                masks ^= np.where((idx >> t) & 1, base[t], 0)
            return masks

        return self._cached("trmask", build)

    @property
    def scalar_mul(self):
        """Unchecked scalar multiply over the log/antilog tables."""

        def build():
            log, exp = (t.tolist() for t in self.log_exp)

            def mul(a, b, _log=log, _exp=exp):
                return _exp[_log[a] + _log[b]] if a and b else 0

            return mul

        return self._cached("scalar_mul", build)

    @property
    def parity_table(self) -> np.ndarray:
        """parity_table[v] = popcount(v) mod 2 for v < 2^m."""

        def build():
            v = np.arange(self.order, dtype=np.int64)
            for shift in (16, 8, 4, 2, 1):
                v ^= v >> shift
            return (v & 1).astype(np.uint8)

        return self._cached("parity", build)

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.m == other.m
                and self.poly == other.poly)

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, poly={self.poly:#x})"


@functools.lru_cache(maxsize=None)
def field(m: int) -> Field:
    """The canonical GF(2^m) (shared instance, one per degree)."""
    return Field(m)
