"""Exact arithmetic in F_p and in the quadratic extension F_p[Z]/(Z^2 - e*Z + 1).

The quotient by the characteristic polynomial itself is used as the model of
F_{p^2}, so the distinguished root theta is literally the class of Z when the
polynomial is irreducible.  When it splits, every quantity of interest lives
in the c1 = 0 subring and the same code degrades gracefully to F_p.

Group-theoretic utilities (orders, generators, discrete logs, square roots)
are tuned for desk-scale moduli: multiplicative orders come from trial-division
factorisation of p - 1 and p + 1, discrete logs from baby-step/giant-step.
All canonical choices (square roots, primitive roots, root ordering) take the
smallest representative so that downstream outputs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np


class ModulusMismatch(ValueError):
    """Operands belong to different prime fields."""


class ZeroInverse(ZeroDivisionError):
    """Inversion of zero (or of a zero divisor in a split quotient ring)."""


class ZeroElement(ValueError):
    """Multiplicative order requested for a non-unit."""


class RepeatedRoot(ValueError):
    """Z^2 - e*Z + 1 has a double root (e = 2 or e = -2)."""


class ReducibleExtension(ValueError):
    """Operation requires Z^2 - e*Z + 1 to be irreducible over F_p."""


class NotInGroup(ValueError):
    """Element is not in the cyclic group spanned by the given generator."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division (fine up to ~10**14)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    fac: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                fac[q] = fac.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


_factorize_cached = lru_cache(maxsize=4096)(factorize)


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime p, checked deterministically at construction."""

    p: int

    def __post_init__(self):
        if not (3 <= self.p < 2**63):
            raise ValueError(f"modulus must satisfy 3 <= p < 2**63, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def elem(self, value: int) -> "FpElem":
        return FpElem(value, self)

    @property
    def zero(self) -> "FpElem":
        return FpElem(0, self)

    @property
    def one(self) -> "FpElem":
        return FpElem(1, self)

    def __repr__(self):
        return f"PrimeModulus({self.p})"


@dataclass(frozen=True)
class FpElem:
    """Canonical residue in [0, p); immutable, usable as a dict key."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus.p)

    @property
    def p(self) -> int:
        return self.modulus.p

    def _same_field(self, other: "FpElem"):
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "FpElem") -> "FpElem":
        self._same_field(other)
        return FpElem(self.value + other.value, self.modulus)

    def __sub__(self, other: "FpElem") -> "FpElem":
        self._same_field(other)
        return FpElem(self.value - other.value, self.modulus)

    def __mul__(self, other: "FpElem") -> "FpElem":
        self._same_field(other)
        return FpElem(self.value * other.value, self.modulus)

    def __neg__(self) -> "FpElem":
        return FpElem(-self.value, self.modulus)

    def inv(self) -> "FpElem":
        if self.value == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return FpElem(pow(self.value, self.p - 2, self.p), self.modulus)

    def __truediv__(self, other: "FpElem") -> "FpElem":
        self._same_field(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "FpElem":
        if n < 0:
            return self.inv() ** (-n)
        return FpElem(pow(self.value, n, self.p), self.modulus)

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self):
        return f"FpElem({self.value} mod {self.p})"


def sqrt_mod(a: FpElem) -> FpElem | None:
    """Canonical square root (the smaller of the two), or None for non-residues.

    Tonelli-Shanks with the smallest quadratic non-residue as the auxiliary
    element, so the answer is deterministic.
    """
    p = a.p
    n = a.value
    if n == 0:
        return a
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    else:
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return FpElem(min(r, p - r), a.modulus)


@dataclass(frozen=True)
class QuadExtension:
    """The quotient ring F_p[Z]/(Z^2 - e*Z + 1).

    A field exactly when e^2 - 4 is a non-residue; the repeated-root case
    e = +-2 is rejected outright because none of the downstream formulas
    survive it.
    """

    modulus: PrimeModulus
    e: FpElem

    def __post_init__(self):
        if self.e.modulus != self.modulus:
            raise ModulusMismatch("trace coefficient lives in a different field")
        if not self.discriminant:
            raise RepeatedRoot(f"Z^2 - {self.e.value}*Z + 1 has a double root mod {self.p}")

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def discriminant(self) -> FpElem:
        return self.e * self.e - self.modulus.elem(4)

    @cached_property
    def is_irreducible(self) -> bool:
        return sqrt_mod(self.discriminant) is None

    def elem(self, c0: int | FpElem, c1: int | FpElem = 0) -> "Fp2Elem":
        if isinstance(c0, int):
            c0 = self.modulus.elem(c0)
        if isinstance(c1, int):
            c1 = self.modulus.elem(c1)
        return Fp2Elem(c0, c1, self)

    def embed(self, a: FpElem) -> "Fp2Elem":
        return Fp2Elem(a, self.modulus.zero, self)

    @property
    def zero(self) -> "Fp2Elem":
        return self.elem(0, 0)

    @property
    def one(self) -> "Fp2Elem":
        return self.elem(1, 0)

    def __repr__(self):
        return f"QuadExtension(Z^2 - {self.e.value}*Z + 1 mod {self.p})"


_INT64_EXACT = 1 << 31  # below this, a*x + b*y of residues stays exact in int64
_BLOCK = 1 << 14  # entries per block of the array kernels, so Python-int temporaries stay small


def _residues(values: np.ndarray, p: int) -> np.ndarray:
    """Residues mod p in a dtype where u*x + v*y of two of them stays exact.

    Below 2^31 that is int64 itself; above, Python ints in an object array.
    """
    return values if p < _INT64_EXACT else values.astype(object)


def _pow_mod(base, exp: int, p: int):
    """base**exp mod p per entry by square-and-multiply.

    base is an int64 array (exact for p < _INT64_EXACT) or an object array
    of Python ints (exact for every p).
    """
    out = np.ones_like(base)
    while exp:
        if exp & 1:
            out = out * base % p
        base = base * base % p
        exp >>= 1
    return out


_LANES = 1024


def _inv_mod(x, p: int):
    """1/x mod p per entry of a 1-d int64 or object array; entries 0 stay 0.

    Montgomery's trick on lanes: the entries fill rows of up to _LANES
    lanes, running products go down each lane, one _pow_mod(., p - 2, p)
    inverts the lane totals, and a backward sweep peels off every inverse.
    That is about three products per entry, against 2*log2(p) for a Fermat
    power per entry, plus one Python step per row.
    """
    n = x.size
    if not n:
        return x.copy()
    width = min(n, _LANES)
    rows = -(-n // width)
    zero = x == 0
    lane = np.ones(rows * width, dtype=x.dtype)
    lane[:n] = x
    lane[:n][zero] = 1
    lane = lane.reshape(rows, width)
    run = np.empty_like(lane)  # run[r] = lane[0] * ... * lane[r]
    run[0] = lane[0]
    for r in range(1, rows):
        run[r] = run[r - 1] * lane[r] % p
    inv = _pow_mod(run[-1], p - 2, p)  # 1 / run[r] for r = rows - 1
    for r in range(rows - 1, 0, -1):
        run[r] = inv * run[r - 1] % p  # 1 / lane[r]
        inv = inv * lane[r] % p  # 1 / run[r - 1]
    run[0] = inv
    out = run.reshape(-1)[:n]
    out[zero] = 0
    return out


def _mul_pairs(a, b, e: int, p: int):
    """(a0 + a1*Z)(b0 + b1*Z) mod (p, Z^2 - e*Z + 1) on coordinate pairs.

    The coordinates may be ints or int64 arrays (exact there while 3*p^2 < 2^63).
    """
    cross = a[1] * b[1] % p
    return (a[0] * b[0] - cross) % p, (a[0] * b[1] + a[1] * b[0] + e * cross) % p


def _pow_pairs(z: tuple[int, int], n: int, e: int, p: int) -> tuple[int, int]:
    """(z0 + z1*Z)^n for n >= 0 by square-and-multiply on raw int pairs."""
    out = (1, 0)
    while n:
        if n & 1:
            out = _mul_pairs(out, z, e, p)
        z = _mul_pairs(z, z, e, p)
        n >>= 1
    return out


@dataclass(frozen=True)
class Fp2Elem:
    """c0 + c1*Z in F_p[Z]/(Z^2 - e*Z + 1); reduction Z^2 -> e*Z - 1 is canonical."""

    c0: FpElem
    c1: FpElem
    ext: QuadExtension

    @property
    def p(self) -> int:
        return self.ext.p

    def _same_ring(self, other: "Fp2Elem"):
        if self.ext != other.ext:
            raise ModulusMismatch("operands belong to different quadratic extensions")

    def __add__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        return Fp2Elem(self.c0 + other.c0, self.c1 + other.c1, self.ext)

    def __sub__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        return Fp2Elem(self.c0 - other.c0, self.c1 - other.c1, self.ext)

    def __neg__(self) -> "Fp2Elem":
        return Fp2Elem(-self.c0, -self.c1, self.ext)

    def __mul__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        a = (self.c0.value, self.c1.value)
        c0, c1 = _mul_pairs(a, (other.c0.value, other.c1.value), self.ext.e.value, self.p)
        m = self.ext.modulus
        return Fp2Elem(FpElem(c0, m), FpElem(c1, m), self.ext)

    def conj(self) -> "Fp2Elem":
        """Frobenius image z^p, i.e. the substitution Z -> e - Z."""
        return Fp2Elem(self.c0 + self.ext.e * self.c1, -self.c1, self.ext)

    def trace(self) -> FpElem:
        return self.c0 + self.c0 + self.ext.e * self.c1

    def norm(self) -> FpElem:
        return self.c0 * self.c0 + self.ext.e * self.c0 * self.c1 + self.c1 * self.c1

    def inv(self) -> "Fp2Elem":
        nm = self.norm()
        if not nm:
            if not self:
                raise ZeroInverse(f"0 has no inverse in {self.ext!r}")
            raise ZeroInverse(f"{self!r} is a zero divisor (norm 0) and has no inverse")
        ninv = nm.inv()
        cj = self.conj()
        return Fp2Elem(cj.c0 * ninv, cj.c1 * ninv, self.ext)

    def __truediv__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "Fp2Elem":
        if n < 0:
            return self.inv() ** (-n)
        return self.ext.elem(*_pow_pairs((self.c0.value, self.c1.value), n, self.ext.e.value, self.p))

    def __bool__(self) -> bool:
        return bool(self.c0) or bool(self.c1)

    def __repr__(self):
        return f"Fp2Elem({self.c0.value} + {self.c1.value}*Z mod {self.p})"


def char_poly_roots(ext: QuadExtension) -> tuple[Fp2Elem, Fp2Elem]:
    """Both roots (theta, theta^-1) of Z^2 - e*Z + 1 inside the quotient ring.

    In the irreducible case theta is the class of Z itself; in the split case
    both roots sit in F_p (c1 = 0).  Ties break to the lexicographically
    smaller (c1, c0) pair so the choice is reproducible.
    """
    r = sqrt_mod(ext.discriminant)
    if r is None:
        return ext.elem(0, 1), ext.elem(ext.e, ext.modulus.elem(-1))
    half = ext.modulus.elem(2).inv()
    r1 = (ext.e - r) * half
    r2 = (ext.e + r) * half
    if r2.value < r1.value:
        r1, r2 = r2, r1
    return ext.embed(r1), ext.embed(r2)


def _merged_factors(p: int, *ns: int) -> dict[int, int]:
    fac: dict[int, int] = {}
    for n in ns:
        for q, k in _factorize_cached(n).items():
            fac[q] = fac.get(q, 0) + k
    return fac


def mult_order(z: FpElem | Fp2Elem) -> int:
    """Least t >= 1 with z^t = 1.

    The ambient group order is p - 1 for F_p, p + 1 for norm-one elements of
    an irreducible extension, and p^2 - 1 otherwise; orders descend through
    the trial-division factorisation of that bound.  Powers are taken on raw
    ints, or on raw (c0, c1) int pairs in the extension.
    """
    if not z:
        raise ZeroElement("0 has no multiplicative order")
    p = z.p
    if isinstance(z, FpElem):
        one, power = 1, partial(pow, z.value, mod=p)
        fac = _factorize_cached(p - 1)
        t = p - 1
    else:
        if not z.norm():
            raise ZeroElement("zero divisor has no multiplicative order")
        one, power = (1, 0), partial(_pow_pairs, (z.c0.value, z.c1.value), e=z.ext.e.value, p=p)
        if z.ext.is_irreducible and z.norm().value == 1:
            fac = _factorize_cached(p + 1)
            t = p + 1
        else:
            fac = _merged_factors(p, p - 1, p + 1)
            t = p * p - 1
    for q in fac:
        while t % q == 0 and power(t // q) == one:
            t //= q
    if power(t) != one:
        raise ZeroElement(f"{z!r} does not lie in the expected ambient group")
    return t


def primitive_root(modulus: PrimeModulus) -> FpElem:
    """Smallest g >= 2 generating F_p^* (deterministic choice)."""
    p = modulus.p
    exps = [(p - 1) // q for q in _factorize_cached(p - 1)]
    g = 2
    while True:
        if all(pow(g, k, p) != 1 for k in exps):
            return modulus.elem(g)
        g += 1


def norm_group_generator(ext: QuadExtension) -> Fp2Elem:
    """A generator of the order-(p+1) group of norm-one elements.

    Candidates are w^(p-1) for w scanned in lexicographic (c1, c0) order
    starting at Z; by Hilbert 90 this map is onto the norm-one group, so the
    scan terminates, and it is deterministic.
    """
    if not ext.is_irreducible:
        raise ReducibleExtension(f"{ext!r} splits; its norm-one set is not a (p+1)-group")
    p = ext.p
    target = p + 1
    for c1 in range(1, p):
        for c0 in range(p):
            z = ext.elem(c0, c1) ** (p - 1)
            if mult_order(z) == target:
                return z
    raise AssertionError("norm-one group exhausted without finding a generator")


def discrete_index(x: FpElem | Fp2Elem, g: FpElem | Fp2Elem, order: int) -> int:
    """The unique i in [0, order) with g^i = x, by baby-step/giant-step.

    Intended for desk-scale groups (order up to ~10^12 in principle, ~10^6
    in practice); raises NotInGroup when x is outside <g>.
    """
    if order < 1:
        raise ValueError("order must be positive")
    m = math.isqrt(order - 1) + 1
    baby: dict[object, int] = {}
    cur = x.modulus.one if isinstance(x, FpElem) else x.ext.one
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * g
    giant = (g**m).inv()
    cur = x
    for i in range(m):
        j = baby.get(cur)
        if j is not None:
            ind = (i * m + j) % order
            if g**ind == x:
                return ind
        cur = cur * giant
    raise NotInGroup(f"{x!r} is not a power of {g!r}")
