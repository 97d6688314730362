"""Exact arithmetic in F_p and in the quadratic extension F_p[Z]/(Z^2 - e*Z + 1).

The quotient by the characteristic polynomial itself is used as the model of
F_{p^2}, so the distinguished root theta is literally the class of Z when the
polynomial is irreducible.  When it splits, every quantity of interest lives
in the c1 = 0 subring and the same code degrades gracefully to F_p.

FpElem is the config type (matrix entries and seeds).  Everything
past the config boundary runs on raw ints and (c0, c1) int pairs, F_p
elements being the pairs (x, 0): square roots, roots, orders and the group
generators the Weil kernels enumerate.  Orders come from the factorisation of
p - 1 or p + 1: trial division by small primes, then Pollard-Brent rho.  The
object extension (QuadExtension, Fp2Elem) lives in tests/oracles.py as the
per-step oracle.
All canonical choices (square roots, primitive roots, root ordering) take the
smallest representative so that downstream outputs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class RepeatedRoot(ValueError):
    """Z^2 - e*Z + 1 has a double root (e = 2 or e = -2)."""


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
    """Prime factorisation, primes ascending: trial division below 2^10, then Pollard-Brent rho.

    A cofactor that is_prime passes is a prime factor; a composite one is split
    by _rho_factor and both parts go round again.  Below 2^63 the worst case, two
    factors near 2^31, takes ~0.1 s on one x86 core.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    fac: dict[int, int] = {}
    for q in (2, *range(3, 1 << 10, 2)):
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
        else:
            q = _rho_factor(m)
            rest += [q, m // q]
    return dict(sorted(fac.items()))


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's cycle search (BIT 20, 1980).

    y -> y^2 + c mod n is compared with x, the value at the last power-of-two
    step; a walk that closes mod n moves on to the next c.
    """
    for c in range(1, n):
        x = y = 2
        r = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g
    raise AssertionError(f"no factor of {n} found")


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
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

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
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
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

    def __repr__(self):
        return f"FpElem({self.value} mod {self.p})"


def sqrt_mod(n: int, p: int) -> int | None:
    """Canonical square root of n mod p (the smaller of the two), or None for non-residues.

    Tonelli-Shanks with the smallest non-residue as the auxiliary element;
    at p = 3 mod 4 (s = 1) its first guess n^((p+1)/4) is already the root.
    """
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s with q odd
    q = (p - 1) >> s
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
    return min(r, p - r)


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


def _inv_pair(z: tuple[int, int], e: int, p: int) -> tuple[int, int] | None:
    """1/z on a raw int pair through its conjugate (z0 + e*z1, -z1) and norm; None when the norm is 0."""
    z0, z1 = z
    norm = (z0 * z0 + e * z0 * z1 + z1 * z1) % p
    if not norm:
        return None
    inv = pow(norm, -1, p)
    return (z0 + e * z1) * inv % p, -z1 * inv % p


def _pow_pairs(z: tuple[int, int], n: int, e: int, p: int) -> tuple[int, int]:
    """(z0 + z1*Z)^n for n >= 0 by square-and-multiply on raw int pairs."""
    out = (1, 0)
    while n:
        if n & 1:
            out = _mul_pairs(out, z, e, p)
        z = _mul_pairs(z, z, e, p)
        n >>= 1
    return out


def _powers(g: tuple[int, int], n: int, e: int, p: int) -> np.ndarray:
    """g^0, ..., g^(n-1) (n >= 1) as a (2, n) int64 pair array; F_p powers are the pairs (g, 0).

    Doubling as in _orbit_prefix: out[:, k:2k] = g^k * out[:, :k], g^k squared on ints.
    """
    out = np.empty((2, n), dtype=np.int64)
    out[:, 0] = (1, 0)
    k, g_k = 1, (g[0] % p, g[1] % p)  # g^k
    while k < n:
        m = min(k, n - k)
        out[0, k : k + m], out[1, k : k + m] = _mul_pairs(out[:, :m], g_k, e, p)
        g_k = _mul_pairs(g_k, g_k, e, p)
        k += m
    return out


def char_poly_roots(e: int, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both roots (theta, theta^-1) of Z^2 - e*Z + 1 as pairs in F_p[Z]/(Z^2 - e*Z + 1).

    In the irreducible case theta is the class of Z itself, (0, 1); in the
    split case both roots sit in F_p (c1 = 0) and theta is the smaller one,
    so the choice is reproducible.  Raises RepeatedRoot when e = +-2.
    """
    e %= p
    disc = (e * e - 4) % p
    if not disc:
        raise RepeatedRoot(f"Z^2 - {e}*Z + 1 has a double root mod {p}")
    r = sqrt_mod(disc, p)
    if r is None:
        return (0, 1), (e, p - 1)
    half = (p + 1) // 2
    r1, r2 = sorted(((e - r) * half % p, (e + r) * half % p))
    return (r1, 0), (r2, 0)


def mult_order(z: tuple[int, int], e: int, p: int, n: int) -> int:
    """Least t dividing n with z^t = (1, 0) for z in F_p[Z]/(Z^2 - e*Z + 1); x in F_p is (x, 0).

    Descends from n through its factorisation; raises ValueError when z^n != (1, 0).
    """
    if _pow_pairs(z, n, e, p) != (1, 0):
        raise ValueError(f"{z} mod {p} has no order dividing {n}")
    t = n
    for q in _factorize_cached(n):
        while t % q == 0 and _pow_pairs(z, t // q, e, p) == (1, 0):
            t //= q
    return t


def primitive_root(p: int) -> int:
    """Smallest g >= 2 generating F_p^* (deterministic choice)."""
    exps = [(p - 1) // q for q in _factorize_cached(p - 1)]
    g = 2
    while not all(pow(g, k, p) != 1 for k in exps):
        g += 1
    return g


def norm_group_generator(e: int, p: int) -> tuple[int, int]:
    """A generator of the order-(p+1) group of norm-one elements of F_p[Z]/(Z^2 - e*Z + 1).

    Candidates are w^(p-1) for w scanned in lexicographic (c1, c0) order
    starting at Z; by Hilbert 90 this map is onto the norm-one group, so the
    scan terminates, and it is deterministic.  Raises ValueError
    unless e^2 - 4 is a non-residue mod p (a double root, e = +-2, included).
    """
    e %= p
    if sqrt_mod(e * e - 4, p) is not None:
        raise ValueError(f"Z^2 - {e}*Z + 1 splits mod {p}; its norm-one set is not a (p+1)-group")
    for c1 in range(1, p):
        for c0 in range(p):
            z = _pow_pairs((c0, c1), p - 1, e, p)
            if mult_order(z, e, p, p + 1) == p + 1:
                return z
    raise AssertionError("norm-one group exhausted without finding a generator")
