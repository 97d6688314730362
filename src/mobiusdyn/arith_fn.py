"""Arithmetic functions and characters.

The Mobius function comes in two forms: a segmented numpy sieve (the fast
path) and a trial-division oracle (slow, independent, used to cross-check the
sieve).  Characters carry their phases as exact integer fractions that are
reduced mod 1 in integer arithmetic before any transcendental call, so a sum
of 10^9 unit-circle terms accumulates no phase drift beyond per-term epsilon.
Mobius tables persist through `_atomic_write`, which the CLI uses for its
artifacts as well.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field_arith import Fp2Elem, FpElem


class TableTooSmall(ValueError):
    """A sum asked for mu(n) beyond the table limit."""


class LimitOverflow(ValueError):
    """Requested sieve limit exceeds the supported range."""


_TWO_PI = 2.0 * math.pi


def unit_circle(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den), with the phase reduced mod 1 exactly in integers."""
    if den == 0:
        raise ZeroDivisionError("phase denominator is zero")
    if den < 0:
        raise ValueError("phase denominator must be positive")
    frac = (num % den) / den
    return complex(math.cos(_TWO_PI * frac), math.sin(_TWO_PI * frac))


def primes_up_to(n: int) -> list[int]:
    """All primes <= n via a dense boolean sieve."""
    if n < 2:
        return []
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return np.flatnonzero(flags).tolist()


_PRIMES_RANGE_MAX = 10**9


def primes_in(lo: float, hi: float) -> list[int]:
    """Ascending primes in the half-open real interval [lo, hi); segmented sieve."""
    if hi > _PRIMES_RANGE_MAX + 1:
        raise LimitOverflow(f"prime enumeration capped at {_PRIMES_RANGE_MAX}")
    lo_i = max(2, math.ceil(lo))
    hi_i = math.ceil(hi)
    if hi_i <= lo_i:
        return []
    flags = np.ones(hi_i - lo_i, dtype=bool)
    for q in primes_up_to(math.isqrt(hi_i - 1)):
        start = max(q * q, ((lo_i + q - 1) // q) * q)
        if start < hi_i:
            flags[start - lo_i :: q] = False
    return (np.flatnonzero(flags) + lo_i).tolist()


def _atomic_write(path: Path, *chunks) -> None:
    """Write the chunks (bytes-like) to a temporary file beside path, then rename it over path.

    An interrupted write leaves path as it was and no temporary file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class MobiusTable:
    """Dense mu(1..limit) as a signed-byte array; values[0] is unused (0)."""

    limit: int
    values: np.ndarray

    _MAGIC = b"MUTB"
    _VERSION = 1

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise TableTooSmall(f"mu({n}) outside table limit {self.limit}")
        return int(self.values[n])

    def save(self, path) -> None:
        """Flat binary: magic, u32 version, u64 limit, then limit signed bytes, written atomically."""
        header = self._MAGIC + struct.pack("<IQ", self._VERSION, self.limit)
        _atomic_write(Path(path), header, self.values[1:])

    @classmethod
    def load(cls, path) -> "MobiusTable":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != cls._MAGIC:
                raise ValueError(f"not a Mobius table file (magic {magic!r})")
            header = fh.read(12)
            if len(header) != 12:
                raise ValueError("truncated Mobius table header")
            version, limit = struct.unpack("<IQ", header)
            if version != cls._VERSION:
                raise ValueError(f"unsupported table version {version}")
            stored = os.fstat(fh.fileno()).st_size - 16
            if stored != limit:
                raise ValueError(f"Mobius table header promises {limit} values, the file holds {stored}")
            body = np.frombuffer(fh.read(limit), dtype=np.int8)
        if limit and (body.min() < -1 or body.max() > 1):
            raise ValueError("Mobius table holds values outside {-1, 0, 1}")
        values = np.zeros(limit + 1, dtype=np.int8)
        values[1:] = body
        return cls(limit, values)


_SEGMENT = 1 << 18


def mobius_sieve(limit: int) -> MobiusTable:
    """Exact mu(1..limit) by a segmented multiplicative sieve.

    Per segment: flip the sign once for every prime divisor q <= sqrt(limit),
    zero out multiples of q^2, and multiply q into the product of the small
    prime divisors.  A squarefree n whose product falls short of n has
    exactly one prime factor above sqrt(limit), which flips the sign once more.
    """
    if not 1 <= limit <= 10**9:
        raise LimitOverflow("sieve limit must be in [1, 10**9]")
    base = primes_up_to(math.isqrt(limit))
    mu = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = mu[lo:hi]
        seg[:] = 1
        prod = np.ones(hi - lo, dtype=np.int32)  # divides n <= 10**9 < 2**31
        for q in base:
            start = ((lo + q - 1) // q) * q
            if start >= hi:
                continue
            seg[start - lo :: q] *= -1
            prod[start - lo :: q] *= q
            qq = q * q
            start = ((lo + qq - 1) // qq) * qq
            if start < hi:
                seg[start - lo :: qq] = 0
        big = prod < np.arange(lo, hi, dtype=np.int32)
        seg[big] = -seg[big]
    return MobiusTable(limit, mu)


_ORACLE_PRIME_BOUND = 1000


def _small_primes_by_trial() -> list[int]:
    ps: list[int] = []
    for m in range(2, _ORACLE_PRIME_BOUND + 1):
        if all(m % q for q in ps if q * q <= m):
            ps.append(m)
    return ps


_ORACLE_PRIMES = _small_primes_by_trial()


def mobius_oracle(n: int) -> int:
    """mu(n) by plain trial division; independent of the sieve machinery."""
    if n < 1:
        raise ValueError("mu is defined on positive integers")
    if n == 1:
        return 1
    sign = 1
    m = n
    for q in _ORACLE_PRIMES:
        if q * q > m:
            break
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            sign = -sign
    else:
        d = _ORACLE_PRIME_BOUND + 9  # 1009, first prime past the precomputed list
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                sign = -sign
            d += 2
    if m > 1:
        sign = -sign
    return sign


@dataclass(frozen=True)
class AdditiveCharacter:
    """psi_u : x -> e(u*x/p) on F_p; nontrivial exactly when u != 0."""

    u: FpElem

    @property
    def p(self) -> int:
        return self.u.p

    @property
    def is_nontrivial(self) -> bool:
        return bool(self.u)

    def __call__(self, x: FpElem) -> complex:
        if x.modulus != self.u.modulus:
            raise ValueError("argument lives in a different field")
        return unit_circle(self.u.value * x.value, self.p)


@dataclass(frozen=True)
class MultiplicativeCharacter:
    """x -> e(multiplier * ind(x)/order) on the cyclic group spanned by `generator`.

    A description only: the Weil kernels evaluate it on whole groups at once.
    """

    generator: FpElem | Fp2Elem
    order: int
    multiplier: int
