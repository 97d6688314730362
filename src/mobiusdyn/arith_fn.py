"""Arithmetic functions: the Mobius function and the primes.

The Mobius function comes in two forms: a segmented signed-product sieve
(up to _SIEVE_LIMIT) and a chunked smallest-prime-factor recurrence that
shares no code with it (`mobius-check` compares the two).  The sieve keeps
one int32 array per segment of 9 * 30030 integers, holding for each n the
product of -q over its sieving primes q (0 once some q^2 divides n); the
primes up to 13 come from a pre-sieved wheel pattern of period
2*3*5*7*11*13 = 30030.  `mobius_segments` hands out mu segment by segment,
so a sum can fold each one in as it arrives and never hold mu(1..N);
`mobius_sieve` concatenates them into the dense table that `mobius-check`
and the mu-cache file use.  A saved table is read back whole
(`MobiusTable.load`) or slice by slice (`MobiusTable.slices`, the way the
CLI reads a cache).

No character is an object here: the sum kernels in char_sums take an
additive character psi_u(x) = e(u*x/p) as the int u, and a multiplicative
character as the multiplier h of their group's own generator.  Mobius tables
persist through `_atomic_write`, which the CLI uses for its artifacts as well.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import struct
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class TableTooSmall(ValueError):
    """A sum asked for mu(n) beyond the table limit."""


class LimitOverflow(ValueError):
    """Requested sieve limit exceeds the supported range."""


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


def primes_in(lo: float, hi: float) -> np.ndarray:
    """Ascending primes in the half-open real interval [lo, hi) as int64.

    A segmented sieve over the odd numbers only, flags[k] standing for
    base + 2k with base the first odd integer >= lo; 2 is added when lo <= 2.
    """
    if hi > _PRIMES_RANGE_MAX + 1:
        raise LimitOverflow(f"prime enumeration capped at {_PRIMES_RANGE_MAX}")
    lo_i = max(2, math.ceil(lo))
    hi_i = math.ceil(hi)
    if hi_i <= lo_i:
        return np.empty(0, dtype=np.int64)
    base = lo_i | 1
    flags = np.ones((hi_i - base + 1) // 2, dtype=bool)
    for q in primes_up_to(math.isqrt(hi_i - 1))[1:]:
        start = max(q * q, ((base + q - 1) // q) * q)
        if start % 2 == 0:  # odd q: the next multiple is odd
            start += q
        if start < hi_i:
            flags[(start - base) // 2 :: q] = False
    odd = np.flatnonzero(flags) * 2 + base
    return np.concatenate(([2], odd)) if lo_i == 2 else odd


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
    _HEADER = 16  # bytes: magic, u32 version, u64 limit

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise TableTooSmall(f"mu({n}) outside table limit {self.limit}")
        return int(self.values[n])

    def save(self, path) -> None:
        """Flat binary: magic, u32 version, u64 limit, then limit signed bytes, written atomically."""
        header = self._MAGIC + struct.pack("<IQ", self._VERSION, self.limit)
        _atomic_write(Path(path), header, self.values[1:])


    @classmethod
    def _limit(cls, fh) -> int:
        """The limit in the header of the open table file fh, held to the file size; fh is left after the header."""
        magic = fh.read(4)
        if magic != cls._MAGIC:
            raise ValueError(f"not a Mobius table file (magic {magic!r})")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError("truncated Mobius table header")
        version, limit = struct.unpack("<IQ", header)
        if version != cls._VERSION:
            raise ValueError(f"unsupported table version {version}")
        stored = os.fstat(fh.fileno()).st_size - cls._HEADER
        if stored != limit:
            raise ValueError(f"Mobius table header promises {limit} values, the file holds {stored}")
        return limit

    @classmethod
    def load(cls, path) -> "MobiusTable":
        with open(path, "rb") as fh:
            limit = cls._limit(fh)
            body = _mu_values(fh.read(limit))
        values = np.zeros(limit + 1, dtype=np.int8)
        values[1:] = body
        return cls(limit, values)

    @classmethod
    def slices(cls, path, limit: int) -> Iterator[tuple[int, np.ndarray]]:
        """mu(1..limit) from a saved table as (start, values) pairs of _SEGMENT values at most, in order.

        The header is checked on the call, and TableTooSmall raised when the
        file holds fewer than limit values; each slice is read and checked
        (ValueError outside {-1, 0, 1}) only when it is drawn.  No file stays
        open between draws.
        """
        with open(path, "rb") as fh:
            stored = cls._limit(fh)
        if stored < limit:
            raise TableTooSmall(f"need mu up to {limit}, table holds {stored}")
        return _file_slices(path, limit)


def _mu_values(data: bytes) -> np.ndarray:
    """The stored bytes as a read-only int8 array, refused unless every value lies in {-1, 0, 1}."""
    body = np.frombuffer(data, dtype=np.int8)
    if body.size and (body.min() < -1 or body.max() > 1):
        raise ValueError("Mobius table holds values outside {-1, 0, 1}")
    return body


def _file_slices(path, limit: int) -> Iterator[tuple[int, np.ndarray]]:
    for lo in range(1, limit + 1, _SEGMENT):
        m = min(_SEGMENT, limit + 1 - lo)
        with open(path, "rb") as fh:
            fh.seek(MobiusTable._HEADER + lo - 1)
            data = fh.read(m)
        if len(data) != m:
            raise ValueError(f"Mobius table file ends before mu({lo + len(data)})")
        yield lo, _mu_values(data)


_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)
_SEGMENT = 9 * _WHEEL  # 270,270: near 2**18, and every segment starts on the wheel
_SIEVE_LIMIT = 10**9  # the CLI checks each field that sizes a sieve against it


@functools.cache  # built on the first sieve, not at import: commands that never sieve skip it
def _wheel_pattern() -> np.ndarray:
    """The signed products of the wheel primes dividing n = 1 .. 2 * _WHEEL, as read-only int16.

    Entry i is the product of -q over the primes q <= 13 that divide i + 1, so
    any run of up to _WHEEL consecutive n starting at n = lo is the slice from
    (lo - 1) % _WHEEL.
    """
    pattern = np.ones(2 * _WHEEL, dtype=np.int16)  # |entry| <= 30030 < 2**15
    for q in _WHEEL_PRIMES:
        pattern[q - 1 :: q] *= -q
    pattern.flags.writeable = False
    return pattern


def _mobius_segment(out, n, primes, pr) -> None:
    """Write mu(n) into out (int8) for the consecutive integers n (int32), n[0] >= 1.

    primes is every prime <= sqrt(n[-1]) in ascending order, as an int64
    array.  pr is an int32 scratch buffer of the same length as out; n is only
    read.  pr becomes the signed product: the wheel pattern puts in -q for
    every prime q <= 13 dividing n, each larger sieving prime multiplies its
    multiples by -q, and the multiples of every q^2 are set to 0.  So sign(pr)
    is (-1)^(number of sieving primes dividing n) and |pr| <= n < 2**31 is
    their product; a squarefree n with |pr| < n has one more prime factor,
    above sqrt(n[-1]), which negates the sign once more: out is multiplied by
    1 - 2 * [|pr| < n], computed in pr.
    """
    lo, length = int(n[0]), len(out)
    offset, wheel = (lo - 1) % _WHEEL, _wheel_pattern()
    for k in range(0, length, _WHEEL):
        chunk = pr[k : k + _WHEEL]
        chunk[:] = wheel[offset : offset + len(chunk)]
    big = primes[len(_WHEEL_PRIMES) :]
    for q, start in zip(big.tolist(), ((-lo) % big).tolist()):
        pr[start::q] *= -q
    squares = primes * primes
    starts = (-lo) % squares
    hit = starts < length
    for qq, start in zip(squares[hit].tolist(), starts[hit].tolist()):
        pr[start::qq] = 0
    np.sign(pr, out=out, casting="unsafe")
    np.abs(pr, out=pr)
    np.less(pr, n, out=pr)  # 1 where a prime factor above the sieving primes is left
    pr *= -2
    pr += 1
    out *= pr


def mobius_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Exact mu(1..limit) by a segmented signed-product sieve, as (start, segment) pairs in order.

    segment is a new int8 array holding mu(start), mu(start + 1), ...; the
    first starts at 1, each next one where the last ended, and the last ends
    at limit.  Segments of _SEGMENT = 9 * 30030 integers each come from one
    int32 array of signed products (see `_mobius_segment`): the primes 2..13
    come from a pre-sieved wheel pattern of period 30030, and every other
    prime q <= sqrt(limit) takes one strided pass, plus one for q^2 while q^2
    has a multiple in the segment.  The limit is checked on the call; each
    segment is sieved when it is drawn, with the product and n buffers
    allocated once and n advanced by the segment length.
    """
    if not 1 <= limit <= _SIEVE_LIMIT:
        raise LimitOverflow(f"sieve limit must be in [1, {_SIEVE_LIMIT}]")
    return _sieve_segments(limit)


def _sieve_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    primes = np.array(primes_up_to(math.isqrt(limit)), dtype=np.int64)
    length = min(_SEGMENT, limit)
    pr = np.empty(length, dtype=np.int32)  # |pr| <= n <= 10**9 < 2**31
    n = np.arange(1, length + 1, dtype=np.int32)
    for lo in range(1, limit + 1, length):
        m = min(length, limit + 1 - lo)
        mu = np.empty(m, dtype=np.int8)
        _mobius_segment(mu, n[:m], primes, pr[:m])
        yield lo, mu
        n += length


def mobius_sieve(limit: int) -> MobiusTable:
    """Exact mu(1..limit) as one dense table: the `mobius_segments` of limit, concatenated."""
    segments = mobius_segments(limit)
    mu = np.zeros(limit + 1, dtype=np.int8)
    for lo, segment in segments:
        mu[lo : lo + segment.size] = segment
    return MobiusTable(limit, mu)


_CHUNK = 1 << 16


def mobius_by_spf(limit: int) -> np.ndarray:
    """Exact mu(0..limit) as int8 (index 0 unused) from smallest prime factors.

    Independent of `mobius_sieve`, which it checks: with q = spf(n) the
    smallest prime factor of n > 1, mu(n) = 0 when q divides n/q and
    -mu(n/q) otherwise.  Chunks [lo, hi) are filled in ascending order with
    hi <= 2*lo, so n/q <= n/2 < lo has always been filled already.  Inside a
    chunk spf comes from descending strided writes over the primes q with
    q^2 < hi (the smallest prime writes last); those primes were found in
    earlier chunks as the entries with spf(n) = n.
    """
    if not 1 <= limit < 2**31:
        raise ValueError("limit must be in [1, 2**31)")
    mu = np.zeros(limit + 1, dtype=np.int8)
    mu[1] = 1
    root = math.isqrt(limit)
    primes: list[int] = []
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _CHUNK, limit + 1)
        n = np.arange(lo, hi, dtype=np.int32)  # int32, not int64: a smaller peak RSS
        spf = n.copy()
        for q in reversed(primes[: bisect.bisect_right(primes, math.isqrt(hi - 1))]):
            start = max(q * q, ((lo + q - 1) // q) * q)
            spf[start - lo :: q] = q
        cofactor = n // spf
        chunk = -mu[cofactor]
        chunk[cofactor % spf == 0] = 0
        mu[lo:hi] = chunk
        if lo <= root:
            primes.extend(n[(spf == n) & (n <= root)].tolist())
        lo = hi
    return mu

