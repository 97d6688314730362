"""Independent values of the sums the CLI prints, for any seed.

The extended map permutes F_p, so the orbit x_0 = xi0, x_1, ... has period t
and x_n = x_(n mod t).  Each trajectory sum is then an integer-weighted sum
over one period of phases e(k/p) with exact integer k, evaluated here with
numpy and math.fsum; the Mobius function comes from a sieve written here,
and the BSZ blocks are rebuilt from their definition.  None of it calls the
program, so the checker can test what the program prints for seeds that
have no stored reference.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


def orbit_table(p: int, matrix: tuple[int, int, int, int], xi0: int, t: int) -> np.ndarray:
    """x_0 .. x_(t-1) of the extended map, the pole sent to a/c."""
    a, b, c, d = matrix
    pole_image = a * pow(c, p - 2, p) % p
    out = np.empty(t, dtype=np.int64)
    x = xi0
    for n in range(t):
        out[n] = x
        den = (c * x + d) % p
        x = (a * x + b) * pow(den, p - 2, p) % p if den else pole_image
    if x != xi0:
        raise ValueError(f"orbit of {xi0} does not close after {t} steps")
    return out


def primes_up_to(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return np.flatnonzero(flags)


def mobius(limit: int) -> np.ndarray:
    """mu(0..limit) with mu(0) = 0: sign per small prime factor, zero on squares, sign for the cofactor."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(limit + 1, dtype=np.int64)
    for q in primes_up_to(math.isqrt(limit)).tolist():
        mu[q::q] *= -1
        mu[q * q :: q * q] = 0
        rest[q::q] //= q
    mu[rest > 1] *= -1  # one prime factor above sqrt(limit) remains
    return mu


def phase_sum(weights: np.ndarray, numerators: np.ndarray, p: int) -> complex:
    """sum_i w_i e(k_i/p), the phase reduced mod 1 in integers as the program does."""
    keep = weights != 0
    angle = _TWO_PI * (numerators[keep] % p / p)
    w = weights[keep].astype(np.float64)
    return complex(math.fsum(w * np.cos(angle)), math.fsum(w * np.sin(angle)))


def twisted_sums(p, matrix, xi0, t, frequencies, schedule) -> list[complex]:
    """sum_{n <= N} mu(n) e(u x_n / p) for each u, then each checkpoint N, in CSV order."""
    mu = mobius(max(schedule))
    following = np.roll(orbit_table(p, matrix, xi0, t), -1)  # residue r = (n - 1) mod t holds x_n
    counts, done, by_checkpoint = np.zeros(t, dtype=np.int64), 0, []
    for n in schedule:
        residues = np.arange(done, n, dtype=np.int64) % t
        counts += np.rint(np.bincount(residues, weights=mu[done + 1 : n + 1], minlength=t)).astype(np.int64)
        by_checkpoint.append(counts.copy())
        done = n
    return [phase_sum(c, u * following, p) for u in frequencies for c in by_checkpoint]


def bsz_report(p, matrix, xi0, t, n: int, alpha: float) -> dict:
    """Left side, block sizes, W_j and sum #P_j #Q_j for nu = mu, F(i) = e(x_i/p).

    Blocks P_j are the primes in [R_j, R_(j+1)), R_j = (1 + alpha)^j, for the
    integers j >= (log(1/alpha))^3/alpha with R_(j+1) <= N; Q_j are the m <= N/R_(j+1)
    with no prime factor in P_(<= j).  mu(r) = -1 on primes, so
    W_j = sum_{m in Q_j} |sum_{r in P_j} F(m r)|.
    """
    orbit = orbit_table(p, matrix, xi0, t)
    edges, j = [], math.ceil(math.log(1.0 / alpha) ** 3 / alpha)
    while (1.0 + alpha) ** (j + 1) <= n:
        edges.append((j, (1.0 + alpha) ** j, (1.0 + alpha) ** (j + 1)))
        j += 1
    primes = primes_up_to(math.ceil(edges[-1][2]) if edges else 1)
    excluded = np.zeros(math.floor(n / edges[0][2]) + 1 if edges else 1, dtype=bool)
    rows, products = [], 0
    for j, lo, hi in edges:
        block = primes[(primes >= math.ceil(lo)) & (primes < math.ceil(hi))]
        for r in block[block < len(excluded)].tolist():
            excluded[r::r] = True
        members = np.flatnonzero(~excluded[1 : math.floor(n / hi) + 1]) + 1
        index = np.multiply.outer(members, block) % t
        angle = _TWO_PI * (orbit[index] % p / p)
        w = math.fsum(np.hypot(np.cos(angle).sum(axis=1), np.sin(angle).sum(axis=1)).tolist())
        rows.append([j, len(block), len(members), w])
        products += len(block) * len(members)
    lhs = twisted_sums(p, matrix, xi0, t, (1,), (n,))[0]
    return {"lhs": [lhs.real, lhs.imag, abs(lhs)], "sum_pq": products, "rows": rows}


def decimated_sums(p, matrix, xi0, t, correlations, singles) -> list[complex]:
    """Full-period correlation sums (u, v, k, m), then single sums (u, m), in CSV order."""
    orbit = orbit_table(p, matrix, xi0, t)
    n = np.arange(1, t + 1, dtype=np.int64)
    ones = np.ones(t, dtype=np.int64)
    out = [phase_sum(ones, u * orbit[k * n % t] + v * orbit[m * n % t], p) for u, v, k, m in correlations]
    return out + [phase_sum(ones, u * orbit[m * n % t], p) for u, m in singles]
