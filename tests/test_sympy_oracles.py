"""Differential tests against sympy, an independent number-theory implementation.

Skipped when sympy is not installed; it is listed in the `test` extra.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from mobiusdyn.arith_fn import mobius_by_spf, mobius_sieve, primes_in  # noqa: E402
from mobiusdyn.field_arith import (  # noqa: E402
    PrimeModulus,
    discrete_index,
    factorize,
    is_prime,
    mult_order,
    primitive_root,
)

# 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5 and 7
SPECIAL = [561, 3215031751, 2**31 - 1, 10**9 + 7, 2**61 - 2, 2**61, 2**61 - 1, (2**31 - 1) * (2**31 + 11)]


def test_is_prime_matches_sympy():
    rng = random.Random(71)
    samples = list(range(5000)) + [rng.randrange(10**12) for _ in range(500)] + SPECIAL
    samples += [rng.randrange(2**62) | 1 for _ in range(200)]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_sympy():
    # trial division: every sample's second-largest prime factor stays below ~1e6
    rng = random.Random(73)
    samples = list(range(1, 3000)) + [rng.randrange(1, 10**10) for _ in range(200)]
    samples += [2**61 - 2, 2**61, 10**9 + 6, 10**9 + 8, (2**31 - 1) * 6]
    for n in samples:
        assert factorize(n) == sympy.factorint(n), n


def test_mobius_sieve_matches_sympy():
    limit = 2 * 10**6
    table = mobius_sieve(limit)
    rng = random.Random(79)
    samples = [rng.randrange(1, limit + 1) for _ in range(3000)] + [1, 2, limit - 1, limit]
    for n in samples:
        assert table.mu(n) == int(sympy.mobius(n)), n


def test_spf_oracle_matches_sympy():
    limit = 10**7
    mu = mobius_by_spf(limit)
    rng = random.Random(97)
    samples = [rng.randrange(1, limit + 1) for _ in range(3000)] + [1, 2, limit - 1, limit]
    for n in samples:
        assert int(mu[n]) == int(sympy.mobius(n)), n


def test_primes_in_matches_sympy_near_cap():
    # 20,000-wide windows up to the 1e9 cap, where a Mobius table would need a gigabyte
    width = 2 * 10**4
    lo = random.Random(101).randrange(10**8, 10**9 + 1 - width)
    windows = [(10**9 - width, 10**9 + 1), (999 * 10**6, 999 * 10**6 + width), (lo, lo + width)]
    for lo, hi in windows:
        assert primes_in(lo, hi).tolist() == list(sympy.primerange(lo, hi)), (lo, hi)


def test_mult_order_and_primitive_root_match_sympy():
    rng = random.Random(83)
    primes = [p for p in range(3, 2000) if sympy.isprime(p)] + [10007, 99991, 10**9 + 7, 2**31 - 1]
    for p in primes:
        modulus = PrimeModulus(p)
        assert primitive_root(modulus).value == sympy.primitive_root(p), p
        for x in [1, p - 1] + [rng.randrange(1, p) for _ in range(5)]:
            assert mult_order(modulus.elem(x)) == sympy.n_order(x, p), (x, p)


def test_discrete_index_matches_sympy():
    rng = random.Random(89)
    for p in (101, 1009, 10007, 99991, 1000003):
        modulus = PrimeModulus(p)
        g = primitive_root(modulus)
        for x in [1, p - 1] + [rng.randrange(1, p) for _ in range(20)]:
            assert discrete_index(modulus.elem(x), g, p - 1) == sympy.discrete_log(p, x, g.value), (x, p)
        # a generator of a proper subgroup: indices live modulo its order
        h = g**6
        order = mult_order(h)
        for i in [0, 1, order - 1] + [rng.randrange(order) for _ in range(10)]:
            x = h**i
            assert discrete_index(x, h, order) == sympy.discrete_log(p, x.value, h.value) % order
