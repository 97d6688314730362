"""Differential tests against sympy, an independent number-theory implementation.

Skipped when sympy is not installed; it is listed in the `test` extra.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from mobiusdyn.arith_fn import (  # noqa: E402
    _SEGMENT,
    _mobius_segment,
    mobius_by_spf,
    mobius_sieve,
    primes_in,
)
from mobiusdyn.cli_runner import _first_irreducible_extension  # noqa: E402
from mobiusdyn.field_arith import (  # noqa: E402
    PrimeModulus,
    factorize,
    is_prime,
    mult_order,
    norm_group_generator,
    primitive_root,
    sqrt_mod,
)
from mobiusdyn.sampling import random_sl2  # noqa: E402
from oracles import QuadExtension, discrete_index  # noqa: E402

# 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5 and 7
SPECIAL = [561, 3215031751, 2**31 - 1, 10**9 + 7, 2**61 - 2, 2**61, 2**61 - 1, (2**31 - 1) * (2**31 + 11)]


def test_is_prime_matches_sympy():
    rng = random.Random(71)
    samples = list(range(5000)) + [rng.randrange(10**12) for _ in range(500)] + SPECIAL
    samples += [rng.randrange(2**62) | 1 for _ in range(200)]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_sympy():
    # every n below 3000, random n below 1e10, and a few near 2^61
    rng = random.Random(73)
    samples = list(range(1, 3000)) + [rng.randrange(1, 10**10) for _ in range(200)]
    samples += [2**61 - 2, 2**61, 10**9 + 6, 10**9 + 8, (2**31 - 1) * 6]
    for n in samples:
        assert factorize(n) == sympy.factorint(n), n


def test_factorize_matches_sympy_below_2_63():
    # rho splits what trial division leaves: random n, semiprimes of two ~2^31 primes, prime powers,
    # p +- 1 of every scale-tier prime, and p + 1 = 2 * 3 * 768614336404564603 at p = 4611686018427387617
    rng = random.Random(107)
    samples = [rng.randrange(1, 2**63) for _ in range(120)]
    halves = [sympy.nextprime(rng.randrange(2**30, 2**31)) for _ in range(12)]
    samples += [q * r for q, r in zip(halves[::2], halves[1::2])]
    samples += [q**k for q in (2, 3, 1031, 65537, 2**31 - 1, 3037000493) for k in range(1, 64) if q**k < 2**63]
    scale = Path(__file__).resolve().parent.parent / "configs" / "scale"
    configs = [json.loads(path.read_text()) for path in scale.glob("*.json")]
    primes = {int(cfg["p"]) for cfg in configs if "p" in cfg}
    assert len(primes) >= 6
    samples += [p + s for p in primes | {4611686018427387617} for s in (-1, 1)]
    for n in samples:
        assert factorize(n) == sympy.factorint(n), n


def test_mobius_sieve_matches_sympy():
    limit = 2 * 10**6
    table = mobius_sieve(limit)
    rng = random.Random(79)
    samples = [rng.randrange(1, limit + 1) for _ in range(3000)] + [1, 2, limit - 1, limit]
    for n in samples:
        assert table.values[n] == int(sympy.mobius(n)), n


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


def test_mobius_segment_matches_sympy_near_cap():
    # one sieve segment ending at the 1e9 cap and one at a random start, without a 1 GB table;
    # there the signed products |pr| <= n come closest to the int32 limit
    rng = random.Random(103)
    for lo in (10**9 + 1 - _SEGMENT, rng.randrange(10**8, 10**9 + 1 - _SEGMENT)):
        hi = lo + _SEGMENT
        out = np.empty(_SEGMENT, dtype=np.int8)
        primes = np.array(list(sympy.primerange(2, math.isqrt(hi - 1) + 1)), dtype=np.int64)
        _mobius_segment(out, np.arange(lo, hi, dtype=np.int32), primes, np.empty(_SEGMENT, dtype=np.int32))
        samples = [rng.randrange(lo, hi) for _ in range(2000)] + list(range(hi - 200, hi))
        for n in samples:
            assert int(out[n - lo]) == int(sympy.mobius(n)), n


def test_mult_order_and_primitive_root_match_sympy():
    rng = random.Random(83)
    primes = [p for p in range(3, 2000) if sympy.isprime(p)] + [10007, 99991, 10**9 + 7, 2**31 - 1]
    for p in primes:
        assert primitive_root(p) == sympy.primitive_root(p), p
        for x in [1, p - 1] + [rng.randrange(1, p) for _ in range(5)]:
            assert mult_order((x, 0), 0, p, p - 1) == sympy.n_order(x, p), (x, p)


def test_discrete_index_matches_sympy():
    rng = random.Random(89)
    for p in (101, 1009, 10007, 99991, 1000003):
        modulus = PrimeModulus(p)
        g = modulus.elem(primitive_root(p))
        for x in [1, p - 1] + [rng.randrange(1, p) for _ in range(20)]:
            assert discrete_index(modulus.elem(x), g, p - 1) == sympy.discrete_log(p, x, g.value), (x, p)
        # a generator of a proper subgroup: indices live modulo its order
        h = g**6
        order = mult_order((h.value, 0), 0, p, p - 1)
        for i in [0, 1, order - 1] + [rng.randrange(order) for _ in range(10)]:
            x = h**i
            assert discrete_index(x, h, order) == sympy.discrete_log(p, x.value, h.value) % order


# p = 1 mod 8 with 2^16, 2^20, 2^23 and 2^5 dividing p - 1 (the Tonelli-Shanks loop), and p = 3 mod 4
SQRT_PRIMES = [65537, 7340033, 998244353, 1000033, 10007, 1000003, 2**31 - 1]


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_sqrt_mod_matches_sympy(p):
    rng = random.Random(p)
    samples = [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]
    samples += [rng.randrange(p) ** 2 % p for _ in range(200)]  # residues, so most roots are not None
    for n in samples:
        roots = sympy.sqrt_mod(n, p, all_roots=True)
        assert sqrt_mod(n, p) == (min(roots) if roots else None), (n, p)


def test_theta_sq_order_matches_sympy():
    # split case: n_order of theta^2 in F_p; irreducible case: divides p + 1 and no prime factor can be removed
    rng = random.Random(103)
    p = 1000003
    modulus = PrimeModulus(p)
    kinds = set()
    for _ in range(40):
        A = random_sl2(rng, modulus)
        t = A.theta_sq_order
        theta, _ = A.roots
        ext = QuadExtension(modulus, A.trace)
        z = ext.elem(*theta) ** 2
        kinds.add(bool(theta[1]))
        if not theta[1]:
            assert t == sympy.n_order(z.c0.value, p), A
            continue
        assert (p + 1) % t == 0 and z**t == ext.one, A
        for q in sympy.factorint(t):
            assert z ** (t // q) != ext.one, (A, q)
    assert kinds == {False, True}


# the canonical generators, pinned so a change in the candidate scan shows: p: (e, (c0, c1))
NORM_GROUP_GENERATORS = {101: (1, (81, 12)), 199: (0, (87, 118)), 293: (1, (43, 83)), 2999: (0, (82, 486))}


@pytest.mark.parametrize("p", sorted(NORM_GROUP_GENERATORS))
def test_norm_group_generator_is_pinned(p):
    e, pair = NORM_GROUP_GENERATORS[p]
    assert _first_irreducible_extension(p) == e
    assert norm_group_generator(e, p) == pair
