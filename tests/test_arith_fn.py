"""Mobius tables, characters with exact phases, and prime enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobiusdyn.arith_fn import (
    AdditiveCharacter,
    LimitOverflow,
    MobiusTable,
    MultiplicativeCharacter,
    TableTooSmall,
    mobius_oracle,
    mobius_sieve,
    primes_in,
    primes_up_to,
    unit_circle,
)
from mobiusdyn.field_arith import PrimeModulus, norm_group_generator, primitive_root, QuadExtension
from oracles import chi_value


# --- unit circle ---------------------------------------------------------------


def test_unit_circle_exact_points():
    assert unit_circle(0, 1) == 1
    assert abs(unit_circle(1, 2) - (-1)) < 1e-15
    expected = complex(math.sqrt(2) / 2, math.sqrt(2) / 2)
    assert abs(unit_circle(1, 8) - expected) < 1e-15


def test_unit_circle_reduces_phase_in_integers():
    assert unit_circle(10**18 + 1, 4) == unit_circle(1, 4)
    assert unit_circle(-1, 4) == unit_circle(3, 4)


def test_unit_circle_rejects_bad_denominators():
    with pytest.raises(ZeroDivisionError):
        unit_circle(1, 0)
    with pytest.raises(ValueError):
        unit_circle(1, -3)


@given(st.integers(min_value=-(10**9), max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_unit_circle_modulus_one(num, den):
    assert abs(abs(unit_circle(num, den)) - 1.0) < 4e-16


# --- Mobius function -----------------------------------------------------------


def test_mobius_values_by_definition():
    t = mobius_sieve(30)
    assert t.mu(1) == 1
    assert t.mu(4) == 0
    assert t.mu(30) == -1  # three distinct primes


def test_mobius_multiplicative_on_coprime_pairs():
    t = mobius_sieve(10**4)
    for m in range(1, 100):
        for n in range(1, 100):
            if math.gcd(m, n) == 1:
                assert t.mu(m * n) == t.mu(m) * t.mu(n)


def test_mobius_oracle_examples():
    assert mobius_oracle(1) == 1
    assert mobius_oracle(12) == 0
    assert mobius_oracle(1009) == -1  # prime
    assert mobius_oracle(1009 * 1013) == 1
    assert mobius_oracle(2 * 3 * 5 * 7) == 1


def test_sieve_matches_oracle_to_ten_thousand():
    t = mobius_sieve(10**4)
    for n in range(1, 10**4 + 1):
        assert t.mu(n) == mobius_oracle(n), n


def test_sieve_segment_boundaries():
    # force multiple segments with a temporarily tiny segment size
    import mobiusdyn.arith_fn as af

    old = af._SEGMENT
    af._SEGMENT = 1000
    try:
        seg = mobius_sieve(5000)
    finally:
        af._SEGMENT = old
    ref = mobius_sieve(5000)
    assert np.array_equal(seg.values, ref.values)


def test_mobius_divisor_sum_identity():
    # sum_{d | n} mu(d) = [n == 1]
    limit = 10**4
    t = mobius_sieve(limit)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += t.mu(d)
    assert acc[1] == 1
    assert not np.any(acc[2:])


def test_table_bounds_and_limits():
    t = mobius_sieve(10)
    with pytest.raises(TableTooSmall):
        t.mu(11)
    with pytest.raises(TableTooSmall):
        t.mu(0)
    with pytest.raises(LimitOverflow):
        mobius_sieve(0)
    with pytest.raises(LimitOverflow):
        mobius_sieve(10**9 + 1)


def test_table_binary_roundtrip(tmp_path):
    t = mobius_sieve(1234)
    path = tmp_path / "mu.bin"
    t.save(path)
    loaded = MobiusTable.load(path)
    assert loaded.limit == t.limit
    assert np.array_equal(loaded.values, t.values)
    with pytest.raises(ValueError):
        (tmp_path / "bad.bin").write_bytes(b"JUNKJUNKJUNK")
        MobiusTable.load(tmp_path / "bad.bin")


# --- prime enumeration -----------------------------------------------------------


def test_primes_in_examples():
    assert primes_in(8, 16) == [11, 13]
    assert primes_in(2, 3) == [2]
    assert primes_in(24, 29) == []


def test_primes_in_real_endpoints():
    assert primes_in(10.5, 13.0) == [11]  # 13 excluded: half-open
    assert primes_in(13.0, 13.5) == [13]


def test_primes_in_matches_trial_division():
    listed = set(primes_in(2, 10**5))
    for n in range(2, 10**5):
        is_p = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert (n in listed) == is_p, n
    assert sorted(listed) == primes_up_to(10**5 - 1)


def test_primes_in_range_guard():
    with pytest.raises(LimitOverflow):
        primes_in(0, 2e9)


# --- characters -------------------------------------------------------------------


def test_additive_character_basics():
    m = PrimeModulus(5)
    psi = AdditiveCharacter(m.elem(1))
    assert psi(m.elem(0)) == 1
    expected = complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))
    assert abs(psi(m.elem(1)) - expected) < 1e-15
    assert not AdditiveCharacter(m.elem(0)).is_nontrivial


def test_additive_character_orthogonality():
    # every nontrivial frequency, every prime up to 101
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        m = PrimeModulus(p)
        for u in range(1, p):
            psi = AdditiveCharacter(m.elem(u))
            total = sum(psi(m.elem(x)) for x in range(p))
            assert abs(total) < 1e-9 * p


@given(st.sampled_from([5, 7, 11, 13]), st.data())
def test_additive_character_is_additive(p, data):
    m = PrimeModulus(p)
    u = m.elem(data.draw(st.integers(min_value=0, max_value=p - 1)))
    x = m.elem(data.draw(st.integers(min_value=0, max_value=p - 1)))
    y = m.elem(data.draw(st.integers(min_value=0, max_value=p - 1)))
    psi = AdditiveCharacter(u)
    assert abs(psi(x + y) - psi(x) * psi(y)) < 1e-12


def test_multiplicative_character_basics():
    m = PrimeModulus(11)
    g = primitive_root(m)
    chi = MultiplicativeCharacter(g, 10, 1)
    assert chi_value(chi, m.one) == 1
    trivial = MultiplicativeCharacter(g, 10, 0)
    for x in range(1, 11):
        assert chi_value(trivial, m.elem(x)) == 1


def test_multiplicative_character_is_multiplicative():
    import random

    rng = random.Random(2)
    for p in (11, 101):
        m = PrimeModulus(p)
        g = primitive_root(m)
        chi = MultiplicativeCharacter(g, p - 1, 3)
        for _ in range(25):
            x = m.elem(rng.randrange(1, p))
            y = m.elem(rng.randrange(1, p))
            assert abs(chi_value(chi, x * y) - chi_value(chi, x) * chi_value(chi, y)) < 1e-12
            assert abs(abs(chi_value(chi, x)) - 1.0) < 1e-12


def test_multiplicative_character_on_norm_one_group():
    m = PrimeModulus(13)
    ext = QuadExtension(m, m.elem(5))  # disc = 21 = 8, a non-residue mod 13
    assert ext.is_irreducible
    g = norm_group_generator(ext)
    chi = MultiplicativeCharacter(g, 14, 1)
    vals = [chi_value(chi, g**k) for k in range(14)]
    for k, v in enumerate(vals):
        assert abs(v - unit_circle(k, 14)) < 1e-12
