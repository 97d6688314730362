"""Mobius tables, characters with exact phases, and prime enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobiusdyn.arith_fn import (
    LimitOverflow,
    MobiusTable,
    TableTooSmall,
    mobius_by_spf,
    mobius_segments,
    mobius_sieve,
    primes_in,
    primes_up_to,
)
from mobiusdyn.field_arith import PrimeModulus, norm_group_generator, primitive_root
from oracles import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    QuadExtension,
    chi_value,
    mobius_oracle,
    unit_circle,
)


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
    # force multiple segments with a temporarily smaller segment size; 30029 and 30031
    # are not multiples of the 30030-periodic wheel, so segments start at many offsets
    import mobiusdyn.arith_fn as af

    for segment, limit in [(1000, 5000), (30029, 100_003), (30031, 100_003)]:
        old = af._SEGMENT
        af._SEGMENT = segment
        try:
            seg = mobius_sieve(limit)
        finally:
            af._SEGMENT = old
        ref = mobius_sieve(limit)
        assert np.array_equal(seg.values, ref.values), segment
        assert np.array_equal(seg.values, mobius_by_spf(limit)), segment


def _drawn(segments):
    """The (start, segment) pairs of a stream, each checked to follow on from the last."""
    pairs, done = [], 0
    for start, segment in segments:
        assert start == done + 1 and segment.dtype == np.int8 and segment.size
        pairs.append((start, segment))
        done += segment.size
    return pairs


@pytest.mark.parametrize("segment", [64, 1000, 30031])
def test_segment_stream_concatenates_to_the_table(monkeypatch, segment):
    # limits at and next to the segment edges; 30031 is not a multiple of the 30030-periodic wheel
    import mobiusdyn.arith_fn as af

    limits = [1, 2, segment - 1, segment, segment + 1] + [k * segment + d for k in (2, 3) for d in (-1, 0, 1)]
    tables = {limit: mobius_sieve(limit).values for limit in limits}
    monkeypatch.setattr(af, "_SEGMENT", segment)
    for limit in limits:
        pairs = _drawn(mobius_segments(limit))
        assert sum(s.size for _, s in pairs) == limit
        assert all(s.size == segment for _, s in pairs[:-1])
        stream = np.concatenate([s for _, s in pairs])
        assert np.array_equal(stream, tables[limit][1:]), limit
        assert np.array_equal(stream, mobius_by_spf(limit)[1:]), limit
        assert np.array_equal(mobius_sieve(limit).values, tables[limit]), limit


def test_segment_stream_checks_its_limit_on_the_call():
    for limit in (0, 10**9 + 1):
        with pytest.raises(LimitOverflow):
            mobius_segments(limit)


def test_table_slices_read_a_saved_table_in_order(tmp_path, monkeypatch):
    import mobiusdyn.arith_fn as af

    path = tmp_path / "mu.bin"
    mobius_sieve(1000).save(path)
    values = MobiusTable.load(path).values
    monkeypatch.setattr(af, "_SEGMENT", 64)
    for limit in (1, 63, 64, 65, 640, 1000):
        pairs = _drawn(MobiusTable.slices(path, limit))
        assert np.array_equal(np.concatenate([s for _, s in pairs]), values[1 : limit + 1]), limit
    with pytest.raises(TableTooSmall):
        MobiusTable.slices(path, 1001)
    # a bad value is found when its slice is drawn, not before
    data = bytearray(path.read_bytes())
    data[16 + 200] = 2
    path.write_bytes(bytes(data))
    slices = MobiusTable.slices(path, 1000)
    assert [next(slices)[0] for _ in range(3)] == [1, 65, 129]
    with pytest.raises(ValueError, match="outside"):
        next(slices)  # mu(201) lies in the slice from 193


def test_sieve_matches_spf_at_every_small_limit():
    # below each wheel prime, and around 169 = 13^2, the largest wheel square
    for limit in range(1, 401):
        assert np.array_equal(mobius_sieve(limit).values, mobius_by_spf(limit)), limit


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


# --- smallest-prime-factor oracle -------------------------------------------------


def test_spf_oracle_matches_trial_division_to_1e5():
    limit = 10**5
    mu = mobius_by_spf(limit)
    assert mu.tolist()[1:] == [mobius_oracle(n) for n in range(1, limit + 1)]


def test_spf_oracle_matches_sieve_at_1e7():
    limit = 10**7
    assert np.array_equal(mobius_by_spf(limit), mobius_sieve(limit).values)


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 48, 49, 50])
def test_spf_oracle_small_limits(limit):
    mu = mobius_by_spf(limit)
    assert mu.dtype == np.int8 and mu.shape == (limit + 1,) and mu[0] == 0
    assert np.array_equal(mu, mobius_sieve(limit).values)


def test_spf_oracle_chunk_boundaries(monkeypatch):
    import mobiusdyn.arith_fn as af

    monkeypatch.setattr(af, "_CHUNK", 7)
    assert np.array_equal(af.mobius_by_spf(5000), mobius_sieve(5000).values)


def test_spf_oracle_range_guard():
    for limit in (0, 2**31):
        with pytest.raises(ValueError):
            mobius_by_spf(limit)


# --- prime enumeration -----------------------------------------------------------


def test_primes_in_examples():
    assert primes_in(8, 16).tolist() == [11, 13]
    assert primes_in(2, 3).tolist() == [2]
    assert primes_in(24, 29).tolist() == []


def test_primes_in_real_endpoints():
    assert primes_in(10.5, 13.0).tolist() == [11]  # 13 excluded: half-open
    assert primes_in(13.0, 13.5).tolist() == [13]


def test_primes_in_matches_trial_division():
    listed = set(primes_in(2, 10**5))
    for n in range(2, 10**5):
        is_p = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert (n in listed) == is_p, n
    assert sorted(listed) == primes_up_to(10**5 - 1)


def test_primes_in_every_small_range():
    # the odd-only sieve's edges: lo of 0, 1 or 2, even and odd lo, hi = lo + 1
    small = primes_up_to(300)
    for lo in range(300):
        for hi in range(lo + 1, 301):
            got = primes_in(lo, hi)
            assert got.dtype == np.int64
            assert got.tolist() == [q for q in small if lo <= q < hi], (lo, hi)
    for lo, hi in [(-3.5, 2.5), (1.5, 2.0), (1.99, 3.01), (2.01, 3.0), (2.5, 7.5), (8.9, 9.1), (96.2, 101.0)]:
        assert primes_in(lo, hi).tolist() == [q for q in small if lo <= q < hi], (lo, hi)


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
    g = m.elem(primitive_root(11))
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
        g = m.elem(primitive_root(p))
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
    g = ext.elem(*norm_group_generator(5, 13))
    chi = MultiplicativeCharacter(g, 14, 1)
    vals = [chi_value(chi, g**k) for k in range(14)]
    for k, v in enumerate(vals):
        assert abs(v - unit_circle(k, 14)) < 1e-12
