"""Sum kernels vs independent oracles: re-summation, DFT completion, exhaustion."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mobiusdyn import char_sums, exact_sum
from mobiusdyn.arith_fn import ResourceGuard, mobius_segments, mobius_sieve
from mobiusdyn.char_sums import (
    CSV_HEADER,
    RationalFunction,
    SumReport,
    correlation_sum,
    single_sum,
    twisted_sum_schedule,
    weil_sum_fp,
    weil_sum_fp2_norm_one,
)
from mobiusdyn.cli_runner import _first_irreducible_extension
from mobiusdyn.exact_sum import _fsum, _fsums
from mobiusdyn.field_arith import (
    PrimeModulus,
    mult_order,
    norm_group_generator,
    primitive_root,
    sqrt_mod,
)
from mobiusdyn.mobius_dynamics import MobiusMatrix, period
from oracles import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    QuadExtension,
    apply,
    chi_value,
    decimated_oracle,
    discrete_index,
    orbit_oracle,
    twisted_oracle,
    unit_circle,
    value_at,
    whole,
)

M101 = PrimeModulus(101)
A101 = MobiusMatrix(M101.elem(27), M101.elem(39), M101.elem(5), M101.elem(11))
XI101 = M101.elem(55)  # period 51, pole-free
PSI101 = AdditiveCharacter(M101.elem(1))


@pytest.fixture(scope="module")
def traj101():
    return period(A101, XI101)


@pytest.fixture(scope="module")
def mu_table():
    return mobius_sieve(20000)


# --- reports -----------------------------------------------------------------------


def test_report_triangle_inequality_enforced():
    with pytest.raises(AssertionError):
        SumReport("twisted", complex(5.0, 0.0), 4, 101, None)


def test_report_csv_row_layout():
    r = SumReport("twisted", complex(1.0, -2.0), 10, 101, None, {"a": 1, "b": 2, "c": 3, "d": 4, "xi0": 5, "u": 6})
    row = r.csv_row()
    assert CSV_HEADER.count(",") == row.count(",")
    cells = row.split(",")
    assert cells[0] == "twisted"
    assert cells[1] == "101"
    assert cells[7] == "6"       # u
    assert cells[8] == ""        # v unused
    assert cells[12] == "10"     # N
    assert cells[16] == ""       # bound unset
    assert float(cells[17]) == abs(complex(1.0, -2.0)) / 10


# --- exact summation -----------------------------------------------------------------
# math.fsum is the oracle.  "+ 0.0" pins the sign of a zero total to +0.0, which is
# what Python 3.11's math.fsum returns and what _fsum returns on every version.


def _spread(top: int):
    """m * 2^e with |m| < 2^53 and e from -1074 up: every binade below 2^top, subnormals included."""
    return st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, top - 53))


def _terms(top: int):
    """Terms below 2^top: spread exponents, hypothesis' own floats (edge values), and the extremes."""
    edge = math.nextafter(math.ldexp(1.0, top), 0.0)
    bounded = st.floats(-edge, edge, allow_nan=False)
    return st.one_of(_spread(top), bounded, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, edge, -edge]))


def _same(got: float, want: float) -> None:
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (got, want)


# at most 63 terms, and `cancelled` doubles them to 126 in one block: bit_length 7, so the limit is 2^(1022 - 7)
@settings(max_examples=300)
@given(xs=st.lists(_terms(1015), max_size=63), block=st.sampled_from([1, 2, 5, 1 << 14]))
@example(xs=[math.nextafter(math.ldexp(1.0, 1015), 0.0)] * 63, block=1 << 14)  # the largest terms at the limit
@example(xs=[], block=1 << 14)
@example(xs=[-0.0, -0.0], block=1)
@example(xs=[1.0, 1e100, 1.0, -1e100], block=2)
def test_fsum_matches_math_fsum_bit_for_bit(xs, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_sum, "_BLOCK", block)  # several blocks share one exact total
        _same(_fsum(np.array(xs, dtype=np.float64)), math.fsum(xs) + 0.0)
        cancelled = xs + [-x for x in reversed(xs)]
        _same(_fsum(np.array(cancelled, dtype=np.float64)), 0.0)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(_terms(990), st.integers(-(2**20), 2**20)), max_size=40),
    st.integers(-(2**20), 2**20),
)
def test_fsum_of_int_weighted_terms_matches_math_fsum(pairs, scalar):
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    weights = np.array([w for _, w in pairs], dtype=np.int64)
    for w in (weights, scalar):  # an array of counts, and one int broadcast over all terms
        products = (np.broadcast_to(w, values.shape) * values).tolist()
        _same(_fsum(values, w), math.fsum(products) + 0.0)


@settings(max_examples=300)
@given(st.lists(st.lists(_terms(1018), max_size=8), max_size=8))
@example([])
@example([[], [1.0], [], [2.0, -2.0], []])  # empty first, inner and last segments
@example([[1.0, 2.0], [3.0]])  # the last segment ends the array
@example([[-0.0], [5e-324, -5e-324]])
def test_segmented_fsums_match_math_fsum_per_segment(segments):
    # np.add.reduceat alone gets empty segments wrong: it returns x[start] for them
    flat = np.array([x for seg in segments for x in seg], dtype=np.float64)
    got = _fsums(flat, [len(seg) for seg in segments])
    assert len(got) == len(segments)
    for total, seg in zip(got, segments):
        _same(total, math.fsum(seg) + 0.0)


def test_exact_sums_refuse_terms_beyond_their_limit():
    # segments of at most 2^b - 1 terms take terms below 2^(1022 - b)
    top = math.ldexp(1.0, 1021)  # the limit for one term, b = 1
    below = math.nextafter(top, 0.0)
    _same(_fsum(np.array([below])), below)
    assert _fsums(np.array([below, -below]), [1, 1]) == [below, -below]
    for bad in (top, -top, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            _fsum(np.array([bad]))
        with pytest.raises(ValueError):
            _fsums(np.array([1.0, bad]), [1, 1])
    with pytest.raises(ValueError):  # two terms, b = 2: the limit is 2^1020
        _fsum(np.array([below, 1.0]))
    with pytest.raises(ValueError):  # 68 terms, b = 7: 7.02e305 is above the limit 2^1015 ~ 3.5e305
        _fsum(np.array([7.02e305] * 34 + [-7.02e305] * 34))


# --- twisted sums -------------------------------------------------------------------


def test_twisted_single_term(mu_table):
    r = twisted_sum_schedule(A101, XI101, [PSI101.u.value], [1], whole(mu_table))[0]
    assert abs(r.abs_value - 1.0) < 1e-15
    assert abs(r.value - PSI101(apply(A101, XI101))) < 1e-15


def test_twisted_skips_square_factors(mu_table):
    # mu(4) = 0, so N = 4 equals the N = 3 partial sum
    r3 = twisted_sum_schedule(A101, XI101, [1], [3], whole(mu_table))[0]
    r4 = twisted_sum_schedule(A101, XI101, [1], [4], whole(mu_table))[0]
    assert r3.value == r4.value


def test_twisted_against_direct_resummation(mu_table):
    # independent oracle: recompute the trajectory by repeated map application
    # and add plain complex terms in order
    m = PrimeModulus(10007)
    A = MobiusMatrix(m.elem(614), m.elem(6938), m.elem(1409), m.elem(7104))
    xi0 = m.elem(6851)
    n_terms = 10**4
    r = twisted_sum_schedule(A, xi0, [1], [n_terms], whole(mu_table))[0]
    expected = 0.0 + 0.0j
    x = xi0
    for n in range(1, n_terms + 1):
        x = apply(A, x)
        mu_n = int(mu_table.values[n])
        if mu_n:
            expected += mu_n * unit_circle(x.value, m.p)
    assert abs(r.value - expected) <= 1e-9
    assert r.reference_bound is None
    assert abs(r.ratio - abs(expected) / n_terms) < 1e-12


def test_twisted_schedule_matches_standalone(mu_table):
    reports = twisted_sum_schedule(A101, XI101, [1], [10, 100, 1000], whole(mu_table))
    for r in reports:
        solo = twisted_sum_schedule(A101, XI101, [1], [r.term_count], whole(mu_table))[0]
        assert r.value == solo.value


def test_twisted_schedule_shares_one_pass_across_characters(mu_table):
    # several characters in one call: the same values as one call per
    # character, character by character, each over the whole schedule
    frequencies = [1, 3, 100]
    schedule = [10, 100, 1000, 5000]
    shared = twisted_sum_schedule(A101, XI101, frequencies, schedule, whole(mu_table))
    separate = [r for u in frequencies for r in twisted_sum_schedule(A101, XI101, [u], schedule, whole(mu_table))]
    assert [r.csv_row() for r in shared] == [r.csv_row() for r in separate]
    assert [(r.params["u"], r.term_count) for r in shared] == [(u, n) for u in (1, 3, 100) for n in schedule]
    # frequencies outside [0, p) are taken mod p, and their reports record the residue
    unreduced = twisted_sum_schedule(A101, XI101, [102, -98, -1], schedule, whole(mu_table))
    assert [r.csv_row() for r in unreduced] == [r.csv_row() for r in shared]
    with pytest.raises(ValueError):
        twisted_sum_schedule(A101, XI101, [1, 0], schedule, whole(mu_table))


def test_twisted_schedule_reads_a_given_trajectory(mu_table, traj101):
    # the table of a full period gives the same reports as the prefix built for max N
    frequencies = [1, 77]
    for schedule in ([3, 40], [10, 100, 1000]):
        built = twisted_sum_schedule(A101, XI101, frequencies, schedule, whole(mu_table))
        given = twisted_sum_schedule(A101, XI101, frequencies, schedule, whole(mu_table), traj101)
        assert [r.csv_row() for r in given] == [r.csv_row() for r in built]
    other = period(A101, M101.elem(56))
    with pytest.raises(ValueError, match="different instance"):
        twisted_sum_schedule(A101, XI101, [1], [10], whole(mu_table), other)


def test_twisted_prefix_needs_no_multiplicative_order(mu_table, monkeypatch):
    # a short twisted scan at a 62-bit prime: the orbit prefix finds its own
    # closure, so ord(theta^2), which needs p +- 1 factorised, is never asked for
    def no_order(self):
        raise AssertionError("theta_sq_order was computed")

    monkeypatch.setattr(MobiusMatrix, "theta_sq_order", property(no_order))
    m = PrimeModulus(4611686018427420187)
    A = MobiusMatrix(m.zero, m.elem(-1), m.one, m.elem(3))
    xi0 = m.elem(5)
    psi = AdditiveCharacter(m.elem(2**61 + 3))
    r = twisted_sum_schedule(A, xi0, [psi.u.value], [1000], whole(mu_table))[0]
    assert abs(r.value - twisted_oracle(A, xi0, psi, 1000, mu_table)) < 1e-9


def test_twisted_validation(mu_table):
    for trivial in (0, 101, -202):
        with pytest.raises(ValueError):
            twisted_sum_schedule(A101, XI101, [trivial], [5], whole(mu_table))
    short = f"need values up to {mu_table.limit + 1}, the segments stop at {mu_table.limit}"
    with pytest.raises(ResourceGuard, match=short):
        twisted_sum_schedule(A101, XI101, [1], [mu_table.limit + 1], whole(mu_table))


def _rows(reports):
    return [(r.value, r.term_count, r.params) for r in reports]


@pytest.mark.parametrize(
    "schedule",
    [[1], [1, 1], [63], [64], [65], [1, 63, 64, 64, 65, 127, 128, 129], [50, 128, 128, 300, 640, 641], [3000]],
)
def test_twisted_streamed_equals_table_fed(mu_table, monkeypatch, schedule):
    # 64-term segments put checkpoints at, just before and just after segment edges;
    # the counts are exact integers, so the values must agree bit for bit
    import mobiusdyn.arith_fn as af

    monkeypatch.setattr(af, "_SEGMENT", 64)
    frequencies = [1, 77]
    fed = twisted_sum_schedule(A101, XI101, frequencies, schedule, whole(mu_table))
    streamed = twisted_sum_schedule(A101, XI101, frequencies, schedule, mobius_segments(schedule[-1]))
    assert _rows(streamed) == _rows(fed)


def test_twisted_stream_in_one_segment_and_beyond_max_n(mu_table):
    # one segment of the real size covers N = 5000; a longer stream is drawn only up to max N
    schedule = [10, 100, 5000]
    fed = twisted_sum_schedule(A101, XI101, [1, 3], schedule, whole(mu_table))
    assert len(list(mobius_segments(5000))) == 1
    assert _rows(twisted_sum_schedule(A101, XI101, [1, 3], schedule, mobius_segments(5000))) == _rows(fed)
    drawn = []

    def slices():
        for lo in range(1, mu_table.limit + 1, 64):
            drawn.append(lo)
            yield lo, mu_table.values[lo : lo + 64]

    assert _rows(twisted_sum_schedule(A101, XI101, [1, 3], schedule, slices())) == _rows(fed)
    assert drawn[-1] == 4993  # the slice holding mu(5000)


def test_twisted_stream_that_stops_short_or_skips(mu_table):
    with pytest.raises(ResourceGuard, match="need values up to 200, the segments stop at 199"):
        twisted_sum_schedule(A101, XI101, [1], [10, 200], mobius_segments(199))
    gap = [(1, mu_table.values[1:65]), (66, mu_table.values[66:130])]
    with pytest.raises(ValueError, match="starts at 66"):
        twisted_sum_schedule(A101, XI101, [1], [100], gap)


# --- correlation and single sums ------------------------------------------------------


def test_correlation_single_term(traj101):
    r = correlation_sum(traj101, 1, 1, 2, 0, 1, 1)
    assert abs(r.abs_value - 1.0) < 1e-15


def test_correlation_validation(traj101):
    with pytest.raises(ValueError, match=r"need \(u, v\) != \(0, 0\)"):
        correlation_sum(traj101, 1, 0, 0, 0, 1, 5)
    with pytest.raises(ValueError, match=r"need \(u, v\) != \(0, 0\)"):  # (u, v) = (0, 0) mod p
        correlation_sum(traj101, 1, 101, -101, 0, 1, 5)
    with pytest.raises(ValueError, match="need 0 <= k < m, got k=2, m=1"):
        correlation_sum(traj101, 1, 1, 1, 2, 1, 5)
    with pytest.raises(ValueError):
        correlation_sum(traj101, 1, 1, 1, 0, 1, traj101.period + 1)
    with pytest.raises(ValueError):  # psi_u trivial: u = 0 mod p
        correlation_sum(traj101, 101, 1, 1, 0, 1, 5)


def test_correlation_u_zero_collapses_to_single(traj101):
    q = correlation_sum(traj101, 1, 0, 3, 0, 2, 40)
    r = single_sum(traj101, 1, 3, 2, 40)
    assert abs(q.value - r.value) < 1e-12


def _every_orbit(p):
    """(matrix, seed, traj) for one seed of every orbit of every SL2 matrix with c != 0 and distinct roots mod p."""
    modulus = PrimeModulus(p)
    for a, c, d in itertools.product(range(p), range(1, p), range(p)):
        if (a + d) % p in (2, p - 2):
            continue
        A = MobiusMatrix(*(modulus.elem(x) for x in (a, (a * d - 1) * pow(c, -1, p), c, d)))
        seen = set()
        for x in range(p):
            if x not in seen:
                traj = period(A, modulus.elem(x))
                seen.update(traj.orbit_table.tolist())
                yield A, modulus.elem(x), traj


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_single_sum_is_correlation_with_u_zero_bit_for_bit_exhaustive(p):
    # single(u, m) and correlation(0, u, 0, m) share one tail, so their values agree bit for bit
    poles = 0
    for i, (A, xi0, traj) in enumerate(_every_orbit(p)):
        poles += not traj.pole_free
        t = traj.period
        psi_u, u, m, n = ((1, 1, 1, t), (2, p - 1, 2, max(1, t - 1)), (p - 1, 3, t + 1, t))[i % 3]
        single = single_sum(traj, psi_u, u, m, n)
        assert single.value == correlation_sum(traj, psi_u, 0, u, 0, m, n).value, (A, xi0, psi_u, u, m, n)
    assert poles > 0


def test_single_sum_is_correlation_with_u_zero_bit_for_bit_near_1e4():
    modulus = PrimeModulus(10007)
    A = MobiusMatrix(modulus.elem(2), modulus.elem(1), modulus.elem(1), modulus.elem(1))
    traj = period(A, modulus.elem(3))
    assert traj.period > 1000
    for u, m in ((1, 1), (5, 2), (10006, 7)):
        assert single_sum(traj, 3, u, m, traj.period).value == correlation_sum(traj, 3, 0, u, 0, m, traj.period).value


def test_correlation_reference_bound(traj101):
    r = correlation_sum(traj101, 1, 1, 2, 1, 4, 30)
    assert r.reference_bound == pytest.approx(4 * math.sqrt(101) * math.log(101))


def test_correlation_periodicity_offset(traj101):
    # the full-period sum over [1, t] equals the directly computed sum over
    # [t+1, 2t]: shifting the window by the period changes nothing
    t = traj101.period
    u, v = M101.elem(2), M101.elem(7)
    full = correlation_sum(traj101, PSI101.u.value, u.value, v.value, 1, 3, t)
    vals = [XI101]
    x = XI101
    for _ in range(2 * 3 * t):
        x = apply(A101, x)
        vals.append(x)
    shifted = sum(
        PSI101(u * vals[1 * n] + v * vals[3 * n]) for n in range(t + 1, 2 * t + 1)
    )
    assert abs(full.value - shifted) < 1e-9


def test_conjugate_frequency_conjugates_value(traj101):
    plus = correlation_sum(traj101, 1, 4, 9, 0, 1, 51)
    minus = correlation_sum(traj101, -1, 4, 9, 0, 1, 51)
    assert abs(plus.value - minus.value.conjugate()) < 1e-12


def test_single_sum_constant_when_m_equals_period(traj101):
    t = traj101.period
    r = single_sum(traj101, PSI101.u.value, 7, t, t)
    expected = t * PSI101(M101.elem(7 * XI101.value))
    assert abs(r.value - expected) < 1e-9
    assert abs(r.abs_value - t) < 1e-9
    assert r.reference_bound >= t  # gcd(t, t) = t makes the bound >= N


def test_single_sum_shift_by_period_invariant(traj101):
    # m and m + t sample identical trajectory values
    t = traj101.period
    for m_step in (1, 2, 5):
        a = single_sum(traj101, 1, 3, m_step, 40)
        b = single_sum(traj101, 1, 3, m_step + t, 40)
        assert abs(a.value - b.value) < 1e-9
        # the bounds differ (gcd changes); only the values coincide
        assert a.term_count == b.term_count


def test_single_sum_validation(traj101):
    with pytest.raises(ValueError, match="u must be nonzero"):
        single_sum(traj101, 1, 0, 1, 5)
    with pytest.raises(ValueError, match="u must be nonzero"):  # u = 0 mod p
        single_sum(traj101, 1, 202, 1, 5)
    with pytest.raises(ValueError, match="m must be >= 1"):
        single_sum(traj101, 1, 1, 0, 5)
    with pytest.raises(ValueError):  # psi_u trivial: u = 0 mod p
        single_sum(traj101, -101, 1, 1, 5)


def test_decimation_through_pole_matches_direct_stepping():
    # an orbit through the pole must still sample the extended scalar sequence
    rng = random.Random(3)
    m = PrimeModulus(101)
    from mobiusdyn.sampling import random_sl2

    while True:
        A = random_sl2(rng, m)
        traj = period(A, A.pole)
        if traj.period >= 12:
            break
    xi0 = A.pole
    psi = AdditiveCharacter(m.one)
    got = single_sum(traj, psi.u.value, 1, 3, 10)
    vals = []
    x = xi0
    for _ in range(30):
        x = apply(A, x)
        vals.append(x)
    expected = sum(psi(vals[3 * n - 1]) for n in range(1, 11))
    assert abs(got.value - expected) < 1e-12
    # correlation: xi_{kn} at k = 0 is the seed itself, which is the pole here
    for u, v, k, m_step, n_terms in ((1, 1, 0, 1, 10), (2, 7, 1, 3, 10), (5, 3, 2, 3, traj.period)):
        got = correlation_sum(traj, psi.u.value, u, v, k, m_step, n_terms)
        expected = decimated_oracle(A, xi0, psi, [(u, k), (v, m_step)], n_terms)
        assert abs(got.value - expected) < 1e-9


# --- differential tests against the per-term definitions ----------------------------


def _random_orbits(seed, primes, per_prime):
    """(A, xi0, traj) with a nontrivial orbit: half through the pole, half pole-free."""
    from mobiusdyn.sampling import random_sl2

    rng = random.Random(seed)
    out = []
    for p in primes:
        modulus = PrimeModulus(p)
        for want_pole in [True, False] * (per_prime // 2):
            while True:
                A = random_sl2(rng, modulus)
                xi0 = A.pole if want_pole else modulus.elem(rng.randrange(p))
                traj = period(A, xi0)
                if traj.period >= 4 and traj.pole_free != want_pole:
                    out.append((A, xi0, traj))
                    break
    return out


def test_twisted_matches_per_term_definition(mu_table):
    rng = random.Random(11)
    for A, xi0, traj in _random_orbits(11, (101, 211, 1009), 4):
        psi = AdditiveCharacter(A.modulus.elem(rng.randrange(1, A.p)))
        t = traj.period
        # N < t, N = t, a few periods plus a partial row, with a repeated checkpoint
        schedule = [max(1, t // 3), t, t, 3 * t + 2, 4 * t + t // 2]
        reports = twisted_sum_schedule(A, xi0, [psi.u.value], schedule, whole(mu_table))
        assert [r.term_count for r in reports] == schedule
        assert reports[1].value == reports[2].value
        oracle = orbit_oracle(A, xi0, schedule[-1])
        for r in reports:
            expected = sum(int(mu_table.values[n]) * psi(oracle[n]) for n in range(1, r.term_count + 1))
            assert abs(r.value - expected) < 1e-9


def test_decimated_sums_match_per_term_definition():
    rng = random.Random(12)
    for A, xi0, traj in _random_orbits(12, (101, 307, 1009), 4):
        modulus = A.modulus
        t = traj.period
        psi = AdditiveCharacter(modulus.elem(rng.randrange(1, A.p)))
        u, v = (rng.randrange(A.p) for _ in range(2))
        v = v or 1
        n_short = max(1, t // 2)
        for k, m_step, n_terms in ((0, 1, n_short), (0, 3, t), (1, 2, n_short), (2, 5, t)):
            got = correlation_sum(traj, psi.u.value, u, v, k, m_step, n_terms)
            expected = decimated_oracle(A, xi0, psi, [(u, k), (v, m_step)], n_terms)
            assert abs(got.value - expected) < 1e-9
        for m_step in (1, 3):
            got = single_sum(traj, psi.u.value, v, m_step, n_short)
            assert abs(got.value - decimated_oracle(A, xi0, psi, [(v, m_step)], n_short)) < 1e-9


def test_decimation_beyond_the_period_matches_per_term_definition():
    # m > t samples past the first period; the oracle steps the map all the way
    for A, xi0, traj in _random_orbits(13, (101,), 2):
        modulus = A.modulus
        t = traj.period
        psi = AdditiveCharacter(modulus.one)
        for k, m_step in ((1, t + 3), (t, 2 * t + 1)):
            got = correlation_sum(traj, psi.u.value, 2, 9, k, m_step, t)
            expected = decimated_oracle(A, xi0, psi, [(2, k), (9, m_step)], t)
            assert abs(got.value - expected) < 1e-9
        got = single_sum(traj, psi.u.value, 4, t + 1, t)
        assert abs(got.value - decimated_oracle(A, xi0, psi, [(4, t + 1)], t)) < 1e-9


def test_large_modulus_matches_per_term_definition(mu_table):
    # p = 2^61 - 1: u*x overflows int64 and a histogram sized by p cannot be
    # allocated.  Trace 0 gives period 2, trace +-1 gives period 3.
    from mobiusdyn.mobius_dynamics import normalize_to_sl2

    modulus = PrimeModulus(2**61 - 1)
    e = modulus.elem
    psi = AdditiveCharacter(e(2**60 + 12345))
    u, v = e(2**59 + 7), e(2**61 - 10)
    for entries, expected_period in (((1, -5, 1, -1), 2), ((1, -3, 1, 1), 3)):
        A = normalize_to_sl2(*(e(x) for x in entries))
        xi0 = e(2**58 + 99)
        traj = period(A, xi0)
        assert traj.period == expected_period
        t = traj.period
        r = twisted_sum_schedule(A, xi0, [psi.u.value], [1000], whole(mu_table))[0]
        assert abs(r.value - twisted_oracle(A, xi0, psi, 1000, mu_table)) < 1e-9
        got = correlation_sum(traj, psi.u.value, u.value, v.value, 1, 2, t)
        assert abs(got.value - decimated_oracle(A, xi0, psi, [(u.value, 1), (v.value, 2)], t)) < 1e-9
        got = single_sum(traj, psi.u.value, u.value, 1, t)
        assert abs(got.value - decimated_oracle(A, xi0, psi, [(u.value, 1)], t)) < 1e-9


# --- block size and memory ------------------------------------------------------------
# Every phase's count, and every residue count, is a whole integer before it multiplies a
# cosine, and the blocks' exact totals add up exactly: the block size can change no bit.

_BLOCKS = (1, 2, 3, 5)


def _trajectory_sums(traj, mu_table, i):
    """Thunks for the correlation, single and twisted values of one instance, with parameters varied by i."""
    A, xi0, t, p = traj.matrix, traj.seed, traj.period, traj.matrix.p
    psi_u, n = 1 + i % (p - 1), max(1, t - i % 3)
    schedule = [max(1, t // 2), t, t, 3 * t + 1]  # below, at, repeated and above t
    return [
        lambda: correlation_sum(traj, psi_u, i, 1 + i % (p - 1), 0, 1 + i % 3, n).value,  # k = 0: a constant term
        lambda: correlation_sum(traj, psi_u, 1, p - 1, 1, 2 + i % 4, t).value,
        lambda: single_sum(traj, psi_u, 1 + i % (p - 1), t, t).value,  # m = t: one run of t equal phases
        lambda: single_sum(traj, psi_u, 1, 1 + i % 5, n).value,
        lambda: [r.value for r in twisted_sum_schedule(A, xi0, [1, psi_u], schedule, whole(mu_table), traj)],
    ]


def _at_block(block, compute):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(char_sums, "_BLOCK", block)
        return compute()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_block_size_changes_no_bit_exhaustive(p, mu_table):
    # every orbit of every matrix; the kind of sum (five) and the block size (four) rotate, so every pair occurs
    poles = 0
    for i, (A, xi0, traj) in enumerate(_every_orbit(p)):
        poles += not traj.pole_free
        block, compute = _BLOCKS[i % len(_BLOCKS)], _trajectory_sums(traj, mu_table, i)[i % 5]
        assert _at_block(block, compute) == compute(), (A, xi0, block, i % 5)
    assert poles > 0


@settings(max_examples=25)
@given(
    p=st.sampled_from([997, 1009, 1013]),
    entries=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    seed=st.one_of(st.none(), st.integers(0, 10**6)),  # None: the orbit through the pole
    block=st.sampled_from(_BLOCKS),
    i=st.integers(0, 10**6),
)
def test_block_size_changes_no_bit_near_1e3(mu_table, p, entries, seed, block, i):
    modulus = PrimeModulus(p)
    a, c, d = entries[0] % p, 1 + entries[1] % (p - 1), entries[2] % p
    assume((a + d) % p not in (2, p - 2))
    A = MobiusMatrix(*(modulus.elem(x) for x in (a, (a * d - 1) * pow(c, -1, p), c, d)))
    traj = period(A, A.pole if seed is None else modulus.elem(seed))
    for compute in _trajectory_sums(traj, mu_table, i):
        assert _at_block(block, compute) == compute()


def test_twisted_snapshots_flush_without_changing_a_bit(mu_table, traj101, monkeypatch):
    # ten checkpoints at or past t = 51 hold more than 16*t bytes per frequency of int32
    # snapshots, so they go through several passes; each report must still equal a
    # standalone run at its N, at every block size
    frequencies = [1, 77]
    schedule = [10, 51, 51, 60, 102, 500, 1000, 1001, 2000, 5000, 9999, 20000]
    passes = []
    one_pass = char_sums._twisted_pass
    monkeypatch.setattr(char_sums, "_twisted_pass", lambda *args: passes.append(len(args[3])) or one_pass(*args))
    reports = twisted_sum_schedule(A101, XI101, frequencies, schedule, whole(mu_table), traj101)
    assert len(passes) > 1 and sum(passes) == len(schedule)
    for block in _BLOCKS:
        blocked = _at_block(block, lambda: twisted_sum_schedule(A101, XI101, frequencies, schedule, whole(mu_table)))
        assert _rows(blocked) == _rows(reports)
    solo = [twisted_sum_schedule(A101, XI101, [u], [n], whole(mu_table))[0] for u in frequencies for n in schedule]
    assert _rows(solo) == _rows(reports)


def _traced_peak(compute) -> int:
    """Bytes traced by tracemalloc at the peak of compute(), above what was held on entry."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        compute()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_orbits():
    """Orbits of ~1.5e5 steps under [[0, -1], [1, 3]] from seed 5 at p ~ 3e5: one pole-free, one through the pole."""
    out = []
    for p in (300023, 300043):
        e = PrimeModulus(p).elem
        out.append(period(MobiusMatrix(e(0), e(-1), e(1), e(3)), e(5)))
    assert [traj.pole_free for traj in out] == [True, False]
    assert all(traj.period > 150000 for traj in out)
    return out


def test_decimated_sums_hold_the_phases_plus_o_block(long_orbits):
    # one int32 phase numerator a term, and block-long temporaries besides
    for traj in long_orbits:
        n = traj.period
        bound = 4 * n + 128 * char_sums._BLOCK
        for compute in (
            lambda: correlation_sum(traj, 1, 3, 5, 1, 2, n),
            lambda: correlation_sum(traj, 2, 1, 1, 0, 1, n),
            lambda: single_sum(traj, 1, 1, 1, n),
            lambda: single_sum(traj, 7, 5, 3, n),
        ):
            assert _traced_peak(compute) <= bound


def test_twisted_prefix_holds_less_than_its_trigonometry():
    # t = N: the prefix is the whole orbit table; whole-prefix cos and sin would take
    # 16*N bytes per frequency, and the prefix, the counts and the snapshots take less
    p, n = 2147483647, 150000
    e = PrimeModulus(p).elem
    A, xi0 = MobiusMatrix(e(0), e(-1), e(1), e(3)), e(5)
    frequencies = [1, 2, 1000000007]
    peak = _traced_peak(lambda: twisted_sum_schedule(A, xi0, frequencies, [1000, 10000, n], mobius_segments(n)))
    assert peak < 16 * n * len(frequencies)


# --- the completion identity ----------------------------------------------------------


def test_complete_h_zero_equals_full_period_correlation(traj101):
    u, v = M101.elem(1), M101.elem(2)
    c = decimated_oracle(A101, XI101, PSI101, [(u.value, 0), (v.value, 1)], traj101.period, 0, traj101.period)
    q = correlation_sum(traj101, PSI101.u.value, u.value, v.value, 0, 1, traj101.period)
    assert abs(c - q.value) < 1e-12


def test_completion_identity_reconstructs_incomplete(traj101):
    # Q(N) = (1/t) sum_h Q_h * sum_{n<=N} e(-h n / t): the finite Fourier kernel, with the
    # complete sums Q_h = sum_{n<=t} psi(u*xi_0 + v*xi_n) e(h n / t) taken term by term
    t = traj101.period
    u, v = M101.elem(1), M101.elem(2)
    completes = [decimated_oracle(A101, XI101, PSI101, [(u.value, 0), (v.value, 1)], t, h, t) for h in range(t)]
    for n_terms in (1, 17, 34, t):
        kernel = [sum(unit_circle(-h * n, t) for n in range(1, n_terms + 1)) for h in range(t)]
        recon = sum(completes[h] * kernel[h] for h in range(t)) / t
        direct = correlation_sum(traj101, PSI101.u.value, u.value, v.value, 0, 1, n_terms).value
        assert abs(recon - direct) < 1e-8


# --- exhaustive hybrid sums ----------------------------------------------------------


def test_weil_fp_poles_are_skipped():
    # h = 0 with no twist counts the non-poles of g
    rf = RationalFunction((), (0, 1), 101)  # g(X) = X, one root
    r = weil_sum_fp([rf], 1)[0]
    assert r.value == pytest.approx(100)
    assert r.term_count == 100


def test_weil_fp_gauss_sum_is_exactly_sqrt_p():
    for p in (101, 199, 293):
        rf = RationalFunction((0, 0, 1), (1,), p)  # X^2
        r = weil_sum_fp([rf], 1)[0]
        assert r.abs_value == pytest.approx(math.sqrt(p), rel=1e-12)


def test_weil_fp_with_character_gauss_sum():
    rf = RationalFunction((0, 1), (1,), 101)  # X
    r = weil_sum_fp([rf], 1, 1)[0]  # chi(g^i) = e(i/100) for g = primitive_root(101)
    assert r.abs_value == pytest.approx(math.sqrt(101), rel=1e-12)
    assert r.ratio == pytest.approx(1.0, rel=1e-12)


def test_weil_fp_kloosterman_under_classical_bound():
    # h/g = X + 1/X has |sum| <= 2 sqrt(p) (poles removed)
    rf = RationalFunction((1, 0, 1), (0, 1), 293)  # (1 + X^2)/X
    r = weil_sum_fp([rf], 1)[0]
    assert r.abs_value <= 2 * math.sqrt(293) + 1e-9
    assert r.ratio <= 1.0 + 1e-12  # bound uses max degree 2


def test_weil_fp_random_grid_ratios():
    from mobiusdyn.sampling import random_rational_function_fp

    rng = random.Random(5)
    worst = 0.0
    for _ in range(40):
        rf = random_rational_function_fp(rng, 293, 3)
        for h in (None, 1):
            r = weil_sum_fp([rf], 1, h)[0]
            worst = max(worst, r.ratio)
    assert worst <= 10.0


def test_weil_norm_one_group_size_exhaustive():
    # p = 13: enumeration hits exactly p + 1 = 14 elements, all of norm one
    m = PrimeModulus(13)
    ext = QuadExtension(m, m.elem(5))
    gen = ext.elem(*norm_group_generator(5, 13))
    rf = RationalFunction((), ((1, 0),), 13, 5)  # h = 0: counts the group
    r = weil_sum_fp2_norm_one([rf], 1)[0]
    assert r.term_count == 14
    assert r.value == pytest.approx(14)
    brute = {
        (a, b)
        for a in range(13)
        for b in range(13)
        if ext.elem(a, b).norm().value == 1
    }
    assert len(brute) == 14
    powers = {(gen**k).pair for k in range(14)}
    assert powers == brute


def test_weil_norm_one_trace_twist_ratios():
    m = PrimeModulus(101)
    assert QuadExtension(m, m.elem(1)).is_irreducible
    rf = RationalFunction(((0, 0), (1, 0)), ((1, 0),), 101, 1)  # X
    for h in (None, 1):
        r = weil_sum_fp2_norm_one([rf], 1, h)[0]
        assert r.ratio <= 10.0


def _chi_values(chi):
    """{g^i: e(multiplier*i/order)} by stepping the generator g of chi; chi is 0 off the dict."""
    values, x = {}, chi.generator**0
    for i in range(chi.order):
        values[x] = unit_circle(chi.multiplier * i, chi.order)
        x = x * chi.generator
    return values


def _check_chi_values(chi):
    """The oracle's table against chi_value, the per-point definition through a discrete log."""
    values = _chi_values(chi)
    assert len(values) == chi.order
    assert all(abs(v - chi_value(chi, x)) < 1e-12 for x, v in values.items())


def _kernel_h(chi, g):
    """The multiplier a kernel whose generator is g takes for chi, or None.

    chi.generator = g^j, so chi(g^i) = e(multiplier * j^-1 * i / order): the
    kernel gets multiplier * j^-1, congruent to it mod the order.
    """
    if chi is None:
        return None
    j = discrete_index(chi.generator, g, chi.order)
    return chi.multiplier * pow(j, -1, chi.order)


def _weil_fp_oracle(rf, psi, chi=None):
    """(sum, terms) of psi(h(x)/g(x)) chi(x) over F_p, one term at a time."""
    m = psi.u.modulus
    chi_at = _chi_values(chi) if chi is not None else None
    total, terms = 0j, 0
    for x in map(m.elem, range(m.p)):
        val = value_at(rf, x)
        if val is None or (chi is not None and x not in chi_at):
            continue
        term = psi(val)
        if chi is not None:
            term *= chi_at[x]
        total += term
        terms += 1
    return total, terms


def _weil_fp2_oracle(rf, psi, chi, gen):
    """(sum, terms) of psi(Tr(h(z)/g(z))) chi(z) over z = gen^0, ..., gen^p, one term at a time."""
    ext = gen.ext
    chi_at = _chi_values(chi) if chi is not None else None
    total, terms = 0j, 0
    z = ext.one
    for _ in range(ext.p + 1):
        val = value_at(rf, z)
        if val is not None:
            term = psi(val.trace())
            if chi is not None:
                term *= chi_at[z]
            total += term
            terms += 1
        z = z * gen
    return total, terms


def _assert_matches(report, oracle):
    value, terms = oracle
    assert report.term_count == terms
    assert abs(report.value - value) < 1e-9


def _norm_one_setup(m):
    """(e, ext, gen): the weil-check extension of F_p and its kernel's generator as an Fp2Elem."""
    e = _first_irreducible_extension(m.p)
    ext = QuadExtension(m, m.elem(e))
    return e, ext, ext.elem(*norm_group_generator(e, m.p))


def test_weil_fp_matches_per_term_definition():
    from mobiusdyn.sampling import random_rational_function_fp

    rng = random.Random(17)
    for p in (101, 293):
        m = PrimeModulus(p)
        g = m.elem(primitive_root(p))
        other = next(m.elem(x) for x in range(g.value + 1, p) if mult_order((x, 0), 0, p, p - 1) == p - 1)
        psi = AdditiveCharacter(m.elem(rng.randrange(1, p)))
        chis = [
            None,
            MultiplicativeCharacter(g, p - 1, 1),
            MultiplicativeCharacter(other, p - 1, 5),
            MultiplicativeCharacter(g, p - 1, 2**62 + 3),  # multiplier * index overflows int64
        ]
        roots = RationalFunction((1,), (-6, 1, 1), p)  # 1/((X - 2)(X + 3))
        zero = RationalFunction((), (-4, 0, 1), p)  # h = 0 over X^2 - 4
        for chi in chis[1:]:
            _check_chi_values(chi)
        rfs = [roots, zero] + [random_rational_function_fp(rng, p, 3) for _ in range(6)]
        for rf in rfs:
            for chi in chis:
                _assert_matches(weil_sum_fp([rf], psi.u.value, _kernel_h(chi, g))[0], _weil_fp_oracle(rf, psi, chi))
        assert weil_sum_fp([roots], psi.u.value)[0].term_count == p - 2
        assert weil_sum_fp([zero], psi.u.value, 1)[0].term_count == p - 3


def test_weil_fp2_matches_per_term_definition():
    from mobiusdyn.sampling import random_rational_function_fp2

    rng = random.Random(19)
    for p in (101, 199):
        m = PrimeModulus(p)
        e, ext, gen = _norm_one_setup(m)
        other = gen**5 if math.gcd(5, p + 1) == 1 else gen**7  # another generator
        assert other != gen
        psi = AdditiveCharacter(m.elem(rng.randrange(1, p)))
        chis = [
            None,
            MultiplicativeCharacter(gen, p + 1, 1),
            MultiplicativeCharacter(other, p + 1, 3),  # index shift from the exponent of other
            MultiplicativeCharacter(gen, p + 1, 2**62 + 1),  # multiplier * index overflows int64
        ]
        # g(X) = (X - gen^3)(X - 1) vanishes at two group elements; h = 0 counts the rest
        root = gen**3
        g_coeffs = tuple(c.pair for c in (root, -(root + ext.one), ext.one))
        roots = RationalFunction(((2, 1),), g_coeffs, p, e)
        zero = RationalFunction((), g_coeffs, p, e)
        for chi in chis[1:]:
            _check_chi_values(chi)
        rfs = [roots, zero] + [random_rational_function_fp2(rng, e, p, 3) for _ in range(6)]
        for rf in rfs:
            for chi in chis:
                report = weil_sum_fp2_norm_one([rf], psi.u.value, _kernel_h(chi, gen))[0]
                _assert_matches(report, _weil_fp2_oracle(rf, psi, chi, gen))
        assert weil_sum_fp2_norm_one([zero], psi.u.value)[0].term_count == p - 1


def test_weil_batches_match_per_term_oracles_and_one_function_batches(monkeypatch):
    # degrees 0-3 padded together, a zero numerator, and a row with no live terms:
    # X^3 - X vanishes on all of F_3, X^4 - 1 on the whole norm-one group of F_9
    from mobiusdyn import char_sums
    from mobiusdyn.sampling import random_rational_function_fp, random_rational_function_fp2

    rng = random.Random(29)
    for p in (3, 101):
        m = PrimeModulus(p)
        psi = AdditiveCharacter(m.elem(rng.randrange(1, p)))
        chi = MultiplicativeCharacter(m.elem(primitive_root(p)), p - 1, 1)
        rfs = [
            RationalFunction((2,), (-1,), p),  # degree 0
            RationalFunction((), (1, 1), p),  # h = 0 over X + 1
            RationalFunction((1,), (0, -1, 0, 1), p),  # 1/(X^3 - X)
            RationalFunction((1, 0, 1), (0, 1), p),  # (1 + X^2)/X
        ] + [random_rational_function_fp(rng, p, 3) for _ in range(4)]
        for c in (None, chi):
            h = _kernel_h(c, chi.generator)
            batch = weil_sum_fp(rfs, psi.u.value, h)
            assert len(batch) == len(rfs)
            for rf, report in zip(rfs, batch):
                _assert_matches(report, _weil_fp_oracle(rf, psi, c))
                assert report == weil_sum_fp([rf], psi.u.value, h)[0]
            if p == 3:
                assert batch[2].term_count == 0 and batch[2].value == 0
            with monkeypatch.context() as mp:  # three functions per array pass
                mp.setattr(char_sums, "_WEIL_PASS", 3 * p)
                assert weil_sum_fp(rfs, psi.u.value, h) == batch

        e, ext, gen = _norm_one_setup(m)
        psi2 = AdditiveCharacter(m.elem(rng.randrange(1, p)))
        chi2 = MultiplicativeCharacter(gen, p + 1, 1)
        root = gen**3
        g_coeffs = tuple(c.pair for c in (root, -(root + ext.one), ext.one))  # (X - gen^3)(X - 1)
        rfs2 = [
            RationalFunction(((2, 1),), ((1, 1),), p, e),  # degree 0
            RationalFunction((), g_coeffs, p, e),  # h = 0
            RationalFunction(((1, 0),), ((-1, 0), (0, 0), (0, 0), (0, 0), (1, 0)), p, e),  # 1/(X^4 - 1)
            RationalFunction(((0, 0), (1, 0)), ((1, 0),), p, e),  # X
        ] + [random_rational_function_fp2(rng, e, p, 3) for _ in range(4)]
        for c in (None, chi2):
            h = _kernel_h(c, gen)
            batch = weil_sum_fp2_norm_one(rfs2, psi2.u.value, h)
            assert len(batch) == len(rfs2)
            for rf, report in zip(rfs2, batch):
                _assert_matches(report, _weil_fp2_oracle(rf, psi2, c, gen))
                assert report == weil_sum_fp2_norm_one([rf], psi2.u.value, h)[0]
            if p == 3:
                assert batch[2].term_count == 0 and batch[2].value == 0
            with monkeypatch.context() as mp:
                mp.setattr(char_sums, "_WEIL_PASS", 3 * (p + 1))
                assert weil_sum_fp2_norm_one(rfs2, psi2.u.value, h) == batch
    assert weil_sum_fp([], psi.u.value) == [] and weil_sum_fp2_norm_one([], psi2.u.value) == []


def test_weil_kernels_at_their_caps():
    from mobiusdyn.sampling import random_rational_function_fp, random_rational_function_fp2

    rng = random.Random(23)
    m = PrimeModulus(99991)
    psi = AdditiveCharacter(m.elem(12345))
    chi = MultiplicativeCharacter(m.elem(primitive_root(m.p)), m.p - 1, 7)
    rf = random_rational_function_fp(rng, m.p, 3)
    _assert_matches(weil_sum_fp([rf], psi.u.value, 7)[0], _weil_fp_oracle(rf, psi, chi))  # ~2 s of oracle
    m2 = PrimeModulus(2999)
    e, _, gen = _norm_one_setup(m2)
    psi2 = AdditiveCharacter(m2.elem(777))
    chi2 = MultiplicativeCharacter(gen, m2.p + 1, 11)
    rf2 = random_rational_function_fp2(rng, e, m2.p, 3)
    for c, h in ((None, None), (chi2, 11)):
        _assert_matches(weil_sum_fp2_norm_one([rf2], psi2.u.value, h)[0], _weil_fp2_oracle(rf2, psi2, c, gen))
    # just above each cap (100003 and 3001 are the next primes) the guard fires
    big = PrimeModulus(100003)
    with pytest.raises(ResourceGuard, match="exhaustive sum capped at p <= 100000"):
        weil_sum_fp([RationalFunction((1,), (1,), big.p)], 1)
    big2 = PrimeModulus(3001)
    rf_big2 = RationalFunction(((1, 0),), ((1, 0),), big2.p, _first_irreducible_extension(big2.p))
    with pytest.raises(ResourceGuard, match="norm-one enumeration capped at p <= 3000"):
        weil_sum_fp2_norm_one([rf_big2], 1)


def test_weil_kernels_reject_bad_characters_and_generators():
    # chi is a multiplier of the kernel's own generator, so only psi can be refused: u = 0 mod p
    for trivial in (0, 101, -101):
        with pytest.raises(ValueError):
            weil_sum_fp([RationalFunction((1,), (0, 1), 101)], trivial)
        with pytest.raises(ValueError):
            weil_sum_fp2_norm_one([RationalFunction(((1, 0),), ((0, 0), (1, 0)), 101, 1)], trivial)


def test_weil_norm_one_kernel_refuses_a_split_extension():
    # e = 0 splits mod 101 (-1 is a square there, so -4 is too); e = 2 and e = -2 have a double root
    for e in (0, 2, 99):
        assert sqrt_mod(e * e - 4, 101) is not None
        with pytest.raises(ValueError, match="splits mod 101; its norm-one set is not a"):
            norm_group_generator(e, 101)
        with pytest.raises(ValueError, match="splits mod 101; its norm-one set is not a"):
            weil_sum_fp2_norm_one([RationalFunction(((1, 0),), ((0, 0), (1, 0)), 101, e)], 1)


ONE_FIELD = "every function must be over F_101, the field of the first"
ONE_EXTENSION = "every function must be over one quadratic extension of F_101, that of the first"


def test_weil_fp_rejects_coefficients_from_another_field():
    # p is the functions' shared field: a batch over two fields is refused
    with pytest.raises(ValueError, match=ONE_FIELD):  # F_101 and F_199
        weil_sum_fp([RationalFunction((1,), (0, 1), 101), RationalFunction((1,), (0, 1), 199)], 1)
    assert QuadExtension(M101, M101.elem(1)).is_irreducible
    over_ext = RationalFunction(((1, 0),), ((0, 0), (1, 0)), 101, 1)  # 1/X over F_101[Z]/(Z^2 - Z + 1)
    over_199 = RationalFunction(((1, 0),), ((0, 0), (1, 0)), 199, _first_irreducible_extension(199))
    with pytest.raises(ValueError, match=ONE_EXTENSION):  # extensions of F_101 and of F_199
        weil_sum_fp2_norm_one([over_ext, over_199], 1)
    e2 = next(e for e in range(2, 101) if sqrt_mod(e * e - 4, 101) is None)
    with pytest.raises(ValueError, match=ONE_EXTENSION):  # two extensions in one batch
        weil_sum_fp2_norm_one([over_ext, RationalFunction(((1, 0),), ((0, 0), (1, 0)), 101, e2)], 1)
    with pytest.raises(ValueError, match=ONE_EXTENSION):  # an F_p function in the norm-one kernel
        weil_sum_fp2_norm_one([RationalFunction((1,), (0, 1), 101)], 1)
    with pytest.raises(ValueError, match=ONE_FIELD):  # an extension function in the F_p kernel
        weil_sum_fp([over_ext], 1)


def test_default_scan_grid_produces_sixty_reports():
    # 3 primes x 5 pole-free instances x 4 frequency pairs, full period, k = 0, m = 1
    from mobiusdyn.sampling import random_admissible_instance

    reports = []
    for p in (101, 199, 293):
        modulus = PrimeModulus(p)
        rng = random.Random(f"scan:{p}")
        for _ in range(5):
            matrix, xi0, traj, _form = random_admissible_instance(rng, modulus)
            for u, v in ((1, 1), (1, 2), (3, 5), (0, 1)):
                reports.append(correlation_sum(traj, 1, u, v, 0, 1, traj.period))
    ratios = [r.ratio for r in reports]
    assert len(reports) == 60
    assert all(math.isfinite(r) for r in ratios)
    assert max(ratios) <= 10.0  # safety envelope, not a structural constant
