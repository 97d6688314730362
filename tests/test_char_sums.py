"""Sum kernels vs independent oracles: re-summation, DFT completion, exhaustion."""

import math
import random

import pytest

from mobiusdyn.arith_fn import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    mobius_sieve,
    unit_circle,
)
from mobiusdyn.char_sums import (
    CSV_HEADER,
    BadIndices,
    BothFrequenciesZero,
    RangeGuard,
    RationalFunction,
    SumReport,
    ZeroFrequency,
    correlation_sum,
    single_sum,
    twisted_sum_schedule,
    weil_sum_fp,
    weil_sum_fp2_norm_one,
)
from mobiusdyn.cli_runner import _first_irreducible_extension
from mobiusdyn.field_arith import (
    ModulusMismatch,
    PrimeModulus,
    QuadExtension,
    mult_order,
    norm_group_generator,
    primitive_root,
)
from mobiusdyn.mobius_dynamics import MobiusMatrix, apply, period
from oracles import chi_value, decimated_oracle, orbit_oracle, twisted_oracle

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


# --- twisted sums -------------------------------------------------------------------


def test_twisted_single_term(mu_table):
    r = twisted_sum_schedule(A101, XI101, PSI101, [1], mu_table)[0]
    assert abs(r.abs_value - 1.0) < 1e-15
    assert abs(r.value - PSI101(apply(A101, XI101))) < 1e-15


def test_twisted_skips_square_factors(mu_table):
    # mu(4) = 0, so N = 4 equals the N = 3 partial sum
    r3 = twisted_sum_schedule(A101, XI101, PSI101, [3], mu_table)[0]
    r4 = twisted_sum_schedule(A101, XI101, PSI101, [4], mu_table)[0]
    assert r3.value == r4.value


def test_twisted_against_direct_resummation(mu_table):
    # independent oracle: recompute the trajectory by repeated map application
    # and add plain complex terms in order
    m = PrimeModulus(10007)
    A = MobiusMatrix(m.elem(614), m.elem(6938), m.elem(1409), m.elem(7104))
    xi0 = m.elem(6851)
    psi = AdditiveCharacter(m.one)
    n_terms = 10**4
    r = twisted_sum_schedule(A, xi0, psi, [n_terms], mu_table)[0]
    expected = 0.0 + 0.0j
    x = xi0
    for n in range(1, n_terms + 1):
        x = apply(A, x)
        mu_n = mu_table.mu(n)
        if mu_n:
            expected += mu_n * unit_circle(x.value, m.p)
    assert abs(r.value - expected) <= 1e-9
    assert r.reference_bound is None
    assert abs(r.ratio - abs(expected) / n_terms) < 1e-12


def test_twisted_schedule_matches_standalone(mu_table):
    reports = twisted_sum_schedule(A101, XI101, PSI101, [10, 100, 1000], mu_table)
    for r in reports:
        solo = twisted_sum_schedule(A101, XI101, PSI101, [r.term_count], mu_table)[0]
        assert r.value == solo.value


def test_twisted_schedule_shares_one_pass_across_characters(mu_table):
    # several characters in one call: the same values as one call per
    # character, character by character, each over the whole schedule
    chars = [AdditiveCharacter(M101.elem(u)) for u in (1, 3, 100)]
    schedule = [10, 100, 1000, 5000]
    shared = twisted_sum_schedule(A101, XI101, chars, schedule, mu_table)
    separate = [r for psi in chars for r in twisted_sum_schedule(A101, XI101, psi, schedule, mu_table)]
    assert [r.csv_row() for r in shared] == [r.csv_row() for r in separate]
    assert [(r.params["u"], r.term_count) for r in shared] == [(u, n) for u in (1, 3, 100) for n in schedule]
    with pytest.raises(ValueError):
        twisted_sum_schedule(A101, XI101, [PSI101, AdditiveCharacter(M101.elem(0))], schedule, mu_table)


def test_twisted_schedule_reads_a_given_trajectory(mu_table, traj101):
    # the table of a full period gives the same reports as the prefix built for max N
    chars = [AdditiveCharacter(M101.elem(u)) for u in (1, 77)]
    for schedule in ([3, 40], [10, 100, 1000]):
        built = twisted_sum_schedule(A101, XI101, chars, schedule, mu_table)
        given = twisted_sum_schedule(A101, XI101, chars, schedule, mu_table, traj101)
        assert [r.csv_row() for r in given] == [r.csv_row() for r in built]
    other = period(A101, M101.elem(56))
    with pytest.raises(ValueError, match="different instance"):
        twisted_sum_schedule(A101, XI101, PSI101, [10], mu_table, other)


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
    r = twisted_sum_schedule(A, xi0, psi, [1000], mu_table)[0]
    assert abs(r.value - twisted_oracle(A, xi0, psi, 1000, mu_table)) < 1e-9


def test_twisted_validation(mu_table):
    with pytest.raises(ValueError):
        twisted_sum_schedule(A101, XI101, AdditiveCharacter(M101.elem(0)), [5], mu_table)
    from mobiusdyn.arith_fn import TableTooSmall

    with pytest.raises(TableTooSmall):
        twisted_sum_schedule(A101, XI101, PSI101, [mu_table.limit + 1], mu_table)


# --- correlation and single sums ------------------------------------------------------


def test_correlation_single_term(traj101):
    r = correlation_sum(traj101, PSI101, M101.elem(1), M101.elem(2), 0, 1, 1)
    assert abs(r.abs_value - 1.0) < 1e-15


def test_correlation_validation(traj101):
    with pytest.raises(BothFrequenciesZero):
        correlation_sum(traj101, PSI101, M101.elem(0), M101.elem(0), 0, 1, 5)
    with pytest.raises(BadIndices):
        correlation_sum(traj101, PSI101, M101.elem(1), M101.elem(1), 2, 1, 5)
    with pytest.raises(ValueError):
        correlation_sum(traj101, PSI101, M101.elem(1), M101.elem(1), 0, 1, traj101.period + 1)


def test_correlation_u_zero_collapses_to_single(traj101):
    v = M101.elem(3)
    q = correlation_sum(traj101, PSI101, M101.elem(0), v, 0, 2, 40)
    r = single_sum(traj101, PSI101, v, 2, 40)
    assert abs(q.value - r.value) < 1e-12


def test_correlation_reference_bound(traj101):
    r = correlation_sum(traj101, PSI101, M101.elem(1), M101.elem(2), 1, 4, 30)
    assert r.reference_bound == pytest.approx(4 * math.sqrt(101) * math.log(101))


def test_correlation_periodicity_offset(traj101):
    # the full-period sum over [1, t] equals the directly computed sum over
    # [t+1, 2t]: shifting the window by the period changes nothing
    t = traj101.period
    u, v = M101.elem(2), M101.elem(7)
    full = correlation_sum(traj101, PSI101, u, v, 1, 3, t)
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
    u, v = M101.elem(4), M101.elem(9)
    plus = correlation_sum(traj101, PSI101, u, v, 0, 1, 51)
    psi_minus = AdditiveCharacter(M101.elem(-1))
    minus = correlation_sum(traj101, psi_minus, u, v, 0, 1, 51)
    assert abs(plus.value - minus.value.conjugate()) < 1e-12


def test_single_sum_constant_when_m_equals_period(traj101):
    t = traj101.period
    r = single_sum(traj101, PSI101, M101.elem(7), t, t)
    expected = t * PSI101(M101.elem(7 * XI101.value))
    assert abs(r.value - expected) < 1e-9
    assert abs(r.abs_value - t) < 1e-9
    assert r.reference_bound >= t  # gcd(t, t) = t makes the bound >= N


def test_single_sum_shift_by_period_invariant(traj101):
    # m and m + t sample identical trajectory values
    t = traj101.period
    for m_step in (1, 2, 5):
        a = single_sum(traj101, PSI101, M101.elem(3), m_step, 40)
        b = single_sum(traj101, PSI101, M101.elem(3), m_step + t, 40)
        assert abs(a.value - b.value) < 1e-9
        # the bounds differ (gcd changes); only the values coincide
        assert a.term_count == b.term_count


def test_single_sum_validation(traj101):
    with pytest.raises(ZeroFrequency):
        single_sum(traj101, PSI101, M101.elem(0), 1, 5)
    with pytest.raises(BadIndices):
        single_sum(traj101, PSI101, M101.elem(1), 0, 5)


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
    got = single_sum(traj, psi, m.one, 3, 10)
    vals = []
    x = xi0
    for _ in range(30):
        x = apply(A, x)
        vals.append(x)
    expected = sum(psi(vals[3 * n - 1]) for n in range(1, 11))
    assert abs(got.value - expected) < 1e-12
    # correlation: xi_{kn} at k = 0 is the seed itself, which is the pole here
    for u, v, k, m_step, n_terms in ((1, 1, 0, 1, 10), (2, 7, 1, 3, 10), (5, 3, 2, 3, traj.period)):
        got = correlation_sum(traj, psi, m.elem(u), m.elem(v), k, m_step, n_terms)
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
        reports = twisted_sum_schedule(A, xi0, psi, schedule, mu_table)
        assert [r.term_count for r in reports] == schedule
        assert reports[1].value == reports[2].value
        oracle = orbit_oracle(A, xi0, schedule[-1])
        for r in reports:
            expected = sum(mu_table.mu(n) * psi(oracle[n]) for n in range(1, r.term_count + 1))
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
            got = correlation_sum(traj, psi, modulus.elem(u), modulus.elem(v), k, m_step, n_terms)
            expected = decimated_oracle(A, xi0, psi, [(u, k), (v, m_step)], n_terms)
            assert abs(got.value - expected) < 1e-9
        for m_step in (1, 3):
            got = single_sum(traj, psi, modulus.elem(v), m_step, n_short)
            assert abs(got.value - decimated_oracle(A, xi0, psi, [(v, m_step)], n_short)) < 1e-9


def test_decimation_beyond_the_period_matches_per_term_definition():
    # m > t samples past the first period; the oracle steps the map all the way
    for A, xi0, traj in _random_orbits(13, (101,), 2):
        modulus = A.modulus
        t = traj.period
        psi = AdditiveCharacter(modulus.one)
        for k, m_step in ((1, t + 3), (t, 2 * t + 1)):
            got = correlation_sum(traj, psi, modulus.elem(2), modulus.elem(9), k, m_step, t)
            expected = decimated_oracle(A, xi0, psi, [(2, k), (9, m_step)], t)
            assert abs(got.value - expected) < 1e-9
        got = single_sum(traj, psi, modulus.elem(4), t + 1, t)
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
        r = twisted_sum_schedule(A, xi0, psi, [1000], mu_table)[0]
        assert abs(r.value - twisted_oracle(A, xi0, psi, 1000, mu_table)) < 1e-9
        got = correlation_sum(traj, psi, u, v, 1, 2, t)
        assert abs(got.value - decimated_oracle(A, xi0, psi, [(u.value, 1), (v.value, 2)], t)) < 1e-9
        got = single_sum(traj, psi, u, 1, t)
        assert abs(got.value - decimated_oracle(A, xi0, psi, [(u.value, 1)], t)) < 1e-9


# --- the completion identity ----------------------------------------------------------


def test_complete_h_zero_equals_full_period_correlation(traj101):
    u, v = M101.elem(1), M101.elem(2)
    c = decimated_oracle(A101, XI101, PSI101, [(u.value, 0), (v.value, 1)], traj101.period, 0, traj101.period)
    q = correlation_sum(traj101, PSI101, u, v, 0, 1, traj101.period)
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
        direct = correlation_sum(traj101, PSI101, u, v, 0, 1, n_terms).value
        assert abs(recon - direct) < 1e-8


# --- exhaustive hybrid sums ----------------------------------------------------------


def test_weil_fp_poles_are_skipped():
    # h = 0 with no twist counts the non-poles of g
    m = PrimeModulus(101)
    g = (m.elem(0), m.elem(1))  # g(X) = X, one root
    rf = RationalFunction((), g)
    r = weil_sum_fp(rf, PSI101)
    assert r.value == pytest.approx(100)
    assert r.term_count == 100


def test_weil_fp_gauss_sum_is_exactly_sqrt_p():
    for p in (101, 199, 293):
        m = PrimeModulus(p)
        psi = AdditiveCharacter(m.one)
        rf = RationalFunction((m.elem(0), m.elem(0), m.elem(1)), (m.one,))  # X^2
        r = weil_sum_fp(rf, psi)
        assert r.abs_value == pytest.approx(math.sqrt(p), rel=1e-12)


def test_weil_fp_with_character_gauss_sum():
    m = PrimeModulus(101)
    chi = MultiplicativeCharacter(primitive_root(m), 100, 1)
    rf = RationalFunction((m.elem(0), m.elem(1)), (m.one,))  # X
    r = weil_sum_fp(rf, PSI101, chi)
    assert r.abs_value == pytest.approx(math.sqrt(101), rel=1e-12)
    assert r.ratio == pytest.approx(1.0, rel=1e-12)


def test_weil_fp_kloosterman_under_classical_bound():
    # h/g = X + 1/X has |sum| <= 2 sqrt(p) (poles removed)
    m = PrimeModulus(293)
    psi = AdditiveCharacter(m.one)
    rf = RationalFunction((m.one, m.elem(0), m.one), (m.elem(0), m.one))  # (1 + X^2)/X
    r = weil_sum_fp(rf, psi)
    assert r.abs_value <= 2 * math.sqrt(293) + 1e-9
    assert r.ratio <= 1.0 + 1e-12  # bound uses max degree 2


def test_weil_fp_random_grid_ratios():
    from mobiusdyn.sampling import random_rational_function_fp

    rng = random.Random(5)
    m = PrimeModulus(293)
    psi = AdditiveCharacter(m.one)
    chi = MultiplicativeCharacter(primitive_root(m), 292, 1)
    worst = 0.0
    for _ in range(40):
        rf = random_rational_function_fp(rng, m, 3)
        for c in (None, chi):
            r = weil_sum_fp(rf, psi, c)
            worst = max(worst, r.ratio)
    assert worst <= 10.0


def test_weil_norm_one_group_size_exhaustive():
    # p = 13: enumeration hits exactly p + 1 = 14 elements, all of norm one
    m = PrimeModulus(13)
    ext = QuadExtension(m, m.elem(5))
    gen = norm_group_generator(ext)
    psi = AdditiveCharacter(m.one)
    rf = RationalFunction((), (ext.one,))  # h = 0: counts the group
    r = weil_sum_fp2_norm_one(rf, psi, None, gen)
    assert r.term_count == 14
    assert r.value == pytest.approx(14)
    brute = {
        (a, b)
        for a in range(13)
        for b in range(13)
        if ext.elem(a, b).norm().value == 1
    }
    assert len(brute) == 14
    powers = {((z := gen**k).c0.value, z.c1.value) for k in range(14)}
    assert powers == brute


def test_weil_norm_one_trace_twist_ratios():
    m = PrimeModulus(101)
    ext = QuadExtension(m, m.elem(1))
    assert ext.is_irreducible
    gen = norm_group_generator(ext)
    psi = AdditiveCharacter(m.one)
    chi = MultiplicativeCharacter(gen, 102, 1)
    rf = RationalFunction((ext.zero, ext.one), (ext.one,))  # X
    for c in (None, chi):
        r = weil_sum_fp2_norm_one(rf, psi, c, gen)
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


def _weil_fp_oracle(rf, psi, chi=None):
    """(sum, terms) of psi(h(x)/g(x)) chi(x) over F_p, one term at a time."""
    m = psi.u.modulus
    chi_at = _chi_values(chi) if chi is not None else None
    total, terms = 0j, 0
    for x in map(m.elem, range(m.p)):
        val = rf.value_at(x)
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
        val = rf.value_at(z)
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


def test_weil_fp_matches_per_term_definition():
    from mobiusdyn.sampling import random_rational_function_fp

    rng = random.Random(17)
    for p in (101, 293):
        m = PrimeModulus(p)
        g = primitive_root(m)
        other = next(m.elem(x) for x in range(g.value + 1, p) if mult_order(m.elem(x)) == p - 1)
        psi = AdditiveCharacter(m.elem(rng.randrange(1, p)))
        chis = [
            None,
            MultiplicativeCharacter(g, p - 1, 1),
            MultiplicativeCharacter(other, p - 1, 5),
            MultiplicativeCharacter(g, p - 1, 2**62 + 3),  # multiplier * index overflows int64
        ]
        roots = RationalFunction((m.one,), (m.elem(-6), m.elem(1), m.one))  # 1/((X - 2)(X + 3))
        zero = RationalFunction((), (m.elem(-4), m.elem(0), m.one))  # h = 0 over X^2 - 4
        for chi in chis[1:]:
            _check_chi_values(chi)
        rfs = [roots, zero] + [random_rational_function_fp(rng, m, 3) for _ in range(6)]
        for rf in rfs:
            for chi in chis:
                _assert_matches(weil_sum_fp(rf, psi, chi), _weil_fp_oracle(rf, psi, chi))
        assert weil_sum_fp(roots, psi).term_count == p - 2
        assert weil_sum_fp(zero, psi, chis[1]).term_count == p - 3


def test_weil_fp2_matches_per_term_definition():
    from mobiusdyn.sampling import random_rational_function_fp2

    rng = random.Random(19)
    for p in (101, 199):
        m = PrimeModulus(p)
        ext = _first_irreducible_extension(m)
        gen = norm_group_generator(ext)
        other = gen**5 if math.gcd(5, p + 1) == 1 else gen**7  # another generator
        assert other != gen
        psi = AdditiveCharacter(m.elem(rng.randrange(1, p)))
        chis = [
            None,
            MultiplicativeCharacter(gen, p + 1, 1),
            MultiplicativeCharacter(other, p + 1, 3),  # discrete_index path
            MultiplicativeCharacter(gen, p + 1, 2**62 + 1),  # multiplier * index overflows int64
        ]
        # g(X) = (X - gen^3)(X - 1) vanishes at two group elements; h = 0 counts the rest
        root = gen**3
        g_coeffs = (root, -(root + ext.one), ext.one)
        roots = RationalFunction((ext.elem(2, 1),), g_coeffs)
        zero = RationalFunction((), g_coeffs)
        for chi in chis[1:]:
            _check_chi_values(chi)
        rfs = [roots, zero] + [random_rational_function_fp2(rng, ext, gen, 3) for _ in range(6)]
        for rf in rfs:
            for chi in chis:
                _assert_matches(weil_sum_fp2_norm_one(rf, psi, chi, gen), _weil_fp2_oracle(rf, psi, chi, gen))
        assert weil_sum_fp2_norm_one(zero, psi, None, gen).term_count == p - 1


def test_weil_kernels_at_their_caps():
    from mobiusdyn.sampling import random_rational_function_fp, random_rational_function_fp2

    rng = random.Random(23)
    m = PrimeModulus(99991)
    psi = AdditiveCharacter(m.elem(12345))
    chi = MultiplicativeCharacter(primitive_root(m), m.p - 1, 7)
    rf = random_rational_function_fp(rng, m, 3)
    _assert_matches(weil_sum_fp(rf, psi, chi), _weil_fp_oracle(rf, psi, chi))  # ~2 s of oracle
    m2 = PrimeModulus(2999)
    ext = _first_irreducible_extension(m2)
    gen = norm_group_generator(ext)
    psi2 = AdditiveCharacter(m2.elem(777))
    chi2 = MultiplicativeCharacter(gen, m2.p + 1, 11)
    rf2 = random_rational_function_fp2(rng, ext, gen, 3)
    for c in (None, chi2):
        _assert_matches(weil_sum_fp2_norm_one(rf2, psi2, c, gen), _weil_fp2_oracle(rf2, psi2, c, gen))
    # just above each cap (100003 and 3001 are the next primes) the guard fires
    big = PrimeModulus(100003)
    with pytest.raises(RangeGuard):
        weil_sum_fp(RationalFunction((big.one,), (big.one,)), AdditiveCharacter(big.one))
    big2 = PrimeModulus(3001)
    ext2 = _first_irreducible_extension(big2)
    with pytest.raises(RangeGuard):
        weil_sum_fp2_norm_one(RationalFunction((ext2.one,), (ext2.one,)), AdditiveCharacter(big2.one))


def test_weil_kernels_reject_bad_characters_and_generators():
    m = PrimeModulus(101)
    rf = RationalFunction((m.one,), (m.elem(0), m.one))
    with pytest.raises(ValueError):
        weil_sum_fp(rf, AdditiveCharacter(m.elem(0)))
    with pytest.raises(ValueError):
        weil_sum_fp(rf, PSI101, MultiplicativeCharacter(primitive_root(m), 50, 1))
    with pytest.raises(ValueError):
        weil_sum_fp(rf, PSI101, MultiplicativeCharacter(m.one, 100, 1))
    with pytest.raises(ValueError):  # 4 = 2^2 has order 50, not 100
        weil_sum_fp(rf, PSI101, MultiplicativeCharacter(m.elem(4), 100, 1))
    ext = _first_irreducible_extension(m)
    gen = norm_group_generator(ext)
    rf2 = RationalFunction((ext.one,), (ext.zero, ext.one))
    with pytest.raises(ValueError):
        weil_sum_fp2_norm_one(rf2, PSI101, MultiplicativeCharacter(gen, 101, 1), gen)
    with pytest.raises(AssertionError):  # 2*Z has norm 4, so (2*Z)^(p + 1) = 4
        weil_sum_fp2_norm_one(rf2, PSI101, None, ext.elem(0, 2))
    e = next(e for e in range(3, m.p - 2) if e != ext.e.value and QuadExtension(m, m.elem(e)).is_irreducible)
    with pytest.raises(ValueError):  # generator from a different extension
        weil_sum_fp2_norm_one(rf2, PSI101, None, norm_group_generator(QuadExtension(m, m.elem(e))))


def test_weil_fp_rejects_coefficients_from_another_field():
    m, other = PrimeModulus(101), PrimeModulus(199)
    psi = AdditiveCharacter(other.one)
    with pytest.raises(ModulusMismatch):
        weil_sum_fp(RationalFunction((m.one,), (m.elem(0), m.one)), psi)
    rf = RationalFunction((other.one,), (other.elem(0), other.one))
    with pytest.raises(ModulusMismatch):  # chi generator from F_101
        weil_sum_fp(rf, psi, MultiplicativeCharacter(primitive_root(m), 198, 1))


def test_default_scan_grid_produces_sixty_reports():
    # 3 primes x 5 pole-free instances x 4 frequency pairs, full period, k = 0, m = 1
    from mobiusdyn.sampling import random_admissible_instance

    reports = []
    for p in (101, 199, 293):
        modulus = PrimeModulus(p)
        rng = random.Random(f"scan:{p}")
        psi = AdditiveCharacter(modulus.one)
        for _ in range(5):
            matrix, xi0, traj, _form = random_admissible_instance(rng, modulus)
            for u, v in ((1, 1), (1, 2), (3, 5), (0, 1)):
                reports.append(
                    correlation_sum(traj, psi, modulus.elem(u), modulus.elem(v), 0, 1, traj.period)
                )
    ratios = [r.ratio for r in reports]
    assert len(reports) == 60
    assert all(math.isfinite(r) for r in ratios)
    assert max(ratios) <= 10.0  # safety envelope, not a structural constant
