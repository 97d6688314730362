"""Parameter schedule, prime blocks, sieve sets, W_j sums, condition report."""

import math
import random

import numpy as np
import pytest

from mobiusdyn.arith_fn import AdditiveCharacter, mobius_sieve, primes_up_to
from mobiusdyn.bsz_harness import (
    BszParams,
    CollisionFound,
    PrimeBlock,
    SieveSet,
    distinct_products_check,
    decomposition_report,
    make_params,
    prime_blocks,
    sieve_sets,
    theorem_conditions,
    wj_sums,
)
from mobiusdyn.field_arith import PrimeModulus
from mobiusdyn.mobius_dynamics import MobiusMatrix, apply, period
from mobiusdyn.sampling import random_sl2

TOY = BszParams(alpha=1.0, n=10**4, j0=3.0, j1=5.0)  # R_j = 2^j, blocks j = 3, 4, 5
ONE = np.ones(1, dtype=complex)  # F = 1: one period of length 1


def ones(n):
    """nu = 1 on 0..n."""
    return np.ones(n + 1, dtype=np.int8)


# --- parameters -----------------------------------------------------------------


def test_make_params_formula():
    p = make_params(0.1, 10**5)
    assert p.j0 == pytest.approx(math.log(10.0) ** 3 / 0.1)
    assert p.j0 == pytest.approx(122.0807, abs=1e-3)
    assert p.j1 == pytest.approx(p.j0**2)


def test_make_params_log_inverse_alpha_unit():
    p = make_params(1 / math.e, 100)
    assert p.j0 == pytest.approx(math.e)
    assert p.j1 == pytest.approx(math.e**2)


def test_make_params_validation():
    with pytest.raises(ValueError):
        make_params(0.0, 100)
    with pytest.raises(ValueError):
        make_params(0.5, 100)
    with pytest.raises(ValueError):
        make_params(0.2, 0)


def test_r_j_monotone():
    p = make_params(0.2, 10**5)
    for j in range(0, 100):
        assert p.r(j + 1) > p.r(j)


def test_j_range_endpoints_compared_as_reals():
    # j0 = 3.0 exactly: 3 is included; j1 = 5.0 exactly: 5 is included
    assert list(TOY.j_range) == [3, 4, 5]
    frac = BszParams(alpha=1.0, n=100, j0=3.2, j1=4.9)
    assert list(frac.j_range) == [4]


# --- prime blocks -----------------------------------------------------------------


def test_toy_blocks_enumeration():
    blocks = prime_blocks(TOY)
    assert [(b.j, b.primes) for b in blocks] == [
        (3, (11, 13)),
        (4, (17, 19, 23, 29, 31)),
        (5, (37, 41, 43, 47, 53, 59, 61)),
    ]


def test_blocks_disjoint_and_cover():
    blocks = prime_blocks(TOY)
    seen = set()
    for b in blocks:
        overlap = seen.intersection(b.primes)
        assert not overlap
        seen.update(b.primes)
    assert seen == set(primes_up_to(63)) - set(primes_up_to(7))


def test_empty_blocks_are_legal():
    # 114..126 is a prime gap (113 and 127 are the neighbours); an empty block
    # flows through the sieve and cardinality machinery without complaint
    from mobiusdyn.arith_fn import primes_in
    from mobiusdyn.bsz_harness import PrimeBlock

    assert primes_in(114, 127) == []
    blocks = [PrimeBlock(3, ())]
    sets = sieve_sets(TOY, blocks)
    assert sets[0].members[:5] == (1, 2, 3, 4, 5)  # nothing excluded
    report = distinct_products_check(blocks, sets, TOY.n)
    assert report.total_products == 0


def test_blocks_truncate_where_q_sets_empty():
    # alpha = 0.2, N = 1e5: R_{j+1} <= N exactly for j <= 62
    params = make_params(0.2, 10**5)
    blocks = prime_blocks(params)
    assert blocks[0].j == 21
    assert blocks[-1].j == 62
    assert params.r(63) <= 10**5 < params.r(64)
    # alpha = 0.1, N = 1e5: even the first block overshoots, none materialise
    assert prime_blocks(make_params(0.1, 10**5)) == []


# --- sieve sets ---------------------------------------------------------------------


def test_sieve_sets_toy_against_trial_division():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    union: set[int] = set()
    for block, qset in zip(blocks, sets):
        union.update(block.primes)
        m_j = math.floor(TOY.m(block.j))
        expected = tuple(
            m for m in range(1, m_j + 1) if all(m % r for r in union)
        )
        assert qset.members == expected
        assert 1 in qset.members


def test_sieve_sets_first_block_excludes_only_its_primes():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks[:1])
    m_3 = math.floor(TOY.m(3))
    expected = tuple(m for m in range(1, m_3 + 1) if m % 11 and m % 13)
    assert sets[0].members == expected


def test_sieve_sets_toy_instance_alpha_point_two():
    params = make_params(0.2, 10**4)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    union: set[int] = set()
    for block, qset in zip(blocks, sets):
        union.update(block.primes)
        m_j = math.floor(params.m(block.j))
        expected = tuple(m for m in range(1, m_j + 1) if all(m % r for r in union))
        assert qset.members == expected


# --- distinct products -----------------------------------------------------------------


def test_distinct_products_empty():
    report = distinct_products_check([], [], 10**4)
    assert (report.total_products, report.n, report.collisions) == (0, 10**4, 0)


def test_distinct_products_toy():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    report = distinct_products_check(blocks, sets, TOY.n)
    assert report.collisions == 0
    assert report.total_products == sum(
        len(b.primes) * len(s.members) for b, s in zip(blocks, sets)
    )
    assert report.total_products <= TOY.n


def test_distinct_products_collision_across_blocks():
    # 3*5 in the first block and 5*3 in the second
    blocks = [PrimeBlock(3, (3,)), PrimeBlock(4, (5,))]
    sets = [SieveSet(3, (1, 5)), SieveSet(4, (2, 3))]
    with pytest.raises(CollisionFound, match="product 15"):
        distinct_products_check(blocks, sets, 100)


def test_distinct_products_collision_within_block():
    # 2*3 = 3*2 inside one block whose sieve set keeps a multiple of its primes
    blocks = [PrimeBlock(3, (2, 3))]
    sets = [SieveSet(3, (1, 2, 3))]
    with pytest.raises(CollisionFound, match="product 6"):
        distinct_products_check(blocks, sets, 100)


def test_distinct_products_collision_between_chunks_of_one_block():
    # one prime and more members than one gathered chunk holds: the repeat
    # lands in a later chunk than its first occurrence
    members = tuple(range(1, 70001)) + (5,)
    with pytest.raises(CollisionFound, match="product 10"):
        distinct_products_check([PrimeBlock(3, (2,))], [SieveSet(3, members)], 10**6)


def test_distinct_products_product_above_n():
    blocks = [PrimeBlock(3, (11, 13))]
    sets = [SieveSet(3, (1, 7))]
    with pytest.raises(AssertionError, match=r"product 7\*13 exceeds N = 90") as info:
        distinct_products_check(blocks, sets, 90)
    assert not isinstance(info.value, CollisionFound)


def test_distinct_products_total_above_n():
    # products 0 and 1 are distinct and <= N = 1, but there are two of them
    blocks = [PrimeBlock(3, (1,))]
    sets = [SieveSet(3, (0, 1))]
    with pytest.raises(AssertionError, match="sum #P_j #Q_j = 2 exceeds N = 1") as info:
        distinct_products_check(blocks, sets, 1)
    assert not isinstance(info.value, CollisionFound)


# --- W_j sums ------------------------------------------------------------------------


def test_wj_empty_block_gives_zero():
    blocks = [PrimeBlock(3, ())]
    sets = [SieveSet(3, (1, 2, 3))]
    w = wj_sums(ones(3), ONE, blocks, sets)
    assert w == [0.0]


def test_wj_all_ones_counts_products():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    w = wj_sums(ones(TOY.n), ONE, blocks, sets)
    assert w == [float(len(b.primes) * len(s.members)) for b, s in zip(blocks, sets)]


def test_wj_bound_check_rejects_oversized_handles():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    with pytest.raises(ValueError):
        wj_sums(np.full(TOY.n + 1, 2, dtype=np.int8), ONE, blocks, sets)
    with pytest.raises(ValueError):
        wj_sums(ones(TOY.n), np.array([-1.5 + 0j]), blocks, sets)


def test_wj_bound_check_covers_every_entry():
    # the offending values sit far beyond the first 64 evaluations
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    nu = ones(TOY.n)
    nu[TOY.n] = -2
    with pytest.raises(ValueError, match="nu"):
        wj_sums(nu, ONE, blocks, sets)
    phase = np.ones(1000, dtype=complex)
    phase[999] = 1.01
    with pytest.raises(ValueError, match="F"):
        wj_sums(ones(TOY.n), phase, blocks, sets)


def test_wj_against_naive_double_loop():
    mu = mobius_sieve(10**4)
    m = PrimeModulus(1009)
    A = MobiusMatrix(m.elem(590), m.elem(448), m.elem(600), m.elem(406))
    xi0 = m.elem(50)
    traj = period(A, xi0)
    t = traj.period
    psi = AdditiveCharacter(m.one)
    orbit = [m.elem(v) for v in traj.orbit_table.tolist()]
    phase = [psi(x) for x in orbit]

    def f_handle(n):
        return phase[(n - 1) % t]

    def nu_handle(n):
        return float(mu.mu(n))

    params = make_params(0.2, 10**4)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    w = wj_sums(mu.values, np.array(phase), blocks, sets)
    for block, qset, got in zip(blocks, sets, w):
        naive = 0.0
        for mm in qset.members:
            inner = 0.0 + 0.0j
            for r in block.primes:
                inner += nu_handle(r) * f_handle(mm * r)
            naive += abs(inner)
        assert got == pytest.approx(naive, abs=1e-9)
        assert got >= 0.0


# --- decomposition report -----------------------------------------------------------


def test_decomposition_all_ones_lhs_is_n():
    report = decomposition_report(ones(10**4), ONE, 10**4, 0.2, period=1)
    assert report.lhs == pytest.approx(10**4)
    for row, block, qset in zip(report.rows, report.blocks, report.sets):
        assert row["w"] == pytest.approx(row["p_count"] * row["q_count"])
    assert report.products.collisions == 0
    assert report.products.total_products <= 10**4


def test_decomposition_reproducible():
    mu = mobius_sieve(2000)
    rep1 = decomposition_report(mu.values, ONE, 2000, 0.25, period=7)
    rep2 = decomposition_report(mu.values, ONE, 2000, 0.25, period=7)
    assert rep1.to_dict() == rep2.to_dict()


def test_decomposition_quotient_definition():
    report = decomposition_report(ones(5000), ONE, 5000, 0.3, period=1)
    denom = sum(report.w_values) + 0.3 * 5000
    assert report.quotient == pytest.approx(abs(report.lhs) / denom)


# --- arrays against the per-term definition --------------------------------------------


def _wj_oracle(nu, phase, blocks, sets):
    """W_j one product at a time: sum_m |sum_r nu(r) F(m r)|, F(n) = phase[(n - 1) % t]."""
    t = len(phase)
    out = []
    for block, qset in zip(blocks, sets):
        total = 0.0
        for m in qset.members:
            inner = 0j
            for r in block.primes:
                inner += int(nu[r]) * phase[(m * r - 1) % t]
            total += abs(inner)
        out.append(total)
    return out


def _lhs_oracle(nu, phase, n):
    t = len(phase)
    return sum(int(nu[i]) * phase[(i - 1) % t] for i in range(1, n + 1))


def _stepped_phases(matrix, xi0, t, u):
    """psi_u(xi_1), ..., psi_u(xi_t), stepping the extended map from xi0."""
    psi = AdditiveCharacter(matrix.modulus.elem(u))
    x, out = xi0, []
    for _ in range(t):
        x = apply(matrix, x)
        out.append(psi(x))
    assert x == xi0
    return out


def _pole_orbit():
    rng = random.Random(5)
    m = PrimeModulus(101)
    while True:
        A = random_sl2(rng, m)
        traj = period(A, A.pole)
        if traj.period >= 12 and not traj.pole_free:
            return A, A.pole, traj.period


def _pole_free_orbit():
    m = PrimeModulus(101)
    A = MobiusMatrix(m.elem(27), m.elem(39), m.elem(5), m.elem(11))
    xi0 = m.elem(55)
    traj = period(A, xi0)
    assert traj.pole_free
    return A, xi0, traj.period


@pytest.mark.parametrize("orbit", ["pole", "pole_free", "one"])
@pytest.mark.parametrize("nu_kind", ["mobius", "one"])
def test_arrays_match_per_term_definition(orbit, nu_kind):
    n, alpha = 20000, 0.2
    if orbit == "one":
        phase_list, t = [1.0 + 0j], 1
    else:
        A, xi0, t = _pole_orbit() if orbit == "pole" else _pole_free_orbit()
        phase_list = _stepped_phases(A, xi0, t, 3)
    nu = mobius_sieve(n).values if nu_kind == "mobius" else ones(n)
    report = decomposition_report(nu, np.array(phase_list), n, alpha, period=t)
    # both W_j paths run: blocks with more members than residues are grouped by m mod t
    q_sizes = [len(q.members) for q in report.sets]
    assert max(q_sizes) > t and min(q_sizes) <= t
    expected = _wj_oracle(nu, phase_list, report.blocks, report.sets)
    for got, want, block, qset in zip(report.w_values, expected, report.blocks, report.sets):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
        if orbit == "one" and nu_kind == "one":
            assert got == float(len(block.primes) * len(qset.members))
    assert abs(report.lhs - _lhs_oracle(nu, phase_list, n)) < 1e-8
    if orbit == "one" and nu_kind == "one":
        assert report.lhs == complex(n, 0)


def test_wj_grouped_path_matches_oracle_on_one_block():
    # one block, 600 members against a period of 7: only residues mod 7 matter
    A, xi0, t = _pole_orbit()
    phase_list = _stepped_phases(A, xi0, t, 1)
    mu = mobius_sieve(5000)
    blocks = [PrimeBlock(9, (2, 3, 5, 7))]
    sets = [SieveSet(9, tuple(range(1, 601)))]
    assert len(sets[0].members) > t
    got = wj_sums(mu.values, np.array(phase_list), blocks, sets)
    assert got[0] == pytest.approx(_wj_oracle(mu.values, phase_list, blocks, sets)[0], rel=1e-12)


def test_harness_rejects_short_or_non_integer_nu():
    with pytest.raises(ValueError):
        decomposition_report(ones(999), ONE, 1000, 0.2, period=1)
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    with pytest.raises(ValueError):
        wj_sums(ones(50), ONE, blocks, sets)  # the blocks reach r = 61
    with pytest.raises(TypeError):
        wj_sums(np.ones(TOY.n + 1), ONE, blocks, sets)


# --- conditions ---------------------------------------------------------------------


def test_theorem_conditions_examples():
    # p = 1e6, eps = 0.1: the alpha floor evaluates above 1, so the admissible
    # range is empty at desk scale
    rep = theorem_conditions(0.2, 10**5, 10**6, 10**3, 0.1)
    floor = rep.condition("alpha_floor")
    assert floor.rhs == pytest.approx(3 * math.log(math.log(10**6)) ** 6 / (0.1 * math.log(10**6)))
    assert floor.rhs > 1
    assert rep.alpha_range_empty
    assert not floor.holds


def test_theorem_conditions_t_equals_p():
    for eps in (0.1, 0.3, 0.5):
        rep = theorem_conditions(0.2, 10**5, 10**6, 10**6, eps)
        assert rep.condition("t_large").holds  # t = p >= p^(1/2+eps) for eps <= 1/2


def test_theorem_conditions_n_monotone():
    base = theorem_conditions(0.2, 10**4, 1009, 505, 0.1)
    bigger = theorem_conditions(0.2, 10**9, 1009, 505, 0.1)
    n_floor = base.condition("n_floor")
    assert bigger.condition("n_floor").lhs > n_floor.lhs
    assert bigger.condition("n_floor").rhs == pytest.approx(n_floor.rhs)
    if n_floor.holds:
        assert bigger.condition("n_floor").holds


def test_theorem_conditions_rho_value():
    rep = theorem_conditions(0.2, 10**5, 1009, 505, 0.1)
    assert rep.rho == pytest.approx(math.sqrt(1009) * math.log(1009) / 505)


def test_theorem_conditions_log_scale_rows():
    alpha, n, p, t, eps = 0.2, 10**5, 1009, 505, 0.1
    rep = theorem_conditions(alpha, n, p, t, eps)
    rho = rep.rho
    shared = math.log(1 / alpha) ** 6 / alpha
    row = rep.condition("n_floor")
    assert row.log_scale
    assert row.lhs == pytest.approx(math.log(n))
    assert row.rhs == pytest.approx(0.5 * math.log(p) + 5 * shared + math.log(math.log(p)))
    row = rep.condition("rho_capacity")
    assert row.lhs == pytest.approx(math.log(alpha**-2) + 2 * shared)
    assert row.rhs == pytest.approx(math.log(1 / rho))
    row = rep.condition("length_capacity")
    assert row.rhs == pytest.approx(math.log(t * rho) + 4 * shared)
