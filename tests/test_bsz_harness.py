"""Parameter schedule, prime blocks, sieve sets, W_j sums, condition report."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobiusdyn import bsz_harness
from mobiusdyn.arith_fn import mobius_sieve
from mobiusdyn.bsz_harness import (
    BszParams,
    DistinctProductsReport,
    PrimeBlock,
    distinct_products_check,
    decomposition_report,
    make_params,
    prime_blocks,
    sieve_range,
    sieve_sets,
    theorem_conditions,
    wj_sums,
)
from mobiusdyn.field_arith import PrimeModulus
from mobiusdyn.char_sums import twisted_sum_schedule
from mobiusdyn.mobius_dynamics import MobiusMatrix, period
from mobiusdyn.sampling import random_sl2
from oracles import _ORACLE_PRIMES, AdditiveCharacter, apply

TOY = BszParams(alpha=1.0, n=10**4, j0=3.0, j1=5.0)  # R_j = 2^j, blocks j = 3, 4, 5
ONE = np.ones(1, dtype=complex)  # F = 1: one period of length 1


def lhs_of(nu, phase, n):
    """sum_{k <= n} nu[k] F(k), F(k) = phase[(k - 1) % t], for a dense nu array: a left side for decomposition_report."""
    return complex(np.dot(nu[1 : n + 1], phase[np.arange(n) % phase.size]))


def mertens(n):
    """M(n) = sum_{k <= n} mu(k), the left side at nu = mu and F = 1."""
    return complex(int(mobius_sieve(n).values.sum(dtype=np.int64)))


def i64(*values):
    """A toy block's primes or sieve set's members, int64 as prime_blocks and sieve_sets give them."""
    return np.array(values, dtype=np.int64)


def conditions(rep):
    """The condition rows of a theorem_conditions report, by name."""
    return {r["name"]: r for r in rep["conditions"]}


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
    for tiny in (2.0**-53, 1e-100, 1e-200):  # 1 + alpha == 1.0
        with pytest.raises(ValueError, match="1 \\+ alpha > 1"):
            make_params(tiny, 100)
    assert make_params(2.0**-52, 100).j_range


def test_r_j_monotone():
    p = make_params(0.2, 10**5)
    for j in range(0, 100):
        assert p.r(j + 1) > p.r(j)


def test_r_j_past_the_double_range_materialises_no_block():
    # alpha = 1e-5 puts j0 near 1.5e8, where (1 + alpha)^j overflows a double: R_j is inf, so no block
    # reaches N, the sieve range is 0 and the report has no rows
    params = make_params(1e-5, 1000)
    assert params.r(params.j_range.start) == math.inf
    assert prime_blocks(params) == [] and sieve_range(params) == 0
    report = decomposition_report(complex(1000), ONE, 1000, 1e-5, period=1)
    assert report["rows"] == [] and report["aggregates"]["lhs_re"] == 1000.0


def test_j_range_endpoints_compared_as_reals():
    # j0 = 3.0 exactly: 3 is included; j1 = 5.0 exactly: 5 is included
    assert list(TOY.j_range) == [3, 4, 5]
    frac = BszParams(alpha=1.0, n=100, j0=3.2, j1=4.9)
    assert list(frac.j_range) == [4]


# --- prime blocks -----------------------------------------------------------------


def test_toy_blocks_enumeration():
    blocks = prime_blocks(TOY)
    assert [(b.j, b.primes.tolist()) for b in blocks] == [
        (3, [11, 13]),
        (4, [17, 19, 23, 29, 31]),
        (5, [37, 41, 43, 47, 53, 59, 61]),
    ]


def test_blocks_disjoint_and_cover():
    blocks = prime_blocks(TOY)
    seen = set()
    for b in blocks:
        overlap = seen.intersection(b.primes)
        assert not overlap
        seen.update(b.primes)
    assert seen == {q for q in _ORACLE_PRIMES if 7 < q <= 63}


def test_empty_blocks_are_legal():
    # 114..126 is a prime gap (113 and 127 are the neighbours); an empty block
    # flows through the sieve and cardinality machinery without complaint
    from mobiusdyn.arith_fn import primes_in
    from mobiusdyn.bsz_harness import PrimeBlock

    assert primes_in(114, 127).tolist() == []
    blocks = [PrimeBlock(3, primes_in(114, 127))]
    sets = sieve_sets(TOY, blocks)
    assert sets[0][:5].tolist() == [1, 2, 3, 4, 5]  # nothing excluded
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
        expected = [
            m for m in range(1, m_j + 1) if all(m % r for r in union)
        ]
        assert qset.tolist() == expected
        assert 1 in qset


def test_sieve_sets_first_block_excludes_only_its_primes():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks[:1])
    m_3 = math.floor(TOY.m(3))
    expected = [m for m in range(1, m_3 + 1) if m % 11 and m % 13]
    assert sets[0].tolist() == expected


def test_sieve_sets_toy_instance_alpha_point_two():
    params = make_params(0.2, 10**4)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    union: set[int] = set()
    for block, qset in zip(blocks, sets):
        union.update(block.primes)
        m_j = math.floor(params.m(block.j))
        expected = [m for m in range(1, m_j + 1) if all(m % r for r in union)]
        assert qset.tolist() == expected


def test_blocks_and_sets_stay_int64_arrays_at_benchmark_size():
    # alpha = 0.2, N = 4e6: 265,588 primes and 349,821 members; as Python ints they traced 23.3 MB
    import tracemalloc

    params = make_params(0.2, 4 * 10**6)
    tracemalloc.start()
    try:
        blocks = prime_blocks(params)
        sets = sieve_sets(params, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for seq in [b.primes for b in blocks] + sets:
        assert isinstance(seq, np.ndarray) and seq.dtype == np.int64
    assert sum(b.primes.size for b in blocks) == 265588
    assert sum(q.size for q in sets) == 349821
    assert peak < 8 * 2**20, peak


# --- distinct products -----------------------------------------------------------------


def test_distinct_products_empty():
    assert distinct_products_check([], [], 10**4) == DistinctProductsReport(0)


def test_distinct_products_toy():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    report = distinct_products_check(blocks, sets, TOY.n)  # no collision: every product is distinct
    assert report.total_products == sum(
        len(b.primes) * len(s) for b, s in zip(blocks, sets)
    )
    assert report.total_products <= TOY.n


def test_distinct_products_collision_across_blocks():
    # 3*5 in the first block and 5*3 in the second
    blocks = [PrimeBlock(3, i64(3)), PrimeBlock(4, i64(5))]
    sets = [i64(1, 5), i64(2, 3)]
    with pytest.raises(AssertionError, match="product 15 produced twice"):
        distinct_products_check(blocks, sets, 100)


def test_distinct_products_collision_within_block():
    # 2*3 = 3*2 inside one block whose sieve set keeps a multiple of its primes
    blocks = [PrimeBlock(3, i64(2, 3))]
    sets = [i64(1, 2, 3)]
    with pytest.raises(AssertionError, match="product 6 produced twice"):
        distinct_products_check(blocks, sets, 100)


def test_distinct_products_collision_between_chunks_of_one_block():
    # one prime and more members than one gathered chunk holds: the repeat
    # lands in a later chunk than its first occurrence
    members = i64(*range(1, 70001), 5)
    with pytest.raises(AssertionError, match="product 10 produced twice"):
        distinct_products_check([PrimeBlock(3, i64(2))], [members], 10**6)


def test_distinct_products_names_the_smallest_repeat():
    # 7*11 repeats in the first block and 3*5 in the second: the audit names 15
    blocks = [PrimeBlock(3, i64(7, 11)), PrimeBlock(4, i64(3, 5))]
    sets = [i64(1, 7, 11), i64(3, 5)]
    with pytest.raises(AssertionError, match="product 15 produced twice"):
        distinct_products_check(blocks, sets, 1000)


def test_distinct_products_collision_only_in_the_last_block():
    # forty blocks with the odd products 1, 3, ..., 79, then a block whose 3*13 repeats block 19's 39*1
    blocks = [PrimeBlock(j, i64(2 * j + 1)) for j in range(40)] + [PrimeBlock(40, i64(3))]
    sets = [i64(1) for _ in range(40)]
    with pytest.raises(AssertionError, match="product 39 produced twice"):
        distinct_products_check(blocks, sets + [i64(2, 13)], 1000)
    report = distinct_products_check(blocks, sets + [i64(2, 50)], 1000)
    assert report.total_products == 42


def test_distinct_products_product_above_n():
    blocks = [PrimeBlock(3, i64(11, 13))]
    sets = [i64(1, 7)]
    with pytest.raises(AssertionError, match=r"product 7\*13 exceeds N = 90") as info:
        distinct_products_check(blocks, sets, 90)
    assert "produced twice" not in str(info.value)  # not reported as a collision


def test_distinct_products_total_above_n():
    # products 0 and 1 are distinct and <= N = 1, but there are two of them
    blocks = [PrimeBlock(3, i64(1))]
    sets = [i64(0, 1)]
    with pytest.raises(AssertionError, match="sum #P_j #Q_j = 2 exceeds N = 1") as info:
        distinct_products_check(blocks, sets, 1)
    assert "produced twice" not in str(info.value)  # not reported as a collision


def test_decomposition_report_names_a_forced_collision_as_the_batch_audit_does(monkeypatch):
    # 47 joins Q_22, so 47*59 and 47*61 repeat block 21's 59*47 and 61*47 (P_21 = {47, 53}, P_22 = {59, 61});
    # each block's products are distinct, so only the count after the last block sees the repeat
    n, alpha = 3 * 10**4, 0.2
    real = bsz_harness.sieve_sets

    def colliding(params, blocks, *carried):
        return [np.append(q, 47) if b.j == 22 else q for b, q in zip(blocks, real(params, blocks, *carried))]

    monkeypatch.setattr(bsz_harness, "sieve_sets", colliding)
    params = make_params(alpha, n)
    blocks = prime_blocks(params)
    with pytest.raises(AssertionError) as batch:
        distinct_products_check(blocks, colliding(params, blocks), n)
    with pytest.raises(AssertionError) as streamed:
        decomposition_report(mertens(n), ONE, n, alpha, period=1)
    assert str(streamed.value) == str(batch.value) == "product 2773 produced twice"


# --- W_j sums ------------------------------------------------------------------------


def test_wj_empty_block_gives_zero():
    blocks = [PrimeBlock(3, i64())]
    sets = [i64(1, 2, 3)]
    w = wj_sums(ONE, zip(blocks, sets))
    assert w == [0.0]


def test_wj_all_ones_counts_products():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    w = wj_sums(ONE, zip(blocks, sets))
    assert w == [float(len(b.primes) * len(s)) for b, s in zip(blocks, sets)]


def test_wj_bound_check_rejects_oversized_handles():
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    with pytest.raises(ValueError):
        wj_sums(np.array([-1.5 + 0j]), zip(blocks, sets))


def test_wj_bound_check_covers_every_entry():
    # the offending values sit far beyond the first 64 evaluations
    blocks = prime_blocks(TOY)
    sets = sieve_sets(TOY, blocks)
    phase = np.ones(1000, dtype=complex)
    phase[999] = 1.01
    with pytest.raises(ValueError, match="F"):
        wj_sums(phase, zip(blocks, sets))


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
        return float(mu.values[n])

    params = make_params(0.2, 10**4)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    w = wj_sums(np.array(phase), zip(blocks, sets))
    for block, qset, got in zip(blocks, sets, w):
        naive = 0.0
        for mm in qset:
            inner = 0.0 + 0.0j
            for r in block.primes:
                inner += nu_handle(r) * f_handle(mm * r)
            naive += abs(inner)
        assert got == pytest.approx(naive, abs=1e-9)
        assert got >= 0.0


@pytest.mark.parametrize("t", [7, 505, 65537])
def test_wj_equals_the_modulo_expression_bit_for_bit(t):
    # idx - (idx // t) t must gather the very entries (m r - 1) % t does, so every W_j keeps its bits
    rng = np.random.default_rng(t)
    phase = np.exp(2j * np.pi * rng.random(t))
    params = make_params(0.2, 3 * 10**4)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    nu = mobius_sieve(params.n).values
    w = wj_sums(phase, zip(blocks, sets))
    assert len(w) == len(blocks) > 10
    for block, qset, got in zip(blocks, sets, w):
        r, m, counts = block.primes, qset, 1
        weights = nu[r].astype(np.float64)  # mu(r) = -1 on every prime, which wj_sums leaves out
        if m.size > t:  # grouped by m mod t, as wj_sums does
            counts = np.bincount(m % t, minlength=t)
            m = np.flatnonzero(counts)
            counts = counts[m]
        terms = counts * np.abs((phase[(np.multiply.outer(m, r) - 1) % t] * weights).sum(axis=1))
        assert got == math.fsum(terms)


# --- decomposition report -----------------------------------------------------------


def test_decomposition_all_ones_lhs_is_n():
    report = decomposition_report(complex(10**4), ONE, 10**4, 0.2, period=1)
    agg = report["aggregates"]
    assert complex(agg["lhs_re"], agg["lhs_im"]) == pytest.approx(10**4)
    assert report["rows"]
    for row in report["rows"]:
        assert row["w"] == pytest.approx(row["p_count"] * row["q_count"])
    assert agg["collisions"] == 0
    assert agg["sum_pq"] <= 10**4


def test_decomposition_reproducible():
    rep1 = decomposition_report(mertens(2000), ONE, 2000, 0.25, period=7)
    rep2 = decomposition_report(mertens(2000), ONE, 2000, 0.25, period=7)
    assert rep1 == rep2


def test_decomposition_quotient_definition():
    report = decomposition_report(complex(5000), ONE, 5000, 0.3, period=1)
    agg = report["aggregates"]
    denom = sum(row["w"] for row in report["rows"]) + 0.3 * 5000
    assert agg["quotient"] == pytest.approx(agg["lhs_abs"] / denom)


def _assert_report_matches_the_stages(n, alpha, phase):
    """The report's params, rows and aggregates against the batch prime_blocks, sieve_sets, wj_sums and audit."""
    t = phase.size
    report = decomposition_report(lhs_of(mobius_sieve(n).values, phase, n), phase, n, alpha, period=t)
    params = make_params(alpha, n)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    w = wj_sums(phase, zip(blocks, sets))
    assert report["schema_version"] == 1
    assert report["params"] == {"alpha": alpha, "n": n, "j0": params.j0, "j1": params.j1, "period": t}
    assert report["rows"] == [
        {"j": b.j, "r_j": params.r(b.j), "m_j": params.m(b.j), "p_count": b.primes.size, "q_count": q.size, "w": wj}
        for b, q, wj in zip(blocks, sets, w)
    ]
    agg = report["aggregates"]
    lhs = complex(agg["lhs_re"], agg["lhs_im"])
    assert agg["lhs_abs"] == abs(lhs)
    assert agg["sum_w"] == math.fsum(w)
    assert agg["alpha_n"] == alpha * n
    assert agg["quotient"] == abs(lhs) / (math.fsum(w) + alpha * n)
    assert agg["sum_pq"] == distinct_products_check(blocks, sets, n).total_products
    assert agg["sum_p"] == sum(b.primes.size for b in blocks)
    assert agg["materialised_blocks"] == len(blocks)
    return report


def test_decomposition_report_fields_match_the_stages():
    report = _assert_report_matches_the_stages(3 * 10**4, 0.2, np.exp(2j * np.pi * np.arange(7) / 7))
    assert report["aggregates"]["materialised_blocks"] > 10


@settings(max_examples=40)
@given(
    alpha=st.floats(min_value=0.12, max_value=0.49),
    n=st.integers(min_value=1, max_value=3 * 10**4),
    t=st.integers(min_value=1, max_value=800),
)
def test_streamed_report_equals_the_batch_stages(alpha, n, t):
    # one loop over the blocks gives what the whole-schedule passes give; below alpha ~0.15 few n reach a block
    _assert_report_matches_the_stages(n, alpha, np.exp(2j * np.pi * np.random.default_rng(t).random(t)))


def _p1009_phase():
    """The phases e(xi_n / 1009) of one period of the shipped bsz config's orbit (t = 505)."""
    m = PrimeModulus(1009)
    traj = period(MobiusMatrix(m.elem(590), m.elem(448), m.elem(600), m.elem(406)), m.elem(50))
    return np.exp(2j * np.pi * traj.orbit_table.astype(np.float64) / 1009)


@pytest.mark.parametrize("gather", [1, 2, 3, 7])
def test_report_bytes_do_not_depend_on_the_gather_size(monkeypatch, gather):
    # _GATHER sets the audit and W_j chunks and when wj_sums flushes its buffered terms to _fsums
    phase, n = _p1009_phase(), 3 * 10**4
    lhs = lhs_of(mobius_sieve(n).values, phase, n)
    want = json.dumps(decomposition_report(lhs, phase, n, 0.2, period=phase.size))
    monkeypatch.setattr(bsz_harness, "_GATHER", gather)
    assert json.dumps(decomposition_report(lhs, phase, n, 0.2, period=phase.size)) == want


def test_decomposition_report_holds_one_block_at_a_time(monkeypatch):
    # only the audit bitmap (n + 1 bytes) and the exclusion array (M_j0 + 1) outlive a block.  Three
    # whole-schedule passes held every block's primes and sieve set (523 KB here, 9.4 times the largest
    # block's) and peaked 583 KB above those two arrays.  The one loop peaked 226 KB above them while
    # P_j and Q_j lived through the W_j gather and its rows into the next block, and 175 KB without
    import tracemalloc

    monkeypatch.setattr(bsz_harness, "_GATHER", 1024)  # a gather bound well below the blocks' total
    phase, n, alpha = _p1009_phase(), 4 * 10**5, 0.2
    lhs = lhs_of(mobius_sieve(n).values, phase, n)
    params = make_params(alpha, n)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    largest = max(8 * (b.primes.size + q.size) for b, q in zip(blocks, sets))
    assert sum(8 * (b.primes.size + q.size) for b, q in zip(blocks, sets)) > 9 * largest
    del blocks, sets
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        decomposition_report(lhs, phase, n, alpha, period=phase.size)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    bound = (n + 1) + (sieve_range(params) + 1) + 3 * largest + 24 * bsz_harness._GATHER
    assert peak <= bound, (peak, bound)


# --- arrays against the per-term definition --------------------------------------------


def _wj_oracle(nu, phase, blocks, sets):
    """W_j one product at a time: sum_m |sum_r nu(r) F(m r)|, F(n) = phase[(n - 1) % t]."""
    t = len(phase)
    out = []
    for block, qset in zip(blocks, sets):
        total = 0.0
        for m in qset:
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
    nu = mobius_sieve(n).values if nu_kind == "mobius" else np.ones(n + 1, dtype=np.int8)
    if orbit == "one":  # F = 1: the exact integer sum of nu, as bsz-report takes it
        lhs = complex(int(nu[1:].sum(dtype=np.int64)))
    else:  # the twisted sum at N, as bsz-report takes it
        lhs = twisted_sum_schedule(A, xi0, [3], [n], [(1, nu[1:])])[0].value
    assert abs(lhs - _lhs_oracle(nu, phase_list, n)) < 1e-8
    report = decomposition_report(lhs, np.array(phase_list), n, alpha, period=t)
    params = make_params(alpha, n)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    # both W_j paths run: blocks with more members than residues are grouped by m mod t
    q_sizes = [len(q) for q in sets]
    assert max(q_sizes) > t and min(q_sizes) <= t
    assert [row["q_count"] for row in report["rows"]] == q_sizes
    expected = _wj_oracle(nu, phase_list, blocks, sets)
    for row, want, block, qset in zip(report["rows"], expected, blocks, sets, strict=True):
        assert row["w"] == pytest.approx(want, rel=1e-12, abs=1e-9)
        if orbit == "one" and nu_kind == "one":
            assert row["w"] == float(len(block.primes) * len(qset))
    agg = report["aggregates"]
    assert complex(agg["lhs_re"], agg["lhs_im"]) == lhs
    if orbit == "one" and nu_kind == "one":
        assert lhs == complex(n, 0)


def test_wj_grouped_path_matches_oracle_on_one_block():
    # one block, 600 members against a period of 7: only residues mod 7 matter
    A, xi0, t = _pole_orbit()
    phase_list = _stepped_phases(A, xi0, t, 1)
    mu = mobius_sieve(5000)
    blocks = [PrimeBlock(9, i64(2, 3, 5, 7))]
    sets = [np.arange(1, 601)]
    assert len(sets[0]) > t
    got = wj_sums(np.array(phase_list), zip(blocks, sets))
    assert got[0] == pytest.approx(_wj_oracle(mu.values, phase_list, blocks, sets)[0], rel=1e-12)


# --- conditions ---------------------------------------------------------------------


def test_theorem_conditions_examples():
    # p = 1e6, eps = 0.1: the alpha floor evaluates above 1, so the admissible
    # range is empty at desk scale
    rep = theorem_conditions(0.2, 10**5, 10**6, 10**3, 0.1)
    floor = conditions(rep)["alpha_floor"]
    assert floor["rhs"] == pytest.approx(3 * math.log(math.log(10**6)) ** 6 / (0.1 * math.log(10**6)))
    assert floor["rhs"] > 1
    assert rep["alpha_range_empty"] is True
    assert floor["holds"] is False


def test_theorem_conditions_t_equals_p():
    for eps in (0.1, 0.3, 0.5):
        rep = theorem_conditions(0.2, 10**5, 10**6, 10**6, eps)
        assert conditions(rep)["t_large"]["holds"]  # t = p >= p^(1/2+eps) for eps <= 1/2


def test_theorem_conditions_t_large_in_logs_past_a_double():
    # 1009^1000.5 overflows a double: the row compares log t with (1/2 + epsilon) log p
    t_large = conditions(theorem_conditions(0.2, 20000, 1009, 505, 1000.0))["t_large"]
    assert t_large["log_scale"] is True and t_large["holds"] is False
    assert (t_large["lhs"], t_large["rhs"]) == (math.log(505), 1000.5 * math.log(1009))
    assert conditions(theorem_conditions(0.2, 20000, 1009, 505, 100.0))["t_large"]["log_scale"] is False


def test_theorem_conditions_n_monotone():
    n_floor = conditions(theorem_conditions(0.2, 10**4, 1009, 505, 0.1))["n_floor"]
    bigger = conditions(theorem_conditions(0.2, 10**9, 1009, 505, 0.1))["n_floor"]
    assert bigger["lhs"] > n_floor["lhs"]
    assert bigger["rhs"] == pytest.approx(n_floor["rhs"])
    if n_floor["holds"]:
        assert bigger["holds"]


def test_theorem_conditions_rho_value():
    rep = theorem_conditions(0.2, 10**5, 1009, 505, 0.1)
    assert rep["rho"] == pytest.approx(math.sqrt(1009) * math.log(1009) / 505)


def test_theorem_conditions_log_scale_rows():
    alpha, n, p, t, eps = 0.2, 10**5, 1009, 505, 0.1
    rep = theorem_conditions(alpha, n, p, t, eps)
    rho = rep["rho"]
    shared = math.log(1 / alpha) ** 6 / alpha
    rows = conditions(rep)
    row = rows["n_floor"]
    assert row["log_scale"]
    assert row["lhs"] == pytest.approx(math.log(n))
    assert row["rhs"] == pytest.approx(0.5 * math.log(p) + 5 * shared + math.log(math.log(p)))
    row = rows["rho_capacity"]
    assert row["lhs"] == pytest.approx(math.log(alpha**-2) + 2 * shared)
    assert row["rhs"] == pytest.approx(math.log(1 / rho))
    row = rows["length_capacity"]
    assert row["rhs"] == pytest.approx(math.log(t * rho) + 4 * shared)


def test_theorem_conditions_report_layout():
    # the fields bsz_report.json holds, rows in order; holds agrees with each row's own sides
    alpha, n, p, t, eps = 0.2, 10**5, 1009, 505, 0.1
    rep = theorem_conditions(alpha, n, p, t, eps)
    assert rep.keys() == {"alpha", "n", "p", "t", "epsilon", "rho", "alpha_range_empty", "conditions"}
    assert (rep["alpha"], rep["n"], rep["p"], rep["t"], rep["epsilon"]) == (alpha, n, p, t, eps)
    names = [row["name"] for row in rep["conditions"]]
    assert names == ["t_large", "alpha_floor", "n_floor", "rho_capacity", "length_capacity"]
    for row in rep["conditions"]:
        assert row.keys() == {"name", "lhs", "rhs", "holds", "log_scale"}
        assert row["log_scale"] is (row["name"] not in ("t_large", "alpha_floor"))
        assert row["holds"] is ((row["lhs"] <= row["rhs"]) if row["name"] == "rho_capacity" else (row["lhs"] >= row["rhs"]))
    assert conditions(rep)["t_large"]["lhs"] == float(t)
