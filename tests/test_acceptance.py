"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS line with the measured quantity; the asserts
pin the tolerances.  The headline asymptotic statement is not testable at
desk scale (its admissible parameter range is empty for any workable p), so
acceptance rests on exact identities, oracle equivalence, and recorded bound
ratios inside loose safety envelopes.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from mobiusdyn.arith_fn import mobius_sieve
from mobiusdyn.bsz_harness import (
    decomposition_report,
    distinct_products_check,
    make_params,
    prime_blocks,
    sieve_sets,
    wj_sums,
)
from mobiusdyn.char_sums import (
    correlation_sum,
    single_sum,
    twisted_sum_schedule,
    weil_sum_fp,
    weil_sum_fp2_norm_one,
)
from mobiusdyn.cli_runner import main
from mobiusdyn.field_arith import PrimeModulus
from mobiusdyn.mobius_dynamics import MobiusMatrix, period
from mobiusdyn.sampling import (
    random_admissible_instance,
    random_rational_function_fp,
    random_rational_function_fp2,
)
from oracles import (
    AdditiveCharacter,
    apply,
    decimated_oracle,
    linear_lift,
    mobius_oracle,
    spectral_orbit,
    unit_circle,
    whole,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SAMPLE_PRIMES = (101, 1009, 10007)
SAMPLES_PER_PRIME = 50
WINDOW_CAP = 2000

# pinned instance at p = 10007: pole-free, period 5003 >= 10007^0.55 ~ 158.7
SHIPPED_P = 10007
SHIPPED_MATRIX = (614, 6938, 1409, 7104)
SHIPPED_XI0 = 6851

# pinned instance at p = 1009: pole-free, period 505 > sqrt(1009) ~ 31.8
CORR_P = 1009
CORR_MATRIX = (590, 448, 600, 406)
CORR_XI0 = 50

# pinned instance at p = 101: pole-free, period 51
SMALL_P = 101
SMALL_MATRIX = (27, 39, 5, 11)
SMALL_XI0 = 55


def _pinned(p, entries, xi0):
    m = PrimeModulus(p)
    matrix = MobiusMatrix(*(m.elem(v) for v in entries))
    return m, matrix, m.elem(xi0)


@pytest.fixture(scope="module")
def orbit_sample():
    """50 admissible instances per prime, checked three ways; shared by 1 and 2."""
    start = time.monotonic()
    results = []
    for p in SAMPLE_PRIMES:
        modulus = PrimeModulus(p)
        rng = random.Random(f"acceptance:{p}")
        for _ in range(SAMPLES_PER_PRIME):
            matrix, xi0, traj, form = random_admissible_instance(rng, modulus)
            window = min(traj.period, WINDOW_CAP)
            mismatches = 0
            # the map view steps `apply`; the orbit table, built from the lift, is held to it
            table = traj.orbit_table[:window].tolist()
            lift = itertools.islice(linear_lift(matrix, xi0), 1, None)
            closed = itertools.islice(spectral_orbit(form), 1, None)
            x = xi0
            for raw, (u, v), s in zip(table, lift, closed):
                x = apply(matrix, x)
                if not v or s is None or u != x * v or s != x or raw != x.value:
                    mismatches += 1
            results.append(
                {
                    "p": p,
                    "period": traj.period,
                    "order": traj.theta_sq_order,
                    "window": window,
                    "mismatches": mismatches,
                }
            )
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_three_way_equivalence(orbit_sample):
    results, elapsed = orbit_sample
    assert len(results) == len(SAMPLE_PRIMES) * SAMPLES_PER_PRIME
    total_mismatches = sum(r["mismatches"] for r in results)
    assert total_mismatches == 0
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 1: three-way equivalence exact on {len(results)} orbits "
        f"(windows up to {WINDOW_CAP}), {elapsed:.1f}s"
    )


def test_criterion_2_period_divides_order(orbit_sample):
    results, _ = orbit_sample
    start = time.monotonic()
    for r in results:
        assert r["order"] % r["period"] == 0
    equality_rate = sum(1 for r in results if r["period"] == r["order"]) / len(results)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 2: period | ord(theta^2) on {len(results)}/{len(results)} orbits, "
        f"equality rate {equality_rate:.3f}"
    )


def test_criterion_3_mobius_sieve_exhaustive():
    start = time.monotonic()
    limit = 10**6
    table = mobius_sieve(limit)
    values = table.values
    bad = [n for n in range(1, limit + 1) if int(values[n]) != mobius_oracle(n)]
    elapsed = time.monotonic() - start
    assert bad == []
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: sieve == trial-division oracle for n <= 1e6, {elapsed:.1f}s")


def test_criterion_4_weil_envelope():
    start = time.monotonic()
    worst_fp = 0.0
    for p in (101, 199, 293):
        rng = random.Random(f"weil:{p}")
        for _ in range(100):
            rf = random_rational_function_fp(rng, p, 3)
            for h in (None, 1):  # chi(g^i) = e(i/(p - 1)) for g = primitive_root(p)
                ratio = weil_sum_fp([rf], 1, h)[0].ratio
                assert ratio <= 10.0
                worst_fp = max(worst_fp, ratio)
    worst_norm_one = 0.0
    for p in (101, 199):
        rng = random.Random(f"weil2:{p}")
        # the smallest e != +-2 with e^2 - 4 a non-residue (Euler's criterion)
        e = next(e for e in range(p) if e not in (2, p - 2) and pow(e * e - 4, (p - 1) // 2, p) == p - 1)
        for _ in range(100):
            rf = random_rational_function_fp2(rng, e, p, 3)
            for h in (None, 1):  # chi(g^i) = e(i/(p + 1)) for g = norm_group_generator(e, p)
                ratio = weil_sum_fp2_norm_one([rf], 1, h)[0].ratio
                assert ratio <= 10.0
                worst_norm_one = max(worst_norm_one, ratio)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 4: 600 + 400 hybrid sums within envelope 10 "
        f"(max ratios {worst_fp:.3f} base, {worst_norm_one:.3f} norm-one), {elapsed:.1f}s"
    )


def test_criterion_5_correlation_envelope():
    start = time.monotonic()
    modulus, matrix, xi0 = _pinned(CORR_P, CORR_MATRIX, CORR_XI0)
    traj = period(matrix, xi0)
    assert traj.period > math.sqrt(CORR_P)
    t = traj.period
    ratios = []
    corr_points = [
        (1, 1, 0, 1), (1, 2, 0, 1), (2, 1, 0, 1), (1, 1008, 0, 1),
        (3, 5, 1, 2), (1, 1, 0, 2), (7, 11, 2, 5), (1, 4, 0, 3),
        (2, 9, 1, 3), (5, 5, 0, 4), (1, 2, 3, 7), (6, 1, 0, 5),
    ]
    for u, v, k, m in corr_points:
        r = correlation_sum(traj, 1, u, v, k, m, t)
        assert r.abs_value <= 10.0 * r.reference_bound
        ratios.append(r.ratio)
    single_points = [(1, 1), (2, 2), (5, 3), (1, 5), (9, 101), (3, 10), (4, 15), (1, 7)]
    for u, m in single_points:
        r = single_sum(traj, 1, u, m, t)
        assert r.abs_value <= 10.0 * r.reference_bound
        ratios.append(r.ratio)
    elapsed = time.monotonic() - start
    assert len(ratios) == 20
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 5: 20 full-period sums at p={CORR_P} (t={t}) within 10x bound, "
        f"max ratio {max(ratios):.4f}, {elapsed:.1f}s"
    )


def test_criterion_6_completion_identity():
    start = time.monotonic()
    modulus, matrix, xi0 = _pinned(SMALL_P, SMALL_MATRIX, SMALL_XI0)
    traj = period(matrix, xi0)
    t = traj.period
    psi = AdditiveCharacter(modulus.one)
    u, v = modulus.elem(1), modulus.elem(2)
    # the complete sums with twist e(h n / t), term by term
    completes = [decimated_oracle(matrix, xi0, psi, [(u.value, 0), (v.value, 1)], t, h, t) for h in range(t)]
    worst = 0.0
    for n_terms in (1, 10, t // 2, t - 1, t):
        kernel = [sum(unit_circle(-h * n, t) for n in range(1, n_terms + 1)) for h in range(t)]
        recon = sum(completes[h] * kernel[h] for h in range(t)) / t
        direct = correlation_sum(traj, psi.u.value, u.value, v.value, 0, 1, n_terms).value
        worst = max(worst, abs(recon - direct))
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 6: completion identity at p={SMALL_P}, worst error {worst:.2e}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_bsz_combinatorics():
    start = time.monotonic()
    n = 10**5
    for alpha in (0.2, 0.1):
        params = make_params(alpha, n)
        blocks = prime_blocks(params)
        sets = sieve_sets(params, blocks)
        report = distinct_products_check(blocks, sets, n)  # raises AssertionError naming a repeated product
        assert report.total_products <= n
        if alpha == 0.2:
            assert report.total_products > 0  # the schedule is nontrivial here
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 7: products pairwise distinct, sum #P#Q <= N at alpha 0.2/0.1, {elapsed:.1f}s")


def test_criterion_8_bsz_sanity_all_ones():
    n = 10**5
    params = make_params(0.2, n)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    phase = np.ones(1, dtype=complex)
    w = wj_sums(phase, zip(blocks, sets))
    for block, qset, wj in zip(blocks, sets, w):
        assert wj == float(len(block.primes) * len(qset))
    agg = decomposition_report(complex(n), phase, n, 0.2, period=1)["aggregates"]
    assert agg["lhs_re"] == float(n) and agg["lhs_im"] == 0.0
    print(f"\nPASS criterion 8: nu = F = 1 gives LHS = N and W_j = #P_j * #Q_j exactly")


def test_criterion_9_disjointness_trend():
    start = time.monotonic()
    modulus, matrix, xi0 = _pinned(SHIPPED_P, SHIPPED_MATRIX, SHIPPED_XI0)
    traj = period(matrix, xi0)
    assert traj.period >= SHIPPED_P**0.55
    table = mobius_sieve(10**5)
    reports = twisted_sum_schedule(matrix, xi0, [1], [10**3, 10**4, 10**5], whole(table))
    trend = {r.term_count: r.ratio for r in reports}
    elapsed = time.monotonic() - start
    assert trend[10**5] < 0.05
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 9: |S(N)|/N = "
        + ", ".join(f"{n}: {trend[n]:.5f}" for n in sorted(trend))
        + f" (t = {traj.period}), {elapsed:.1f}s"
    )


def test_criterion_10_thread_determinism(tmp_path):
    shipped = [
        ("verify-spectral", "verify_spectral_p101.json"),
        ("sum-scan", "sum_scan_p10007.json"),
        ("sum-scan", "corr_scan_p1009.json"),
        ("weil-check", "weil_check_small.json"),
        ("bsz-report", "bsz_report_p1009.json"),
        ("mobius-check", "mobius_check_1e6.json"),
    ]
    for command, name in shipped:
        config = str(CONFIG_DIR / name)
        outputs = {}
        for threads in (1, 4):
            outdir = tmp_path / f"{name}.t{threads}"
            code = main(
                [command, "--config", config, "--out", str(outdir), "--threads", str(threads)]
            )
            assert code == 0, f"{command} {config} exited {code}"
            manifest = json.loads((outdir / "manifest.json").read_text())
            outputs[threads] = {
                name: (outdir / name).read_bytes() for name in manifest["outputs"]
            }
        assert outputs[1] == outputs[4], f"thread-dependent output for {config}"
    print("\nPASS criterion 10: 1-thread and 4-thread outputs byte-identical for all shipped configs")
