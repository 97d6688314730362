"""Trajectories, periods, the linear lift, and the closed-form orbit formula."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from mobiusdyn.arith_fn import ResourceGuard
from mobiusdyn.field_arith import (
    _BLOCK,
    PrimeModulus,
    RepeatedRoot,
    char_poly_roots,
    is_prime,
    primitive_root,
    sqrt_mod,
)
from mobiusdyn.mobius_dynamics import (
    DegenerateSpectral,
    InvalidMatrix,
    MobiusMatrix,
    _orbit_prefix,
    normalize_to_sl2,
    period,
    spectral_form,
)
from mobiusdyn.sampling import random_admissible_instance, random_sl2
from oracles import (
    QuadExtension,
    SpectralPole,
    apply,
    apply_projective,
    eval_spectral,
    linear_lift,
    orbit_walk,
    spectral_orbit,
    spectral_solve_objects,
)

M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def mat(m, a, b, c, d):
    return MobiusMatrix(m.elem(a), m.elem(b), m.elem(c), m.elem(d))


INVOLUTION = mat(M5, 0, 4, 1, 0)  # x -> -1/x mod 5


def walk(A, x0, count):
    """[xi_1, ..., xi_count] by `apply`, one step at a time: the per-step oracle."""
    out, x = [], x0
    for _ in range(count):
        x = apply(A, x)
        out.append(x)
    return out


# --- construction and normalisation ------------------------------------------


def test_matrix_contract():
    with pytest.raises(InvalidMatrix):
        mat(M5, 1, 0, 0, 1)  # c = 0
    with pytest.raises(InvalidMatrix):
        mat(M5, 2, 0, 1, 1)  # det = 2


def test_normalize_identity_case():
    m = mat(M7, 1, 1, 1, 2)
    assert normalize_to_sl2(m.a, m.b, m.c, m.d) == m


@pytest.mark.parametrize("p", [101, 103])  # 1 and 3 mod 4: sqrt_mod(1) = 1 on both Tonelli-Shanks shapes
def test_normalize_keeps_every_det_one_matrix(p):
    # det = 1 rescales by lambda = sqrt_mod(1) = 1, so the entries come back as they went in
    rng = random.Random(p)
    for _ in range(50):
        m = random_sl2(rng, PrimeModulus(p))
        assert normalize_to_sl2(m.a, m.b, m.c, m.d).entries() == m.entries()


def test_normalize_scaling_example():
    # det = 4 mod 7, inv = 2, canonical sqrt(2) = 3, so (2,0,2,2) -> (6,0,6,6)
    out = normalize_to_sl2(M7.elem(2), M7.elem(0), M7.elem(2), M7.elem(2))
    assert out.entries() == (6, 0, 6, 6)
    assert (out.a * out.d - out.b * out.c).value == 1


def test_normalize_failure_cases():
    with pytest.raises(InvalidMatrix, match=r"a\*d - b\*c = 0"):
        normalize_to_sl2(M5.elem(1), M5.elem(2), M5.elem(2), M5.elem(4))
    # det = 2 mod 5, inv(2) = 3 is a non-residue (squares mod 5: {1, 4})
    with pytest.raises(InvalidMatrix, match=r"det\^-1 = 3 is not a square mod 5"):
        normalize_to_sl2(M5.elem(1), M5.elem(0), M5.elem(2), M5.elem(2))


def test_normalize_preserves_induced_map():
    rng = random.Random(11)
    m = PrimeModulus(23)
    for _ in range(20):
        a, c = m.elem(rng.randrange(23)), m.elem(rng.randrange(1, 23))
        b, d = m.elem(rng.randrange(23)), m.elem(rng.randrange(23))
        if not (a * d - b * c):
            continue
        try:
            scaled = normalize_to_sl2(a, b, c, d)
        except InvalidMatrix as exc:
            assert "is not a square" in str(exc)
            continue
        for x in range(23):
            xe = m.elem(x)
            den = c * xe + d
            expected = (a * xe + b) / den if den else a / c
            assert apply(scaled, xe) == expected


# --- the extended map ---------------------------------------------------------


def test_apply_example():
    assert apply(mat(M5, 1, 1, 1, 2), M5.elem(0)) == M5.elem(3)  # 1/2 = 3 mod 5


def test_apply_pole_goes_to_a_over_c():
    rng = random.Random(5)
    for p in (5, 11, 23):
        m = PrimeModulus(p)
        for _ in range(5):
            A = random_sl2(rng, m)
            assert apply(A, A.pole) == A.a / A.c


def test_apply_is_permutation_exhaustive():
    rng = random.Random(7)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        m = PrimeModulus(p)
        for _ in range(20):
            A = random_sl2(rng, m)
            image = {apply(A, m.elem(x)).value for x in range(p)}
            assert image == set(range(p))


def test_projective_view_consistency():
    A = INVOLUTION
    # [0:1] -> infinity -> a/c = 0; the scalar view skips the middle step
    assert apply_projective(A, M5.elem(0)) is None
    assert apply_projective(A, None) == M5.elem(0)
    assert apply(A, M5.elem(0)) == M5.elem(0)


@given(st.sampled_from([5, 7, 11, 13, 17]), st.data())
def test_scalar_orbit_is_projective_orbit_minus_infinity(p, data):
    # the extended map splices the infinity step out of the projective orbit
    m = PrimeModulus(p)
    a = m.elem(data.draw(st.integers(min_value=0, max_value=p - 1)))
    c = m.elem(data.draw(st.integers(min_value=1, max_value=p - 1)))
    d = m.elem(data.draw(st.integers(min_value=0, max_value=p - 1)))
    assume((a + d).value not in (2, p - 2))
    A = MobiusMatrix(a, (a * d - m.one) / c, c, d)
    x0 = m.elem(data.draw(st.integers(min_value=0, max_value=p - 1)))
    steps = 3 * (p + 1)
    proj = []
    x = x0
    for _ in range(steps):
        x = apply_projective(A, x)
        proj.append(x)
    finite = [v for v in proj if v is not None]
    assert walk(A, x0, len(finite)) == finite


# --- trajectories and periods -------------------------------------------------


def test_trajectory_example():
    table = period(INVOLUTION, M5.elem(1)).orbit_table
    assert [int(table[(n - 1) % table.size]) for n in range(1, 5)] == [4, 1, 4, 1]


def test_trajectory_first_element_is_apply():
    rng = random.Random(3)
    for _ in range(10):
        m = PrimeModulus(101)
        A = random_sl2(rng, m)
        xi0 = m.elem(rng.randrange(101))
        assert period(A, xi0).orbit_table[0] == apply(A, xi0).value


def test_trajectory_repeats_with_period():
    A, xi0 = INVOLUTION, M5.elem(1)
    traj = period(A, xi0)
    t = traj.period
    vals = walk(A, xi0, 3 * t)
    assert [x.value for x in vals[:t]] == traj.orbit_table.tolist()
    for n in range(len(vals) - t):
        assert vals[n] == vals[n + t]


def _theta_sq_order_by_powers(A):
    ext = QuadExtension(A.modulus, A.trace)
    theta = ext.elem(*char_poly_roots(A.trace.value, A.p)[0])
    step = theta * theta
    z, k = step, 1
    while z != ext.one:
        z, k = z * step, k + 1
    return k


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_period_matches_apply_loop_exhaustive(p):
    # every SL2 matrix with c != 0 and distinct roots, every seed; `apply` is the oracle
    m = PrimeModulus(p)
    pole_indices = set()
    for a, c, d in itertools.product(range(p), range(1, p), range(p)):
        if (a + d) % p in (2, p - 2):
            continue
        A = mat(m, a, (a * d - 1) * pow(c, -1, p), c, d)
        order = _theta_sq_order_by_powers(A)
        step = [apply(A, m.elem(x)).value for x in range(p)]
        for x in range(p):
            xi0 = m.elem(x)
            xs = [step[x]]
            while xs[-1] != x:
                xs.append(step[xs[-1]])
                assert len(xs) <= p
            if x == A.pole.value:
                pole_hit = 0
            else:
                pole_hit = next((n for n, v in enumerate(xs[:-1], 1) if v == A.pole.value), None)
            traj = period(A, xi0)
            assert traj.orbit_table.tolist() == xs
            assert traj.period == len(xs)
            assert traj.pole_hit == pole_hit
            assert traj.theta_sq_order == order
            pole_indices.add(pole_hit)
    assert {None, 0} < pole_indices  # pole visits past the seed are covered too


def test_period_examples():
    t = period(INVOLUTION, M5.elem(1))
    assert t.period == 2
    theta, _ = INVOLUTION.roots
    assert theta == (2, 0)
    assert t.theta_sq_order == 2  # theta^2 = 4 = -1
    fixed = period(INVOLUTION, M5.elem(2))  # -1/2 = 2 mod 5
    assert fixed.period == 1


def test_period_requires_distinct_roots():
    A = mat(M7, 1, 0, 1, 1)  # trace 2: (Z - 1)^2
    with pytest.raises(RepeatedRoot):
        period(A, M7.elem(3))
    with pytest.raises(RepeatedRoot):
        spectral_form(A, M7.elem(3))


def test_period_divides_order_random_sample():
    rng = random.Random(17)
    for p in (101, 1009):
        m = PrimeModulus(p)
        for _ in range(25):
            A, xi0, traj, _form = random_admissible_instance(rng, m)
            # brute-force rescan as the oracle
            x, steps = xi0, 0
            for n in range(1, traj.theta_sq_order + 2):
                x = apply(A, x)
                steps = n
                if x == xi0:
                    break
            assert steps == traj.period
            assert traj.theta_sq_order % traj.period == 0


def test_orbit_table_budget_refuses_exactly_past_its_cap(monkeypatch):
    # the budget bounds the steps asked for, min(limit, return index); with the budget cut to that, every
    # prefix of every seed of one p = 101 matrix builds unchanged, and one less refuses it
    import mobiusdyn.mobius_dynamics as md

    m = PrimeModulus(101)
    A = normalize_to_sl2(*(m.elem(x) for x in (27, 39, 5, 11)))
    for x in range(101):
        want = orbit_walk(A, m.elem(x), 103)
        back = 1 if want == [x] else A.theta_sq_order  # the index where the lift returns to [x : 1]
        for limit in sorted({1, 5, max(len(want) - 1, 1), len(want), 200}):
            steps = min(limit, back)
            monkeypatch.setattr(md, "_TABLE_LIMIT", steps)
            assert _orbit_prefix(A, m.elem(x), limit).tolist() == want[:limit], (x, limit)
            monkeypatch.setattr(md, "_TABLE_LIMIT", steps - 1)
            expected = f"orbit of {steps} steps exceeds the table budget of {steps - 1} entries$"
            with pytest.raises(ResourceGuard, match=expected):
                _orbit_prefix(A, m.elem(x), limit)


def test_orbit_table_budget_at_a_62_bit_prime():
    # ord(theta^2) = 2305843009213693809 and a prefix one step past the budget are refused before numpy is asked for the arrays; a period-3
    # orbit, a fixed seed and a short orbit's prefix far past the budget still build
    import mobiusdyn.mobius_dynamics as md

    m = PrimeModulus(4611686018427387617)
    xi0 = m.elem(5)
    long = normalize_to_sl2(*(m.elem(x) for x in (0, -1, 1, 3)))
    with pytest.raises(ResourceGuard, match="orbit of 2305843009213693809 steps exceeds the table budget of "):
        period(long, xi0)
    past = md._TABLE_LIMIT + 1
    with pytest.raises(ResourceGuard, match=f"orbit of {past} steps exceeds the table budget of {past - 1} entries$"):
        _orbit_prefix(long, xi0, past)
    assert _orbit_prefix(long, xi0, 4).tolist() == [x.value for x in walk(long, xi0, 4)]
    short = normalize_to_sl2(*(m.elem(x) for x in (0, -1, 1, 1)))  # x -> -1/(x + 1), of order 3
    traj = period(short, xi0)
    assert traj.orbit_table.tolist() == [x.value for x in walk(short, xi0, 3)]
    assert (traj.period, traj.theta_sq_order) == (3, 3)
    assert _orbit_prefix(short, xi0, 10**12).tolist() == traj.orbit_table.tolist()
    fixed = MobiusMatrix(m.elem(2), m.zero, m.one, m.elem(2).inv())  # x -> 2x/(x + 1/2) fixes 0
    assert period(fixed, m.zero).orbit_table.tolist() == [0]


def test_orbit_prefix_far_past_the_period_holds_one_period():
    # ord(theta^2) sizes the lift before the build: N = 1e6 >> t at p = 100003 takes two int64
    # arrays of t + 1 entries and block-long temporaries, not N or p + 1 entries
    m = PrimeModulus(100003)
    xi0 = m.elem(5)
    for entries, t in (((0, -1, 1, 1), 3), ((3, 5, 7, 12), 25000)):
        A = MobiusMatrix(*(m.elem(x) for x in entries))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            table = _orbit_prefix(A, xi0, 10**6)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert table.size == t and table[-1] == xi0.value
        assert peak <= 16 * (t + 2) + 32 * _BLOCK, (entries, peak)


@pytest.mark.parametrize("x, order", [(0, 50), (0, 52), (0, 77), (4, 50)])
def test_a_wrong_order_fails_the_closure_check(monkeypatch, x, order):
    # the lift must be back at [x0 : 1] at the index ord(theta^2) gives, here 51; seed 0 misses the
    # pole, and seed 4 meets it, so its scalar period is 50, but its lift is not back at index 50
    m = PrimeModulus(101)
    A = normalize_to_sl2(*(m.elem(v) for v in (27, 39, 5, 11)))
    assert A.theta_sq_order == 51
    monkeypatch.setattr(MobiusMatrix, "theta_sq_order", property(lambda self: order))
    xi0 = m.elem(x)
    with pytest.raises(AssertionError, match="did not close"):
        period(A, xi0)
    with pytest.raises(AssertionError, match="did not close"):
        _orbit_prefix(A, xi0, order)


def test_pole_orbit_shortens_scalar_period_by_one():
    rng = random.Random(23)
    m = PrimeModulus(101)
    found = 0
    while found < 10:
        A = random_sl2(rng, m)
        traj = period(A, A.pole)
        assert traj.pole_hit == 0
        assert traj.period == traj.theta_sq_order - 1
        found += 1


# --- the orbit builder against the step walker -----------------------------------

PRIMES_TO_1E4 = [q for q in range(3, 10**4) if is_prime(q)]


def _fixed_points(A):
    """Roots of c*x^2 + (d - a)*x - b, the seeds the map fixes."""
    a, b, c, d = A.entries()
    r = sqrt_mod((d - a) ** 2 + 4 * b * c, A.p)
    if r is None:
        return []
    half_c = A.modulus.elem(2 * c).inv()
    return sorted({((A.a - A.d + A.modulus.elem(s)) * half_c).value for s in (r, -r)})


def _check_builder(A, xi0):
    """_orbit_prefix at limit 1, t - 1, t, t + 1 and period() against the walker."""
    p = A.p
    walk_full = orbit_walk(A, xi0, p + 2)
    t = len(walk_full)
    assert walk_full[-1] == xi0.value
    for limit in sorted({1, max(t - 1, 1), t, t + 1}):
        assert _orbit_prefix(A, xi0, limit).tolist() == walk_full[:limit], limit
    traj = period(A, xi0)
    pole = A.pole.value
    pole_hit = 0 if xi0.value == pole else next(
        (n for n, x in enumerate(walk_full[:-1], 1) if x == pole), None
    )
    assert traj.orbit_table.dtype.name == "int64"
    assert traj.orbit_table.tolist() == walk_full
    assert (traj.period, traj.pole_hit) == (t, pole_hit)
    return traj


@st.composite
def _sl2(draw, trace_zero=False):
    p = draw(st.sampled_from(PRIMES_TO_1E4))
    m = PrimeModulus(p)
    a = draw(st.integers(min_value=0, max_value=p - 1))
    c = draw(st.integers(min_value=1, max_value=p - 1))
    d = (-a) % p if trace_zero else draw(st.integers(min_value=0, max_value=p - 1))
    assume((a + d) % p not in (2, p - 2))
    return mat(m, a, (a * d - 1) * pow(c, -1, p), c, d)


@given(_sl2(), st.integers(min_value=0, max_value=10**4))
def test_builder_matches_walker_on_pole_orbits(A, j):
    pole_orbit = orbit_walk(A, A.pole, A.p + 2)
    xi0 = A.modulus.elem(pole_orbit[j % len(pole_orbit)])
    traj = _check_builder(A, xi0)
    assert traj.pole_hit is not None
    assert traj.period == traj.theta_sq_order - 1


@given(_sl2(), st.integers(min_value=0, max_value=10**4 - 1))
def test_builder_matches_walker_on_pole_free_orbits(A, x):
    xi0 = A.modulus.elem(x)
    assume(A.pole.value not in orbit_walk(A, xi0, A.p + 2))
    assume(xi0.value not in _fixed_points(A))
    traj = _check_builder(A, xi0)
    assert traj.pole_free
    assert traj.period == traj.theta_sq_order


@given(_sl2())
def test_builder_matches_walker_on_fixed_seeds(A):
    fixed = _fixed_points(A)
    assume(fixed)
    for x in fixed:
        assert apply(A, A.modulus.elem(x)).value == x
        traj = _check_builder(A, A.modulus.elem(x))
        assert traj.period == 1


@given(_sl2(trace_zero=True), st.integers(min_value=0, max_value=10**4 - 1))
def test_builder_matches_walker_on_trace_zero(A, x):
    # theta^2 = -1: every projective orbit is a 2-cycle and the pole's goes through infinity
    assert A.theta_sq_order == 2
    assert _check_builder(A, A.pole).period == 1
    _check_builder(A, A.modulus.elem(x % A.p))


def _split_matrix(p, m):
    """x -> -1/(x + e) with e = theta + 1/theta, theta of order m in F_p^*, via normalize_to_sl2."""
    modulus = PrimeModulus(p)
    theta = pow(primitive_root(p), (p - 1) // m, p)
    e = (theta + pow(theta, p - 2, p)) % p
    el = modulus.elem
    return normalize_to_sl2(el(0), el(-2), el(2), el(2 * e)), theta


@pytest.mark.parametrize("p, m", [(2**31 - 1, 2 * 7 * 11 * 31), (2147483659, 2 * 3 * 149)])
def test_builder_at_the_int64_switch(p, m):
    # just below 2^31 the lift runs on int64, just above on Python-int object arrays
    A, theta = _split_matrix(p, m)
    assert A.theta_sq_order == m // 2
    rng = random.Random(p)
    seeds = [A.pole, A.modulus.elem(-theta), A.modulus.elem(rng.randrange(p))]
    seeds += [A.modulus.elem(orbit_walk(A, A.pole, 100)[-1])]
    periods = [_check_builder(A, xi0).period for xi0 in seeds]
    assert periods[:2] == [m // 2 - 1, 1]  # the pole's orbit, a fixed point


# --- the linear lift ----------------------------------------------------------


def test_recurrence_initial_values():
    rng = random.Random(29)
    m = PrimeModulus(101)
    for _ in range(10):
        A = random_sl2(rng, m)
        xi0 = m.elem(rng.randrange(101))
        (u0, v0), (u1, v1) = itertools.islice(linear_lift(A, xi0), 2)
        assert (u0, u1) == (xi0, A.a * xi0 + A.b)
        assert (v0, v1) == (m.one, A.c * xi0 + A.d)
        assert (u0, v0) == (xi0, m.one)


def test_recurrence_ratio_is_trajectory():
    rng = random.Random(31)
    m = PrimeModulus(101)
    A = random_sl2(rng, m)
    xi0 = m.elem(7)
    steps = itertools.islice(linear_lift(A, xi0), 1, 60)
    for x, (u, v) in zip(walk(A, xi0, 59), steps):
        if not v:
            continue
        assert u == x * v


def test_recurrence_satisfies_minus_sign_scalar_rule():
    # Cayley-Hamilton for det = 1: w_{n+2} = e*w_{n+1} - w_n
    rng = random.Random(37)
    m = PrimeModulus(1009)
    A = random_sl2(rng, m)
    e = A.trace
    window = list(itertools.islice(linear_lift(A, m.elem(123)), 1000))
    for prev, cur, nxt in zip(window, window[1:], window[2:]):
        assert nxt[0] == e * cur[0] - prev[0]
        assert nxt[1] == e * cur[1] - prev[1]


# --- the closed form ----------------------------------------------------------


def test_spectral_form_worked_example():
    form = spectral_form(INVOLUTION, M5.elem(1))
    assert form.theta == (2, 0)
    assert form.alpha == (2, 0)
    assert form.beta == (2, 0)
    assert form.gamma == (2, 0)


def test_spectral_consistency_at_zero():
    rng = random.Random(41)
    m = PrimeModulus(1009)
    for _ in range(10):
        A, xi0, _traj, form = random_admissible_instance(rng, m)
        assert eval_spectral(form, 0) == xi0


def test_spectral_at_period_returns_to_seed():
    rng = random.Random(43)
    m = PrimeModulus(101)
    A, xi0, traj, form = random_admissible_instance(rng, m)
    assert eval_spectral(form, traj.period) == xi0


def test_spectral_matches_trajectory_on_random_indices():
    rng = random.Random(47)
    m = PrimeModulus(10007)
    A, xi0, traj, form = random_admissible_instance(rng, m)
    table = traj.orbit_table
    for _ in range(50):
        n = rng.randrange(1, 1000)
        assert eval_spectral(form, n).value == table[(n - 1) % traj.period]


def test_spectral_orbit_streaming_agrees_with_eval():
    rng = random.Random(53)
    m = PrimeModulus(1009)
    _A, _xi0, _traj, form = random_admissible_instance(rng, m)
    stream = spectral_orbit(form)
    for n in range(200):
        assert next(stream) == eval_spectral(form, n)


def test_spectral_rejects_fixed_points():
    with pytest.raises(DegenerateSpectral):
        spectral_form(INVOLUTION, M5.elem(2))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_spectral_form_matches_object_solve_exhaustive(p):
    # every SL2 matrix with c != 0 and distinct roots, every seed: the int-pair
    # solve returns the object solve's four pairs, and is degenerate exactly where it is
    m = PrimeModulus(p)
    solved = degenerate = 0
    for a, c, d in itertools.product(range(p), range(1, p), range(p)):
        if (a + d) % p in (2, p - 2):
            continue
        A = mat(m, a, (a * d - 1) * pow(c, -1, p), c, d)
        for x0 in range(p):
            try:
                want = tuple((z.c0.value, z.c1.value) for z in spectral_solve_objects(A, m.elem(x0)))
            except DegenerateSpectral:
                with pytest.raises(DegenerateSpectral):
                    spectral_form(A, m.elem(x0))
                degenerate += 1
                continue
            form = spectral_form(A, m.elem(x0))
            assert (form.alpha, form.beta, form.gamma, form.theta) == want
            assert (form.e, form.p) == ((a + d) % p, p)
            solved += 1
    assert solved and degenerate


def test_spectral_pole_raises():
    # a seed whose orbit passes the pole: eval at the infinity index must raise
    rng = random.Random(59)
    m = PrimeModulus(101)
    while True:
        A = random_sl2(rng, m)
        xi0 = A.pole
        try:
            form = spectral_form(A, xi0)
        except DegenerateSpectral:
            continue
        break
    # xi_0 is the pole, so the projective orbit is at infinity at n = 1
    with pytest.raises(SpectralPole):
        eval_spectral(form, 1)
    stream = spectral_orbit(form)
    assert next(stream) == xi0
    assert next(stream) is None


def test_three_way_equivalence_random():
    rng = random.Random(61)
    for p in (101, 1009):
        m = PrimeModulus(p)
        for _ in range(10):
            A, xi0, traj, form = random_admissible_instance(rng, m)
            window = min(traj.period, 200)
            direct = walk(A, xi0, window)
            lift = itertools.islice(linear_lift(A, xi0), 1, None)
            closed = itertools.islice(spectral_orbit(form), 1, None)
            for raw, x, (u, v), s in zip(traj.orbit_table[:window].tolist(), direct, lift, closed):
                assert v
                assert u == x * v
                assert s == x
                assert raw == x.value
