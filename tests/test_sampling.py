"""Deterministic instance generation."""

import random

from mobiusdyn.field_arith import PrimeModulus, norm_group_generator
from mobiusdyn.sampling import (
    random_admissible_instance,
    random_rational_function_fp,
    random_rational_function_fp2,
    random_sl2,
)
from oracles import QuadExtension, value_at


def test_random_sl2_contract():
    rng = random.Random(1)
    m = PrimeModulus(101)
    for _ in range(30):
        A = random_sl2(rng, m)
        a, b, c, d = A.entries()
        assert (a * d - b * c) % 101 == 1
        assert c != 0
        assert (a + d) % 101 not in (2, 99)


def test_admissible_instance_is_pole_free_and_nondegenerate():
    rng = random.Random(2)
    m = PrimeModulus(1009)
    for _ in range(5):
        A, xi0, traj, form = random_admissible_instance(rng, m)
        assert traj.pole_free
        assert traj.period > 1
        assert form.beta != (0, 0)


def test_sampling_is_deterministic():
    m = PrimeModulus(101)
    one = random_admissible_instance(random.Random(99), m)
    two = random_admissible_instance(random.Random(99), m)
    assert one[0] == two[0]
    assert one[1] == two[1]


def test_random_rational_function_shape():
    rng = random.Random(3)
    for _ in range(50):
        rf = random_rational_function_fp(rng, 101, 3)
        assert rf.max_degree >= 1
        assert rf.max_degree <= 3
        assert rf.denominator[-1]


def test_random_fp2_rational_function_trace_varies():
    rng = random.Random(4)
    m = PrimeModulus(101)
    ext = QuadExtension(m, m.elem(1))
    gen = ext.elem(*norm_group_generator(1, 101))
    for _ in range(10):
        rf = random_rational_function_fp2(rng, 1, 101, 3)
        traces = set()
        z = ext.one
        for _ in range(20):
            val = value_at(rf, z)
            if val is not None:
                traces.add(val.trace().value)
            z = z * gen
        assert len(traces) >= 2


class _Scripted(random.Random):
    """random.Random whose first randrange calls return the scripted values."""

    def __init__(self, script, seed):
        super().__init__(seed)
        self.script = list(script)

    def randrange(self, *args):
        return self.script.pop(0) if self.script else super().randrange(*args)


def test_random_fp2_rational_function_rejects_constant_trace():
    # first draw: h/g = 3*(X^2 - 1)/X, which is 3*(z - conj z) on Nm(z) = 1, so its trace is 0
    from mobiusdyn.char_sums import RationalFunction, weil_sum_fp2_norm_one

    degenerate = RationalFunction(((-3, 0), (0, 0), (3, 0)), ((0, 0), (1, 0)), 101, 1)
    flat = weil_sum_fp2_norm_one([degenerate], 1)[0]
    assert flat.term_count == 102 and flat.value == 102
    # dg, dh, then g's coefficient pairs low to high, then h's
    script = [1, 2, 0, 0, 1, 0, 98, 0, 0, 0, 3, 0]
    rng = _Scripted(script, 7)
    got = random_rational_function_fp2(rng, 1, 101, 3)
    assert not rng.script
    assert got != degenerate
    assert got == random_rational_function_fp2(random.Random(7), 1, 101, 3)


def test_samplers_first_draws_are_pinned():
    # the RNG streams of weil-check's first F_p and norm-one batches at p = 101 (e = 1)
    rf = random_rational_function_fp(random.Random("1:fp:101"), 101, 3)
    assert (rf.numerator, rf.denominator, rf.p, rf.e) == ((33,), (26, 80), 101, None)
    rf2 = random_rational_function_fp2(random.Random("1:fp2:101"), 1, 101, 3)
    assert (rf2.numerator, rf2.denominator) == (((87, 10), (44, 17)), ((43, 25), (9, 81)))
    assert (rf2.p, rf2.e) == (101, 1)
