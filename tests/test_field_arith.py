"""Field arithmetic, extension-ring arithmetic, and group utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobiusdyn.field_arith import (
    _inv_mod,
    _pow_pairs,
    _powers,
    _residues,
    FpElem,
    PrimeModulus,
    RepeatedRoot,
    char_poly_roots,
    factorize,
    is_prime,
    mult_order,
    norm_group_generator,
    primitive_root,
    sqrt_mod,
)
from oracles import NotInGroup, QuadExtension, discrete_index

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 71, 83, 97, 101]

moduli = st.sampled_from(SMALL_PRIMES).map(PrimeModulus)


@st.composite
def fp_elems(draw, nonzero=False):
    m = draw(moduli)
    lo = 1 if nonzero else 0
    return m.elem(draw(st.integers(min_value=lo, max_value=m.p - 1)))


@st.composite
def fp_pairs(draw, nonzero_second=False):
    m = draw(moduli)
    a = m.elem(draw(st.integers(min_value=0, max_value=m.p - 1)))
    lo = 1 if nonzero_second else 0
    b = m.elem(draw(st.integers(min_value=lo, max_value=m.p - 1)))
    return a, b


@st.composite
def extensions(draw, irreducible=None):
    """A quadratic extension with distinct roots; optionally force (ir)reducibility."""
    m = draw(moduli)
    start = draw(st.integers(min_value=0, max_value=m.p - 1))
    for off in range(m.p):
        e = (start + off) % m.p
        if e in (2, m.p - 2):
            continue
        ext = QuadExtension(m, m.elem(e))
        if irreducible is None or ext.is_irreducible == irreducible:
            return ext
    raise AssertionError(f"no admissible trace mod {m.p}")


@st.composite
def fp2_elems(draw, nonzero=False, irreducible=None):
    ext = draw(extensions(irreducible=irreducible))
    c0 = draw(st.integers(min_value=0, max_value=ext.p - 1))
    c1 = draw(st.integers(min_value=0, max_value=ext.p - 1))
    if nonzero and c0 == 0 and c1 == 0:
        c0 = 1
    return ext.elem(c0, c1)


# --- construction and basic ops ---------------------------------------------


def test_prime_modulus_rejects_composites():
    with pytest.raises(ValueError):
        PrimeModulus(91)
    with pytest.raises(ValueError):
        PrimeModulus(1)


def test_is_prime_small_table():
    primes_below_50 = [n for n in range(50) if is_prime(n)]
    assert primes_below_50 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_factorize_matches_product():
    for n in list(range(1, 200)) + [2**31 - 1, 10**6 + 3]:
        fac = factorize(n) if n > 1 else {}
        prod = 1
        for q, k in fac.items():
            assert is_prime(q)
            prod *= q**k
        assert prod == max(n, 1)


def test_add_examples():
    m = PrimeModulus(5)
    assert (m.elem(3) + m.elem(4)).value == 2
    assert (m.elem(0) + m.elem(3)) == m.elem(3)
    m11 = PrimeModulus(11)
    assert (m11.elem(6) * m11.elem(8)).value == 4  # 48 = 44 + 4


def test_modulus_mismatch_raises():
    with pytest.raises(ValueError, match="mixed moduli 5 and 7"):
        PrimeModulus(5).elem(1) + PrimeModulus(7).elem(1)


def test_inverse_examples():
    m = PrimeModulus(7)
    assert m.elem(1).inv() == m.elem(1)
    assert m.elem(3).inv() == m.elem(5)  # 3*5 = 15 = 2*7 + 1
    assert m.elem(6).inv() == m.elem(6)  # (-1)^2 = 1
    with pytest.raises(ZeroDivisionError, match="0 has no inverse mod 7"):
        m.elem(0).inv()


def test_pow_examples():
    m = PrimeModulus(7)
    assert (m.elem(3) ** 4).value == 4  # 81 = 77 + 4
    assert (m.elem(5) ** 0).value == 1
    assert (m.elem(0) ** 0).value == 1
    assert (m.elem(4) ** 6).value == 1  # Fermat


@given(fp_pairs(nonzero_second=True))
def test_inverse_property(pair):
    a, b = pair
    assert (b * b.inv()).value == 1
    assert ((a / b) * b) == a


def test_inverse_exhaustive_small_primes():
    for p in SMALL_PRIMES:
        if p > 101:
            continue
        m = PrimeModulus(p)
        for v in range(1, p):
            assert (m.elem(v) * m.elem(v).inv()).value == 1


def test_arithmetic_at_64bit_scale():
    # the layer is written against wide moduli even though shipped
    # experiments stay below 2^31
    import random

    rng = random.Random(8)
    for p in (2**31 - 1, 10**9 + 9, 2**61 - 1):
        m = PrimeModulus(p)
        for _ in range(25):
            a = m.elem(rng.randrange(1, p))
            b = m.elem(rng.randrange(1, p))
            assert (a * a.inv()).value == 1
            assert ((a + b) - b) == a
            assert (a * b) * b.inv() == a
            r = sqrt_mod((a * a).value, p)
            assert r is not None and r * r % p == (a * a).value
            assert (a ** (p - 1)).value == 1


# --- square roots ------------------------------------------------------------


def test_sqrt_examples():
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(4, 7) == 2  # canonical: smaller root
    assert sqrt_mod(3, 5) is None  # squares mod 5 are {0, 1, 4}


@given(fp_elems())
def test_sqrt_roundtrip(a):
    r = sqrt_mod(a.value, a.p)
    if r is None:
        # exhaustive confirmation that a is not a square
        assert all((a.modulus.elem(x) ** 2) != a for x in range(a.p))
    else:
        assert r * r % a.p == a.value
        assert r <= a.p - r


def test_sqrt_matches_brute_force_below_200():
    # both residue classes mod 4: at p = 3 mod 4 Tonelli-Shanks has s = 1 and returns n^((p+1)/4)
    primes = [p for p in range(3, 200) if is_prime(p)]
    assert {p % 4 for p in primes} == {1, 3}
    for p in primes:
        for n in range(p):
            roots = [x for x in range(p) if x * x % p == n]
            assert sqrt_mod(n, p) == (roots[0] if roots else None), (n, p)


@pytest.mark.parametrize(
    "p, roots",
    [
        (4611686018427387847, {2: 59990918091964076, 3: None, 5: None, 7: 579595727848288311}),
        (4611686018427387751, {2: 1640561804077683045, 3: None, 5: 1111591874474287041, 7: 682111229728952733}),
        (2305843009213693967, {2: 45272681091486666, 3: 1128052370985140873, 5: None, 7: 1038896950433521450}),
    ],
)
def test_sqrt_pinned_at_62_bit_primes_3_mod_4(p, roots):
    assert p % 4 == 3 and p.bit_length() == 62 and is_prime(p)
    for n, r in roots.items():
        assert sqrt_mod(n, p) == r
        assert r is None or (r * r % p == n and r <= p - r)


# --- quadratic extension -----------------------------------------------------


def test_reduction_rule_example():
    # Z * Z in F_5[Z]/(Z^2 + 1), i.e. e = 0: Z^2 = -1 = 4
    m = PrimeModulus(5)
    ext = QuadExtension(m, m.elem(0))
    z = ext.elem(0, 1)
    assert z * z == ext.elem(4, 0)


def test_embedding_agrees_with_base_field():
    m = PrimeModulus(13)
    ext = QuadExtension(m, m.elem(1))
    for a in range(13):
        for b in range(13):
            lhs = ext.embed(m.elem(a)) * ext.embed(m.elem(b))
            assert lhs == ext.embed(m.elem(a) * m.elem(b))
            assert not lhs.c1


def test_repeated_root_rejected():
    m = PrimeModulus(7)
    with pytest.raises(RepeatedRoot):
        QuadExtension(m, m.elem(2))
    with pytest.raises(RepeatedRoot):
        QuadExtension(m, m.elem(-2))


@given(fp2_elems(nonzero=True, irreducible=True))
def test_fp2_inverse(z):
    assert (z * z.inv()) == z.ext.one
    assert (z.inv().inv()) == z


@given(fp2_elems(irreducible=True))
def test_frobenius_fixes_everything_at_p_squared(z):
    p = z.p
    assert z ** (p * p) == z
    assert isinstance(z.trace(), FpElem)
    assert isinstance(z.norm(), FpElem)


def test_trace_norm_base_field_cases():
    m = PrimeModulus(11)
    ext = QuadExtension(m, m.elem(3))
    for v in range(11):
        z = ext.embed(m.elem(v))
        assert z.trace() == m.elem(2 * v)
        assert z.norm() == m.elem(v * v)


@given(fp2_elems(irreducible=True), st.data())
def test_trace_linear_norm_multiplicative(z, data):
    ext = z.ext
    w = ext.elem(
        data.draw(st.integers(min_value=0, max_value=ext.p - 1)),
        data.draw(st.integers(min_value=0, max_value=ext.p - 1)),
    )
    assert (z + w).trace() == z.trace() + w.trace()
    assert (z * w).norm() == z.norm() * w.norm()


@given(fp2_elems(irreducible=True))
def test_conjugate_is_frobenius(z):
    assert z.conj() == z ** z.p


# --- characteristic roots ----------------------------------------------------


def test_char_poly_roots_split_example():
    theta, other = char_poly_roots(0, 5)
    assert theta == (2, 0)  # 2^2 = 4 = -1
    assert other == (3, 0)


@given(extensions())
def test_char_poly_roots_properties(ext):
    theta, other = (ext.elem(*z) for z in char_poly_roots(ext.e.value, ext.p))
    assert theta * other == ext.one
    assert theta + other == ext.embed(ext.e)
    # substitute into Z^2 - e*Z + 1
    for root in (theta, other):
        assert root * root - ext.embed(ext.e) * root + ext.one == ext.zero
    if ext.is_irreducible:
        assert theta == ext.elem(0, 1)  # the class of Z itself


# --- orders, generators, indices ---------------------------------------------


def _pair(z):
    """(pair, e): an FpElem as (x, 0), an Fp2Elem as (c0, c1) with its trace coefficient."""
    if isinstance(z, FpElem):
        return (z.value, 0), 0
    return (z.c0.value, z.c1.value), z.ext.e.value


def test_mult_order_examples():
    assert mult_order((1, 0), 0, 7, 6) == 1
    assert mult_order((6, 0), 0, 7, 6) == 2  # -1
    assert mult_order((3, 0), 0, 7, 6) == 6
    with pytest.raises(ValueError, match="has no order dividing 6"):
        mult_order((0, 0), 0, 7, 6)


@given(st.one_of(fp_elems(nonzero=True), fp2_elems(nonzero=True, irreducible=True)))
def test_mult_order_is_minimal(z):
    ambient = z.p - 1 if isinstance(z, FpElem) else (z.p + 1 if z.norm().value == 1 else z.p**2 - 1)
    t = mult_order(*_pair(z), z.p, ambient)
    one = z.modulus.one if isinstance(z, FpElem) else z.ext.one
    assert z**t == one
    for q in factorize(t):
        assert z ** (t // q) != one
    assert ambient % t == 0


def test_primitive_root_examples():
    assert primitive_root(7) == 3  # ord(2) = 3 only
    assert primitive_root(5) == 2


@given(moduli)
def test_primitive_root_property(m):
    g = m.elem(primitive_root(m.p))
    assert mult_order(*_pair(g), m.p, m.p - 1) == m.p - 1
    for q in factorize(m.p - 1):
        assert (g ** ((m.p - 1) // q)).value != 1


def test_norm_group_small_case():
    # p = 3, Z^2 + 1: the norm-one set {(1,0),(2,0),(0,1),(0,2)} has order 4
    m = PrimeModulus(3)
    ext = QuadExtension(m, m.elem(0))
    norm_one = [
        ext.elem(a, b) for a in range(3) for b in range(3) if ext.elem(a, b).norm().value == 1
    ]
    assert len(norm_one) == 4
    g = ext.elem(*norm_group_generator(0, 3))
    assert g.norm().value == 1
    assert mult_order(*_pair(g), 3, 4) == 4
    assert {g**k for k in range(4)} == set(norm_one)


@given(extensions(irreducible=True))
def test_norm_group_generator_property(ext):
    g = ext.elem(*norm_group_generator(ext.e.value, ext.p))
    assert g.norm().value == 1
    assert mult_order(*_pair(g), ext.p, ext.p + 1) == ext.p + 1


def test_norm_group_generator_needs_irreducible():
    m = PrimeModulus(5)
    ext = QuadExtension(m, m.elem(0))  # splits: -1 = 2^2
    assert not ext.is_irreducible
    with pytest.raises(ValueError, match="splits mod 5; its norm-one set is not a"):
        norm_group_generator(0, 5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_orders_and_generators_by_brute_force_at_every_small_prime(p):
    # mult_order, primitive_root and norm_group_generator against their definitions, stepped one product at a time
    def mul(a, b, e):
        return (a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0] + e * a[1] * b[1]) % p

    def order(z, e):
        w, k = z, 1
        while w != (1, 0):
            w, k = mul(w, z, e), k + 1
            if k > p * p:
                return None
        return k

    assert primitive_root(p) == next(g for g in range(2, p) if order((g, 0), 0) == p - 1)
    for e in range(p):
        if (e * e - 4) % p == 0:
            continue
        irreducible = sqrt_mod(e * e - 4, p) is None
        orders = {}
        for z in ((c0, c1) for c1 in range(p) for c0 in range(p)):
            k = orders[z] = order(z, e)
            for n in (p - 1, p + 1, p * p - 1):
                if k is not None and n % k == 0:
                    assert mult_order(z, e, p, n) == k, (z, e, n)
        if irreducible:
            candidates = []
            for c1 in range(1, p):
                for c0 in range(p):
                    w = (1, 0)
                    for _ in range(p - 1):
                        w = mul(w, (c0, c1), e)
                    candidates.append(w)
            assert norm_group_generator(e, p) == next(w for w in candidates if orders[w] == p + 1)


def test_discrete_index_examples():
    m = PrimeModulus(7)
    g = m.elem(3)
    assert discrete_index(m.elem(1), g, 6) == 0
    assert discrete_index(g, g, 6) == 1
    assert discrete_index(m.elem(4), g, 6) == 4  # 3^4 = 81 = 4 mod 7


@given(moduli, st.integers(min_value=0, max_value=10**6))
def test_discrete_index_inverts_exponentiation(m, k):
    g = m.elem(primitive_root(m.p))
    k %= m.p - 1
    assert discrete_index(g**k, g, m.p - 1) == k


def test_discrete_index_detects_outsiders():
    # 2 has order 3 mod 7; 3 is not a power of 2
    m = PrimeModulus(7)
    with pytest.raises(NotInGroup):
        discrete_index(m.elem(3), m.elem(2), 3)


@pytest.mark.parametrize("p", [10007, 2**31 - 1, 2147483659, 2**61 - 1])
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000])
def test_inv_mod_matches_pow(p, n):
    # lanes of 1024: empty, one entry, one short row, one full row, a ragged last row
    rng = np.random.default_rng(n)
    x = ([0, p - 1, 1] + [int(v) for v in rng.integers(0, p, n)])[:n]
    got = _inv_mod(_residues(np.array(x, dtype=np.int64), p), p).tolist()
    assert got == [pow(v, -1, p) if v else 0 for v in x]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 102])
def test_powers_match_pow_pairs(n):
    m = PrimeModulus(101)
    assert QuadExtension(m, m.elem(1)).is_irreducible
    cases = [
        ((3, 5), 1, 101),  # not of norm one
        (norm_group_generator(1, 101), 1, 101),
        ((5, 0), 0, 293),  # F_p as the pairs (g, 0)
        ((290, 0), 0, 293),
    ]
    for g, e, p in cases:
        z = _powers(g, n, e, p)
        assert z.shape == (2, n) and z.dtype == np.int64
        assert [tuple(z[:, k].tolist()) for k in range(n)] == [_pow_pairs(g, k, e, p) for k in range(n)]
