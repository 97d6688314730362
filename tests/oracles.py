"""Step-by-step reference implementations that the array paths are tested against."""

from typing import Iterator

from mobiusdyn.arith_fn import MultiplicativeCharacter, unit_circle
from mobiusdyn.char_sums import RationalFunction
from mobiusdyn.field_arith import Fp2Elem, FpElem, discrete_index
from mobiusdyn.mobius_dynamics import MobiusMatrix, SpectralForm, apply


_ORACLE_PRIME_BOUND = 1000


def _small_primes_by_trial() -> list[int]:
    ps: list[int] = []
    for m in range(2, _ORACLE_PRIME_BOUND + 1):
        if all(m % q for q in ps if q * q <= m):
            ps.append(m)
    return ps


_ORACLE_PRIMES = _small_primes_by_trial()


def mobius_oracle(n: int) -> int:
    """mu(n) by plain trial division; independent of the sieve machinery."""
    if n < 1:
        raise ValueError("mu is defined on positive integers")
    if n == 1:
        return 1
    sign = 1
    m = n
    for q in _ORACLE_PRIMES:
        if q * q > m:
            break
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            sign = -sign
    else:
        d = _ORACLE_PRIME_BOUND + 9  # 1009, first prime past the precomputed list
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                sign = -sign
            d += 2
    if m > 1:
        sign = -sign
    return sign


def orbit_walk(matrix: MobiusMatrix, xi0: FpElem, limit: int) -> list[int]:
    """xi_1, ..., xi_L with L = min(period, limit), one step of the extended map at a time.

    Raw-int arithmetic with one Fermat inversion per step; the pole goes to
    a/c, and the walk stops at the first return to xi_0.
    """
    a, b, c, d = matrix.entries()
    p = matrix.p
    pole_image = a * pow(c, p - 2, p) % p
    x0 = x = xi0.value
    out = []
    for _ in range(limit):
        den = (c * x + d) % p
        x = (a * x + b) * pow(den, p - 2, p) % p if den else pole_image
        out.append(x)
        if x == x0:
            break
    return out


def orbit_oracle(matrix: MobiusMatrix, xi0: FpElem, count: int) -> list[FpElem]:
    """[xi_0, xi_1, ..., xi_count] by repeated application of the extended map."""
    vals = [xi0]
    for _ in range(count):
        vals.append(apply(matrix, vals[-1]))
    return vals


def decimated_oracle(matrix, xi0, psi, terms, n_terms, h=None, t=None) -> complex:
    """sum_{n <= N} psi(sum_j c_j xi_{s_j n}) [* e(h n / t)], one term at a time.

    terms holds the (c_j, s_j) pairs.  With h and t given and N = t this is
    the complete sum with a rational twist, the discrete Fourier transform
    of the term sequence at frequency h.
    """
    modulus = matrix.modulus
    vals = orbit_oracle(matrix, xi0, max(s for _, s in terms) * n_terms)
    total = 0j
    for n in range(1, n_terms + 1):
        arg = modulus.zero
        for c, s in terms:
            arg = arg + modulus.elem(c) * vals[s * n]
        term = psi(arg)
        if h is not None:
            term *= unit_circle(h * n, t)
        total += term
    return total


def twisted_oracle(matrix, xi0, psi, n_terms, mu_table) -> complex:
    """sum_{n <= N} mu(n) psi(xi_n), one term at a time."""
    vals = orbit_oracle(matrix, xi0, n_terms)
    return sum(mu_table.mu(n) * psi(vals[n]) for n in range(1, n_terms + 1))


def apply_projective(matrix: MobiusMatrix, x: FpElem | None) -> FpElem | None:
    """Projective step; None encodes the point at infinity (c != 0 maps it to a/c)."""
    if x is None:
        return matrix.a / matrix.c
    den = matrix.c * x + matrix.d
    if not den:
        return None
    return (matrix.a * x + matrix.b) / den


class SpectralPole(ArithmeticError):
    """theta^(2n) = -gamma: the projective orbit is at infinity at this index."""


def eval_spectral(form: SpectralForm, n: int) -> FpElem:
    """xi_n from the closed form; raises SpectralPole when theta^(2n) = -gamma."""
    if n < 0:
        raise ValueError("n must be non-negative")
    den = form.theta ** (2 * n) + form.gamma
    if not den:
        raise SpectralPole(f"projective orbit is at infinity at index {n}")
    val = form.alpha + form.beta * den.inv()
    if val.c1:
        raise ArithmeticError("closed-form value left the base field; invalid form")
    return val.c0


def spectral_orbit(form: SpectralForm) -> Iterator[FpElem | None]:
    """Stream xi_0, xi_1, ... from the closed form with one Fp2Elem multiplication per step.

    Yields None at indices where the projective orbit is at infinity.
    """
    step = form.theta * form.theta
    cur = form.ext.one
    while True:
        den = cur + form.gamma
        if not den:
            yield None
        else:
            val = form.alpha + form.beta * den.inv()
            if val.c1:
                raise ArithmeticError("closed-form value left the base field; invalid form")
            yield val.c0
        cur = cur * step


def chi_value(chi: MultiplicativeCharacter, x: FpElem | Fp2Elem) -> complex:
    """chi(x) = e(multiplier * ind(x) / order) through one discrete logarithm."""
    ind = discrete_index(x, chi.generator, chi.order)
    return unit_circle(chi.multiplier * ind, chi.order)


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def value_at(rf: RationalFunction, x: FpElem | Fp2Elem) -> FpElem | Fp2Elem | None:
    """h(x)/g(x) on field elements, or None at poles (g(x) = 0)."""
    den = _horner(rf.denominator, x)
    if not den:
        return None
    if not rf.numerator:
        return den - den  # zero of the matching field
    return _horner(rf.numerator, x) * den.inv()
