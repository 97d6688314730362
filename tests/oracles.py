"""Step-by-step reference implementations that the array and int-pair paths are tested against.

`apply` steps the extended map one FpElem at a time (`orbit_oracle` iterates
it), and `apply_projective` and `linear_lift` step the projective views.
`QuadExtension` and `Fp2Elem` step F_p[Z]/(Z^2 - e*Z + 1) one object at a
time, apart from the raw int pairs of `src/`.  The closed form is solved on
them as the oracle for `mobius_dynamics.spectral_form` (both start from
`MobiusMatrix.roots`); `eval_spectral` and `spectral_orbit` rebuild Fp2Elems
from a form's pairs, and `value_at` lifts an int-coefficient RationalFunction
to them.  A `MultiplicativeCharacter` names its generator and `chi_value`
reads it through `discrete_index`, a baby-step/giant-step discrete log; the
Weil kernels take a multiplier of their own generator instead.  Likewise an
`AdditiveCharacter` evaluates psi_u(x) = e(u*x/p) one field element at a
time through `unit_circle`, while the kernels take the int u.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator

from mobiusdyn.char_sums import RationalFunction
from mobiusdyn.field_arith import (
    _mul_pairs,
    _pow_pairs,
    FpElem,
    ModulusMismatch,
    PrimeModulus,
    RepeatedRoot,
    ZeroInverse,
)
from mobiusdyn.mobius_dynamics import DegenerateSpectral, MobiusMatrix, SpectralForm



class NotInGroup(ValueError):
    """Element is not in the cyclic group spanned by the given generator."""


@dataclass(frozen=True)
class QuadExtension:
    """The quotient ring F_p[Z]/(Z^2 - e*Z + 1).

    A field exactly when e^2 - 4 is a non-residue; the repeated-root case
    e = +-2 is rejected outright because none of the downstream formulas
    survive it.
    """

    modulus: PrimeModulus
    e: FpElem

    def __post_init__(self):
        if self.e.modulus != self.modulus:
            raise ModulusMismatch("trace coefficient lives in a different field")
        if not self.e * self.e - self.modulus.elem(4):
            raise RepeatedRoot(f"Z^2 - {self.e.value}*Z + 1 has a double root mod {self.p}")

    @property
    def p(self) -> int:
        return self.modulus.p

    @cached_property
    def is_irreducible(self) -> bool:
        """Euler's criterion: the discriminant e^2 - 4 is a non-residue."""
        return pow(self.e.value**2 - 4, (self.p - 1) // 2, self.p) != 1

    def elem(self, c0: int | FpElem, c1: int | FpElem = 0) -> "Fp2Elem":
        if isinstance(c0, int):
            c0 = self.modulus.elem(c0)
        if isinstance(c1, int):
            c1 = self.modulus.elem(c1)
        return Fp2Elem(c0, c1, self)

    def embed(self, a: FpElem) -> "Fp2Elem":
        return Fp2Elem(a, self.modulus.zero, self)

    @property
    def zero(self) -> "Fp2Elem":
        return self.elem(0, 0)

    @property
    def one(self) -> "Fp2Elem":
        return self.elem(1, 0)

    def __repr__(self):
        return f"QuadExtension(Z^2 - {self.e.value}*Z + 1 mod {self.p})"


@dataclass(frozen=True)
class Fp2Elem:
    """c0 + c1*Z in F_p[Z]/(Z^2 - e*Z + 1); reduction Z^2 -> e*Z - 1 is canonical."""

    c0: FpElem
    c1: FpElem
    ext: QuadExtension

    @property
    def p(self) -> int:
        return self.ext.p

    @property
    def pair(self) -> tuple[int, int]:
        return self.c0.value, self.c1.value

    def _same_ring(self, other: "Fp2Elem"):
        if self.ext != other.ext:
            raise ModulusMismatch("operands belong to different quadratic extensions")

    def __add__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        return Fp2Elem(self.c0 + other.c0, self.c1 + other.c1, self.ext)

    def __sub__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        return Fp2Elem(self.c0 - other.c0, self.c1 - other.c1, self.ext)

    def __neg__(self) -> "Fp2Elem":
        return Fp2Elem(-self.c0, -self.c1, self.ext)

    def __mul__(self, other: "Fp2Elem") -> "Fp2Elem":
        self._same_ring(other)
        return self.ext.elem(*_mul_pairs(self.pair, other.pair, self.ext.e.value, self.p))

    def conj(self) -> "Fp2Elem":
        """Frobenius image z^p, i.e. the substitution Z -> e - Z."""
        return Fp2Elem(self.c0 + self.ext.e * self.c1, -self.c1, self.ext)

    def trace(self) -> FpElem:
        return self.c0 + self.c0 + self.ext.e * self.c1

    def norm(self) -> FpElem:
        return self.c0 * self.c0 + self.ext.e * self.c0 * self.c1 + self.c1 * self.c1

    def inv(self) -> "Fp2Elem":
        nm = self.norm()
        if not nm:
            if not self:
                raise ZeroInverse(f"0 has no inverse in {self.ext!r}")
            raise ZeroInverse(f"{self!r} is a zero divisor (norm 0) and has no inverse")
        ninv = nm.inv()
        cj = self.conj()
        return Fp2Elem(cj.c0 * ninv, cj.c1 * ninv, self.ext)

    def __pow__(self, n: int) -> "Fp2Elem":
        if n < 0:
            return self.inv() ** (-n)
        return self.ext.elem(*_pow_pairs(self.pair, n, self.ext.e.value, self.p))

    def __bool__(self) -> bool:
        return bool(self.c0) or bool(self.c1)

    def __repr__(self):
        return f"Fp2Elem({self.c0.value} + {self.c1.value}*Z mod {self.p})"


@dataclass(frozen=True)
class MultiplicativeCharacter:
    """x -> e(multiplier * ind(x)/order) on the cyclic group spanned by `generator`."""

    generator: FpElem | Fp2Elem
    order: int
    multiplier: int


_TWO_PI = 2.0 * math.pi


def unit_circle(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den), with the phase reduced mod 1 exactly in integers."""
    if den == 0:
        raise ZeroDivisionError("phase denominator is zero")
    if den < 0:
        raise ValueError("phase denominator must be positive")
    frac = (num % den) / den
    return complex(math.cos(_TWO_PI * frac), math.sin(_TWO_PI * frac))


@dataclass(frozen=True)
class AdditiveCharacter:
    """psi_u : x -> e(u*x/p) on F_p; nontrivial exactly when u != 0."""

    u: FpElem

    @property
    def p(self) -> int:
        return self.u.p

    @property
    def is_nontrivial(self) -> bool:
        return bool(self.u)

    def __call__(self, x: FpElem) -> complex:
        if x.modulus != self.u.modulus:
            raise ValueError("argument lives in a different field")
        return unit_circle(self.u.value * x.value, self.p)


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


def whole(table):
    """A MobiusTable as a mu stream: the one (start, values) pair holding mu(1..limit)."""
    return [(1, table.values[1:])]


def apply(matrix: MobiusMatrix, x: FpElem) -> FpElem:
    """One step of the extended map: (a*x + b)/(c*x + d), with the pole sent to a/c."""
    den = matrix.c * x + matrix.d
    if not den:
        return matrix.a / matrix.c
    return (matrix.a * x + matrix.b) / den


def apply_projective(matrix: MobiusMatrix, x: FpElem | None) -> FpElem | None:
    """Projective step; None encodes the point at infinity (c != 0 maps it to a/c)."""
    if x is None:
        return matrix.a / matrix.c
    den = matrix.c * x + matrix.d
    if not den:
        return None
    return (matrix.a * x + matrix.b) / den


def linear_lift(matrix: MobiusMatrix, xi0: FpElem) -> Iterator[tuple[FpElem, FpElem]]:
    """Yield (u_n, v_n) for n = 0, 1, 2, ...: (u_{n+1}, v_{n+1})^T = A (u_n, v_n)^T.

    Initial values are (u_0, v_0) = (xi_0, 1), so xi_n = u_n / v_n as long as
    v_n != 0; v_n = 0 marks the projective orbit sitting at infinity.  The
    matrix rule is the normative definition; since det A = 1, both sequences
    also satisfy the scalar recurrence w_{n+2} = e*w_{n+1} - w_n.
    """
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    u, v = xi0, matrix.modulus.one
    while True:
        yield u, v
        u, v = a * u + b * v, c * u + d * v


def spectral_solve_objects(matrix: MobiusMatrix, xi0: FpElem) -> tuple[Fp2Elem, Fp2Elem, Fp2Elem, Fp2Elem]:
    """(alpha, beta, gamma, theta) of the closed form, solved on Fp2Elem objects from linear_lift.

    Writing u_n = P*theta^n + Q*theta^-n and v_n = R*theta^n + S*theta^-n,
    the coefficients come from 2x2 solves against (u_0, u_1) and (v_0, v_1);
    then alpha = P/R, gamma = S/R, beta = (Q*R - P*S)/R^2.  R = 0 and
    beta = 0 raise DegenerateSpectral; a form that misses the lift at
    n = 0, 1, 2 raises AssertionError.
    """
    ext = QuadExtension(matrix.modulus, matrix.trace)
    theta, theta_inv = (ext.elem(*z) for z in matrix.roots)
    lift = [(ext.embed(u), ext.embed(v)) for u, v in islice(linear_lift(matrix, xi0), 3)]
    (u0, v0), (u1, v1) = lift[:2]
    dinv = (theta - theta_inv).inv()
    p_coef = (u1 - u0 * theta_inv) * dinv
    q_coef = u0 - p_coef
    r_coef = (v1 - v0 * theta_inv) * dinv
    s_coef = v0 - r_coef
    if not r_coef:
        raise DegenerateSpectral("v_n has no theta^n component; xi_n is affine in theta^(2n)")
    rinv = r_coef.inv()
    alpha = p_coef * rinv
    gamma = s_coef * rinv
    beta = (q_coef * r_coef - p_coef * s_coef) * rinv * rinv
    if not beta:
        raise DegenerateSpectral("seed is a fixed point; the closed form degenerates to a constant")
    step = theta * theta
    cur = ext.one
    for u, v in lift:
        if v:
            den = cur + gamma
            if (alpha + beta * den.inv()) * v != u:
                raise AssertionError("closed form disagrees with the linear lift")
        cur = cur * step
    return alpha, beta, gamma, theta


def form_elems(form: SpectralForm) -> tuple[QuadExtension, Fp2Elem, Fp2Elem, Fp2Elem, Fp2Elem]:
    """The extension and (alpha, beta, gamma, theta) of a form, rebuilt as Fp2Elem objects."""
    modulus = PrimeModulus(form.p)
    ext = QuadExtension(modulus, modulus.elem(form.e))
    return (ext, *(ext.elem(*z) for z in (form.alpha, form.beta, form.gamma, form.theta)))


class SpectralPole(ArithmeticError):
    """theta^(2n) = -gamma: the projective orbit is at infinity at this index."""


def eval_spectral(form: SpectralForm, n: int) -> FpElem:
    """xi_n from the closed form; raises SpectralPole when theta^(2n) = -gamma."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _, alpha, beta, gamma, theta = form_elems(form)
    den = theta ** (2 * n) + gamma
    if not den:
        raise SpectralPole(f"projective orbit is at infinity at index {n}")
    val = alpha + beta * den.inv()
    if val.c1:
        raise ArithmeticError("closed-form value left the base field; invalid form")
    return val.c0


def spectral_orbit(form: SpectralForm) -> Iterator[FpElem | None]:
    """Stream xi_0, xi_1, ... from the closed form with one Fp2Elem multiplication per step.

    Yields None at indices where the projective orbit is at infinity.
    """
    ext, alpha, beta, gamma, theta = form_elems(form)
    step = theta * theta
    cur = ext.one
    while True:
        den = cur + gamma
        if not den:
            yield None
        else:
            val = alpha + beta * den.inv()
            if val.c1:
                raise ArithmeticError("closed-form value left the base field; invalid form")
            yield val.c0
        cur = cur * step


def discrete_index(x: FpElem | Fp2Elem, g: FpElem | Fp2Elem, order: int) -> int:
    """The unique i in [0, order) with g^i = x, by baby-step/giant-step.

    Intended for desk-scale groups (order up to ~10^12 in principle, ~10^6
    in practice); raises NotInGroup when x is outside <g>.
    """
    if order < 1:
        raise ValueError("order must be positive")
    m = math.isqrt(order - 1) + 1
    baby: dict[object, int] = {}
    cur = x.modulus.one if isinstance(x, FpElem) else x.ext.one
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * g
    giant = (g**m).inv()
    cur = x
    for i in range(m):
        j = baby.get(cur)
        if j is not None:
            ind = (i * m + j) % order
            if g**ind == x:
                return ind
        cur = cur * giant
    raise NotInGroup(f"{x!r} is not a power of {g!r}")


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
    """h(x)/g(x) on field elements, or None at poles (g(x) = 0).

    The int (or int-pair) coefficients of rf are lifted to the field of x first.
    """
    if x.p != rf.p or (rf.e is not None and x.ext.e.value != rf.e):
        raise ModulusMismatch(f"{x!r} is not over the field of the function (p = {rf.p}, e = {rf.e})")
    field = x.ext if isinstance(x, Fp2Elem) else x.modulus
    lift = (lambda c: field.elem(*c)) if rf.e is not None else field.elem  # noqa: E731
    num = [lift(c) for c in rf.numerator]
    den = _horner([lift(c) for c in rf.denominator], x)
    if not den:
        return None
    if not num:
        return den - den  # zero of the matching field
    return _horner(num, x) * den.inv()
