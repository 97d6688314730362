"""The fractional-linear dynamical system x -> (a*x + b)/(c*x + d) over F_p.

Matrices are unimodular with c != 0, so the induced map extends to a
permutation of F_p by sending the pole -d/c straight to a/c.  Internally the
orbit can also be tracked on the projective line with an explicit point at
infinity; the scalar view short-circuits the infinity step, which is why a
pole visit shortens the scalar period by one relative to the projective one.
The linear lift (u_n, v_n) and the closed form through the roots of
Z^2 - e*Z + 1 both follow the projective indexing, so the verification
helpers prefer seeds whose orbit avoids the pole, where all three views
agree index by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

from .field_arith import (
    Fp2Elem,
    FpElem,
    QuadExtension,
    char_poly_roots,
    mult_order,
    sqrt_mod,
)


class SingularMatrix(ValueError):
    """a*d - b*c = 0: no fractional-linear map is induced."""


class NonSquareDeterminant(ValueError):
    """det^-1 is a non-residue, so no scalar rescaling lands in SL2(F_p)."""


class InvalidMatrix(ValueError):
    """Entries violate the det = 1 or c != 0 contract."""


class DegenerateSpectral(ValueError):
    """Seed admits no alpha + beta/(theta^(2n) + gamma) normal form."""


class SpectralPole(ArithmeticError):
    """theta^(2n) = -gamma: the projective orbit is at infinity at this index."""


class LinearPower(ValueError):
    """A^k has lower-left entry 0; the decimated map degenerates to affine."""


@dataclass(frozen=True)
class MobiusMatrix:
    """An SL2(F_p) matrix with c != 0 and its induced permutation of F_p."""

    a: FpElem
    b: FpElem
    c: FpElem
    d: FpElem

    def __post_init__(self):
        m = self.a.modulus
        if any(x.modulus != m for x in (self.b, self.c, self.d)):
            raise InvalidMatrix("matrix entries live in different fields")
        det = self.a * self.d - self.b * self.c
        if det.value != 1:
            raise InvalidMatrix(f"determinant is {det.value}, expected 1 (use normalize_to_sl2)")
        if not self.c:
            raise InvalidMatrix("lower-left entry must be nonzero (the map would be affine)")

    @property
    def modulus(self):
        return self.a.modulus

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def trace(self) -> FpElem:
        return self.a + self.d

    @cached_property
    def extension(self) -> QuadExtension:
        """F_p[Z]/(Z^2 - e*Z + 1) for e = a + d; raises RepeatedRoot when e = +-2."""
        return QuadExtension(self.modulus, self.trace)

    @cached_property
    def pole(self) -> FpElem:
        return -self.d / self.c

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a.value, self.b.value, self.c.value, self.d.value)

    def __repr__(self):
        a, b, c, d = self.entries()
        return f"MobiusMatrix([{a},{b};{c},{d}] mod {self.p})"


def normalize_to_sl2(a: FpElem, b: FpElem, c: FpElem, d: FpElem) -> MobiusMatrix:
    """Rescale (a, b, c, d) by the canonical lambda with lambda^2 = det^-1.

    The induced map on F_p is unchanged.  Raises SingularMatrix when the
    determinant vanishes and NonSquareDeterminant when no rescaling exists
    (the caller must then supply another representative of the same map).
    """
    det = a * d - b * c
    if not det:
        raise SingularMatrix("a*d - b*c = 0")
    if not c:
        raise InvalidMatrix("lower-left entry must be nonzero")
    if det.value == 1:
        return MobiusMatrix(a, b, c, d)
    lam = sqrt_mod(det.inv())
    if lam is None:
        raise NonSquareDeterminant(f"det^-1 = {det.inv().value} is not a square mod {a.p}")
    return MobiusMatrix(lam * a, lam * b, lam * c, lam * d)


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


def _orbit_values(matrix: MobiusMatrix, xi0: FpElem) -> Iterator[int]:
    """Raw-int stream xi_1, xi_2, ... of the extended map (hot path for the sums)."""
    a, b, c, d = matrix.entries()
    p = matrix.p
    pole_image = a * pow(c, p - 2, p) % p
    x = xi0.value
    while True:
        den = (c * x + d) % p
        if den:
            x = (a * x + b) * pow(den, p - 2, p) % p
        else:
            x = pole_image
        yield x


def _orbit_prefix(matrix: MobiusMatrix, xi0: FpElem, limit: int) -> np.ndarray:
    """xi_1, ..., xi_L as int64 with L = min(period, limit).

    When the orbit closes within `limit` steps the last entry is xi_t = xi_0,
    so entry r holds xi_n for every n = r + 1 (mod t).  Steps are drawn in
    doubling blocks, so a short orbit costs little more than its period.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    orbit = _orbit_values(matrix, xi0)
    x0 = xi0.value
    blocks = []
    done, size = 0, 64
    while done < limit:
        size = min(size, limit - done)
        block = np.fromiter(islice(orbit, size), dtype=np.int64, count=size)
        hit = np.flatnonzero(block == x0)
        if hit.size:
            blocks.append(block[: hit[0] + 1])
            break
        blocks.append(block)
        done += size
        size = min(2 * size, 1 << 16)
    return np.concatenate(blocks)


def trajectory_iter(matrix: MobiusMatrix, xi0: FpElem) -> Iterator[FpElem]:
    """Stream xi_1, xi_2, ... under the extended map (O(1) working memory)."""
    m = matrix.modulus
    for v in _orbit_values(matrix, xi0):
        yield FpElem(v, m)


def trajectory(matrix: MobiusMatrix, xi0: FpElem, count: int) -> list[FpElem]:
    """[xi_1, ..., xi_count] by repeated application of the extended map."""
    if count < 1:
        raise ValueError("count must be >= 1")
    it = trajectory_iter(matrix, xi0)
    return [next(it) for _ in range(count)]


@dataclass(frozen=True)
class Trajectory:
    """Period data of one orbit: the least t >= 1 with xi_t = xi_0.

    pole_hit is the index n in [0, t) with xi_n = -d/c when the orbit passes
    through the pole, else None.  theta_sq_order is the multiplicative order
    of theta^2, the projective cycle length for every non-fixed seed; a pole
    visit makes the scalar period exactly one shorter.
    """

    matrix: MobiusMatrix
    seed: FpElem
    period: int
    pole_hit: int | None
    theta_sq_order: int

    @property
    def pole_free(self) -> bool:
        return self.pole_hit is None

    @cached_property
    def orbit_table(self) -> np.ndarray:
        """xi_1, ..., xi_t as int64 (xi_t = xi_0): xi_n is entry (n - 1) mod t."""
        table = _orbit_prefix(self.matrix, self.seed, self.period)
        if table.size != self.period or table[-1] != self.seed.value:
            raise AssertionError("orbit table does not close at the recorded period")
        return table


def period(matrix: MobiusMatrix, xi0: FpElem) -> Trajectory:
    """Scan the orbit of xi0 for its least period; requires distinct roots."""
    ext = matrix.extension
    theta, _ = char_poly_roots(ext)
    t_ord = mult_order(theta * theta)
    pole = matrix.pole
    pole_hit = 0 if xi0 == pole else None
    x = xi0
    steps = 0
    for n in range(1, t_ord + 2):
        x = apply(matrix, x)
        steps = n
        if x == xi0:
            break
        if pole_hit is None and x == pole:
            pole_hit = n
    else:
        raise AssertionError("orbit did not close within ord(theta^2) + 1 steps")
    return Trajectory(matrix, xi0, steps, pole_hit, t_ord)


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


@dataclass(frozen=True)
class SpectralForm:
    """Closed form xi_n = alpha + beta/(theta^(2n) + gamma) for one orbit."""

    alpha: Fp2Elem
    beta: Fp2Elem
    gamma: Fp2Elem
    theta: Fp2Elem

    @property
    def ext(self) -> QuadExtension:
        return self.theta.ext


def spectral_form(matrix: MobiusMatrix, xi0: FpElem) -> SpectralForm:
    """Solve for (alpha, beta, gamma) from the linear lift of the orbit.

    Writing u_n = P*theta^n + Q*theta^-n and v_n = R*theta^n + S*theta^-n,
    the coefficients come from 2x2 solves against (u_0, u_1) and (v_0, v_1),
    the first two items of linear_lift; then alpha = P/R, gamma = S/R,
    beta = (Q*R - P*S)/R^2.  R = 0 (the ratio is affine in theta^(2n)) and
    beta = 0 (the seed is a fixed point) fall outside the normal form and
    raise DegenerateSpectral.
    """
    ext = matrix.extension
    theta, theta_inv = char_poly_roots(ext)
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
    form = SpectralForm(alpha, beta, gamma, theta)
    step = theta * theta
    cur = ext.one
    for u, v in lift:
        if v:
            den = cur + gamma
            if (alpha + beta * den.inv()) * v != u:
                raise AssertionError("closed form disagrees with the linear lift")
        cur = cur * step
    return form


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
    """Stream xi_0, xi_1, ... from the closed form with one multiplication per step.

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


def matrix_power_entries(matrix: MobiusMatrix, k: int) -> tuple[int, int, int, int]:
    """Entries of A^k as plain ints (k >= 0); no c != 0 requirement on the result."""
    if k < 0:
        raise ValueError("k must be non-negative")
    p = matrix.p
    r = (1, 0, 0, 1)
    base = matrix.entries()

    def mul(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % p,
            (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p,
            (x[2] * y[1] + x[3] * y[3]) % p,
        )

    while k:
        if k & 1:
            r = mul(r, base)
        base = mul(base, base)
        k >>= 1
    return r


def power_matrix(matrix: MobiusMatrix, k: int) -> MobiusMatrix:
    """A^k by fast exponentiation; raises LinearPower when the power turns affine."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    a, b, c, d = matrix_power_entries(matrix, k)
    if c == 0:
        raise LinearPower(f"A^{k} has lower-left entry 0 (affine decimation)")
    m = matrix.modulus
    return MobiusMatrix(FpElem(a, m), FpElem(b, m), FpElem(c, m), FpElem(d, m))
