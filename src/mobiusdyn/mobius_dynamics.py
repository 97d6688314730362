"""The fractional-linear dynamical system x -> (a*x + b)/(c*x + d) over F_p.

Matrices are unimodular with c != 0, so the induced map extends to a
permutation of F_p by sending the pole -d/c straight to a/c.  Internally the
orbit can also be tracked on the projective line with an explicit point at
infinity; the scalar view short-circuits the infinity step, which is why a
pole visit shortens the scalar period by one relative to the projective one.
The linear lift (u_n, v_n) and the closed form through the roots of
Z^2 - e*Z + 1 both follow the projective indexing, so `verify_three_way`,
which steps the three views side by side, takes seeds whose orbit avoids the
pole, where all three agree index by index.

The map stepped one point at a time (`apply`), the projective map, the
linear lift and the closed form on Fp2Elem objects live with the test
oracles.  `MobiusMatrix.roots` solves Z^2 - e*Z + 1 once per matrix,
on raw (c0, c1) int pairs, for ord(theta^2) and for `spectral_form`, which
solves the closed form on int pairs; `SpectralForm.evaluate` is its one
evaluator.  The orbit table every sum reads is not stepped: `_orbit_prefix`
fills the linear lift on int64 arrays by doubling until the lift returns to
the seed, drops the infinity index and inverts the v_n in blocks, so one
period of t entries costs about twenty array operations per entry (~0.1 us per
entry at p ~ 1e7 on one core of a 2-CPU x86 machine), with a peak of about 16
bytes per entry; a table whose build would not fit in physical memory is
refused before it is allocated.  It needs ord(theta^2) only past that budget;
`period` computes the order as its bound and as a cross-check of the closure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith_fn import ResourceGuard
from .field_arith import (
    _BLOCK,
    _inv_mod,
    _inv_pair,
    _mul_pairs,
    _residues,
    FpElem,
    char_poly_roots,
    mult_order,
    sqrt_mod,
)


class InvalidMatrix(ValueError):
    """Entries give no SL2(F_p) matrix with c != 0: det = 0, det^-1 a non-residue, c = 0 or mixed fields."""


class DegenerateSpectral(ValueError):
    """Seed the three orbit views cannot check: a fixed point or affine form (no closed form), or a pole orbit."""


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
    def roots(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(theta, theta^-1) of Z^2 - e*Z + 1 for e = a + d, as int pairs; RepeatedRoot when e = +-2."""
        return char_poly_roots(self.trace.value, self.p)

    @cached_property
    def theta_sq_order(self) -> int:
        """ord(theta^2), which divides p + 1 when theta lies outside F_p and p - 1 otherwise."""
        theta, e, p = self.roots[0], self.trace.value, self.p
        return mult_order(_mul_pairs(theta, theta, e, p), e, p, p + 1 if theta[1] else p - 1)

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

    The induced map on F_p is unchanged; det = 1 gives lambda = 1.  Raises
    InvalidMatrix when the determinant vanishes, when c = 0, and when no
    rescaling exists (the caller must then supply another representative of
    the same map).
    """
    det = a * d - b * c
    if not det:
        raise InvalidMatrix("a*d - b*c = 0")
    if not c:
        raise InvalidMatrix("lower-left entry must be nonzero")
    root = sqrt_mod(det.inv().value, a.p)
    if root is None:
        raise InvalidMatrix(f"det^-1 = {det.inv().value} is not a square mod {a.p}")
    lam = a.modulus.elem(root)
    return MobiusMatrix(lam * a, lam * b, lam * c, lam * d)


# the most table entries whose build (16 bytes each, 16.1 measured at 1e7) fits in physical memory
_TABLE_LIMIT = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 16


def _orbit_prefix(matrix: MobiusMatrix, xi0: FpElem, limit: int) -> np.ndarray:
    """xi_1, ..., xi_L as int64 with L = min(period, limit), read off the linear lift.

    (u_n, v_n) for n = 0, 1, ... fill two arrays by doubling:
    (u, v)[k:2k] = A^k (u, v)[:k], with A^k squared on Python ints.  The
    projective orbit of the seed first returns to [x0 : 1] (u_n = x0*v_n) at
    n = ord(theta^2), which divides p - 1 or p + 1; so the arrays hold
    M = min(limit + 1, p + 1) entries, and M drops to that n in the block
    that finds the return.  No order is computed while min(limit, p + 1)
    fits in _TABLE_LIMIT, so a short prefix never factorises p +- 1; past
    it, p + 1 is replaced by the true return index (1 for a fixed seed, else
    ord(theta^2)), and ResourceGuard is raised, before any allocation, when
    the length still exceeds it.  The projective orbit meets infinity (v_n = 0)
    at most once; the extended map skips that index, so dropping it leaves
    the scalar orbit, which first returns to xi_0 at the end (at n = 1 for a
    fixed seed).  The v_n are inverted block by block of _BLOCK entries (_inv_mod:
    one Fermat power per block on lane products) and xi_n = u_n / v_n is
    written back into u.  u and v are int64; from p = 2^31 on, each block is
    taken to Python ints (_residues) for its products.  Cost: about twenty
    array operations per entry; peak memory about 16*M bytes, the returned
    table being the first 8*L of them.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    a, b, c, d = matrix.entries()
    p = matrix.p
    x0 = xi0.value
    back = p + 1  # a bound on the index where the lift returns to the seed
    if min(limit, back) > _TABLE_LIMIT:
        fixed = (a * x0 + b - x0 * (c * x0 + d)) % p == 0
        back = 1 if fixed else matrix.theta_sq_order
        if min(limit, back) > _TABLE_LIMIT:
            raise ResourceGuard(f"orbit of {min(limit, back)} steps exceeds the table budget of {_TABLE_LIMIT} entries")
    size = min(limit + 1, back)
    u = np.empty(size + 1, dtype=np.int64)
    v = np.empty(size + 1, dtype=np.int64)
    u[0], v[0] = x0, 1
    k, (a_k, b_k, c_k, d_k) = 1, (a, b, c, d)  # A^k
    while k <= size:  # a return at n < k + m sets size below k + m and ends the loop
        m = min(k, size + 1 - k)
        for i in range(0, m, _BLOCK):
            j = min(i + _BLOCK, m)
            u_blk, v_blk = _residues(u[i:j], p), _residues(v[i:j], p)
            u_blk, v_blk = (a_k * u_blk + b_k * v_blk) % p, (c_k * u_blk + d_k * v_blk) % p
            u[k + i : k + j], v[k + i : k + j] = u_blk, v_blk
            back = u_blk == x0 * v_blk % p
            if back.any():
                size = k + i + int(back.argmax())
                break
        a_k, b_k, c_k, d_k = (
            (a_k * a_k + b_k * c_k) % p,
            (a_k * b_k + b_k * d_k) % p,
            (c_k * a_k + d_k * c_k) % p,
            (c_k * b_k + d_k * d_k) % p,
        )
        k += m
    kept = 0  # u[:kept] holds the finite xi_n read so far; kept < i always
    for i in range(1, size + 1, _BLOCK):
        j = min(i + _BLOCK, size + 1)  # entries past size are unwritten
        v_blk = _residues(v[i:j], p)
        xi = (_residues(u[i:j], p) * _inv_mod(v_blk, p) % p)[v_blk != 0]
        u[kept : kept + xi.size] = xi
        kept += xi.size
    return u[: min(kept, limit)]


@dataclass(frozen=True)
class Trajectory:
    """Period data of one orbit: the least t >= 1 with xi_t = xi_0.

    pole_hit is the index n in [0, t) with xi_n = -d/c when the orbit passes
    through the pole, else None.  orbit_table holds xi_1, ..., xi_t as int64
    (xi_t = xi_0), so xi_n is entry (n - 1) mod t and t is its length; it
    takes 8*t bytes, about 40 MB at t = 5e6, and building it peaks at about
    twice that.  theta_sq_order is the matrix's ord(theta^2), the projective
    cycle length for every non-fixed seed; a pole visit makes the scalar
    period exactly one shorter.
    """

    matrix: MobiusMatrix
    seed: FpElem
    pole_hit: int | None
    orbit_table: np.ndarray = field(repr=False, compare=False)

    @property
    def period(self) -> int:
        return self.orbit_table.size

    @property
    def theta_sq_order(self) -> int:
        return self.matrix.theta_sq_order

    @property
    def pole_free(self) -> bool:
        return self.pole_hit is None


def period(matrix: MobiusMatrix, xi0: FpElem) -> Trajectory:
    """Build the orbit table of xi0 from the linear lift; requires distinct roots.

    The table runs to the first return to xi0, so the least period is its
    length; a table that has not closed within ord(theta^2) steps raises
    AssertionError, and one over _TABLE_LIMIT entries ResourceGuard before
    it is allocated.  The pole index is a scan of the table.  At t = 5e6
    (p = 10000019) this takes about 0.5 s on a 2-CPU x86 machine and 80 MB
    of peak memory, 40 MB of which stay as the table.
    """
    t_ord = matrix.theta_sq_order
    table = _orbit_prefix(matrix, xi0, t_ord)
    if table[-1] != xi0.value:
        raise AssertionError("orbit did not close within ord(theta^2) steps")
    pole = matrix.pole.value
    if xi0.value == pole:
        pole_hit = 0
    else:
        hits = np.flatnonzero(table[:-1] == pole)
        pole_hit = int(hits[0]) + 1 if hits.size else None
    return Trajectory(matrix, xi0, pole_hit, table)


@dataclass(frozen=True)
class SpectralForm:
    """Closed form xi_n = alpha + beta/(theta^(2n) + gamma) for one orbit.

    alpha, beta, gamma and theta are raw int pairs (c0, c1), standing for
    c0 + c1*Z in F_p[Z]/(Z^2 - e*Z + 1) with e the trace of the matrix.
    """

    alpha: tuple[int, int]
    beta: tuple[int, int]
    gamma: tuple[int, int]
    theta: tuple[int, int]
    e: int
    p: int

    def evaluate(self, cur: tuple[int, int]) -> tuple[int, int] | None:
        """alpha + beta/(cur + gamma) for cur = theta^(2n); None when cur + gamma has norm 0."""
        den = _inv_pair((cur[0] + self.gamma[0], cur[1] + self.gamma[1]), self.e, self.p)
        if den is None:
            return None
        s0, s1 = _mul_pairs(self.beta, den, self.e, self.p)
        return (s0 + self.alpha[0]) % self.p, (s1 + self.alpha[1]) % self.p


def spectral_form(matrix: MobiusMatrix, xi0: FpElem) -> SpectralForm:
    """Solve for (alpha, beta, gamma) from the linear lift of the orbit, on int pairs.

    Writing u_n = P*theta^n + Q*theta^-n and v_n = R*theta^n + S*theta^-n,
    the 2x2 solves against (u_0, u_1) = (x0, a*x0 + b) and
    (v_0, v_1) = (1, c*x0 + d) give P*D = u_1 - x0/theta, R*D = W and
    S = 1 - R, with D = theta - 1/theta and W = v_1 - 1/theta.  So
    alpha = P/R = (u_1 - x0/theta)/W, gamma = S/R = D/W - 1 and
    beta = (Q*R - P*S)/R^2 = (x0 - alpha)*D/W, with W inverted through its
    conjugate and norm.  R = 0 (the ratio is affine in theta^(2n)) and
    beta = 0 (the seed is a fixed point) fall outside the normal form and
    raise DegenerateSpectral.  The form is checked against the lift at
    n = 0, 1, 2.
    """
    theta, (i0, i1) = matrix.roots
    e, p = matrix.trace.value, matrix.p
    a, b, c, d = matrix.entries()
    x0 = xi0.value
    u1, v1 = (a * x0 + b) % p, (c * x0 + d) % p
    w = ((v1 - i0) % p, -i1 % p)
    if w == (0, 0):
        raise DegenerateSpectral("v_n has no theta^n component; xi_n is affine in theta^(2n)")
    winv = _inv_pair(w, e, p)
    rinv = _mul_pairs((theta[0] - i0, theta[1] - i1), winv, e, p)
    alpha = _mul_pairs((u1 - x0 * i0, -x0 * i1), winv, e, p)
    beta = _mul_pairs((x0 - alpha[0], -alpha[1]), rinv, e, p)
    if beta == (0, 0):
        raise DegenerateSpectral("seed is a fixed point; the closed form degenerates to a constant")
    form = SpectralForm(alpha, beta, ((rinv[0] - 1) % p, rinv[1]), theta, e, p)
    step, cur = _mul_pairs(theta, theta, e, p), (1, 0)
    for u, v in ((x0, 1), (u1, v1), ((a * u1 + b * v1) % p, (c * u1 + d * v1) % p)):
        if v:
            val = form.evaluate(cur)
            if val is None or val[1] or val[0] * v % p != u:
                raise AssertionError("closed form disagrees with the linear lift")
        cur = _mul_pairs(cur, step, e, p)
    return form


def verify_three_way(traj: Trajectory, form: SpectralForm, window: int) -> int:
    """Mismatches between the three orbit views for n = 1..window on a pole-free orbit, on raw ints mod p.

    Each view is stepped on its own from the seed:
    - the map: x -> (a*x + b) * (c*x + d)^-1, with the pole sent to a/c;
    - the lift: (u, v) -> (a*u + b*v, c*u + d*v);
    - the closed form of `form`: cur = theta^(2n) by one pair product per
      step, read through `form.evaluate`.
    Index n is a mismatch unless the closed form is defined there, lies in
    F_p and equals x_n, u_n = x_n * v_n (so v_n != 0, as (u_n, v_n) != (0, 0)),
    and orbit-table entry n - 1 equals x_n: the table, built from the lift by
    doubling, is held to the map.
    """
    a, b, c, d = traj.matrix.entries()
    p = traj.matrix.p
    step = _mul_pairs(form.theta, form.theta, form.e, p)
    pole_image = a * pow(c, -1, p) % p
    x = u = traj.seed.value
    v, cur = 1, (1, 0)
    mismatches = 0
    for raw in traj.orbit_table[:window].tolist():
        den = (c * x + d) % p
        x = (a * x + b) * pow(den, -1, p) % p if den else pole_image
        u, v = (a * u + b * v) % p, (c * u + d * v) % p
        cur = _mul_pairs(cur, step, form.e, p)
        val = form.evaluate(cur)
        if val is None or val != (x, 0) or u != x * v % p or raw != x:
            mismatches += 1
    return mismatches
