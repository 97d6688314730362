"""Exponential sums along the map's trajectories, paired with reference bounds.

Every public entry point returns a SumReport carrying the complex value, the
bound it is measured against (square-root-of-p type, with the implied
constant set to 1 and natural log), and the empirical ratio.  Bounds are
recorded, never asserted here; the safety envelopes live in the test suite.

The trajectory kernels rest on one periodic reduction.  An orbit has period
t <= p + 1, so every term is the phase of one of the orbit-table entries
xi_1, ..., xi_t (xi_t = xi_0), and xi_{kn} is entry (k*n - 1) mod t.  A sum
is then exact integer weights times at most t fixed phases: Mobius residue
counts for the twisted sum, the histogram of the F_p arguments for the
correlation and single sums.  Phases are reduced as exact integers before
any cos/sin, and each component is one exactly rounded math.fsum, so results
do not depend on summation order or thread count.  The table follows the
extended scalar map, so orbits through the pole take the same path.
The correlation and single sums read matrix, seed, period and table from one
Trajectory; the twisted schedule takes (matrix, xi0) and builds only the
orbit prefix it needs, unless it is handed a Trajectory.
The exhaustive Weil kernels follow the same pattern over all of F_p or the
norm-one group: exact int64 phase numerators, then one fsum per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .arith_fn import (
    _TWO_PI,
    AdditiveCharacter,
    MobiusTable,
    MultiplicativeCharacter,
    TableTooSmall,
)
from .field_arith import (
    _BLOCK,
    _inv_mod,
    _mul_pairs,
    _residues,
    Fp2Elem,
    FpElem,
    ModulusMismatch,
    QuadExtension,
    ReducibleExtension,
    discrete_index,
    norm_group_generator,
)
from .mobius_dynamics import MobiusMatrix, Trajectory, _orbit_prefix
from .mobius_dynamics import period  # noqa: F401  unused here; perfbench's tracer test reads char_sums.period


class BothFrequenciesZero(ValueError):
    """(u, v) = (0, 0) makes the two-term sum trivial."""


class BadIndices(ValueError):
    """Decimation indices must satisfy 0 <= k < m."""


class ZeroFrequency(ValueError):
    """The single-term sum needs u != 0."""


class RangeGuard(ValueError):
    """Requested modulus exceeds the brute-force enumeration caps."""


_CSV_FIELDS = ("sum_kind", "p", "a", "b", "c", "d", "xi0", "u", "v", "k", "m", "h", "N", "re", "im", "abs", "bound", "ratio")

CSV_HEADER = ",".join(_CSV_FIELDS)


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


@dataclass
class SumReport:
    """One computed sum, the bound it is measured against, and their ratio.

    reference_bound is the right-hand side of the matching estimate with the
    implied constant taken as 1; when no finite-N bound applies (the twisted
    sum), it is None and ratio falls back to |value|/N, the normalised mean.
    """

    kind: str
    value: complex
    term_count: int
    modulus: int
    reference_bound: float | None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.value) > self.term_count + 1e-6:
            raise AssertionError(
                f"|{self.kind} sum| = {abs(self.value)} exceeds the term count {self.term_count}"
            )

    @property
    def abs_value(self) -> float:
        return abs(self.value)

    @property
    def ratio(self) -> float:
        if self.reference_bound is None:
            return self.abs_value / self.term_count if self.term_count else 0.0
        if self.reference_bound == 0.0:
            return math.inf if self.abs_value else 0.0
        return self.abs_value / self.reference_bound

    def csv_row(self) -> str:
        cells = {
            "sum_kind": self.kind,
            "p": str(self.modulus),
            "N": str(self.term_count),
            "re": _fmt_float(self.value.real),
            "im": _fmt_float(self.value.imag),
            "abs": _fmt_float(self.abs_value),
            "bound": "" if self.reference_bound is None else _fmt_float(self.reference_bound),
            "ratio": _fmt_float(self.ratio),
        }
        for key in ("a", "b", "c", "d", "xi0", "u", "v", "k", "m", "h"):
            cells[key] = str(self.params[key]) if key in self.params else ""
        return ",".join(cells[f] for f in _CSV_FIELDS)


def _matrix_params(matrix: MobiusMatrix, xi0: FpElem) -> dict:
    a, b, c, d = matrix.entries()
    return {"a": a, "b": b, "c": c, "d": d, "xi0": xi0.value}


def _angles(nums: np.ndarray, den: int, coef: int = 1) -> np.ndarray:
    """2*pi*(coef*num mod den)/den per entry, the angle unit_circle would use.

    Each numerator is reduced as an exact integer before the division; the
    entries go through in blocks, so Python-int temporaries stay small.
    """
    frac = np.empty(nums.size)
    for i in range(0, nums.size, _BLOCK):
        frac[i : i + _BLOCK] = _residues(nums[i : i + _BLOCK], den) * coef % den / den
    return _TWO_PI * frac


def _fsum(values: np.ndarray, weights=1) -> float:
    """math.fsum of weights * values, formed and handed over one block at a time.

    No full-length product array is held; weights broadcast against values.
    """
    w = np.broadcast_to(weights, values.shape)
    blocks = ((w[i : i + _BLOCK] * values[i : i + _BLOCK]).tolist() for i in range(0, values.size, _BLOCK))
    return math.fsum(chain.from_iterable(blocks))


def _unit(angle: np.ndarray) -> np.ndarray:
    """e^(i angle) per entry, with the real part from np.cos and the imaginary from np.sin."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _weighted_sum(weights, cos: np.ndarray, sin: np.ndarray) -> complex:
    """sum_r weights[r] * (cos[r] + i sin[r]) with one exactly rounded fsum per component."""
    return complex(_fsum(cos, weights), _fsum(sin, weights))


def _add_residue_counts(counts: np.ndarray, mu: np.ndarray, start: int) -> None:
    """counts[(start + i) mod t] += mu[i] for every i, with t = len(counts).

    A head up to the next multiple of t, then whole rows of length t summed
    column-wise, then a tail: no per-term Python work.
    """
    t = counts.size
    r0 = start % t
    head = min(mu.size, (t - r0) % t)
    counts[r0 : r0 + head] += mu[:head]
    rest = mu[head:]
    rows = rest.size // t
    if rows:
        counts += rest[: rows * t].reshape(rows, t).sum(axis=0, dtype=np.int64)
    tail = rest[rows * t :]
    counts[: tail.size] += tail


def twisted_sum_schedule(
    matrix: MobiusMatrix,
    xi0: FpElem,
    psi: AdditiveCharacter | Sequence[AdditiveCharacter],
    n_schedule: Sequence[int],
    mu_table: MobiusTable,
    traj: Trajectory | None = None,
) -> list[SumReport]:
    """The twisted sum at each checkpoint N of an ascending schedule.

    S(N) = sum_r c_r(N) psi(xi_{r+1}), where c_r(N) is the sum of mu(n) over
    n <= N with n - 1 = r mod t and t is the period (or max N when the orbit
    is longer).  The counts are exact integers that grow checkpoint by
    checkpoint, so every prefix report equals a standalone run at that N.
    psi may be one character or several: the orbit prefix and the counts do
    not depend on it and are built once, and the reports come character by
    character, each over the whole schedule.  A given traj of the same
    (matrix, xi0) supplies the prefix from its table; without one only the
    first max N terms of the orbit are built, so a twisted-only scan needs
    neither the full period nor ord(theta^2).
    """
    chars = [psi] if isinstance(psi, AdditiveCharacter) else list(psi)
    if not all(c.is_nontrivial for c in chars):
        raise ValueError("psi must be a nontrivial additive character")
    if any(n < 1 for n in n_schedule):
        raise ValueError("every checkpoint must be >= 1")
    if list(n_schedule) != sorted(n_schedule):
        raise ValueError("n_schedule must be ascending")
    n_max = max(n_schedule, default=0)
    if n_max > mu_table.limit:
        raise TableTooSmall(f"need mu up to {n_max}, table holds {mu_table.limit}")
    if not n_schedule:
        return []
    p = matrix.p
    if traj is None:
        table = _orbit_prefix(matrix, xi0, n_max)
    elif traj.matrix != matrix or traj.seed != xi0:
        raise ValueError("supplied trajectory belongs to a different instance")
    else:
        table = traj.orbit_table[:n_max]
    angles = [_angles(table, p, c.u.value) for c in chars]
    counts = np.zeros(table.size, dtype=np.int64)
    done = 0
    values = []  # values[i][k]: checkpoint i, character k
    for n in n_schedule:
        _add_residue_counts(counts, mu_table.values[done + 1 : n + 1], done)
        done = n
        values.append([_weighted_sum(counts, np.cos(angle), np.sin(angle)) for angle in angles])
    params = _matrix_params(matrix, xi0)
    return [
        SumReport("twisted", row[k], n, p, None, dict(params, u=c.u.value))
        for k, c in enumerate(chars)
        for n, row in zip(n_schedule, values)
    ]


def _decimated_phases(
    traj: Trajectory, psi: AdditiveCharacter, terms: Sequence[tuple[int, int]], n_terms: int
) -> np.ndarray:
    """Phase numerators psi_u * sum_j c_j * xi_{s_j n} mod p for n = 1..N.

    terms holds the (c_j, s_j) pairs.  xi_{sn} is orbit-table entry
    (s*n - 1) mod t for every orbit, pole or not; the index -1 (s*n = 0 mod t)
    is the last entry, xi_t = xi_0.  (s mod t)*n < t^2 stays inside int64
    for every period whose table fits in memory.
    """
    p = traj.matrix.p
    table = _residues(traj.orbit_table, p)
    t = table.size
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    acc = np.zeros(n_terms, dtype=table.dtype)
    for coef, step in terms:
        c = psi.u.value * coef % p
        if c:
            idx = n * (step % t)
            idx %= t
            idx -= 1
            vals = table[idx]
            vals *= c
            acc += vals
            acc %= p
    return acc


def _histogram_sum(phases: np.ndarray, p: int) -> complex:
    """sum_n e(phases[n]/p) through the integer histogram of the phases."""
    values, counts = np.unique(phases, return_counts=True)
    angle = _angles(values, p)
    return _weighted_sum(counts, np.cos(angle), np.sin(angle))


def correlation_sum(
    traj: Trajectory,
    psi: AdditiveCharacter,
    u: FpElem,
    v: FpElem,
    k: int,
    m: int,
    n_terms: int,
) -> SumReport:
    """sum_{n <= N} psi(u*xi_{kn} + v*xi_{mn}) along traj, with reference bound m*sqrt(p)*log(p)."""
    if not (u or v):
        raise BothFrequenciesZero("need (u, v) != (0, 0)")
    if not (0 <= k < m):
        raise BadIndices(f"need 0 <= k < m, got k={k}, m={m}")
    if not psi.is_nontrivial:
        raise ValueError("psi must be a nontrivial additive character")
    if n_terms > traj.period:
        raise ValueError(f"N = {n_terms} exceeds the period t = {traj.period}")
    p = traj.matrix.p
    uv, vv = u.value, v.value
    value = _histogram_sum(_decimated_phases(traj, psi, [(uv, k), (vv, m)], n_terms), p)
    bound = m * math.sqrt(p) * math.log(p)
    params = _matrix_params(traj.matrix, traj.seed)
    params.update(u=uv, v=vv, k=k, m=m)
    return SumReport("correlation", value, n_terms, p, bound, params)


def single_sum(
    traj: Trajectory,
    psi: AdditiveCharacter,
    u: FpElem,
    m: int,
    n_terms: int,
) -> SumReport:
    """sum_{n <= N} psi(u*xi_{mn}) along traj, with reference bound gcd(m, t)*sqrt(p)*log(p)."""
    if not u:
        raise ZeroFrequency("u must be nonzero")
    if m < 1:
        raise BadIndices("m must be >= 1")
    if not psi.is_nontrivial:
        raise ValueError("psi must be a nontrivial additive character")
    if n_terms > traj.period:
        raise ValueError(f"N = {n_terms} exceeds the period t = {traj.period}")
    p = traj.matrix.p
    uv = u.value
    value = _histogram_sum(_decimated_phases(traj, psi, [(uv, m)], n_terms), p)
    bound = math.gcd(m, traj.period) * math.sqrt(p) * math.log(p)
    params = _matrix_params(traj.matrix, traj.seed)
    params.update(u=uv, m=m)
    return SumReport("single", value, n_terms, p, bound, params)


@dataclass(frozen=True)
class RationalFunction:
    """h(X)/g(X) with coefficients low-to-high over F_p or its quadratic extension.

    Trailing zero coefficients are trimmed so leading coefficients are
    nonzero; the zero numerator is allowed and has degree 0 by convention.
    """

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        num = _trim(self.numerator)
        den = _trim(self.denominator)
        if not den:
            raise ValueError("denominator is identically zero")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def deg_num(self) -> int:
        return max(len(self.numerator) - 1, 0)

    @property
    def deg_den(self) -> int:
        return len(self.denominator) - 1

    @property
    def max_degree(self) -> int:
        return max(self.deg_num, self.deg_den)

    def value_at(self, x):
        """h(x)/g(x), or None at poles (g(x) = 0)."""
        den = _horner(self.denominator, x)
        if not den:
            return None
        if not self.numerator:
            return den - den  # zero of the matching field
        return _horner(self.numerator, x) * den.inv()


def _trim(coeffs) -> tuple:
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


_WEIL_FP_LIMIT = 10**5
_WEIL_FP2_LIMIT = 3000


def _horner_fp(coeffs: tuple, x: np.ndarray, p: int) -> np.ndarray:
    """The polynomial with F_p coefficients `coeffs` (low to high) at every entry of x."""
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = (acc * x + c.value) % p
    return acc


def _horner_fp2(coeffs: tuple, z, e: int, p: int):
    """The polynomial with F_{p^2} coefficients `coeffs` at every pair (z0, z1) of z."""
    acc = (np.zeros_like(z[0]), np.zeros_like(z[0]))
    for c in reversed(coeffs):
        a0, a1 = _mul_pairs(acc, z, e, p)
        acc = ((a0 + c.c0.value) % p, (a1 + c.c1.value) % p)
    return acc


def _weil_report(kind: str, angle: np.ndarray, p: int, rf, psi, chi) -> SumReport:
    """One term e^(i angle) per entry; reference bound max(deg g, deg h) * sqrt(p)."""
    params = {"u": psi.u.value}
    if chi is not None:
        params["h"] = chi.multiplier
    value = _weighted_sum(1, np.cos(angle), np.sin(angle))
    return SumReport(kind, value, angle.size, p, rf.max_degree * math.sqrt(p), params)


def weil_sum_fp(
    rf: RationalFunction,
    psi: AdditiveCharacter,
    chi: MultiplicativeCharacter | None = None,
) -> SumReport:
    """Exhaustive hybrid sum over F_p: psi(h(x)/g(x)) chi(x) where g(x) != 0.

    chi = None means no multiplicative twist (the x = 0 term is included);
    a given chi must be a character of the full group F_p^* and contributes
    nothing at x = 0.  Reference bound: max(deg g, deg h) * sqrt(p).
    h and g are evaluated at every x at once on int64 arrays (exact for
    p <= _WEIL_FP_LIMIT); the phase is u*h(x)/g(x) mod p, plus
    multiplier*ind(x) mod p - 1 under chi, and the terms go into one fsum.
    """
    if not psi.is_nontrivial:
        raise ValueError("psi must be a nontrivial additive character")
    p = psi.p
    if p > _WEIL_FP_LIMIT:
        raise RangeGuard(f"exhaustive sum capped at p <= {_WEIL_FP_LIMIT}")
    given = (*rf.numerator, *rf.denominator, *((chi.generator,) if chi is not None else ()))
    if any(getattr(c, "modulus", None) != psi.u.modulus for c in given):
        raise ModulusMismatch("coefficients and chi generator must lie in the field of psi")
    x = np.arange(p, dtype=np.int64)
    den = _horner_fp(rf.denominator, x, p)
    live = den != 0
    if chi is not None:
        if chi.order != p - 1:
            raise ValueError("chi must be a character of the full group F_p^*")
        g = int(chi.generator)
        if g <= 1:
            raise ValueError("chi generator must generate F_p^*")
        ind = np.full(p, -1, dtype=np.int64)  # ind[g^i] = i; ind[0] stays -1
        power = 1
        for i in range(p - 1):
            ind[power] = i
            power = power * g % p
        if (ind[1:] < 0).any():
            raise ValueError("chi generator does not have order p - 1")
        live[0] = False  # chi(0) = 0
    x, den = x[live], den[live]
    val = _horner_fp(rf.numerator, x, p) * _inv_mod(den, p) % p
    angle = _angles(val, p, psi.u.value)
    if chi is not None:
        angle += _angles(ind[x], p - 1, chi.multiplier % (p - 1))
    return _weil_report("weil_fp", angle, p, rf, psi, chi)


def weil_sum_fp2_norm_one(
    rf: RationalFunction,
    psi: AdditiveCharacter,
    chi: MultiplicativeCharacter | None = None,
    generator: Fp2Elem | None = None,
) -> SumReport:
    """Hybrid sum over the norm-one subgroup of an irreducible quadratic extension.

    sum over {z : Nm(z) = 1, g(z) != 0} of psi(Tr(h(z)/g(z))) chi(z); the
    group has p + 1 elements and is enumerated as powers of its canonical
    generator, ascending in the exponent.  Bound: max(deg g, deg h)*sqrt(p).
    The group is held as two int64 coordinate arrays (z = c0 + c1*Z), g(z) is
    inverted through its conjugate and norm, and Tr(c0 + c1*Z) = 2*c0 + e*c1.
    """
    if not psi.is_nontrivial:
        raise ValueError("psi must be a nontrivial additive character")
    ext: QuadExtension = rf.denominator[0].ext
    p = ext.p
    if p > _WEIL_FP2_LIMIT:
        raise RangeGuard(f"norm-one enumeration capped at p <= {_WEIL_FP2_LIMIT}")
    if not ext.is_irreducible:
        raise ReducibleExtension("norm-one sums need an irreducible extension")
    gen = generator if generator is not None else norm_group_generator(ext)
    if any(c.ext != ext for c in (gen, *rf.numerator, *rf.denominator)):
        raise ModulusMismatch("generator and coefficients must lie in one quadratic extension")
    t = p + 1
    chi_shift = 0
    if chi is not None:
        if chi.order != t:
            raise ValueError("chi must be a character of the norm-one group (order p + 1)")
        chi_shift = chi.multiplier * (
            1 if chi.generator == gen else discrete_index(gen, chi.generator, t)
        )
    e = ext.e.value
    z = np.empty((2, t), dtype=np.int64)  # z[:, i] = gen^i
    power = (1, 0)
    for i in range(t):
        z[:, i] = power
        power = _mul_pairs(power, (gen.c0.value, gen.c1.value), e, p)
    if power != (1, 0):
        raise AssertionError("generator does not have order p + 1")
    d0, d1 = _horner_fp2(rf.denominator, z, e, p)
    idx = np.flatnonzero((d0 != 0) | (d1 != 0))
    d0, d1 = d0[idx], d1[idx]
    norm_inv = _inv_mod((d0 * d0 + e * d0 * d1 + d1 * d1) % p, p)
    den_inv = ((d0 + e * d1) * norm_inv % p, -d1 * norm_inv % p)  # conj(g) / Nm(g)
    h0, h1 = _mul_pairs(_horner_fp2(rf.numerator, z[:, idx], e, p), den_inv, e, p)
    angle = _angles((2 * h0 + e * h1) % p, p, psi.u.value)
    if chi is not None:
        angle += _angles(idx, t, chi_shift % t)
    return _weil_report("weil_fp2_norm1", angle, p, rf, psi, chi)
