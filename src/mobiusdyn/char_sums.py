"""Exponential sums along the map's trajectories, paired with reference bounds.

Every public entry point returns a SumReport carrying the complex value, the
bound it is measured against (square-root-of-p type, with the implied
constant set to 1 and natural log), and the empirical ratio.  Bounds are
recorded, never asserted here; the safety envelopes live in the test suite.

Every kernel takes an additive character psi_u(x) = e(u*x/p) as its int
frequency u (a list of them for the twisted schedule), reduces it mod p once
and refuses u = 0 mod p with a ValueError.  The Weil kernels take p from
their functions' shared field.

The trajectory kernels rest on one periodic reduction.  An orbit has period
t <= p + 1, so every term is the phase of one of the orbit-table entries
xi_1, ..., xi_t (xi_t = xi_0), and xi_{kn} is entry (k*n - 1) mod t.  A sum
is then exact integer weights times at most t fixed phases: Mobius residue
counts for the twisted sum, the histogram of the F_p arguments for the
correlation and single sums.  Phases are reduced as exact integers before
any cos/sin, and each component is one exactly rounded sum (_fsum, which
returns math.fsum's float bit for bit by layered splitting on numpy arrays),
so results do not depend on summation order or thread count.  The table
follows the extended scalar map, so orbits through the pole take the same
path.
The correlation and single sums read matrix, seed, period and table from one
Trajectory; the twisted schedule takes (matrix, xi0) and builds only the
orbit prefix it needs, unless it is handed a Trajectory.  It takes mu as
(start, segment) pairs, read through `_prefix_segments` (as bsz_harness
reads nu) and folded into its residue counts as they arrive.
The exhaustive Weil kernels follow the same pattern over all of F_p or the
norm-one group: exact int64 phase numerators, then one exactly rounded sum
per function and component (_fsums, segmented over a whole array pass).
Their rational functions hold raw int coefficients (int pairs over the
extension).  Each kernel builds its group once per batch of functions as the
powers of its own canonical generator g (field_arith.primitive_root or
norm_group_generator, through field_arith._powers), so a multiplicative
character is just its multiplier h, chi(g^i) = e(h*i/|G|), and i is the
column; 2-D array passes evaluate the functions, and each row's sum is its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arith_fn import TableTooSmall
from .field_arith import (
    _BLOCK,
    _inv_mod,
    _mul_pairs,
    _powers,
    _residues,
    FpElem,
    ModulusMismatch,
    norm_group_generator,
    primitive_root,
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


def _nonzero_mod(u: int, p: int) -> int:
    """u mod p, the frequency of psi_u(x) = e(u*x/p); refuses the trivial character u = 0 mod p."""
    u %= p
    if not u:
        raise ValueError("psi_u must be a nontrivial additive character: u = 0 mod p")
    return u


_TWO_PI = 2.0 * math.pi

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
    """2*pi*(coef*num mod den)/den per entry: the angle of e(coef*num/den).

    Each numerator is reduced as an exact integer before the division; the
    entries go through in blocks, so Python-int temporaries stay small.
    """
    frac = np.empty(nums.size)
    for i in range(0, nums.size, _BLOCK):
        frac[i : i + _BLOCK] = _residues(nums[i : i + _BLOCK], den) * coef % den / den
    return _TWO_PI * frac


_ONE = 1 << 1074  # exact totals are ints in units of 2^-1074, the least subnormal


def _exact_totals(x: np.ndarray, starts: np.ndarray, bits: int) -> list[int]:
    """Exact sums of the segments of x that begin at starts, as ints in units of 2^-1074.

    starts ascend and lie below x.size; each segment runs to the next start
    (the last to the end of x) and has fewer than 2^bits terms.
    Layered splitting (Rump, Ogita and Oishi, Accurate floating-point
    summation I, 2008): with 2^e > max|x|, sigma = 2^(e + bits + 1) makes
    q = (sigma + x) - sigma a multiple of the unit 2^(e + bits - 52), and
    x - q exact and at most one unit.  Every partial sum of q is then a
    multiple of the unit below 2^52 units, so np.add.reduceat adds each
    segment's q exactly, in any order; the residuals go round again, with
    2^e one unit, until none is left.  x is overwritten.  A nonfinite term,
    or one of magnitude 2^(1022 - bits) or more (sigma would overflow),
    raises ValueError.
    """
    totals = [0] * starts.size
    top = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
    if not top:
        return totals
    if not top < math.ldexp(1.0, 1022 - bits):  # also refuses inf and nan
        raise ValueError(f"exact sum needs every term finite and below 2**{1022 - bits} in magnitude")
    e = math.frexp(top)[1]
    q = np.empty_like(x)
    while True:
        unit = max(e + bits - 52, -1074)
        sigma = math.ldexp(1.0, e + bits + 1)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        sums = np.ldexp(np.add.reduceat(q, starts), -unit).astype(np.int64).tolist()
        for i, s in enumerate(sums):
            totals[i] += s << (unit + 1074)
        if not x.any():
            return totals
        e = unit + 1


_FIRST = np.zeros(1, dtype=np.int64)  # the one start of an unsegmented sum


def _fsums(x: np.ndarray, lengths: Sequence[int]) -> list[float]:
    """math.fsum of each consecutive segment of x with the given lengths, bit for bit.

    lengths sum to x.size, and an empty segment sums to 0.0; x is
    overwritten.  Each exact total is rounded once, by int true division,
    so a zero total is +0.0.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    live = np.flatnonzero(lengths)  # np.add.reduceat would give an empty segment x[start]
    starts = (np.cumsum(lengths) - lengths)[live]
    out = [0.0] * lengths.size
    totals = _exact_totals(x, starts, int(lengths.max(initial=0)).bit_length())
    for i, total in zip(live.tolist(), totals):
        out[i] = total / _ONE
    return out


def _fsum(values: np.ndarray, weights=1) -> float:
    """math.fsum of weights * values, bit for bit: the exactly rounded sum of the rounded products.

    The products are formed and summed one _BLOCK at a time, so no
    full-length temporary is held; weights broadcast against values.
    """
    w = np.broadcast_to(weights, values.shape)
    total = 0
    for i in range(0, values.size, _BLOCK):
        block = w[i : i + _BLOCK] * values[i : i + _BLOCK]
        total += _exact_totals(block, _FIRST, block.size.bit_length())[0]
    return total / _ONE


def _unit(angle: np.ndarray) -> np.ndarray:
    """e^(i angle) per entry, with the real part from np.cos and the imaginary from np.sin."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _weighted_sum(weights, cos: np.ndarray, sin: np.ndarray) -> complex:
    """sum_r weights[r] * (cos[r] + i sin[r]) with one exactly rounded _fsum per component."""
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


def _prefix_segments(pairs: Iterable[tuple[int, np.ndarray]], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, segment) pairs of f(1), f(2), ... cut at f(n), drawn no further.

    A pair not starting where the last ended raises ValueError, a stream that ends before n TableTooSmall.
    """
    done = 0
    for start, segment in pairs:
        if start != done + 1:
            raise ValueError(f"a segment starts at {start}, not at {done + 1}")
        segment = segment[: n + 1 - start]
        yield start, segment
        done += segment.size
        if done == n:
            return
    raise TableTooSmall(f"need values up to {n}, the segments stop at {done}")


def twisted_sum_schedule(
    matrix: MobiusMatrix,
    xi0: FpElem,
    frequencies: Sequence[int],
    n_schedule: Sequence[int],
    mu: Iterable[tuple[int, np.ndarray]],
    traj: Trajectory | None = None,
) -> list[SumReport]:
    """The twisted sum at each checkpoint N of an ascending schedule.

    S(N) = sum_r c_r(N) psi_u(xi_{r+1}), where c_r(N) is the sum of mu(n)
    over n <= N with n - 1 = r mod t and t is the period (or max N when the
    orbit is longer).  The counts are exact integers that grow checkpoint by
    checkpoint, so every prefix report equals a standalone run at that N.
    mu is mu(1..) as (start, segment) pairs in order, each starting where
    the last ended, such as arith_fn.mobius_segments(max N) or
    MobiusTable.slices: each segment is folded into the counts as it
    arrives, split at the checkpoints inside it, and the pairs are drawn
    only up to max N, so mu(1..N) is never held whole.  Pairs that stop
    short raise TableTooSmall.
    Each frequency u of frequencies is taken mod p and must be nonzero there.
    The orbit prefix and the counts do not depend on u and are built once;
    the reports come frequency by frequency, each over the whole schedule.
    A given traj of the same (matrix, xi0) supplies the prefix from its
    table; without one only the first max N terms of the orbit are built, so
    a twisted-only scan needs neither the full period nor ord(theta^2).
    """
    p = matrix.p
    freqs = [_nonzero_mod(u, p) for u in frequencies]
    if any(n < 1 for n in n_schedule):
        raise ValueError("every checkpoint must be >= 1")
    if list(n_schedule) != sorted(n_schedule):
        raise ValueError("n_schedule must be ascending")
    if not n_schedule:
        return []
    n_max = n_schedule[-1]
    if traj is None:
        table = _orbit_prefix(matrix, xi0, n_max)
    elif traj.matrix != matrix or traj.seed != xi0:
        raise ValueError("supplied trajectory belongs to a different instance")
    else:
        table = traj.orbit_table[:n_max]
    trig = [(np.cos(angle), np.sin(angle)) for angle in (_angles(table, p, u) for u in freqs)]
    counts = np.zeros(table.size, dtype=np.int64)
    done = 0  # counts hold mu(1..done)
    values = []  # values[i][k]: checkpoint i, frequency k
    for start, segment in _prefix_segments(mu, n_max):
        end = done + segment.size
        while len(values) < len(n_schedule) and n_schedule[len(values)] <= end:
            n = n_schedule[len(values)]  # the next checkpoint falls in this segment
            _add_residue_counts(counts, segment[done + 1 - start : n + 1 - start], done)
            done = n
            values.append([_weighted_sum(counts, cos, sin) for cos, sin in trig])
        _add_residue_counts(counts, segment[done + 1 - start :], done)
        done = end
    params = _matrix_params(matrix, xi0)
    return [
        SumReport("twisted", row[k], n, p, None, dict(params, u=u))
        for k, u in enumerate(freqs)
        for n, row in zip(n_schedule, values)
    ]


def _decimated_phases(traj: Trajectory, psi_u: int, terms: Sequence[tuple[int, int]], n_terms: int) -> np.ndarray:
    """Phase numerators psi_u * sum_j c_j * xi_{s_j n} mod p for n = 1..N.

    terms holds the (c_j, s_j) pairs.  xi_{sn} is orbit-table entry
    (s*n - 1) mod t for every orbit, pole or not, so each term's indices are
    one strided arange, reduced mod t unless s = 1 (N <= t); s = 0 mod t is
    the constant index -1, the last entry xi_t = xi_0.  (s mod t)*N <= t^2
    stays inside int64 for every period whose table fits in memory.
    """
    p = traj.matrix.p
    table = _residues(traj.orbit_table, p)
    t = table.size
    acc = np.zeros(n_terms, dtype=table.dtype)
    for coef, step in terms:
        c = psi_u * coef % p
        if not c:
            continue
        s = step % t
        if not s:
            acc += c * table[-1] % p
        else:
            idx = np.arange(s - 1, s * n_terms, s)
            if s > 1:
                idx %= t
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


def correlation_sum(traj: Trajectory, psi_u: int, u: int, v: int, k: int, m: int, n_terms: int) -> SumReport:
    """sum_{n <= N} psi_u(u*xi_{kn} + v*xi_{mn}) along traj, with reference bound m*sqrt(p)*log(p).

    psi_u, u and v are ints taken mod p; the report records u and v mod p.
    """
    p = traj.matrix.p
    uv, vv = u % p, v % p
    if not (uv or vv):
        raise BothFrequenciesZero("need (u, v) != (0, 0)")
    if not (0 <= k < m):
        raise BadIndices(f"need 0 <= k < m, got k={k}, m={m}")
    psi_u = _nonzero_mod(psi_u, p)
    if n_terms > traj.period:
        raise ValueError(f"N = {n_terms} exceeds the period t = {traj.period}")
    value = _histogram_sum(_decimated_phases(traj, psi_u, [(uv, k), (vv, m)], n_terms), p)
    bound = m * math.sqrt(p) * math.log(p)
    params = _matrix_params(traj.matrix, traj.seed)
    params.update(u=uv, v=vv, k=k, m=m)
    return SumReport("correlation", value, n_terms, p, bound, params)


def single_sum(traj: Trajectory, psi_u: int, u: int, m: int, n_terms: int) -> SumReport:
    """sum_{n <= N} psi_u(u*xi_{mn}) along traj, with reference bound gcd(m, t)*sqrt(p)*log(p).

    psi_u and u are ints taken mod p; the report records u mod p.
    """
    p = traj.matrix.p
    uv = u % p
    if not uv:
        raise ZeroFrequency("u must be nonzero")
    if m < 1:
        raise BadIndices("m must be >= 1")
    psi_u = _nonzero_mod(psi_u, p)
    if n_terms > traj.period:
        raise ValueError(f"N = {n_terms} exceeds the period t = {traj.period}")
    value = _histogram_sum(_decimated_phases(traj, psi_u, [(uv, m)], n_terms), p)
    bound = math.gcd(m, traj.period) * math.sqrt(p) * math.log(p)
    params = _matrix_params(traj.matrix, traj.seed)
    params.update(u=uv, m=m)
    return SumReport("single", value, n_terms, p, bound, params)


@dataclass(frozen=True)
class RationalFunction:
    """h(X)/g(X) with coefficients low to high, over F_p or over F_p[Z]/(Z^2 - e*Z + 1).

    Over F_p (e is None) the coefficients are ints; over the extension they
    are (c0, c1) int pairs.  They are reduced mod p and trailing zeros are
    trimmed, so leading coefficients are nonzero; the zero numerator is
    allowed and has degree 0 by convention.
    """

    numerator: tuple
    denominator: tuple
    p: int
    e: int | None = None

    def __post_init__(self):
        p, e = self.p, self.e
        if e is not None:
            object.__setattr__(self, "e", int(e) % p)
        for name in ("numerator", "denominator"):
            coeffs = [int(c) % p if e is None else (int(c[0]) % p, int(c[1]) % p) for c in getattr(self, name)]
            while coeffs and coeffs[-1] in (0, (0, 0)):
                coeffs.pop()
            object.__setattr__(self, name, tuple(coeffs))
        if not self.denominator:
            raise ValueError("denominator is identically zero")

    @property
    def max_degree(self) -> int:  # max(deg h, deg g); the denominator is never empty
        return max(len(self.numerator), len(self.denominator)) - 1


_WEIL_FP_LIMIT = 10**5
_WEIL_FP2_LIMIT = 3000
# function-by-point entries per array pass of the Weil kernels: on the shipped weil-check,
# 2^12 ran as fast as 2^20 and kept the peak RSS at the per-function kernels' level
_WEIL_PASS = 1 << 12


def _coefficient_rows(polys: Sequence[tuple], zero) -> np.ndarray:
    """polys as one int64 array of rows, low to high, padded with zero (0 or (0, 0)) on the high side."""
    width = max(map(len, polys), default=0)
    return np.array([(*c, *(zero,) * (width - len(c))) for c in polys], dtype=np.int64)


def _horner_fp(polys: Sequence[tuple], x: np.ndarray, p: int) -> np.ndarray:
    """Row r: the F_p polynomial polys[r] at every entry of x."""
    coeffs = _coefficient_rows(polys, 0)
    acc = np.zeros((len(polys), x.size), dtype=np.int64)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        acc = (acc * x + coeffs[:, j, None]) % p
    return acc


def _horner_fp2(polys: Sequence[tuple], z: np.ndarray, e: int, p: int):
    """Row r of each coordinate: the F_{p^2} polynomial polys[r] at every pair (z0, z1) of z."""
    coeffs = _coefficient_rows(polys, (0, 0))
    zero = np.zeros((len(polys), z.shape[1]), dtype=np.int64)
    acc = (zero, zero)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        a0, a1 = _mul_pairs(acc, z, e, p)
        acc = ((a0 + coeffs[:, j, 0, None]) % p, (a1 + coeffs[:, j, 1, None]) % p)
    return acc


def _norm_one_traces(rfs: Sequence[RationalFunction], z: np.ndarray, e: int, p: int):
    """(live, traces): live[r, i] says g_r(z_i) != 0 for the pair array z (irreducible ext).

    traces holds Tr(h_r(z_i)/g_r(z_i)) on the live entries in row-major order,
    so row by row, ascending in i.  Every live g_r(z_i) is inverted in one
    _inv_mod call, through its conjugate and norm.
    """
    d0, d1 = _horner_fp2([rf.denominator for rf in rfs], z, e, p)
    live = (d0 != 0) | (d1 != 0)
    d0, d1 = d0[live], d1[live]
    norm_inv = _inv_mod((d0 * d0 + e * d0 * d1 + d1 * d1) % p, p)
    den_inv = ((d0 + e * d1) * norm_inv % p, -d1 * norm_inv % p)  # conj(g) / Nm(g)
    h0, h1 = _horner_fp2([rf.numerator for rf in rfs], z, e, p)
    h0, h1 = _mul_pairs((h0[live], h1[live]), den_inv, e, p)
    return live, (2 * h0 + e * h1) % p  # Tr(c0 + c1*Z) = 2*c0 + e*c1


def _passes(rfs: list, points: int):
    """rfs in consecutive slices of at most _WEIL_PASS // points functions (at least one)."""
    step = max(1, _WEIL_PASS // points)
    return (rfs[i : i + step] for i in range(0, len(rfs), step))


def _weil_reports(kind: str, angle: np.ndarray, live: np.ndarray, p: int, rfs, u: int, h) -> list[SumReport]:
    """One report per row of live: its live terms e^(i angle), taken from angle in row-major order.

    Each row's components are its own exactly rounded sums (one segmented
    _fsums call per component over the whole pass), so a report does not
    depend on the other functions of its pass.  Reference bound
    max(deg num, deg den) * sqrt(p).
    """
    params = {"u": u}
    if h is not None:
        params["h"] = h
    lengths = live.sum(axis=1)
    rows = zip(rfs, lengths.tolist(), _fsums(np.cos(angle), lengths), _fsums(np.sin(angle), lengths))
    return [
        SumReport(kind, complex(re, im), n, p, rf.max_degree * math.sqrt(p), dict(params)) for rf, n, re, im in rows
    ]


def weil_sum_fp(rfs: Sequence[RationalFunction], u: int, h: int | None = None) -> list[SumReport]:
    """Exhaustive hybrid sums over F_p, one report per function, in order.

    For each f = num/den of rfs, all over one F_p (ModulusMismatch otherwise):
    the sum of psi_u(f(x)) chi(x) over the x with den(x) != 0, with u taken
    mod p and nonzero there; an empty rfs gives [].
    h = None means no twist (x = 0 included); otherwise chi(g^i) = e(h*i/(p - 1))
    for g = primitive_root(p), x runs over g^0, ..., g^(p-2) and i is the
    column.  Reference bound: max(deg num, deg den) * sqrt(p).  Each array
    pass takes a slice of at least one and at most _WEIL_PASS // p functions:
    one 2-D Horner pass per side on int64 arrays (exact for
    p <= _WEIL_FP_LIMIT), one _inv_mod for every live den(x), one _angles
    call for the phases u*f(x) mod p (plus h*i mod p - 1 under chi).  Each
    function's terms go into their own exactly rounded sums, so its report
    does not depend on the rest of rfs.
    """
    rfs = list(rfs)
    if not rfs:
        return []
    p = rfs[0].p
    if any((rf.p, rf.e) != (p, None) for rf in rfs):
        raise ModulusMismatch(f"every function must be over F_{p}, the field of the first")
    u = _nonzero_mod(u, p)
    if p > _WEIL_FP_LIMIT:
        raise RangeGuard(f"exhaustive sum capped at p <= {_WEIL_FP_LIMIT}")
    if h is None:
        x = np.arange(p, dtype=np.int64)
    else:
        x = _powers((primitive_root(p), 0), p - 1, 0, p)[0]  # x[i] = g^i
    out = []
    for rows in _passes(rfs, x.size):
        den = _horner_fp([rf.denominator for rf in rows], x, p)
        live = den != 0
        num = _horner_fp([rf.numerator for rf in rows], x, p)
        angle = _angles(num[live] * _inv_mod(den[live], p) % p, p, u)
        if h is not None:
            angle += _angles(np.nonzero(live)[1], p - 1, h % (p - 1))
        out += _weil_reports("weil_fp", angle, live, p, rows, u, h)
    return out


def weil_sum_fp2_norm_one(rfs: Sequence[RationalFunction], u: int, h: int | None = None) -> list[SumReport]:
    """Hybrid sums over the norm-one subgroup of an irreducible quadratic extension.

    For each f = num/den of rfs, in order: the sum over {z : Nm(z) = 1,
    den(z) != 0} of psi_u(Tr(f(z))) chi(z).  All functions share one extension
    F_p[Z]/(Z^2 - e*Z + 1) (ModulusMismatch otherwise), and u is taken mod p
    and nonzero there; an empty rfs gives [].
    The group is the (2, p + 1) pair array of _powers, z_i = g^i for
    g = norm_group_generator(e, p), built once per call.  h = None means no
    twist; otherwise chi(g^i) = e(h*i/(p + 1)).  Bound and array passes as
    in weil_sum_fp, with the traces from one _norm_one_traces call per pass.
    """
    rfs = list(rfs)
    if not rfs:
        return []
    p, e = rfs[0].p, rfs[0].e
    if e is None or any((rf.p, rf.e) != (p, e) for rf in rfs):
        raise ModulusMismatch(f"every function must be over one quadratic extension of F_{p}, that of the first")
    u = _nonzero_mod(u, p)
    if p > _WEIL_FP2_LIMIT:
        raise RangeGuard(f"norm-one enumeration capped at p <= {_WEIL_FP2_LIMIT}")
    t = p + 1
    z = _powers(norm_group_generator(e, p), t, e, p)  # z[:, i] = g^i
    out = []
    for rows in _passes(rfs, t):
        live, trace = _norm_one_traces(rows, z, e, p)
        angle = _angles(trace, p, u)
        if h is not None:
            angle += _angles(np.nonzero(live)[1], t, h % t)
        out += _weil_reports("weil_fp2_norm1", angle, live, p, rows, u, h)
    return out
