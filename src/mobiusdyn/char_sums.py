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
any cos/sin, and each component is one exactly rounded sum (exact_sum,
math.fsum's float bit for bit by layered splitting on numpy arrays), so
results do not depend on summation order or thread count.  Beside the
table a sum holds only its weights and block-long temporaries: one sorted
array of N phase numerators for the correlation and single sums, the
residue counts and an int32 snapshot of them per checkpoint for the twisted
sum.  Their exact totals are taken block by block and added as ints before
the one rounding, so the block size changes no bit.  The table
follows the extended scalar map, so orbits through the pole take the same
path.
The correlation and single sums read matrix, seed, period and table from one
Trajectory; the twisted schedule takes (matrix, xi0) and builds only the
orbit prefix it needs, unless it is handed a Trajectory.  It takes mu as
(start, segment) pairs, read through `_prefix_segments` and folded into
its residue counts as they arrive; bsz-report takes its left side from it.
The exhaustive Weil kernels follow the same pattern over all of F_p or the
norm-one group, through one shared pass loop (_weil_sums): exact int64 phase
numerators, then one exactly rounded sum per function and component (_fsums,
segmented over a whole array pass).  Their rational functions hold raw int
coefficients (int pairs over the extension).  Each kernel builds its group
once per batch of functions as the powers of its own canonical generator g
(field_arith.primitive_root or norm_group_generator, through
field_arith._powers), so a multiplicative character is just its multiplier
h, chi(g^i) = e(h*i/|G|), and i is the column; what differs per group is
only the evaluator of a pass (_fp_values on ints, _norm_one_traces on pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arith_fn import ResourceGuard
from .field_arith import (
    _BLOCK,
    _INT64_EXACT,
    _inv_mod,
    _mul_pairs,
    _powers,
    _residues,
    FpElem,
    norm_group_generator,
    primitive_root,
)
from .exact_sum import _ONE, _fsums, _product_total
from .mobius_dynamics import MobiusMatrix, Trajectory, _orbit_prefix
from .mobius_dynamics import period  # noqa: F401  unused here; perfbench's tracer test reads char_sums.period


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


def _unit(angle: np.ndarray) -> np.ndarray:
    """e^(i angle) per entry, with the real part from np.cos and the imaginary from np.sin."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _slices(seq, width: int, budget: int):
    """(start, slice) pairs covering seq, max(1, budget // width) items of width entries each: ~budget a pass."""
    step = max(1, budget // max(width, 1))
    return ((i, seq[i : i + step]) for i in range(0, len(seq), step))


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

    A pair not starting where the last ended raises ValueError, a stream that ends before n ResourceGuard.
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
    raise ResourceGuard(f"need values up to {n}, the segments stop at {done}")


def _twisted_pass(table: np.ndarray, p: int, freqs: Sequence[int], snapshots: list) -> list[list[complex]]:
    """The twisted value of each snapshot of the residue counts at each frequency of freqs, row by row.

    One pass over blocks of r: a block's cos and sin are computed once per
    frequency and weighted by every snapshot; each value is the exact total
    of its blocks (_product_total), rounded once.
    """
    totals = [[[0, 0] for _ in freqs] for _ in snapshots]
    for lo in range(0, max(map(len, snapshots)), _BLOCK):
        for k, u in enumerate(freqs):
            angle = _angles(table[lo : lo + _BLOCK], p, u)
            cos, sin = np.cos(angle), np.sin(angle)
            for row, w in zip(totals, snapshots):
                w = w[lo : lo + _BLOCK]
                row[k][0] += _product_total(w, cos[: w.size])
                row[k][1] += _product_total(w, sin[: w.size])
    return [[complex(re / _ONE, im / _ONE) for re, im in row] for row in totals]


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
    short raise ResourceGuard.
    Each frequency u of frequencies is taken mod p and must be nonzero there.
    The orbit prefix and the counts do not depend on u and are built once.
    The counts are int32 (|c_r| <= N <= 1e9, the sieve's cap); each
    checkpoint keeps a copy of c_0, ..., c_{min(N, t) - 1}, and one pass
    over blocks of r (_twisted_pass) weights them all by each block's cos
    and sin, so no trigonometry runs per checkpoint.
    The snapshots go through a pass early rather than hold more than 16*t
    bytes per frequency, what whole-prefix cos and sin arrays would take.
    The reports come frequency by frequency, each over the whole schedule;
    an empty schedule or no frequency gives [].
    A given traj of the same (matrix, xi0) supplies the prefix from its
    table; without one only the first min(max N, t) terms of the orbit are
    built, their number fixed by ord(theta^2) before the build.
    """
    p = matrix.p
    freqs = [_nonzero_mod(u, p) for u in frequencies]
    if any(n < 1 for n in n_schedule):
        raise ValueError("every checkpoint must be >= 1")
    if list(n_schedule) != sorted(n_schedule):
        raise ValueError("n_schedule must be ascending")
    if not (n_schedule and freqs):
        return []
    n_max = n_schedule[-1]
    if traj is None:
        table = _orbit_prefix(matrix, xi0, n_max)
    elif traj.matrix != matrix or traj.seed != xi0:
        raise ValueError("supplied trajectory belongs to a different instance")
    else:
        table = traj.orbit_table[:n_max]
    t = table.size
    counts = np.zeros(t, dtype=np.int32)
    held, values = [], []  # snapshots not yet through a pass; values[i][k]: checkpoint i, frequency k
    done = taken = 0  # counts hold mu(1..done); the checkpoints before taken are snapshotted
    for start, segment in _prefix_segments(mu, n_max):
        end = done + segment.size
        while taken < len(n_schedule) and n_schedule[taken] <= end:
            n = n_schedule[taken]  # the next checkpoint falls in this segment
            _add_residue_counts(counts, segment[done + 1 - start : n + 1 - start], done)
            done, taken = n, taken + 1
            if sum(map(len, held)) + min(n, t) > 4 * t * len(freqs):  # int32: 16*t bytes per frequency
                values += _twisted_pass(table, p, freqs, held)
                held = []
            held.append(counts[: min(n, t)].copy())
        _add_residue_counts(counts, segment[done + 1 - start :], done)
        done = end
    values += _twisted_pass(table, p, freqs, held)
    params = _matrix_params(matrix, xi0)
    return [
        SumReport("twisted", row[k], n, p, None, dict(params, u=u))
        for k, u in enumerate(freqs)
        for n, row in zip(n_schedule, values)
    ]


def _decimated_phases(traj: Trajectory, psi_u: int, terms: Sequence[tuple[int, int]], n_terms: int) -> np.ndarray:
    """Phase numerators psi_u * sum_j c_j * xi_{s_j n} mod p for n = 1..N, int32 below p = 2^31, else int64.

    terms holds the (c_j, s_j) pairs.  xi_{sn} is orbit-table entry
    (s*n - 1) mod t for every orbit, pole or not (s = 0 mod t reads the last
    entry, xi_t = xi_0).  The array is filled one _BLOCK of n at a time, and
    nothing else N-long is built: per block and term the indices are
    first + s*arange(B), with first reduced mod t as a Python int, so none
    reaches t*B, reduced mod t only in a block that wraps (np.take's
    mode="wrap" subtracts t in a loop, O(index/t) a read).  From p = 2^31 on
    each block's products are taken on Python ints (_residues).
    """
    p = traj.matrix.p
    table = traj.orbit_table
    t = table.size
    live = [(psi_u * coef % p, step % t) for coef, step in terms if coef % p]  # psi_u is a unit mod p
    out = np.empty(n_terms, dtype=np.int32 if p < _INT64_EXACT else np.int64)
    for lo in range(0, n_terms, _BLOCK):
        size = min(_BLOCK, n_terms - lo)
        acc = 0
        for c, s in live:
            first = (s * (lo + 1) - 1) % t  # entry of xi_{s(lo + 1)}
            idx = first + s * np.arange(size)
            if first + s * (size - 1) >= t:
                idx %= t
            acc = (acc + _residues(table[idx], p) * c) % p
        out[lo : lo + size] = acc
    return out


def _decimated_report(kind: str, traj: Trajectory, psi_u: int, terms, n_terms: int, factor: int, **params) -> SumReport:
    """sum_{n <= N} psi_u(sum_j c_j * xi_{s_j n}) for N <= t through the integer histogram of its phases.

    The phase array is sorted in place and read in blocks of about _BLOCK
    entries, each cut at the end of a run of equal phases, so every count is
    whole before it multiplies a cosine; the blocks' exact totals
    (_product_total) are added, then rounded once.
    The reference bound is factor * sqrt(p) * log(p); params join the matrix and seed in the report.
    """
    p = traj.matrix.p
    psi_u = _nonzero_mod(psi_u, p)
    if n_terms > traj.period:
        raise ValueError(f"N = {n_terms} exceeds the period t = {traj.period}")
    phases = _decimated_phases(traj, psi_u, terms, n_terms)
    phases.sort()
    re = im = lo = 0
    while lo < phases.size:
        block = phases[lo : lo + _BLOCK]
        starts = np.flatnonzero(np.r_[True, block[1:] != block[:-1]])
        hi = int(np.searchsorted(phases, block[-1], side="right"))  # the last run may reach past the block
        angle, counts = _angles(block[starts], p), np.diff(starts, append=hi - lo)
        re += _product_total(counts, np.cos(angle))
        im += _product_total(counts, np.sin(angle))
        lo = hi
    bound = factor * math.sqrt(p) * math.log(p)
    params = dict(_matrix_params(traj.matrix, traj.seed), **params)
    return SumReport(kind, complex(re / _ONE, im / _ONE), n_terms, p, bound, params)


def correlation_sum(traj: Trajectory, psi_u: int, u: int, v: int, k: int, m: int, n_terms: int) -> SumReport:
    """sum_{n <= N} psi_u(u*xi_{kn} + v*xi_{mn}) along traj, with reference bound m*sqrt(p)*log(p).

    psi_u, u and v are ints taken mod p; the report records u and v mod p.
    """
    p = traj.matrix.p
    uv, vv = u % p, v % p
    if not (uv or vv):
        raise ValueError("need (u, v) != (0, 0)")
    if not (0 <= k < m):
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    return _decimated_report("correlation", traj, psi_u, [(uv, k), (vv, m)], n_terms, m, u=uv, v=vv, k=k, m=m)


def single_sum(traj: Trajectory, psi_u: int, u: int, m: int, n_terms: int) -> SumReport:
    """sum_{n <= N} psi_u(u*xi_{mn}) along traj, with reference bound gcd(m, t)*sqrt(p)*log(p).

    psi_u and u are ints taken mod p; the report records u mod p.
    """
    uv = u % traj.matrix.p
    if not uv:
        raise ValueError("u must be nonzero")
    if m < 1:
        raise ValueError("m must be >= 1")
    return _decimated_report("single", traj, psi_u, [(uv, m)], n_terms, math.gcd(m, traj.period), u=uv, m=m)


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


def _norm_one_traces(rfs: Sequence[RationalFunction], z: np.ndarray):
    """(live, traces): live[r, i] says g_r(z_i) != 0 for the pair array z, over the functions' (irreducible) extension.

    traces holds Tr(h_r(z_i)/g_r(z_i)) on the live entries in row-major order,
    so row by row, ascending in i.  One 2-D Horner pass evaluates every
    denominator and numerator at every z_i, and every live g_r(z_i) is
    inverted in one _inv_mod call, through its conjugate and norm.
    """
    p, e, k = rfs[0].p, rfs[0].e, len(rfs)
    coeffs = _coefficient_rows([rf.denominator for rf in rfs] + [rf.numerator for rf in rfs], (0, 0))
    acc = (np.zeros((2 * k, z.shape[1]), dtype=np.int64),) * 2
    for j in range(coeffs.shape[1] - 1, -1, -1):
        a0, a1 = _mul_pairs(acc, z, e, p)
        acc = ((a0 + coeffs[:, j, 0, None]) % p, (a1 + coeffs[:, j, 1, None]) % p)
    (d0, h0), (d1, h1) = ((a[:k], a[k:]) for a in acc)
    live = (d0 != 0) | (d1 != 0)
    d0, d1 = d0[live], d1[live]
    norm_inv = _inv_mod((d0 * d0 + e * d0 * d1 + d1 * d1) % p, p)
    den_inv = ((d0 + e * d1) * norm_inv % p, -d1 * norm_inv % p)  # conj(g) / Nm(g)
    h0, h1 = _mul_pairs((h0[live], h1[live]), den_inv, e, p)
    return live, (2 * h0 + e * h1) % p  # Tr(c0 + c1*Z) = 2*c0 + e*c1


def _fp_values(rfs: Sequence[RationalFunction], x: np.ndarray):
    """(live, values) over F_p: live[r, i] says den_r(x_i) != 0, values holds f_r(x_i) on the live entries, row-major.

    One 2-D Horner pass evaluates every denominator and numerator at every
    x_i on int64 arrays (exact for p <= _WEIL_FP_LIMIT), and one _inv_mod
    inverts every live den_r(x_i).
    """
    p, k = rfs[0].p, len(rfs)
    coeffs = _coefficient_rows([rf.denominator for rf in rfs] + [rf.numerator for rf in rfs], 0)
    acc = np.zeros((2 * k, x.size), dtype=np.int64)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        acc = (acc * x + coeffs[:, j, None]) % p
    den, num = acc[:k], acc[k:]
    live = den != 0
    return live, num[live] * _inv_mod(den[live], p) % p


def _weil_sums(kind: str, rfs: list, u: int, h: int | None, cap: tuple[int, str], group, evaluate) -> list[SumReport]:
    """The pass loop of both Weil kernels: one report per function of rfs (nonempty, one field), in order.

    u is taken mod p and must be nonzero there.  cap = (limit, what): p above
    limit raises ResourceGuard before group() builds the points, whose last
    axis is the column i (z_i = g^i under chi, so |G| is its length).  Each
    pass takes at least one and at most _WEIL_PASS // |G| functions, and
    evaluate(rows, points) gives their (live, values), as _fp_values and
    _norm_one_traces do.  One _angles call forms the phases u*value mod p,
    plus h*i mod |G| when h is given, and each row's components are its own
    exactly rounded sums (one segmented _fsums per component), so a report
    does not depend on the rest of rfs.  Reference bound
    max(deg num, deg den) * sqrt(p).
    """
    p = rfs[0].p
    u = _nonzero_mod(u, p)
    limit, what = cap
    if p > limit:
        raise ResourceGuard(f"{what} capped at p <= {limit}")
    points = group()
    size = points.shape[-1]
    params = {"u": u} if h is None else {"u": u, "h": h}
    out = []
    for _, rows in _slices(rfs, size, _WEIL_PASS):
        live, values = evaluate(rows, points)
        angle = _angles(values, p, u)
        if h is not None:
            angle += _angles(np.nonzero(live)[1], size, h % size)
        lengths = live.sum(axis=1)
        for rf, n, re, im in zip(rows, lengths.tolist(), _fsums(np.cos(angle), lengths), _fsums(np.sin(angle), lengths)):
            out.append(SumReport(kind, complex(re, im), n, p, rf.max_degree * math.sqrt(p), dict(params)))
    return out


def weil_sum_fp(rfs: Sequence[RationalFunction], u: int, h: int | None = None) -> list[SumReport]:
    """Exhaustive hybrid sums over F_p, one report per function, in order.

    For each f = num/den of rfs, all over one F_p (ValueError otherwise):
    the sum of psi_u(f(x)) chi(x) over the x with den(x) != 0, with u taken
    mod p and nonzero there; an empty rfs gives [].
    h = None means no twist (x = 0 included); otherwise chi(g^i) = e(h*i/(p - 1))
    for g = primitive_root(p), x runs over g^0, ..., g^(p-2) and i is the
    column.  Bound and array passes as in _weil_sums, the values from _fp_values.
    """
    rfs = list(rfs)
    if not rfs:
        return []
    p = rfs[0].p
    if any((rf.p, rf.e) != (p, None) for rf in rfs):
        raise ValueError(f"every function must be over F_{p}, the field of the first")

    def group():  # x[i] = g^i under chi
        return np.arange(p, dtype=np.int64) if h is None else _powers((primitive_root(p), 0), p - 1, 0, p)[0]

    return _weil_sums("weil_fp", rfs, u, h, (_WEIL_FP_LIMIT, "exhaustive sum"), group, _fp_values)


def weil_sum_fp2_norm_one(rfs: Sequence[RationalFunction], u: int, h: int | None = None) -> list[SumReport]:
    """Hybrid sums over the norm-one subgroup of an irreducible quadratic extension.

    For each f = num/den of rfs, in order: the sum over {z : Nm(z) = 1,
    den(z) != 0} of psi_u(Tr(f(z))) chi(z).  All functions share one extension
    F_p[Z]/(Z^2 - e*Z + 1) (ValueError otherwise, as for a reducible one),
    and u is taken mod p and nonzero there; an empty rfs gives [].
    The group is the (2, p + 1) pair array of _powers, z_i = g^i for
    g = norm_group_generator(e, p), built once per call.  h = None means no
    twist; otherwise chi(g^i) = e(h*i/(p + 1)).  Bound and array passes as
    in _weil_sums, the traces from _norm_one_traces.
    """
    rfs = list(rfs)
    if not rfs:
        return []
    p, e = rfs[0].p, rfs[0].e
    if e is None or any((rf.p, rf.e) != (p, e) for rf in rfs):
        raise ValueError(f"every function must be over one quadratic extension of F_{p}, that of the first")

    def group():
        return _powers(norm_group_generator(e, p), p + 1, e, p)

    return _weil_sums("weil_fp2_norm1", rfs, u, h, (_WEIL_FP2_LIMIT, "norm-one enumeration"), group, _norm_one_traces)
