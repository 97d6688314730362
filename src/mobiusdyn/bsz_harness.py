"""Executable Katai / Bourgain-Sarnak-Ziegler sieve machinery.

Given a bounded multiplicative function nu and a bounded periodic function F,
the criterion controls sum nu(n)F(n) through prime blocks P_j (primes in
[R_j, R_{j+1}) with R_j = (1+alpha)^j), sieve sets Q_j (integers up to
M_j = N/R_{j+1} with no prime factor in the blocks so far), and the block
sums W_j = sum_{m in Q_j} |sum_{r in P_j} nu(r) F(m r)|.

The block index j runs over the integers in [j0, j1] with
j0 = (log(1/alpha))^3/alpha and j1 = j0^2 (natural logs, endpoints compared
as reals, never rounded when forming R_j).  Blocks with M_j < 1 have empty
Q_j and contribute nothing to any sum or cardinality count, so block
materialisation stops at the last j with R_{j+1} <= N; for realistic alpha
the nominal upper end j1 sits astronomically beyond that point.

F arrives as the phases of one period, F(n) = phase[(n - 1) % t], and nu
as (start, segment) pairs, as the twisted-sum kernel takes mu.  nu = mu and
nu = 1 are +-1 with one sign on every prime, so W_j never reads nu and is a
batch of numpy gathers; the left side folds the segments into integer
residue counts over the period, weighted by the phases.

Inequalities with unspecified constants are evaluated with the constant set
to 1 and reported as two-sided numbers, never hard-asserted.

The two reports are the JSON objects `bsz_report.json` holds, built once:
`decomposition_report` returns {schema_version, params, rows, aggregates},
one row per block and the left side, sum W_j, quotient and product counts in
aggregates; `theorem_conditions` returns {alpha, n, p, t, epsilon, rho,
alpha_range_empty, conditions}, one {name, lhs, rhs, holds, log_scale} per
inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith_fn import primes_in
from .char_sums import _add_residue_counts, _fsum, _fsums, _prefix_segments, _weighted_sum


class CollisionFound(AssertionError):
    """Two block products m*r coincide; indicates an implementation bug."""


class MemoryGuard(ValueError):
    """Sieve-set range exceeds the desk-scale memory budget."""


_SIEVE_SET_LIMIT = 10**8  # the largest M_j whose exclusion array sieve_sets allocates
_GATHER = 1 << 16  # entries per gathered chunk of products


@dataclass(frozen=True)
class BszParams:
    """Parameter schedule: alpha, the sum length n, and the block range [j0, j1]."""

    alpha: float
    n: int
    j0: float
    j1: float

    def r(self, j: int) -> float:
        return (1.0 + self.alpha) ** j

    def m(self, j: int) -> float:
        return self.n / self.r(j + 1)

    @property
    def j_range(self) -> range:
        """Integers j with j0 <= j <= j1 (real comparison of the endpoints)."""
        lo = math.ceil(self.j0)
        hi = math.floor(self.j1)
        return range(lo, hi + 1)


def make_params(alpha: float, n: int) -> BszParams:
    """j0 = (log(1/alpha))^3/alpha, j1 = j0^2, natural logs."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if n < 1:
        raise ValueError("n must be positive")
    j0 = math.log(1.0 / alpha) ** 3 / alpha
    return BszParams(alpha, n, j0, j0 * j0)


@dataclass(frozen=True, eq=False)
class PrimeBlock:
    """Ascending primes in [R_j, R_{j+1}), an int64 array as primes_in returns it."""

    j: int
    primes: np.ndarray


@dataclass(frozen=True, eq=False)
class SieveSet:
    """Ascending m <= M_j with no prime factor in the union of blocks up to j, as int64."""

    j: int
    members: np.ndarray


def prime_blocks(params: BszParams) -> list[PrimeBlock]:
    """Materialise the blocks whose sieve sets can be nonempty.

    Blocks with R_{j+1} > N have M_j < 1, hence empty Q_j and zero
    contribution everywhere, so enumeration stops there.
    """
    blocks: list[PrimeBlock] = []
    for j in params.j_range:
        hi = params.r(j + 1)
        if hi > params.n:
            break
        blocks.append(PrimeBlock(j, primes_in(params.r(j), hi)))
    return blocks


def sieve_sets(params: BszParams, blocks: Sequence[PrimeBlock]) -> list[SieveSet]:
    """Q_j for each block, excluding multiples of every prime seen in blocks <= j.

    One boolean exclusion array up to the largest M_j, marked cumulatively
    block by block and snapshotted after each block's primes are added.
    """
    if not blocks:
        return []
    m_max = math.floor(params.m(blocks[0].j))
    if m_max > _SIEVE_SET_LIMIT:
        raise MemoryGuard(f"sieve range {m_max} exceeds {_SIEVE_SET_LIMIT}")
    excluded = np.zeros(m_max + 1, dtype=bool)
    out: list[SieveSet] = []
    for block in blocks:
        for r in block.primes[block.primes <= m_max]:
            excluded[r::r] = True
        m_j = math.floor(params.m(block.j))
        out.append(SieveSet(block.j, np.flatnonzero(~excluded[1 : m_j + 1]) + 1))
    return out


@dataclass(frozen=True)
class DistinctProductsReport:
    """Exact-integer audit of the products m*r across the whole schedule: all distinct, all <= N."""

    total_products: int


def _chunks(rows: np.ndarray, width: int):
    """(start, slice) pairs covering rows, each slice about _GATHER // width long."""
    step = max(1, _GATHER // max(width, 1))
    for i in range(0, rows.size, step):
        yield i, rows[i : i + step]


def distinct_products_check(
    blocks: Sequence[PrimeBlock], sets: Sequence[SieveSet], n: int
) -> DistinctProductsReport:
    """Verify the products m*r are pairwise distinct, all <= n, and count them.

    Every product is marked in a bitmap over 0..n.  The bitmap then holds one
    mark per distinct product and the total counts every product, so the two
    counts agree exactly when no product repeats, inside a chunk, a block or
    across blocks.  Only when they differ are the products sorted, to name
    the smallest repeated one.  A collision is reported before the budget
    sum #P_j #Q_j <= n is checked.
    """
    seen = np.zeros(n + 1, dtype=bool)
    pairs = []
    total = 0
    for block, qset in zip(blocks, sets):
        primes, members = block.primes, qset.members
        if not (primes.size and members.size):
            continue
        if min(primes.min(), members.min()) < 0:
            raise AssertionError(f"block {block.j} has a negative factor")
        m_hi, r_hi = int(members.max()), int(primes.max())
        if m_hi * r_hi > n:
            raise AssertionError(f"product {m_hi}*{r_hi} exceeds N = {n}")
        for _, chunk in _chunks(members, primes.size):
            seen[np.multiply.outer(chunk, primes)] = True
        pairs.append((members, primes))
        total += primes.size * members.size
    if np.count_nonzero(seen) != total:
        prods = np.sort(np.concatenate([np.multiply.outer(m, r).ravel() for m, r in pairs]))
        repeat = prods[1:][prods[1:] == prods[:-1]]
        raise CollisionFound(f"product {repeat[0]} produced twice")
    if total > n:
        raise AssertionError(f"sum #P_j #Q_j = {total} exceeds N = {n}")
    return DistinctProductsReport(total)


def _check_phase(phase: np.ndarray) -> None:
    """|F| <= 1 on every entry of one nonempty period, the criterion's hypothesis on F."""
    if phase.ndim != 1 or phase.size == 0:
        raise ValueError("the phase array must be one nonempty period")
    size = np.abs(phase)
    if size.max() > 1.0 + 1e-9:
        bad = int(size.argmax())
        raise ValueError(f"|F({bad + 1})| = {size[bad]} exceeds 1")


def wj_sums(phase: np.ndarray, blocks: Sequence[PrimeBlock], sets: Sequence[SieveSet]) -> list[float]:
    """W_j = sum_{m in Q_j} |sum_{r in P_j} nu(r) F(m r)| for each block.

    nu must be +-1 with one sign on every prime, as mu and 1 are: then the
    inner sum is +-sum_r F(mr), whose rounded value only changes sign, so nu
    is not read.  F(n) = phase[(n - 1) % t] with t = len(phase) and |F| <= 1,
    which is checked on every entry.
    The inner sum depends on m only through m mod t: when Q_j has more
    members than there are residues, W_j = sum_s count_j(s) |inner(s)| over
    the residues s that occur.  Residues are reduced before multiplying, so
    the gathered indices (m mod t)(r mod t) stay exact in int64; the index
    (mr - 1) mod t is formed as idx - (idx // t) t, the same integer as
    idx % t.  Each W_j is the exactly rounded sum of its terms, all blocks in
    one segmented _fsums.
    """
    _check_phase(phase)
    t = phase.size
    terms = []  # terms[j]: count_j(s) |inner(s)| for each residue s of block j
    for block, qset in zip(blocks, sets):
        r_res = block.primes % t
        m_res = qset.members % t
        counts = 1
        if m_res.size > t:
            counts = np.bincount(m_res, minlength=t)
            m_res = np.flatnonzero(counts)
            counts = counts[m_res]
        inner = np.empty(m_res.size)
        for i, chunk in _chunks(m_res, r_res.size):
            idx = np.multiply.outer(chunk, r_res)
            idx -= 1
            idx -= idx // t * t  # idx %= t, but numpy's int64 floor division by a scalar is faster
            inner[i : i + chunk.size] = np.abs(phase[idx].sum(axis=1))
        terms.append(counts * inner)
    return _fsums(np.concatenate([np.empty(0), *terms]), [len(w) for w in terms])


def decomposition_report(
    nu: Iterable[tuple[int, np.ndarray]], phase: np.ndarray, n: int, alpha: float, period: int
) -> dict:
    """Compute the left side, every W_j, and the empirical decomposition quotient.

    nu is nu(1..) as (start, segment) pairs, read up to N as
    twisted_sum_schedule reads mu, and each segment is refused unless it lies
    in {-1, 0, 1}; it must also meet wj_sums' rule on the primes.  phase is
    as in wj_sums; period is the orbit period recorded in the report.  The
    left side is sum_s c_s F(s + 1) with the exact integer residue counts
    c_s = sum_{n <= N, n - 1 = s mod t} nu(n) and one exactly rounded sum per
    component.
    quotient = |sum_{n' <= N} nu(n')F(n')| / (sum_j W_j + alpha*N); it is
    reported as data, not compared against any constant.  collisions is
    always 0: a repeated product raises CollisionFound instead.
    """
    params = make_params(alpha, n)
    _check_phase(phase)
    counts = np.zeros(phase.size, dtype=np.int64)
    for start, segment in _prefix_segments(nu, n):
        if segment.size and (segment.min() < -1 or segment.max() > 1):
            bad = int(np.flatnonzero(np.abs(segment.astype(np.int64)) > 1)[0])
            raise ValueError(f"|nu({start + bad})| = {abs(int(segment[bad]))} exceeds 1")
        _add_residue_counts(counts, segment, start - 1)
    lhs = _weighted_sum(counts, phase.real, phase.imag)
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    w_values = wj_sums(phase, blocks, sets)
    products = distinct_products_check(blocks, sets, n)
    sum_w = _fsum(np.array(w_values, dtype=np.float64))
    denom = sum_w + alpha * n
    rows = [
        {
            "j": block.j,
            "r_j": params.r(block.j),
            "m_j": params.m(block.j),
            "p_count": len(block.primes),
            "q_count": len(qset.members),
            "w": w,
        }
        for block, qset, w in zip(blocks, sets, w_values)
    ]
    return {
        "schema_version": 1,
        "params": {"alpha": alpha, "n": n, "j0": params.j0, "j1": params.j1, "period": period},
        "rows": rows,
        "aggregates": {
            "lhs_re": lhs.real,
            "lhs_im": lhs.imag,
            "lhs_abs": abs(lhs),
            "sum_w": sum_w,
            "alpha_n": alpha * n,
            "quotient": abs(lhs) / denom if denom > 0 else math.inf,
            "sum_pq": products.total_products,
            "sum_p": sum(len(b.primes) for b in blocks),
            "collisions": 0,
            "materialised_blocks": len(blocks),
        },
    }


def theorem_conditions(alpha: float, n: int, p: int, t: int, epsilon: float) -> dict:
    """Evaluate the admissibility inequalities numerically, constants set to 1.

    rho is instantiated as sqrt(p)*log(p)/t, the concrete admissible choice.
    Conditions whose right side overflows a double are compared in log scale.
    alpha_range_empty records that no alpha <= 1 satisfies the lower bound at
    this p, which is the normal situation at desk scale.
    """
    if min(alpha, epsilon) <= 0 or min(n, t) <= 0 or p < 3:
        raise ValueError("need alpha, epsilon, n, t positive and p >= 3")
    log_p = math.log(p)
    loglog_p = math.log(log_p)
    inv_alpha = 1.0 / alpha
    log_inv_alpha6 = math.log(inv_alpha) ** 6  # even power: fine on either side of 1
    rho = math.sqrt(p) * log_p / t
    t_floor = p ** (0.5 + epsilon)
    # alpha >= 3 * (log log p)^6 / (epsilon * log p)
    alpha_floor = 3.0 * loglog_p**6 / (epsilon * log_p)
    # N >= sqrt(p) * exp(5/alpha * log(1/alpha)^6) * log(p), compared in logs
    log_n_floor = 0.5 * log_p + 5.0 * inv_alpha * log_inv_alpha6 + loglog_p
    # alpha^-2 * exp(2/alpha * log(1/alpha)^6) <= 1/rho, in logs
    log_lhs = 2.0 * math.log(inv_alpha) + 2.0 * inv_alpha * log_inv_alpha6
    # N >= t * rho * exp(4/alpha * log(1/alpha)^6), in logs
    log_rhs = math.log(t * rho) + 4.0 * inv_alpha * log_inv_alpha6
    rows = [  # name, lhs, rhs, holds, log_scale
        ("t_large", float(t), t_floor, t >= t_floor, False),
        ("alpha_floor", alpha, alpha_floor, alpha >= alpha_floor, False),
        ("n_floor", math.log(n), log_n_floor, math.log(n) >= log_n_floor, True),
        ("rho_capacity", log_lhs, -math.log(rho), log_lhs <= -math.log(rho), True),
        ("length_capacity", math.log(n), log_rhs, math.log(n) >= log_rhs, True),
    ]
    return {
        "alpha": alpha,
        "n": n,
        "p": p,
        "t": t,
        "epsilon": epsilon,
        "rho": rho,
        "alpha_range_empty": alpha_floor > 1.0,
        "conditions": [dict(zip(("name", "lhs", "rhs", "holds", "log_scale"), row)) for row in rows],
    }
