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

nu arrives as an integer array indexed by n and F as the phases of one
period, F(n) = phase[(n - 1) % t].  So the inner sum depends on m only
through m mod t, every W_j is a batch of numpy gathers, and the left side is
the integer residue counts of nu over the period weighted by the phases, the
same reduction as the twisted-sum kernel.

Inequalities with unspecified constants are evaluated with the constant set
to 1 and reported as two-sided numbers, never hard-asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .arith_fn import LimitOverflow, primes_in
from .char_sums import _add_residue_counts, _fsum, _weighted_sum


class CollisionFound(AssertionError):
    """Two block products m*r coincide; indicates an implementation bug."""


class MemoryGuard(ValueError):
    """Sieve-set range exceeds the desk-scale memory budget."""


_SIEVE_LIMIT = 10**8
_PRIME_LIMIT = 10**9
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


@dataclass(frozen=True)
class PrimeBlock:
    """Ascending primes in [R_j, R_{j+1})."""

    j: int
    primes: tuple[int, ...]


@dataclass(frozen=True)
class SieveSet:
    """Ascending m <= M_j with no prime factor in the union of blocks up to j."""

    j: int
    members: tuple[int, ...]


def prime_blocks(params: BszParams) -> list[PrimeBlock]:
    """Materialise the blocks whose sieve sets can be nonempty.

    Blocks with R_{j+1} > N have M_j < 1, hence empty Q_j and zero
    contribution everywhere, so enumeration stops there.  Raises
    LimitOverflow if a needed block would require primes beyond 10^9.
    """
    blocks: list[PrimeBlock] = []
    for j in params.j_range:
        hi = params.r(j + 1)
        if hi > params.n:
            break
        if hi > _PRIME_LIMIT:
            raise LimitOverflow(f"block {j} needs primes beyond {_PRIME_LIMIT}")
        blocks.append(PrimeBlock(j, tuple(primes_in(params.r(j), hi))))
    return blocks


def sieve_sets(params: BszParams, blocks: Sequence[PrimeBlock]) -> list[SieveSet]:
    """Q_j for each block, excluding multiples of every prime seen in blocks <= j.

    One boolean exclusion array up to the largest M_j, marked cumulatively
    block by block and snapshotted after each block's primes are added.
    """
    if not blocks:
        return []
    m_max = math.floor(params.m(blocks[0].j))
    if m_max > _SIEVE_LIMIT:
        raise MemoryGuard(f"sieve range {m_max} exceeds {_SIEVE_LIMIT}")
    excluded = np.zeros(m_max + 1, dtype=bool)
    out: list[SieveSet] = []
    for block in blocks:
        for r in block.primes:
            if r <= m_max:
                excluded[r::r] = True
        m_j = math.floor(params.m(block.j))
        members = (np.flatnonzero(~excluded[1 : m_j + 1]) + 1).tolist() if m_j >= 1 else []
        out.append(SieveSet(block.j, tuple(members)))
    return out


@dataclass(frozen=True)
class DistinctProductsReport:
    """Exact-integer audit of the products m*r across the whole schedule."""

    total_products: int
    n: int
    collisions: int

    @property
    def within_budget(self) -> bool:
        return self.total_products <= self.n


def _chunks(rows: np.ndarray, width: int):
    """(start, slice) pairs covering rows, each slice about _GATHER // width long."""
    step = max(1, _GATHER // max(width, 1))
    for i in range(0, rows.size, step):
        yield i, rows[i : i + step]


def distinct_products_check(
    blocks: Sequence[PrimeBlock], sets: Sequence[SieveSet], n: int
) -> DistinctProductsReport:
    """Verify the products m*r are pairwise distinct, all <= n, and count them.

    A bitmap over 0..n records every product seen; the products of one chunk
    of a block are sorted to catch a repeat inside the chunk.
    """
    seen = np.zeros(n + 1, dtype=bool)
    total = 0
    for block, qset in zip(blocks, sets):
        if not (block.primes and qset.members):
            continue
        primes = np.array(block.primes, dtype=np.int64)
        members = np.array(qset.members, dtype=np.int64)
        if min(primes.min(), members.min()) < 0:
            raise AssertionError(f"block {block.j} has a negative factor")
        m_hi, r_hi = int(members.max()), int(primes.max())
        if m_hi * r_hi > n:
            raise AssertionError(f"product {m_hi}*{r_hi} exceeds N = {n}")
        for _, chunk in _chunks(members, primes.size):
            prods = np.sort(np.multiply.outer(chunk, primes), axis=None)
            repeat = np.flatnonzero(prods[1:] == prods[:-1])
            if repeat.size:
                raise CollisionFound(f"product {prods[repeat[0]]} produced twice")
            again = seen[prods]
            if again.any():
                raise CollisionFound(f"product {prods[again.argmax()]} produced twice")
            seen[prods] = True
        total += primes.size * members.size
    report = DistinctProductsReport(total, n, 0)
    if not report.within_budget:
        raise AssertionError(f"sum #P_j #Q_j = {total} exceeds N = {n}")
    return report


def _check_bounded(nu: np.ndarray, phase: np.ndarray) -> None:
    """|nu| <= 1 and |F| <= 1 on every entry, the hypothesis of the criterion."""
    if not np.issubdtype(nu.dtype, np.integer):
        raise TypeError(f"nu must be an integer array, got {nu.dtype}")
    if phase.ndim != 1 or phase.size == 0:
        raise ValueError("the phase array must be one nonempty period")
    if nu.size and (nu.min() < -1 or nu.max() > 1):
        bad = int(np.flatnonzero(np.abs(nu.astype(np.int64)) > 1)[0])
        raise ValueError(f"|nu({bad})| = {abs(int(nu[bad]))} exceeds 1")
    size = np.abs(phase)
    if size.max() > 1.0 + 1e-9:
        bad = int(size.argmax())
        raise ValueError(f"|F({bad + 1})| = {size[bad]} exceeds 1")


def wj_sums(
    nu: np.ndarray,
    phase: np.ndarray,
    blocks: Sequence[PrimeBlock],
    sets: Sequence[SieveSet],
) -> list[float]:
    """W_j = sum_{m in Q_j} |sum_{r in P_j} nu(r) F(m r)| for each block.

    nu[n] is nu(n); F(n) = phase[(n - 1) % t] with t = len(phase).  Both
    must be bounded by 1 in absolute value, which is checked on every entry.
    The inner sum depends on m only through m mod t: when Q_j has more
    members than there are residues, W_j = sum_s count_j(s) |inner(s)| over
    the residues s that occur.  Residues are reduced before multiplying, so
    the gathered indices (m mod t)(r mod t) stay exact in int64.
    """
    _check_bounded(nu, phase)
    t = phase.size
    out: list[float] = []
    for block, qset in zip(blocks, sets):
        primes = np.array(block.primes, dtype=np.int64)
        if primes.size and primes.max() >= nu.size:
            raise ValueError(f"nu covers 0..{nu.size - 1}, block {block.j} needs {primes.max()}")
        nu_r = nu[primes]
        live = nu_r != 0
        r_res = primes[live] % t
        weights = nu_r[live].astype(np.float64)
        m_res = np.array(qset.members, dtype=np.int64) % t
        counts = 1
        if m_res.size > t:
            counts = np.bincount(m_res, minlength=t)
            m_res = np.flatnonzero(counts)
            counts = counts[m_res]
        inner = np.empty(m_res.size)
        for i, chunk in _chunks(m_res, r_res.size):
            idx = np.multiply.outer(chunk, r_res)
            idx -= 1
            idx %= t
            inner[i : i + chunk.size] = np.abs((phase[idx] * weights).sum(axis=1))
        out.append(_fsum(inner, counts))
    return out


@dataclass
class BszDecomposition:
    """Full ledger for one (nu, F, N, alpha) instance."""

    params: BszParams
    period: int
    blocks: list[PrimeBlock]
    sets: list[SieveSet]
    w_values: list[float]
    lhs: complex
    products: DistinctProductsReport
    sum_block_sizes: int
    quotient: float
    rows: list[dict] = field(default_factory=list)

    @property
    def sum_w(self) -> float:
        return math.fsum(self.w_values)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": {
                "alpha": self.params.alpha,
                "n": self.params.n,
                "j0": self.params.j0,
                "j1": self.params.j1,
                "period": self.period,
            },
            "rows": self.rows,
            "aggregates": {
                "lhs_re": self.lhs.real,
                "lhs_im": self.lhs.imag,
                "lhs_abs": abs(self.lhs),
                "sum_w": self.sum_w,
                "alpha_n": self.params.alpha * self.params.n,
                "quotient": self.quotient,
                "sum_pq": self.products.total_products,
                "sum_p": self.sum_block_sizes,
                "collisions": self.products.collisions,
                "materialised_blocks": len(self.blocks),
            },
        }


def decomposition_report(
    nu: np.ndarray,
    phase: np.ndarray,
    n: int,
    alpha: float,
    period: int,
) -> BszDecomposition:
    """Compute the left side, every W_j, and the empirical decomposition quotient.

    nu and phase are as in wj_sums, with nu covering 0..N; period is the
    orbit period recorded in the report.  The left side is
    sum_s c_s F(s + 1) with the exact integer residue counts
    c_s = sum_{n <= N, n - 1 = s mod t} nu(n) and one fsum per component.
    quotient = |sum_{n' <= N} nu(n')F(n')| / (sum_j W_j + alpha*N); it is
    reported as data, not compared against any constant.
    """
    params = make_params(alpha, n)
    if nu.size <= n:
        raise ValueError(f"nu covers 0..{nu.size - 1}, the left side needs 0..{n}")
    blocks = prime_blocks(params)
    sets = sieve_sets(params, blocks)
    w_values = wj_sums(nu, phase, blocks, sets)
    products = distinct_products_check(blocks, sets, n)
    counts = np.zeros(phase.size, dtype=np.int64)
    _add_residue_counts(counts, nu[1 : n + 1], 0)
    lhs = _weighted_sum(counts, phase.real, phase.imag)
    denom = math.fsum(w_values) + alpha * n
    quotient = abs(lhs) / denom if denom > 0 else math.inf
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
    return BszDecomposition(
        params=params,
        period=period,
        blocks=blocks,
        sets=sets,
        w_values=w_values,
        lhs=lhs,
        products=products,
        sum_block_sizes=sum(len(b.primes) for b in blocks),
        quotient=quotient,
        rows=rows,
    )


@dataclass(frozen=True)
class ConditionRow:
    """One inequality with both sides evaluated (implied constant 1)."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    log_scale: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "log_scale": self.log_scale,
        }


@dataclass(frozen=True)
class ConditionReport:
    """All hypothesis inequalities for one (alpha, N, p, t, epsilon) instance.

    rho is instantiated as sqrt(p)*log(p)/t, the concrete admissible choice.
    Conditions whose right side overflows a double are compared in log scale.
    alpha_range_empty records that no alpha <= 1 satisfies the lower bound at
    this p, which is the normal situation at desk scale.
    """

    alpha: float
    n: int
    p: int
    t: int
    epsilon: float
    rho: float
    conditions: tuple[ConditionRow, ...]
    alpha_range_empty: bool

    def condition(self, name: str) -> ConditionRow:
        for row in self.conditions:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n": self.n,
            "p": self.p,
            "t": self.t,
            "epsilon": self.epsilon,
            "rho": self.rho,
            "alpha_range_empty": self.alpha_range_empty,
            "conditions": [row.to_dict() for row in self.conditions],
        }


def theorem_conditions(alpha: float, n: int, p: int, t: int, epsilon: float) -> ConditionReport:
    """Evaluate the admissibility inequalities numerically, constants set to 1."""
    if min(alpha, epsilon) <= 0 or min(n, t) <= 0 or p < 3:
        raise ValueError("need alpha, epsilon, n, t positive and p >= 3")
    log_p = math.log(p)
    loglog_p = math.log(log_p)
    inv_alpha = 1.0 / alpha
    log_inv_alpha6 = math.log(inv_alpha) ** 6  # even power: fine on either side of 1
    rho = math.sqrt(p) * log_p / t

    rows = [
        ConditionRow("t_large", float(t), p ** (0.5 + epsilon), t >= p ** (0.5 + epsilon)),
    ]
    # alpha >= 3 * (log log p)^6 / (epsilon * log p)
    alpha_floor = 3.0 * loglog_p**6 / (epsilon * log_p)
    rows.append(ConditionRow("alpha_floor", alpha, alpha_floor, alpha >= alpha_floor))
    # N >= sqrt(p) * exp(5/alpha * log(1/alpha)^6) * log(p), compared in logs
    log_n_floor = 0.5 * log_p + 5.0 * inv_alpha * log_inv_alpha6 + loglog_p
    rows.append(ConditionRow("n_floor", math.log(n), log_n_floor, math.log(n) >= log_n_floor, log_scale=True))
    # alpha^-2 * exp(2/alpha * log(1/alpha)^6) <= 1/rho, in logs
    log_lhs = 2.0 * math.log(inv_alpha) + 2.0 * inv_alpha * log_inv_alpha6
    rows.append(ConditionRow("rho_capacity", log_lhs, -math.log(rho), log_lhs <= -math.log(rho), log_scale=True))
    # N >= t * rho * exp(4/alpha * log(1/alpha)^6), in logs
    log_rhs = math.log(t * rho) + 4.0 * inv_alpha * log_inv_alpha6
    rows.append(ConditionRow("length_capacity", math.log(n), log_rhs, math.log(n) >= log_rhs, log_scale=True))

    return ConditionReport(
        alpha=alpha,
        n=n,
        p=p,
        t=t,
        epsilon=epsilon,
        rho=rho,
        conditions=tuple(rows),
        alpha_range_empty=alpha_floor > 1.0,
    )
