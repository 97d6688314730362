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

F arrives as the phases of one period, F(n) = phase[(n - 1) % t].  nu = mu
and nu = 1 are +-1 with one sign on every prime, so W_j never reads nu and
is a batch of numpy gathers over residues mod t, every row an exactly
rounded sum.  The left side sum_{n <= N} nu(n)F(n) is
handed in as a number: for F = psi_u(xi_n) it is the twisted sum
char_sums.twisted_sum_schedule computes at N, the one kernel for S(N).

The decomposition runs the stages as one loop over j: block j's primes, its
sieve set cut from one exclusion array carried across blocks, a check of the
construction that makes its products distinct, then W_j, after which P_j
and Q_j are dropped.  Only the exclusion array (M_{j0} + 1 bytes) and a few
numbers per block outlive a block; nothing N long is allocated.

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
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .arith_fn import ResourceGuard, primes_in
from .char_sums import _slices
from .exact_sum import _fsum, _fsum_rows


_SIEVE_SET_LIMIT = 10**8  # the largest M_j whose exclusion array sieve_sets allocates
_GATHER = 1 << 16  # entries per gathered chunk: products in the batch audit, cos and sin in W_j


@dataclass(frozen=True)
class BszParams:
    """Parameter schedule: alpha, the sum length n, and the block range [j0, j1]."""

    alpha: float
    n: int
    j0: float
    j1: float

    def r(self, j: int) -> float:
        try:
            return (1.0 + self.alpha) ** j
        except OverflowError:  # past the double range (alpha near 0): no block reaches N
            return math.inf

    def m(self, j: int) -> float:
        return self.n / self.r(j + 1)

    @property
    def j_range(self) -> range:
        """Integers j with j0 <= j <= j1 (real comparison of the endpoints)."""
        return range(math.ceil(self.j0), math.floor(self.j1) + 1)


def make_params(alpha: float, n: int) -> BszParams:
    """j0 = (log(1/alpha))^3/alpha, j1 = j0^2, natural logs, for alpha in (0, 1/2) and above 2^-53.

    From 2^-53 down, 1 + alpha rounds to 1.0, so every R_j would be 1.0 (and j1 can overflow).
    """
    if not 0.0 < alpha < 0.5 or 1.0 + alpha == 1.0:
        raise ValueError(f"alpha must lie in (0, 1/2) with 1 + alpha > 1 as a double, got {alpha}")
    if n < 1:
        raise ValueError("n must be positive")
    j0 = math.log(1.0 / alpha) ** 3 / alpha
    return BszParams(alpha, n, j0, j0 * j0)


@dataclass(frozen=True, eq=False)
class PrimeBlock:
    """Ascending primes in [R_j, R_{j+1}), an int64 array as primes_in returns it."""

    j: int
    primes: np.ndarray


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


def sieve_range(params: BszParams) -> int:
    """The largest M_j, rounded down, over the blocks prime_blocks materialises; 0 when it materialises none.

    That is M_j at the first j of the range, the length of the exclusion
    array sieve_sets allocates; ResourceGuard when it exceeds _SIEVE_SET_LIMIT.
    """
    j = params.j_range.start
    if not params.j_range or params.r(j + 1) > params.n:
        return 0
    m_max = math.floor(params.m(j))
    if m_max > _SIEVE_SET_LIMIT:
        raise ResourceGuard(f"sieve range {m_max} exceeds {_SIEVE_SET_LIMIT}")
    return m_max


def sieve_sets(params: BszParams, blocks: Sequence[PrimeBlock], excluded: np.ndarray | None = None) -> list[np.ndarray]:
    """Q_j for each block, in the order of blocks: ascending int64 m <= M_j with no prime factor in blocks <= j.

    One boolean exclusion array up to the largest M_j (sieve_range), marked cumulatively block by block and
    read after each block's primes are added.  Without excluded, blocks is prime_blocks(params) or a prefix
    of it and the array is allocated here; given excluded, blocks continue the blocks already marked in it.
    """
    if not blocks:
        return []
    if excluded is None:
        excluded = np.zeros(sieve_range(params) + 1, dtype=bool)
    m_max = excluded.size - 1
    out = []
    for block in blocks:
        for r in block.primes[block.primes <= m_max]:
            excluded[r::r] = True
        m_j = math.floor(params.m(block.j))
        q = np.flatnonzero(~excluded[1 : m_j + 1])
        q += 1  # in place: no second |Q_j|-long temporary
        out.append(q)
    return out


@dataclass(frozen=True)
class DistinctProductsReport:
    """Exact-integer audit of the products m*r across the whole schedule: all distinct, all <= N."""

    total_products: int


def _ascending_within(a: np.ndarray, lo: float, hi: float) -> bool:
    return not a.size or bool(a[0] >= lo and a[-1] < hi and np.all(a[1:] > a[:-1]))


def distinct_products_check(
    blocks: Sequence[PrimeBlock], sets: Sequence[np.ndarray], n: int, sieve: tuple[BszParams, np.ndarray] | None = None
) -> DistinctProductsReport:
    """Verify the products m*r are pairwise distinct, all <= n, and count them.

    Every product is marked in a bitmap over 0..n, so its marks count the distinct products and the total
    every product: the two agree exactly when no product repeats, inside a chunk, a block or across blocks.
    Only when they differ are the products sorted, to name the smallest repeated one.  A collision is
    reported before the budget sum #P_j #Q_j <= n is checked.
    Given sieve = (params, excluded), blocks is the block whose primes sieve_sets has just marked in
    excluded, and the products are distinct by construction: r in P_j is the least prime factor of m*r from
    the first block on, so m*r fixes r, j and m.  That construction is checked instead, in O(block): P_j and
    Q_j strictly increasing inside [R_j, R_{j+1}) and [1, M_j], Q_j unmarked in excluded.
    """
    if sieve is not None:
        params, excluded = sieve
        for block, q in zip(blocks, sets):
            if not (
                _ascending_within(block.primes, params.r(block.j), params.r(block.j + 1))
                and _ascending_within(q, 1, math.floor(params.m(block.j)) + 1)
                and not excluded[q].any()  # q is in range once the line above holds
            ):
                raise AssertionError(f"block {block.j} breaks the construction that makes its products distinct")
        return DistinctProductsReport(sum(block.primes.size * q.size for block, q in zip(blocks, sets)))
    seen = np.zeros(n + 1, dtype=bool)
    pairs = []
    total = 0
    for block, members in zip(blocks, sets):
        primes = block.primes
        if not (primes.size and members.size):
            continue
        if min(primes.min(), members.min()) < 0:
            raise AssertionError(f"block {block.j} has a negative factor")
        m_hi, r_hi = int(members.max()), int(primes.max())
        if m_hi * r_hi > n:
            raise AssertionError(f"product {m_hi}*{r_hi} exceeds N = {n}")
        for _, chunk in _slices(members, primes.size, _GATHER):
            seen[np.multiply.outer(chunk, primes)] = True
        pairs.append((members, primes))
        total += primes.size * members.size
    if np.count_nonzero(seen) != total:
        prods = np.sort(np.concatenate([np.multiply.outer(m, r).ravel() for m, r in pairs]))
        repeat = prods[1:][prods[1:] == prods[:-1]]
        raise AssertionError(f"product {repeat[0]} produced twice")
    if total > n:
        raise AssertionError(f"sum #P_j #Q_j = {total} exceeds N = {n}")
    return DistinctProductsReport(total)


def _check_phase(phase: np.ndarray) -> None:
    """|F| <= 1 on every entry of one nonempty period, the criterion's hypothesis on F."""
    if phase.ndim != 1 or phase.size == 0:
        raise ValueError("the phase array must be one nonempty period")
    bad = np.flatnonzero(~(np.abs(phase) <= 1.0 + 1e-9))  # a NaN fails <=
    if bad.size:
        raise ValueError(f"|F({bad[0] + 1})| = {abs(phase[bad[0]])} exceeds 1")


def _grouped(values: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray | int]:
    """(values mod t, 1), or, past t values, the residues mod t that occur and their counts, counted in chunks."""
    if values.size <= t:
        return values % t, 1
    counts = np.zeros(t, dtype=np.int64)
    for _, chunk in _slices(values, 8, _GATHER):  # no second array as long as values
        counts += np.bincount(chunk - chunk // t * t, minlength=t)
    return np.flatnonzero(counts), counts[counts > 0]


def _block_w(table: np.ndarray, cols: tuple, rows: tuple) -> float:
    """sum_s c(s) |sum_u c(u) F(s u)| over the (residue, count) pairs of rows and cols; see wj_sums."""
    (u, c_u), (s, c_s), t = cols, rows, table.shape[1]
    inner = np.empty(s.size)
    for i, chunk in _slices(s, 2 * u.size, _GATHER // 2):
        idx = np.multiply.outer(chunk, u)
        idx -= idx // t * t  # idx %= t, but numpy's int64 floor division by a scalar is faster
        parts = np.take(table, idx, axis=1)  # the real and the imaginary parts of F(s u)
        parts *= c_u
        re, im = _fsum_rows(parts)
        np.abs(re + 1j * im, out=inner[i : i + chunk.size])  # re + 1j * im is exact
    return _fsum(inner, c_s)


def wj_sums(phase: np.ndarray, pairs: Iterable[tuple[PrimeBlock, np.ndarray]]) -> list[float]:
    """W_j = sum_{m in Q_j} |sum_{r in P_j} nu(r) F(m r)| for each pair (P_j, Q_j), in order.

    nu must be +-1 with one sign on every prime, as mu and 1 are: then the inner sum is +-sum_r F(mr), whose
    rounded value only changes sign, so nu is not read.  F(n) = phase[(n - 1) % t] with t = len(phase) and
    |F| <= 1, which is checked on every entry.
    Only residues mod t matter, and a side with more members than t is grouped by residue, with counts c
    (c = 1 on the other): W_j = sum_s c(s) |inner(s)|, inner(s) = sum_u c(u) F(s u), from at most
    min(#Q_j, t) min(#P_j, t) gathered phases.  A row's parts are the exactly rounded sums of the rounded
    c(u) cos and c(u) sin, |inner| np.abs of their complex, and W_j the exactly rounded sum of the rounded
    c(s) |inner(s)|: no bit depends on chunks or on numpy's summation order.  pairs is read one pair at a
    time, so a generator can build each block as it is needed.
    """
    _check_phase(phase)
    table = np.roll(np.stack((phase.real, phase.imag)), 1, axis=1)  # table[:, n % t] holds F(n)
    w = []
    for block, members in pairs:
        cols, rows = _grouped(block.primes, phase.size), _grouped(members, phase.size)
        del block, members  # P_j and Q_j are not held through the gather
        w.append(_block_w(table, cols, rows))
        del cols, rows  # nor their residues while the next block is built
    return w


def decomposition_report(lhs: complex, phase: np.ndarray, n: int, alpha: float, period: int) -> dict:
    """Compute every W_j and the empirical decomposition quotient of the given left side.

    lhs is sum_{n' <= N} nu(n')F(n'), as twisted_sum_schedule gives it for F = psi_u(xi_n), with nu meeting
    wj_sums' rule on the primes; phase is as in wj_sums, checked before any allocation, and period is
    recorded.  quotient = |lhs| / (sum_j W_j + alpha*N) is reported as data, not compared against any
    constant.  collisions is always 0: a repeated product raises AssertionError instead.
    The blocks are built one at a time, by prime_blocks, sieve_sets and distinct_products_check (checking
    the construction) on one-block lists, as wj_sums reads them.  If a block fails its check, or there were
    more than N products, the schedule is rebuilt and the batch audit raises, naming the smallest repeat.
    """
    _check_phase(phase)
    params = make_params(alpha, n)
    excluded = np.zeros(sieve_range(params) + 1, dtype=bool)
    rows, sum_pq = [], 0

    def schedule():
        nonlocal sum_pq
        for j in params.j_range:
            blocks = prime_blocks(replace(params, j0=j, j1=j))  # block j alone, none once R_{j+1} > N
            if not blocks:
                return
            sets = sieve_sets(params, blocks, excluded)
            sum_pq += distinct_products_check(blocks, sets, n, (params, excluded)).total_products
            p_count, q_count = blocks[0].primes.size, sets[0].size
            rows.append({"j": j, "r_j": params.r(j), "m_j": params.m(j), "p_count": p_count, "q_count": q_count})
            yield blocks.pop(), sets.pop()  # held by wj_sums alone, which drops them before its gather

    try:
        w_values = wj_sums(phase, schedule())
        if sum_pq > n:
            raise AssertionError(f"sum #P_j #Q_j = {sum_pq} exceeds N = {n}")
    except AssertionError:
        blocks = prime_blocks(params)  # the same products again, audited whole: this names the fault
        distinct_products_check(blocks, sieve_sets(params, blocks), n)
        raise
    for row, w in zip(rows, w_values):
        row["w"] = w
    sum_w = _fsum(np.array(w_values, dtype=np.float64))
    denom = sum_w + alpha * n
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
            "sum_pq": sum_pq,
            "sum_p": sum(row["p_count"] for row in rows),
            "collisions": 0,
            "materialised_blocks": len(rows),
        },
    }


def theorem_conditions(alpha: float, n: int, p: int, t: int, epsilon: float) -> dict:
    """Evaluate the admissibility inequalities numerically, constants set to 1.

    rho is instantiated as sqrt(p)*log(p)/t, the concrete admissible choice.
    Conditions whose right side overflows a double are compared in log scale,
    t_large once p^(1/2 + epsilon) does: log t against (1/2 + epsilon) log p.
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
    try:  # t >= p^(1/2 + epsilon)
        t_lhs, t_rhs, t_log = float(t), p ** (0.5 + epsilon), False
    except OverflowError:
        t_lhs, t_rhs, t_log = math.log(t), (0.5 + epsilon) * log_p, True
    # alpha >= 3 * (log log p)^6 / (epsilon * log p)
    alpha_floor = 3.0 * loglog_p**6 / (epsilon * log_p)
    # N >= sqrt(p) * exp(5/alpha * log(1/alpha)^6) * log(p), compared in logs
    log_n_floor = 0.5 * log_p + 5.0 * inv_alpha * log_inv_alpha6 + loglog_p
    # alpha^-2 * exp(2/alpha * log(1/alpha)^6) <= 1/rho, in logs
    log_lhs = 2.0 * math.log(inv_alpha) + 2.0 * inv_alpha * log_inv_alpha6
    # N >= t * rho * exp(4/alpha * log(1/alpha)^6), in logs
    log_rhs = math.log(t * rho) + 4.0 * inv_alpha * log_inv_alpha6
    rows = [  # name, lhs, rhs, holds, log_scale
        ("t_large", t_lhs, t_rhs, t_lhs >= t_rhs, t_log),
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
