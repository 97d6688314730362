"""Exactly rounded sums of float64 arrays: math.fsum's result, bit for bit, without leaving numpy.

A sum is taken exactly as a Python int in units of 2^-1074, the least
subnormal, and rounded once by int true division, so it does not depend on
summation order, block size or thread count.  The sum kernels (char_sums)
and the BSZ harness (bsz_harness) reduce every value they report to such sums.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .field_arith import _BLOCK


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
    so a zero total is +0.0.  With segments of fewer than 2^b terms every
    term must lie below 2^(1022 - b) in magnitude, or ValueError is raised.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    live = np.flatnonzero(lengths)  # np.add.reduceat would give an empty segment x[start]
    starts = (np.cumsum(lengths) - lengths)[live]
    out = [0.0] * lengths.size
    totals = _exact_totals(x, starts, int(lengths.max(initial=0)).bit_length())
    for i, total in zip(live.tolist(), totals):
        out[i] = total / _ONE
    return out


def _product_total(weights, values: np.ndarray) -> int:
    """Exact total of the rounded products weights * values, in units of 2^-1074.

    The totals of a sum's blocks add up exactly, so their sum divided by
    _ONE once is the exactly rounded sum, however the blocks are cut.  With
    fewer than 2^b products every product must lie below 2^(1022 - b) in
    magnitude, or ValueError is raised.
    """
    products = weights * values
    return _exact_totals(products, _FIRST, products.size.bit_length())[0]


def _fsum(values: np.ndarray, weights=1) -> float:
    """math.fsum of weights * values, bit for bit: the exactly rounded sum of the rounded products.

    The products are formed and summed one _BLOCK at a time (_product_total),
    so no full-length temporary is held; weights broadcast against values.
    """
    w = np.broadcast_to(weights, values.shape)
    return sum(_product_total(w[i : i + _BLOCK], values[i : i + _BLOCK]) for i in range(0, values.size, _BLOCK)) / _ONE
