"""Exactly rounded sums of float64 arrays: math.fsum's result, bit for bit, without leaving numpy.

A sum is taken exactly, as layers of int64 partial sums, and rounded once:
in numpy, many segments at a time (_fsums, _fsum_rows), or as a Python int
in units of 2^-1074 that adds a sum's blocks first (_product_total, _fsum).
So it does not depend on summation order, block size or thread count.  The
sum kernels (char_sums) and the BSZ harness (bsz_harness) reduce every value
they report to such sums.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .field_arith import _BLOCK


_ONE = 1 << 1074  # exact totals are ints in units of 2^-1074, the least subnormal


def _layers(x: np.ndarray, starts: np.ndarray | None, bits: int) -> list[tuple[int, np.ndarray]]:
    """Exact sums of segments of x as layers (unit, int64 sums): a segment's sum is that of its sums * 2^unit.

    A flat x's segments begin at starts (ascending) and run to the next; without starts they are x's rows.
    Each has fewer than 2^bits terms.  Layered splitting (Rump, Ogita and Oishi, Accurate floating-point
    summation I, 2008): with 2^e > max|x|, q = (sigma + x) - sigma, sigma = 2^(e + bits + 1), is a multiple of
    2^(e + bits - 52) and x - q is exact, so every partial sum of q is exact; the residuals go round again
    until none is left.  x is overwritten.  A term not finite, or not below 2^(1022 - bits), raises ValueError.
    """
    top = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
    if not top < math.ldexp(1.0, 1022 - bits):  # also refuses inf and nan
        raise ValueError(f"exact sum needs every term finite and below 2**{1022 - bits} in magnitude")
    e = math.frexp(top)[1]
    q, layers = np.empty_like(x), []
    while True:
        unit = max(e + bits - 52, -1074)
        sigma = math.ldexp(1.0, e + bits + 1)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        sums = q.sum(axis=-1) if starts is None else np.add.reduceat(q, starts)
        layers.append((unit, np.ldexp(sums, -unit).astype(np.int64)))
        if not x.any():
            return layers
        e = unit + 1


def _rounded(layers: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Each exact sum _layers gives, rounded once to the nearest double, ties to even, in numpy.

    Carries leave every layer but the first below the unit of the one above, so the layers as doubles are
    nonoverlapping; math.fsum's last step rounds them, on every segment at once.
    """
    for (unit_above, above), (unit, sums) in zip(layers[-2::-1], layers[:0:-1]):  # from the lowest, in place
        carry = sums >> (unit_above - unit)
        sums -= carry << (unit_above - unit)
        above += carry
    hi, *rest = (np.ldexp(sums.astype(np.float64), unit) for unit, sums in layers)
    lo, done = np.zeros_like(hi), np.zeros(hi.shape, dtype=bool)
    for y in rest:
        tie = (lo != 0) & (y != 0) & ~done  # y is the first nonzero layer after the inexact addition
        up = hi + 2 * lo
        hi = np.where(tie & ((lo > 0) == (y > 0)) & (up - hi == 2 * lo), up, hi)
        done |= tie
        exact = lo == 0
        s = hi + y
        lo = np.where(exact, y - (s - hi), lo)
        hi = np.where(exact, s, hi)
    return hi


def _fsums(x: np.ndarray, lengths: Sequence[int]) -> list[float]:
    """math.fsum of each consecutive segment of x with the given lengths, bit for bit.

    lengths sum to x.size; an empty segment or a zero total is +0.0, and x is overwritten.  With segments
    of fewer than 2^b terms every term must lie below 2^(1022 - b) in magnitude, or ValueError is raised.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    live = np.flatnonzero(lengths)  # np.add.reduceat would give an empty segment x[start]
    out = np.zeros(lengths.size)
    out[live] = _rounded(_layers(x, (np.cumsum(lengths) - lengths)[live], int(lengths.max(initial=0)).bit_length()))
    return out.tolist()


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row of x along its last axis, bit for bit, as an array; x is overwritten, limits as _fsums'."""
    return _rounded(_layers(x, None, x.shape[-1].bit_length()))


def _product_total(weights, values: np.ndarray) -> int:
    """Exact total of the rounded products weights * values, in units of 2^-1074.

    The totals of a sum's blocks add up exactly, so their sum divided by _ONE once is the exactly rounded
    sum, however the blocks are cut; limits as _fsums'.
    """
    products = weights * values
    return sum(int(s) << (unit + 1074) for unit, s in _layers(products, None, products.size.bit_length()))


def _fsum(values: np.ndarray, weights=1) -> float:
    """math.fsum of weights * values, bit for bit: the exactly rounded sum of the rounded products.

    The products are formed and summed one _BLOCK at a time (_product_total),
    so no full-length temporary is held; weights broadcast against values.
    """
    w = np.broadcast_to(weights, values.shape)
    return sum(_product_total(w[i : i + _BLOCK], values[i : i + _BLOCK]) for i in range(0, values.size, _BLOCK)) / _ONE
