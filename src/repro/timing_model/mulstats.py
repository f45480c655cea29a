"""Statistics of the data-dependent multiply time.

For uniform random b over ``2**bits`` values, ``ones(b)`` is
Binomial(bits, 1/2).  The SIMD-vs-asynchronous tradeoff the paper measures
is governed by the gap between the *expected maximum* over p PEs and the
mean: each broadcast multiply costs ``38 + 2·max_i ones(b_i)`` in SIMD
mode but ``38 + 2·ones(b_i)`` per PE asynchronously, so the decoupling
benefit per multiply is ``2·(E[max_p] − E)`` cycles (minus the SIMD fetch
advantage — see :mod:`repro.core.crossover`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from repro.programs.data import multiplier_schedule
from repro.utils.bitops import ones_count


def expected_ones(bits: int) -> float:
    """E[ones(b)] for b uniform over ``2**bits`` values."""
    return bits / 2.0


def ones_cdf(bits: int) -> np.ndarray:
    """CDF of ones(b), Binomial(bits, 1/2), for k = 0..bits.

    ``F(k) = Σ_{j≤k} C(bits, j) / 2**bits`` summed in integers and divided
    once, so every entry is the correctly rounded float.
    """
    total = 1 << bits
    counts = accumulate(math.comb(bits, j) for j in range(bits + 1))
    return np.array([c / total for c in counts])


@lru_cache(maxsize=None)
def expected_max_ones(bits: int, p: int) -> float:
    """Exact E[max of p iid Binomial(bits, 1/2)] via the order-statistic CDF.

    ``E[max] = Σ_k k · (F(k)^p − F(k-1)^p)``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    k = np.arange(bits + 1)
    cdf = ones_cdf(bits)
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    return float(np.sum(k * (cdf**p - cdf_prev**p)))


def max_ones_gap(bits: int, p: int) -> float:
    """E[max_p ones] − E[ones]: the per-multiply decoupling lever (in bits)."""
    return expected_max_ones(bits, p) - expected_ones(bits)


def ones_of_schedule(schedule: np.ndarray) -> np.ndarray:
    """Popcounts of a multiplier schedule array (any shape)."""
    return ones_count(schedule.astype(np.uint64), 16)


#: ``np.bitwise_count`` (numpy >= 2.0), or None on numpy 1.x.
_bitwise_count = getattr(np, "bitwise_count", None)


@lru_cache(maxsize=1)
def _ones_table() -> np.ndarray:
    """uint8 popcount of every 16-bit value (the numpy 1.x fallback)."""
    return ones_count(np.arange(1 << 16), 16).astype(np.uint8)


def ones16(values: np.ndarray) -> np.ndarray:
    """uint8 popcounts of the low 16 bits of an integer array.

    The macro model popcounts B once with this and reads the multiplier
    schedule of the counts, instead of popcounting the schedule itself.
    """
    v = np.asarray(values).astype(np.uint16, copy=False)
    if _bitwise_count is not None:
        return _bitwise_count(v)
    return _ones_table()[v]


def schedule_ones(b: np.ndarray, p: int) -> np.ndarray:
    """``ones_of_schedule(multiplier_schedule(b, p))`` from one popcount.

    Popcounts B once (uint8) and returns the schedule as a zero-copy view
    over the counts, shape (p, n_steps, cols).
    """
    return multiplier_schedule(ones16(b), p)


def group_max_ones(ones: np.ndarray, group: int) -> np.ndarray:
    """Σ_v of the per-broadcast max over each MC group of ``group`` PEs.

    Shape (p // group, n_steps), exact int64: the SIMD variable multiply
    count, since a broadcast multiply completes at its slowest PE's pace.
    """
    p, n, cols = ones.shape
    gmax = ones.reshape(p // group, group, n, cols).max(axis=1)
    return gmax.sum(axis=2, dtype=np.int64)


def simd_mult_extra_cycles(schedule_ones: np.ndarray) -> float:
    """Σ over broadcasts of 2·max_i ones — the SIMD variable multiply time.

    ``schedule_ones`` has shape (p, n_steps, cols); the max is over PEs
    (axis 0) because a broadcast multiply is released to completion only at
    the slowest PE's pace, and the result is summed over every (step,
    column) inner-loop pass.  Multiply by n·(1+m) passes externally.
    """
    return float(2.0 * schedule_ones.max(axis=0).sum())


def async_mult_extra_cycles(schedule_ones: np.ndarray) -> np.ndarray:
    """Per-(PE, step) variable multiply cycles for the asynchronous modes.

    Returns shape (p, n_steps): Σ_v 2·ones for each PE and rotation step,
    ready for the per-step max (S/MIMD barrier coupling) or the global sum.
    """
    return 2.0 * schedule_ones.sum(axis=2)
