"""Rank statistics: average-tie ranks, Spearman correlation and distinct values."""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def rankdata(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (the standard Spearman convention).

    Input must be finite.  Each run of tied values gets the mean of the
    ranks it spans, whatever order the sort leaves the run in.
    """
    a = np.asarray(a, dtype=np.float64)
    order = np.argsort(a)
    sorted_a = a[order]
    new_run = sorted_a[1:] != sorted_a[:-1]
    del sorted_a
    ranks = np.empty(a.size, dtype=np.float64)
    if new_run.all():
        ranks[order] = np.arange(1.0, a.size + 1.0)
        return ranks
    starts = np.flatnonzero(np.r_[True, new_run])
    del new_run
    counts = np.diff(starts, append=a.size)
    # each run's mean rank (2 * start + count + 1) / 2, exact in float64
    starts *= 2
    starts += counts
    starts += 1
    mean = starts * 0.5
    del starts
    ranks[order] = np.repeat(mean, counts)
    return ranks


def distinct(a) -> np.ndarray:
    """The distinct values of ``a`` in ascending order, as plain
    ``np.unique(a)`` returns them for finite input.  Plain ``np.unique``
    imports ``numpy.ma`` on its first call (numpy 2.4), which nothing
    else here needs."""
    values = np.sort(np.asarray(a), axis=None)
    new_run = np.empty(values.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(values[1:], values[:-1], out=new_run[1:])
    return values[new_run]


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # two centred copies at a time: the products reuse their buffers
    ac = a - a.mean()
    ss_a = (ac * ac).sum()
    bc = b - b.mean()
    cross = np.multiply(ac, bc, out=ac).sum()
    denom = np.sqrt(ss_a * np.multiply(bc, bc, out=bc).sum())
    if denom == 0.0:
        return 0.0
    return float(np.clip(cross / denom, -1.0, 1.0))


def spearman_checked(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """Spearman rho plus a degeneracy flag.

    Constant input returns (0.0, True) instead of raising: bootstrap splits
    can produce constant slices and the harness must keep running.  NaN or
    inf input raises ``DataError``, since ``rankdata`` needs finite values.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 1 or a.size < 3:
        raise DataError("spearman needs 1-D vectors of length >= 3")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("spearman input contains non-finite values")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0, True
    return pearson(rankdata(a), rankdata(b)), False
