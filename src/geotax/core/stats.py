"""Rank statistics: average-tie ranks and Spearman correlation."""

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
    starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    ends = np.r_[starts[1:], a.size]  # one past each run's last position
    ranks = np.empty(a.size, dtype=np.float64)
    # average of ranks start+1 .. end
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac * ac).sum() * (bc * bc).sum())
    if denom == 0.0:
        return 0.0
    return float(np.clip((ac * bc).sum() / denom, -1.0, 1.0))


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


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation in [-1, 1]; 0.0 on degenerate input."""
    rho, _ = spearman_checked(a, b)
    return rho
