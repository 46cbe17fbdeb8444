"""Principal component projection via SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .embedding import EmbeddingMatrix, as_array


@dataclass(frozen=True)
class PCAResult:
    scores: np.ndarray                  # n x k_eff projection
    explained_variance_ratio: np.ndarray


def pca_project(x: EmbeddingMatrix | np.ndarray, k: int) -> PCAResult:
    """Project onto the top-k principal components.

    Centering is applied; components are ordered by descending explained
    variance.  Sign convention: the largest-magnitude loading of each
    component is made positive, so the projection is deterministic.
    Requesting k > min(n, d) raises; k exceeding the numerical rank
    returns the scores of the available components only.
    """
    data = as_array(x)
    n, d = data.shape
    if not 1 <= k <= min(n, d):
        raise DataError(f"k={k} outside 1..min(n,d)={min(n, d)}")
    centered = data - data.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, d) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int((s > tol).sum())
    k_eff = min(k, max(rank, 1))
    comps = vt[:k_eff].copy()
    # deterministic sign: largest-|loading| coordinate positive
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    total = float((s * s).sum())
    evr = (s[:k_eff] * s[:k_eff]) / total if total > 0 else np.zeros(k_eff)
    return PCAResult(centered @ comps.T, evr)
