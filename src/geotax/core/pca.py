"""Principal component projection via SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .embedding import EmbeddingMatrix, as_array


@dataclass(frozen=True)
class PCAResult:
    projected: EmbeddingMatrix          # n x k_eff scores
    components: np.ndarray              # k_eff x d loadings
    explained_variance_ratio: np.ndarray
    singular_values: np.ndarray
    mean: np.ndarray
    rank_deficient: bool                # requested k exceeded numerical rank

    @property
    def k(self) -> int:
        return self.components.shape[0]


def pca_project(x: EmbeddingMatrix | np.ndarray, k: int) -> PCAResult:
    """Project onto the top-k principal components.

    Centering is applied; components are ordered by descending explained
    variance.  Sign convention: the largest-magnitude loading of each
    component is made positive, so the projection is deterministic.
    Requesting k > min(n, d) raises; k exceeding the numerical rank
    returns the available components with ``rank_deficient`` set.
    """
    data = as_array(x)
    n, d = data.shape
    if not 1 <= k <= min(n, d):
        raise DataError(f"k={k} outside 1..min(n,d)={min(n, d)}")
    mean = data.mean(axis=0)
    centered = data - mean
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
    labels = x.labels if isinstance(x, EmbeddingMatrix) else None
    return PCAResult(
        projected=EmbeddingMatrix(centered @ comps.T, labels),
        components=comps,
        explained_variance_ratio=evr,
        singular_values=s[:k_eff].copy(),
        mean=mean,
        rank_deficient=k_eff < k,
    )
