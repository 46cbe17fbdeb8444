"""Embedding matrices and pairwise dissimilarity matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError

ZERO_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An n x d matrix of sample embeddings, float64 internally.

    File formats may store float32 but all arithmetic runs in 64 bits so
    that residual comparisons at the 1e-3 scale are not polluted by
    accumulation error.  The matrix takes ownership of a C-contiguous
    float64 ``data`` (and int64 ``labels``) and freezes it, without a copy.
    """

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("embedding matrix must be 2-D with n,d >= 1")
        if not np.isfinite(arr).all():
            raise DataError("embedding matrix contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (arr.shape[0],):
                raise DataError("labels length must equal sample count")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def take(self, rows: np.ndarray) -> "EmbeddingMatrix":
        lab = None if self.labels is None else self.labels[rows]
        return EmbeddingMatrix(self.data[rows], lab)

    @classmethod
    def coerce(cls, x) -> "EmbeddingMatrix":
        """``x`` itself if it is an embedding matrix, else one built from it."""
        return x if isinstance(x, EmbeddingMatrix) else cls(x)


def as_array(x) -> np.ndarray:
    """The float64 array behind ``x``: an embedding matrix's data, or ``x``
    converted without validation."""
    return x.data if isinstance(x, EmbeddingMatrix) else np.asarray(x, dtype=np.float64)


def read_only(arr: np.ndarray, source) -> np.ndarray:
    """``arr`` with writes disabled.  When ``arr`` is the writeable
    ``source`` array itself, a copy is frozen instead, so the caller's
    array stays writeable."""
    if arr is source and arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def as_columns(x) -> np.ndarray:
    """``as_array(x)`` with a 1-D input read as one column of samples."""
    arr = as_array(x)
    return arr[:, None] if arr.ndim == 1 else arr


def _upper_triangle(n: int) -> np.ndarray:
    """Boolean n x n mask of the strict upper triangle.  Indexing with it
    gathers in row-major order, the condensed order, without the two
    index arrays of ``np.triu_indices``."""
    return np.less.outer(np.arange(n), np.arange(n))


@dataclass(frozen=True)
class DistanceMatrix:
    """Condensed pairwise distances: upper triangle of a symmetric matrix.

    Takes ownership of a float64 ``values`` and freezes it, without a copy:
    ``cosine_rdm`` hands over its fresh n(n-1)/2 vector.
    """

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        expect = self.n * (self.n - 1) // 2
        if vals.shape != (expect,):
            raise DataError(f"expected {expect} condensed entries, got {vals.shape}")
        if not np.isfinite(vals).all() or (vals < 0).any():
            raise DataError("distances must be finite and nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def vector(self) -> np.ndarray:
        return self.values


def unit_rows(x) -> np.ndarray:
    """The rows of ``x`` scaled to unit L2 norm.  Raises ``DataError``
    naming the first row with norm below 1e-300."""
    data = as_array(x)
    norms = np.linalg.norm(data, axis=1)
    bad = np.nonzero(norms < ZERO_NORM_FLOOR)[0]
    if bad.size:
        raise DataError(f"row {int(bad[0])} has zero norm")
    return data / norms[:, None]


def cosine_rdm(x: EmbeddingMatrix | np.ndarray) -> DistanceMatrix:
    """Pairwise cosine-distance dissimilarity matrix, entries in [0, 2].

    Entry (i, j) is 1 - <x_i, x_j> / (|x_i| |x_j|).  Raises
    ``DataError`` on rows with norm below 1e-300.
    """
    unit = unit_rows(x)
    n = unit.shape[0]
    sim = unit @ unit.T
    del unit
    np.clip(sim, -1.0, 1.0, out=sim)
    values = sim[_upper_triangle(n)]
    del sim
    return DistanceMatrix(n, np.subtract(1.0, values, out=values))


def cross_distance_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine distances from each row of ``a`` to each row of ``b`` (m x n)."""
    sim = unit_rows(a) @ unit_rows(b).T  # a is checked first
    np.clip(sim, -1.0, 1.0, out=sim)
    return 1.0 - sim
