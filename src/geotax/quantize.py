"""Codebooks and the quantization double bind.

Learned (k-means) codebooks, reconstruction error,
perturbation re-encoding, boundary-crossing estimation, the 1/log K
distortion fit, and Shannon rate-distortion reference curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core.embedding import as_columns, read_only
from .core.rng import SeedSpec, rng_create
from .core.sequence import SymbolSequence, bins_alphabet
from .core.stats import distinct
from .errors import ConfigError, DataError
from .procrustes import procrustes_align

KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-6
# Distances per block of the nearest-centroid search: 512 KiB, so a block
# stays in cache for its argmin.  32k to 128k ran the sweep equally fast.
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Codebook:
    """K centroids defining a nearest-neighbour (Voronoi) tokenizer."""

    centroids: np.ndarray          # K x m
    inertia_trace: tuple = field(default=(), compare=False)
    # the fitted points' nearest centroids, as ``encode`` gives them
    assignment: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 2:
            raise DataError("codebook needs at least 2 centroids")
        if not np.isfinite(c).all():
            raise DataError("centroids must be finite")
        object.__setattr__(self, "centroids", read_only(c, self.centroids))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _sq_distances(
    points: np.ndarray, pp: np.ndarray, centroids: np.ndarray, cc: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # ||p - c||^2 expanded from the squared row norms ``pp`` of the points
    # and ``cc`` of the centroids; clamp tiny negatives from cancellation.
    # ``out`` (points x centroids) is filled in place.
    d2 = np.matmul(points, centroids.T, out=out)
    d2 *= 2.0
    np.subtract(pp[:, None], d2, out=d2)
    d2 += cc[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _row_norms(x: np.ndarray) -> np.ndarray:
    return (x * x).sum(axis=1)


def _nearest(
    points: np.ndarray, pp: np.ndarray, centroids: np.ndarray, dist: np.ndarray | None = None
) -> np.ndarray:
    """Each point's nearest centroid, ties to the lowest index.

    The distances are computed a block of rows at a time into one
    block-sized scratch array, and each block's ``argmin`` is taken while
    the block is in cache.  A block holds at most ``BLOCK_ENTRIES``
    distances, and the rows are split evenly between the blocks.  When
    ``dist`` (n) is given, each point's squared distance to its centroid
    is written into it from the same block.

    A row's bytes depend on the BLAS call that computes it: numpy hands a
    one-row product to gemv, and OpenBLAS computes a product of at most
    1200 entries with 32 or more columns in another kernel.  Blocks split
    evenly are the whole product or hold about ``BLOCK_ENTRIES / 2``
    distances or more, past both, so they give the whole product's bytes.
    """
    n, k = points.shape[0], centroids.shape[0]
    cc = _row_norms(centroids)
    blocks = -(-n // max(1, BLOCK_ENTRIES // k))
    scratch = np.empty((-(-n // blocks) if blocks else 0, k))
    assign = np.empty(n, dtype=np.intp)
    for b in range(blocks):
        rows = slice(b * n // blocks, (b + 1) * n // blocks)
        size = rows.stop - rows.start
        block = _sq_distances(points[rows], pp[rows], centroids, cc, out=scratch[:size])
        nearest = np.argmin(block, axis=1, out=assign[rows])
        if dist is not None:
            dist[rows] = block[np.arange(size), nearest]
    return assign


def _kmeans_pp_init(
    points: np.ndarray, pp: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))

    def dist_to(j: int) -> np.ndarray:
        c = centroids[j : j + 1]
        return _sq_distances(points, pp, c, _row_norms(c)).ravel()

    centroids[0] = points[rng.integers(n)]
    d2 = dist_to(0)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[np.searchsorted(np.cumsum(d2 / total), rng.random())]
        np.minimum(d2, dist_to(j), out=d2)
    return centroids


def _update_centroids(
    points: np.ndarray, assign: np.ndarray, dist: np.ndarray, centroids: np.ndarray
) -> None:
    """One Lloyd update of ``centroids`` in place.

    ``assign`` is each point's nearest centroid and ``dist`` (n) its squared
    distance to it.  Visiting clusters 0..K-1 in order, a non-empty cluster
    moves to the mean of its points, and an empty one takes the point
    farthest from its current centroid, which then belongs to it.  A stolen
    point is no nearer to its new centroid than to its nearest one, so it
    stays the farthest: every empty cluster takes the one point
    ``argmax(dist)``.  That point leaves its own cluster only if stolen
    before that cluster's turn, and if it was that cluster's only point,
    the cluster is empty by its turn and takes it too.  Every mean is a
    per-column ``bincount`` over the points that stay.  That sums each
    cluster's rows in index order, as ``points[mask].mean(axis=0)`` does
    for two or more columns, so the centroids are the same bytes.
    """
    k = centroids.shape[0]
    labels, kept = assign, points
    counts = np.bincount(assign, minlength=k)
    stolen = counts == 0
    if stolen.any():
        far = int(np.argmax(dist))
        if assign[far] > np.argmax(stolen):  # stolen before its own cluster's turn
            keep = np.arange(assign.size) != far
            labels, kept = assign[keep], points[keep]
            counts = np.bincount(labels, minlength=k)
            stolen = counts == 0
        counts[stolen] = 1  # their rows are overwritten below
    for c in range(centroids.shape[1]):
        centroids[:, c] = np.bincount(labels, weights=kept[:, c], minlength=k) / counts
    if stolen.any():
        centroids[stolen] = points[far]


def kmeans_fit(
    data,
    k: int,
    seed: SeedSpec | int = SeedSpec(),
    init_centroids: np.ndarray | None = None,
) -> Codebook:
    """Lloyd's algorithm with k-means++ initialization.

    Iterates until the relative inertia change drops below 1e-6 or 300
    iterations.  Empty clusters are re-seeded to the point farthest from its
    assigned centroid, keeping the fit deterministic.  ``init_centroids``
    seeds the fit from an existing codebook (extra slots drawn k-means++
    style), which is how nested sweeps keep reconstruction error monotone.
    """
    points = as_columns(data)
    n = points.shape[0]
    if n < k:
        raise DataError(f"n={n} < K={k}")
    rng = rng_create(seed)
    pp = _row_norms(points)
    if init_centroids is not None:
        prev = np.asarray(init_centroids, dtype=np.float64)
        if prev.shape[0] >= k:
            centroids = prev[:k].copy()
        else:
            centroids = np.vstack([prev, _kmeans_pp_init(points, pp, k - prev.shape[0], rng)])
    else:
        centroids = _kmeans_pp_init(points, pp, k, rng)

    def exact_inertia(assign: np.ndarray) -> float:
        # direct residuals: no cancellation when a point sits on its centroid
        resid = points - centroids[assign]
        return float((resid * resid).sum())

    trace = []
    prev_inertia = np.inf
    dist = np.empty(n)
    for _ in range(KMEANS_MAX_ITER):
        assign = _nearest(points, pp, centroids, dist)
        inertia = exact_inertia(assign)
        trace.append(inertia)
        _update_centroids(points, assign, dist, centroids)
        if prev_inertia < np.inf and prev_inertia > 0:
            if abs(prev_inertia - inertia) / prev_inertia < KMEANS_REL_TOL:
                break
        elif inertia == 0.0:
            break
        prev_inertia = inertia
    assign = _nearest(points, pp, centroids)
    trace.append(exact_inertia(assign))
    return Codebook(centroids, tuple(trace), assign)


def encode(codebook: Codebook, points) -> SymbolSequence:
    """Nearest-centroid assignment; ties go to the lowest index."""
    pts = as_columns(points)
    if pts.shape[1] != codebook.dim:
        raise DataError("point dimension does not match codebook")
    assign = _nearest(pts, _row_norms(pts), codebook.centroids)
    return SymbolSequence(assign, bins_alphabet(codebook.k))


def decode(codebook: Codebook, symbols: SymbolSequence | np.ndarray) -> np.ndarray:
    idx = symbols.symbols if isinstance(symbols, SymbolSequence) else np.asarray(symbols)
    if idx.size and (idx.min() < 0 or idx.max() >= codebook.k):
        raise DataError("symbol outside codebook range")
    return codebook.centroids[idx]


def reconstruction_mse(codebook: Codebook, data) -> float:
    pts = as_columns(data)
    recon = decode(codebook, encode(codebook, pts))
    return float(((pts - recon) ** 2).mean())


def boundary_crossing_rate(
    codebook: Codebook,
    data,
    sigma: float,
    seed: SeedSpec | int = SeedSpec(),
    trials: int = 8,
) -> float:
    """Monte-Carlo probability that a Gaussian-perturbed point re-encodes
    to a different symbol.  Denser Voronoi boundaries (larger K) raise it."""
    if sigma <= 0:
        raise DataError("sigma must be positive")
    pts = as_columns(data)
    rng = rng_create(seed)
    base = encode(codebook, pts).symbols
    crossed = 0
    for _ in range(trials):
        noisy = pts + sigma * rng.standard_normal(pts.shape)
        crossed += int((encode(codebook, noisy).symbols != base).sum())
    return crossed / (trials * pts.shape[0])


def fit_inverse_log(k_values, d_values) -> tuple[float, float, float]:
    """OLS of distortion on 1/ln K.  Returns (intercept, slope, r^2)."""
    k = np.asarray(k_values, dtype=np.float64)
    d = np.asarray(d_values, dtype=np.float64)
    if distinct(k).size < 3:
        raise DataError("need >= 3 distinct K values")
    x = 1.0 / np.log(k)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, d, rcond=None)
    resid = d - design @ coef
    ss_res = float((resid * resid).sum())
    ss_tot = float(((d - d.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DataError("distortion values are constant")
    r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def rd_bound(sigma2: float, d_m: float, rate_bits: float) -> float:
    """Shannon minimum distortion at rate R for a Gaussian source:
    D(R) = sigma^2 * 2^(-2R/d_M)."""
    if sigma2 <= 0 or d_m <= 0 or rate_bits < 0:
        raise DataError("need sigma2>0, d_M>0, R>=0")
    return sigma2 * 2.0 ** (-2.0 * rate_bits / d_m)


def rd_bound_codebook(sigma2: float, d_m: float, k: int) -> float:
    """Same bound at the discrete capacity R = log2 K, i.e. D ~ K^(-2/d_M)."""
    return rd_bound(sigma2, d_m, np.log2(k))


@dataclass(frozen=True)
class RDCurve:
    """Codebook sweep rows plus the 1/ln K distortion fit."""

    k_values: tuple
    recon_mse: tuple
    procrustes_d: tuple
    fit_intercept: float
    fit_slope: float
    fit_r2: float

    def rows(self):
        return list(zip(self.k_values, self.recon_mse, self.procrustes_d))


def check_sweep(k_values, sigma: float) -> list:
    """The K values of a sweep, sorted.  A sigma that is not finite and
    positive, a repeated K, fewer than 3 K values (the 1/ln K fit needs 3)
    or a K below 2 is a ``ConfigError``."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"vq.sigma must be finite and > 0, got {sigma}")
    ks = sorted(k_values)
    if len(set(ks)) != len(ks):
        raise ConfigError(f"vq.k_values must be distinct, got {list(k_values)}")
    if len(ks) < 3:
        raise ConfigError(f"the 1/ln K fit needs >= 3 vq.k_values, got {len(ks)}")
    if ks[0] < 2:
        raise ConfigError(f"every K of vq.k_values must be >= 2, got {ks[0]}")
    return ks


def vq_double_bind_sweep(
    data,
    k_values=(32, 64, 128, 256, 512, 1024),
    sigma: float = 0.05,
    seed: SeedSpec | int = SeedSpec(),
) -> RDCurve:
    """Fit codebooks across K, measuring reconstruction MSE against
    perturbation-induced geometric distortion.

    Codebooks are nested: each K starts from the previous K's centroids, so
    reconstruction error is monotone in K.  Perturbations are applied in
    continuous input space and re-encoded (never in symbol index space);
    distortion is the Procrustes residual between the decoded clean and
    decoded perturbed point sets.  The settings are checked by
    ``check_sweep``, and fewer points than the largest K is a
    ``DataError``, each raised before any codebook is fit.
    """
    ks = check_sweep(k_values, sigma)
    pts = as_columns(data)
    if pts.shape[0] < ks[-1]:
        raise DataError(f"n={pts.shape[0]} < K={ks[-1]}")
    spec = SeedSpec.coerce(seed)
    rng = rng_create(spec.derive("sweep-noise"))
    noisy = pts + sigma * rng.standard_normal(pts.shape)
    mses, dists = [], []
    prev = None
    for k in ks:
        cb = kmeans_fit(pts, k, spec.derive(f"k{k}"), init_centroids=prev)
        prev = cb.centroids
        clean_dec = decode(cb, cb.assignment)
        mses.append(float(((pts - clean_dec) ** 2).mean()))
        dists.append(procrustes_align(clean_dec, decode(cb, encode(cb, noisy))).aligned_error)
    a, b, r2 = fit_inverse_log(ks, dists)
    return RDCurve(tuple(ks), tuple(mses), tuple(dists), a, b, r2)
