"""Procrustes spin test, regime classification, and the frozen linear classifier.

The alignment pipeline is: mean-center both matrices, Frobenius-normalize
copies to compute the optimal orthogonal map R* = V U^T from the SVD of
Xp^T Xc, then fit the isotropic scale s* on the centered (unnormalized)
matrices.  Raw and aligned errors are Frobenius distances per sqrt(n).
Reflections are permitted in R* (no determinant correction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core.embedding import EmbeddingMatrix, as_array
from .core.rng import SeedSpec, rng_create
from .core.stats import distinct
from .errors import ConfigError, DataError

BRITTLE_GLASS_MAX = 2.0     # reduction percent below -> internal fracture
UNTETHERED_GEL_MIN = 4.0    # reduction percent above -> coherent global drift


@dataclass(frozen=True)
class ProcrustesResult:
    raw_error: float            # ||Xc - Xp||_F / sqrt(n), mean-centered
    aligned_error: float        # ||Xc - s* Xp R*||_F / sqrt(n)
    ratio: float                # aligned / raw (0 when exact_match)
    reduction_percent: float    # 100 * (1 - ratio)
    rotation: np.ndarray        # d x d orthogonal (may reflect)
    scale: float
    exact_match: bool


def procrustes_align(x_clean, x_pert) -> ProcrustesResult:
    """Optimal orthogonal + isotropic-scale alignment of perturbed onto clean."""
    xc = as_array(x_clean)
    xp = as_array(x_pert)
    if xc.shape != xp.shape:
        raise DataError(f"{xc.shape} vs {xp.shape}")
    n = xc.shape[0]
    if n < 2:
        raise DataError("need at least 2 samples")
    xc = xc - xc.mean(axis=0)
    xp = xp - xp.mean(axis=0)
    sq = np.sqrt(n)
    raw = float(np.linalg.norm(xc - xp)) / sq
    nc = float(np.linalg.norm(xc))
    npn = float(np.linalg.norm(xp))
    if nc == 0.0 and npn == 0.0:
        raise DataError("both centered matrices are all-zero")
    if raw == 0.0:
        # identical inputs: batch pipelines must not crash on unperturbed controls
        return ProcrustesResult(0.0, 0.0, 0.0, 100.0, np.eye(xc.shape[1]), 1.0, True)
    if nc == 0.0 or npn == 0.0:
        raise DataError("one centered matrix is all-zero")
    u, _, vt = np.linalg.svd((xp / npn).T @ (xc / nc))
    # Optimal orthogonal map for row-major right-multiplication Xp @ R.
    rotation = u @ vt
    rotated = xp @ rotation
    denom = float(np.trace(rotated.T @ rotated))
    scale = float(np.trace(xc.T @ rotated)) / denom
    aligned = float(np.linalg.norm(xc - scale * rotated)) / sq
    ratio = aligned / raw
    return ProcrustesResult(
        raw_error=raw,
        aligned_error=aligned,
        ratio=ratio,
        reduction_percent=100.0 * (1.0 - ratio),
        rotation=rotation,
        scale=scale,
        exact_match=False,
    )


def classify_regime(reduction_percent: float) -> str:
    """Threshold rule on the reduction: <2% BrittleGlass, >4% UntetheredGel."""
    if reduction_percent < BRITTLE_GLASS_MAX:
        return "BrittleGlass"
    if reduction_percent > UNTETHERED_GEL_MIN:
        return "UntetheredGel"
    return "TransitionZone"


# -- frozen linear classifier ------------------------------------------------

# L2 penalty weight 1/C with the C = 1.0 convention, Newton iteration cap and
# gradient-norm tolerance of the frozen linear classifier.
LOGISTIC_PENALTY = 1.0
LOGISTIC_MAX_ITER = 1000
LOGISTIC_TOL = 1e-8
# Newton steps in a row that leave the objective unchanged, after which the
# fit stops; fits that go on to meet the tolerance showed runs of up to 75.
LOGISTIC_STALL = 100


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """L2-regularized logistic regression by damped Newton iteration.

    Minimizes sum_i log(1 + exp(-y_i z_i)) + (1/(2C)) ||w||^2 with the
    intercept unpenalized; deterministic, full batch.  Stops when the
    gradient norm falls below the tolerance, when backtracking finds no step
    that keeps the objective from rising, or after ``LOGISTIC_STALL`` steps
    in a row that leave it unchanged.  Returns (w, b).
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    y_pm = np.where(y > 0, 1.0, -1.0)
    xa = np.concatenate([x, np.ones((n, 1))], axis=1)

    def objective(wv, bv):
        zv = x @ wv + bv
        penalty = 0.5 * LOGISTIC_PENALTY * (wv * wv).sum()
        return float(np.logaddexp(0.0, -y_pm * zv).sum() + penalty)

    base = objective(w, b)
    stalled = 0
    for _ in range(LOGISTIC_MAX_ITER):
        z = x @ w + b
        p = sigmoid(z)                       # P(y=+1)
        grad_z = p - (y_pm + 1.0) / 2.0      # dNLL/dz
        grad_w = x.T @ grad_z + LOGISTIC_PENALTY * w
        grad_b = grad_z.sum()
        gnorm = np.sqrt((grad_w * grad_w).sum() + grad_b * grad_b)
        if gnorm < LOGISTIC_TOL:
            break
        r = np.maximum(p * (1.0 - p), 1e-12)
        h = (xa * r[:, None]).T @ xa
        h[:d, :d] += LOGISTIC_PENALTY * np.eye(d)
        h[np.arange(d + 1), np.arange(d + 1)] += 1e-10  # damping
        step = np.linalg.solve(h, np.concatenate([grad_w, [grad_b]]))
        # backtracking on the penalized objective
        alpha = 1.0
        for _ in range(30):
            w_new = w - alpha * step[:d]
            b_new = b - alpha * step[d]
            value = objective(w_new, b_new)
            if value <= base:
                break
            alpha *= 0.5
        else:  # no step along the Newton direction keeps the objective from rising
            break
        # A huge entry can hold the gradient above the tolerance while float64
        # no longer registers any fall of the objective: the fit has stalled.
        stalled = stalled + 1 if value == base else 0
        if stalled == LOGISTIC_STALL:
            break
        w, b, base = w_new, b_new, value
    return w, b


def stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled per-class round-robin assignment into ``folds`` test index sets."""
    assignments = np.empty(labels.size, dtype=np.int64)
    for cls in distinct(labels):
        idx = np.nonzero(labels == cls)[0]
        idx = idx[rng.permutation(idx.size)]
        assignments[idx] = np.arange(idx.size) % folds
    return [np.nonzero(assignments == f)[0] for f in range(folds)]


def stratified_cv_accuracy(
    x, labels, folds: int, rng: np.random.Generator, fit_score
) -> tuple[float, float]:
    """Stratified k-fold CV accuracy (mean, std) of a binary classifier.

    ``fit_score(i, x_train, y_train, x_test)`` fits fold ``i`` on 0/1 labels
    (1 = the larger class label) and returns test decision values; >= 0 predicts 1.
    """
    if folds < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds, got {folds}")
    data = as_array(x)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (data.shape[0],):
        raise DataError(f"{labels.size} labels for {data.shape[0]} samples")
    classes = distinct(labels)
    if classes.size != 2:
        raise DataError(f"need exactly 2 classes, got {classes.size}")
    if min((labels == c).sum() for c in classes) < folds:
        raise DataError("each class needs at least `folds` samples")
    y01 = (labels == classes[1]).astype(np.float64)
    accs = []
    for i, test_idx in enumerate(stratified_folds(labels, folds, rng)):
        train = ~np.isin(np.arange(labels.size), test_idx)
        pred = fit_score(i, data[train], y01[train], data[test_idx]) >= 0.0
        accs.append((pred == (y01[test_idx] > 0)).mean())
    return float(np.mean(accs)), float(np.std(accs))


def frozen_head_classifier(
    x: EmbeddingMatrix | np.ndarray,
    labels: np.ndarray,
    folds: int = 5,
    seed: SeedSpec | int = SeedSpec(),
) -> tuple[float, float]:
    """Stratified k-fold CV accuracy of the frozen linear classifier.

    Logistic regression with C = 1.0 convention (penalty weight 1/C),
    iteration cap 1000, gradient tolerance 1e-8.  Returns (mean, std).
    """

    def fit_score(i, x_train, y_train, x_test):
        w, b = logistic_fit(x_train, y_train)
        return x_test @ w + b

    return stratified_cv_accuracy(x, labels, folds, rng_create(seed), fit_score)
