"""Nonlinear MLP probes with stratified cross-validation.

The diagnostic logic: if an MLP probe substantially outperforms the
linear one, information exists but sits on a curved manifold; if both
are at chance, the representation is genuinely uninformative.
"""

from __future__ import annotations

import numpy as np

from ..core.embedding import as_array
from ..core.rng import SeedSpec, rng_create
from ..errors import SingleClassError
from ..procrustes import stratified_folds
from .mlp import MLPConfig, train_binary_classifier

PROBE_ARCHS = {
    "mlp": (256, 64),
    "mlp-wide": (512, 256, 64),
}
PROBE_CONFIG = dict(dropout=0.0, lr=1e-3, epochs=200, batch_size=64)


def probe_config(arch: str) -> MLPConfig:
    if arch not in PROBE_ARCHS:
        raise ValueError(f"unknown probe arch {arch!r}; choose from {sorted(PROBE_ARCHS)}")
    return MLPConfig(hidden=PROBE_ARCHS[arch], **PROBE_CONFIG)


def mlp_probe_cv(
    x,
    labels,
    arch: str = "mlp",
    folds: int = 5,
    seed: SeedSpec | int = SeedSpec(),
) -> tuple[float, float]:
    """Stratified k-fold CV accuracy of an MLP probe (mean, std).

    Training uses early stopping with a 15% validation split, patience 20,
    learning rate 1e-3.
    """
    data = as_array(x)
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.size != 2:
        raise SingleClassError(f"need exactly 2 classes, got {classes.size}")
    if min((labels == c).sum() for c in classes) < folds:
        raise SingleClassError("each class needs at least `folds` samples")
    spec = SeedSpec.coerce(seed)
    rng = rng_create(spec.derive("probe-folds"))
    cfg = probe_config(arch)
    y01 = (labels == classes[1]).astype(np.float64)
    accs = []
    for i, test_idx in enumerate(stratified_folds(labels, folds, rng)):
        mask = np.ones(labels.size, dtype=bool)
        mask[test_idx] = False
        net = train_binary_classifier(
            data[mask], y01[mask], cfg, spec.derive(f"fold{i}"),
            val_fraction=0.15, patience=20,
        )
        pred = net.predict(data[test_idx]).ravel() >= 0.0
        accs.append(float((pred == (y01[test_idx] > 0)).mean()))
    accs = np.asarray(accs)
    return float(accs.mean()), float(accs.std())
