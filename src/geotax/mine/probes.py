"""Nonlinear MLP probes with stratified cross-validation.

The diagnostic logic: if an MLP probe substantially outperforms the
linear one, information exists but sits on a curved manifold; if both
are at chance, the representation is genuinely uninformative.
"""

from __future__ import annotations

from ..core.rng import SeedSpec, rng_create
from ..errors import ConfigError
from ..procrustes import stratified_cv_accuracy
from .mlp import MLPConfig, train_binary_classifier

PROBE_ARCHS = {
    "mlp": (256, 64),
    "mlp-wide": (512, 256, 64),
}
PROBE_CONFIG = dict(dropout=0.0, lr=1e-3, epochs=200)


def probe_config(arch: str) -> MLPConfig:
    if arch not in PROBE_ARCHS:
        # `linear` runs through frozen_head_classifier, not an MLP
        raise ConfigError(
            f"unknown probe arch {arch!r}; choose from {sorted(['linear', *PROBE_ARCHS])}"
        )
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
    spec = SeedSpec.coerce(seed)
    cfg = probe_config(arch)

    def fit_score(i, x_train, y_train, x_test):
        net = train_binary_classifier(x_train, y_train, cfg, spec.derive(f"fold{i}"))
        return net.predict(x_test).ravel()

    fold_rng = rng_create(spec.derive("probe-folds"))
    return stratified_cv_accuracy(x, labels, folds, fold_rng, fit_score)
