import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geotax.procrustes as procrustes
from geotax.core.rng import SeedSpec, rng_create
from geotax.errors import DataError
from geotax.procrustes import (
    classify_regime,
    frozen_head_classifier,
    logistic_fit,
    procrustes_align,
)

# (model, reduction percent) pairs ingested from the cross-architecture
# reverse/RC alignment table; thresholds: <2 BrittleGlass, >4 UntetheredGel.
CROSS_ARCH_REDUCTIONS = {
    "ESM2-8M": 5.1,
    "ESM2-650M": 13.6,
    "ESM2-3B": 19.7,
    "ESM2-15B": 26.2,
    "DNABERT-3mer": 38.2,
    "DNABERT-6mer": 64.0,
    "NT-50M": 24.3,
    "NT-2.5B": 26.0,
    "HyenaDNA": 44.3,
    "Caduceus-0.5M": 74.8,
    "Caduceus-7.7M": 74.8,
    "Evo2-7B-8K-synth": 25.6,
    "Evo2-7B-1M-synth": 26.8,
    "Evo2-7B-8K-real": 23.8,
    "Evo2-7B-1M-real": 22.1,
}

# 1%-substitution reductions quoted per model family.
SNP_REDUCTIONS = {
    "ESM2-8M": (0.7, "BrittleGlass"),
    "ESM2-650M": (1.8, "BrittleGlass"),
    "ESM2-3B": (5.2, "UntetheredGel"),
    "ESM2-15B": (5.0, "UntetheredGel"),
    "Caduceus-SNP": (0.4, "BrittleGlass"),
    "midband": (3.0, "TransitionZone"),
}


def random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


# -- alignment -----------------------------------------------------------


def test_rotation_fully_removable(rng):
    x = rng.standard_normal((200, 32))
    q = random_orthogonal(rng, 32)
    res = procrustes_align(x, x @ q)
    assert res.ratio < 1e-6
    assert res.reduction_percent > 99.9


def test_exact_match_flag(rng):
    x = rng.standard_normal((50, 8))
    res = procrustes_align(x, x)
    assert res.exact_match and res.ratio == 0.0 and res.raw_error == 0.0


def test_pure_scale_recovery(rng):
    x = rng.standard_normal((100, 16))
    res = procrustes_align(x, 2.0 * x)
    assert res.scale == pytest.approx(0.5, abs=1e-9)
    assert res.aligned_error < 1e-9


def test_alignment_never_worse_than_raw(rng):
    for _ in range(20):
        x = rng.standard_normal((40, 6))
        y = rng.standard_normal((40, 6))
        res = procrustes_align(x, y)
        assert res.aligned_error <= res.raw_error + 1e-9
        assert 0.0 <= res.ratio <= 1.0 + 1e-9


def test_rotation_is_orthogonal(rng):
    x = rng.standard_normal((60, 10))
    y = x + 0.3 * rng.standard_normal((60, 10))
    res = procrustes_align(x, y)
    assert np.abs(res.rotation.T @ res.rotation - np.eye(10)).max() < 1e-8


def test_invariance_under_common_orthogonal_transform(rng):
    x = rng.standard_normal((80, 12))
    y = x + 0.2 * rng.standard_normal((80, 12))
    q = random_orthogonal(rng, 12)
    r1 = procrustes_align(x, y)
    r2 = procrustes_align(x @ q, y @ q)
    assert r1.aligned_error == pytest.approx(r2.aligned_error, abs=1e-8)


def test_small_noise_ratio_near_one(rng):
    x = rng.standard_normal((500, 64))
    y = x + 0.01 * rng.standard_normal((500, 64))
    assert procrustes_align(x, y).ratio > 0.9


def test_degenerate_all_zero():
    x = np.ones((5, 3))  # all rows equal: centered matrix is zero
    with pytest.raises(DataError, match="one centered matrix is all-zero"):
        procrustes_align(x, 2 * np.ones((5, 3)) + np.arange(15).reshape(5, 3))


def test_shape_mismatch(rng):
    with pytest.raises(DataError, match=r"\(5, 3\) vs \(5, 4\)"):
        procrustes_align(rng.standard_normal((5, 3)), rng.standard_normal((5, 4)))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_orthogonal_recovery_property(seed):
    rng = rng_create(SeedSpec(seed, "prop"))
    x = rng.standard_normal((50, 8))
    q = random_orthogonal(rng, 8)
    assert procrustes_align(x, x @ q).ratio < 1e-6


# -- regimes --------------------------------------------------------------


def test_regime_thresholds():
    assert classify_regime(0.7) == "BrittleGlass"
    assert classify_regime(5.2) == "UntetheredGel"
    assert classify_regime(3.0) == "TransitionZone"
    assert classify_regime(2.0) == "TransitionZone"  # boundaries inclusive
    assert classify_regime(4.0) == "TransitionZone"


def test_regime_labels_for_ingested_table():
    for model, pct in CROSS_ARCH_REDUCTIONS.items():
        assert classify_regime(pct) == "UntetheredGel", model
    for model, (pct, expected) in SNP_REDUCTIONS.items():
        assert classify_regime(pct) == expected, model


# -- logistic regression -------------------------------------------------------


def test_logistic_fit_separates_shifted_blobs():
    rng = rng_create(SeedSpec(320, "logit"))
    x = np.vstack([rng.standard_normal((100, 4)) + 2, rng.standard_normal((100, 4)) - 2])
    y = np.array([1.0] * 100 + [0.0] * 100)
    w, b = logistic_fit(x, y)
    pred = (x @ w + b) >= 0
    assert (pred == (y > 0)).mean() > 0.99


def test_logistic_fit_stops_once_a_huge_entry_stalls_the_objective(monkeypatch):
    # one entry of 3.9e27 holds the gradient norm far above the tolerance
    # while the objective no longer changes in float64
    x = np.random.default_rng(320).standard_normal((40, 6))
    x[0, 0] = 3.9e27
    y = np.tile([0.0, 1.0], 20)
    calls = []
    sigmoid = procrustes.sigmoid

    def counting(z):
        calls.append(1)
        return sigmoid(z)

    monkeypatch.setattr(procrustes, "sigmoid", counting)
    w, b = logistic_fit(x, y)
    assert len(calls) < procrustes.LOGISTIC_MAX_ITER // 2
    # running on to the iteration cap changes no decision
    calls.clear()
    monkeypatch.setattr(procrustes, "LOGISTIC_STALL", procrustes.LOGISTIC_MAX_ITER + 1)
    w_cap, b_cap = logistic_fit(x, y)
    assert len(calls) == procrustes.LOGISTIC_MAX_ITER
    assert np.array_equal(x @ w + b >= 0, x @ w_cap + b_cap >= 0)
    # a matrix without the huge entry converges as before
    calls.clear()
    logistic_fit(x[1:], y[1:])
    assert len(calls) < 10


def test_classifier_separable_blobs():
    rng = rng_create(SeedSpec(320, "blobs4"))
    n, d = 200, 10
    x = np.vstack([rng.standard_normal((n, d)), rng.standard_normal((n, d)) + 4.0])
    labels = np.array([0] * n + [1] * n)
    acc, std = frozen_head_classifier(x, labels, folds=5, seed=SeedSpec(320))
    assert acc > 0.95


def test_classifier_shuffled_labels_chance():
    rng = rng_create(SeedSpec(320, "blobs5"))
    n, d = 200, 10
    x = np.vstack([rng.standard_normal((n, d)), rng.standard_normal((n, d)) + 4.0])
    labels = rng.permutation(np.array([0] * n + [1] * n))
    acc, _ = frozen_head_classifier(x, labels, folds=5, seed=SeedSpec(320))
    assert abs(acc - 0.5) < 0.08


def test_classifier_duplicated_dataset_stable():
    rng = rng_create(SeedSpec(320, "blobs6"))
    x = np.vstack([rng.standard_normal((50, 6)), rng.standard_normal((50, 6)) + 4.0])
    labels = np.array([0] * 50 + [1] * 50)
    acc1, _ = frozen_head_classifier(x, labels, seed=SeedSpec(1))
    acc2, _ = frozen_head_classifier(
        np.vstack([x, x]), np.concatenate([labels, labels]), seed=SeedSpec(1)
    )
    assert acc1 == pytest.approx(acc2, abs=1e-12)


def test_classifier_single_class():
    with pytest.raises(DataError, match="need exactly 2 classes, got 1"):
        frozen_head_classifier(np.ones((10, 3)), np.zeros(10, dtype=int))
