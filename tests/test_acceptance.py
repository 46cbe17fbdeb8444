"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 trains the full estimator protocol and takes a few
minutes on a small machine.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from test_core import spearman_oracle
from test_quantize import voronoi_crossing_oracle
from test_ingest import RecordingTransport

from geotax.core.embedding import EmbeddingMatrix
from geotax.core.io import write_embeddings
from geotax.core.rng import SeedSpec, rng_create
from geotax.core.stats import spearman_checked
from geotax.dynamics import butterfly_test, estimate_lle, gen_lorenz, lorenz_twins
from geotax.ingest.cache import ResultCache
from geotax.ingest.config import Config
from geotax.ingest.fetch import FetchSpec, fetch_genome
from geotax.mine.estimator import sanity_suite
from geotax.mine.mlp import MLP
from geotax.mine.probes import mlp_probe_cv
from geotax.procrustes import classify_regime, frozen_head_classifier, procrustes_align
from geotax.quantize import (
    boundary_crossing_rate,
    fit_inverse_log,
    kmeans_fit,
    reconstruction_mse,
)
from geotax.stability import SplitConfig, evaluate
from geotax.texture import dinucleotide_shuffle, kmer_histogram, rc_permutation, recovery_fraction
from geotax.core.sequence import DNA, SymbolSequence, reverse_complement
from geotax.report import rerun_from_provenance, run_pipeline

from test_mine import central_difference_check, dv_loss_and_grad, mse_loss_and_grad
from test_dynamics import LORENZ_LLE_ORACLE

README = Path(__file__).resolve().parents[1] / "README.md"


def announce(number: int, title: str):
    print(f"\nACCEPTANCE {number} ({title}): PASS")


# 1 ---------------------------------------------------------------------------


def test_acceptance_1_mine_sanity_suite():
    workers = min(8, os.cpu_count() or 1)
    cases = sanity_suite(
        rhos=(0.0, 0.3, 0.6, 0.9), n=2000, seeds=(320, 420, 520, 620, 720),
        workers=workers,
    )
    for case in cases:
        assert case.passed, (
            f"rho={case.rho}: |{case.estimate:.4f} - {case.true_mi:.4f}| "
            f">= {case.tolerance:.4f}"
        )
        # training must have improved the bound in every run
    announce(1, "MINE sanity suite, seeds 320..720")


# 2 ---------------------------------------------------------------------------


def test_acceptance_2_gradient_correctness():
    probe_archs = [(256, 128), (256, 64), (512, 256, 64)]
    rng = rng_create(SeedSpec(320, "acc-grad"))
    for hidden in probe_archs:
        net = MLP(8, hidden, 1, rng_create(SeedSpec(320, f"acc-net-{hidden}")))
        x = rng.standard_normal((24, 8))
        y = rng.standard_normal((24, 1))
        worst_mse = central_difference_check(
            net, lambda n: mse_loss_and_grad(n, x, y), n_probes=10
        )
        inp = rng.standard_normal((48, 8))
        worst_dv = central_difference_check(
            net, lambda n: dv_loss_and_grad(n, inp, 24), n_probes=10
        )
        assert worst_mse < 1e-4, f"{hidden}: MSE gradcheck {worst_mse}"
        assert worst_dv < 1e-4, f"{hidden}: DV gradcheck {worst_dv}"
    announce(2, "backprop vs central finite differences < 1e-4")


# 3 ---------------------------------------------------------------------------


def test_acceptance_3_procrustes_recovery_and_regimes():
    rng = rng_create(SeedSpec(320, "acc-proc"))
    for _ in range(100):
        x = rng.standard_normal((200, 32))
        q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        res = procrustes_align(x, x @ q)
        assert res.ratio < 1e-6
    x = rng.standard_normal((200, 32))
    res = procrustes_align(x, 4.0 * x)
    assert abs(res.scale - 0.25) < 1e-9
    # regime labels for quoted reduction values
    table = {
        0.7: "BrittleGlass", 1.8: "BrittleGlass", 0.3: "BrittleGlass",
        0.5: "BrittleGlass", 5.2: "UntetheredGel", 5.0: "UntetheredGel",
        19.7: "UntetheredGel", 20.1: "UntetheredGel", 26.2: "UntetheredGel",
        5.1: "UntetheredGel", 13.6: "UntetheredGel", 38.2: "UntetheredGel",
        64.0: "UntetheredGel", 24.3: "UntetheredGel", 26.0: "UntetheredGel",
        44.3: "UntetheredGel", 74.8: "UntetheredGel", 25.6: "UntetheredGel",
        3.0: "TransitionZone",
    }
    for pct, label in table.items():
        assert classify_regime(pct) == label, pct
    announce(3, "Procrustes rotation/scale recovery + regime labels")


# 4 ---------------------------------------------------------------------------


def test_acceptance_4_harness_identity():
    rng = rng_create(SeedSpec(320, "acc-harness"))
    x = rng.standard_normal((300, 16))
    cfg = SplitConfig(n_splits=10, n_bootstrap=5)
    r1 = evaluate(x, [("p", x)], cfg=cfg, seed=SeedSpec(320))["p"]
    r2 = evaluate(x, [("p", x)], cfg=cfg, seed=SeedSpec(320))["p"]
    m = r1.metrics
    assert abs(m["rdm_similarity"] - 1.0) < 1e-9
    assert m["perturbation_magnitude"] == 0.0
    four = [m["rdm_similarity"], m["sample_split"], m["feature_split"], m["anchor_stability"]]
    assert abs(r1.composite - float(np.mean(four))) < 1e-12
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    announce(4, "harness identity run + byte-identical reports")


# 5 ---------------------------------------------------------------------------


def test_acceptance_5_spearman_oracle_equivalence():
    rng = rng_create(SeedSpec(320, "acc-spearman"))
    for trial in range(1000):
        n = int(rng.integers(3, 51))
        if trial % 2:
            a = rng.integers(0, 8, size=n).astype(float)   # dense ties
            b = rng.integers(0, 8, size=n).astype(float)
        else:
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
        assert spearman_checked(a, b)[0] == pytest.approx(spearman_oracle(a, b), abs=1e-12)
    announce(5, "Spearman matches O(n^2) rank oracle on 1000 vectors")


# 6 ---------------------------------------------------------------------------


def test_acceptance_6_texture_invariants():
    rng = rng_create(SeedSpec(320, "acc-texture"))
    corpus = [SymbolSequence(rng.integers(0, 4, 1000), DNA) for _ in range(1000)]
    shuffled = dinucleotide_shuffle(corpus, [SeedSpec(trial, "acc-sh") for trial in range(1000)])
    for seq, out in zip(corpus, shuffled):
        assert (kmer_histogram(out, 1) == kmer_histogram(seq, 1)).all()
        assert (kmer_histogram(out, 2) == kmer_histogram(seq, 2)).all()
    for k in (1, 2, 3, 4):
        perm = rc_permutation(k)
        for _ in range(100):
            seq = SymbolSequence(rng.integers(0, 4, 200), DNA)
            h = kmer_histogram(seq, k)
            hr = kmer_histogram(reverse_complement(seq), k)
            assert (hr[perm] == h).all()
    shuffled = recovery_fraction(0.873, 0.858, 0.139)
    markov = recovery_fraction(0.873, 0.167, 0.139)
    assert abs(shuffled - 0.97) <= 0.02
    assert abs(markov - 0.03) <= 0.02
    announce(6, "shuffle count preservation, RC permutation, recovery values")


# 7 ---------------------------------------------------------------------------


def test_acceptance_7_quantization_properties():
    rng = rng_create(SeedSpec(320, "acc-vq"))
    pts = rng.standard_normal((400, 2))
    prev = None
    mses, rates = [], []
    for k in (2, 4, 8, 16, 32):
        cb = kmeans_fit(pts, k, SeedSpec(320, f"acc-k{k}"), init_centroids=prev)
        prev = cb.centroids
        trace = np.array(cb.inertia_trace)
        assert (np.diff(trace) <= 1e-9 * max(trace[0], 1.0)).all()
        mses.append(reconstruction_mse(cb, pts))
        rates.append(boundary_crossing_rate(cb, pts, 0.15, SeedSpec(55), trials=40))
    assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    # brute-force Voronoi oracle agreement for K <= 8 in 2-D
    sub = pts[:50]
    for k in (2, 4, 8):
        cb = kmeans_fit(pts, k, SeedSpec(320, f"acc-k{k}"))
        trials = 400
        mc = boundary_crossing_rate(cb, sub, 0.3, SeedSpec(99), trials=trials)
        exact = voronoi_crossing_oracle(cb.centroids, sub, 0.3)
        se = np.sqrt(max(exact * (1 - exact), 1e-6) / (sub.shape[0] * trials))
        assert abs(mc - exact) < 3 * se + 1e-3
    # inverse-log fit: exact recovery and noisy r^2
    ks = np.array([32, 64, 128, 256, 512, 1024])
    d_exact = 0.02 + 0.3 / np.log(ks)
    a, b, r2 = fit_inverse_log(ks, d_exact)
    assert abs(a - 0.02) < 1e-9 and abs(b - 0.3) < 1e-9 and abs(r2 - 1) < 1e-9
    d_noisy = d_exact + 0.002 * rng.standard_normal(ks.size)
    assert fit_inverse_log(ks, d_noisy)[2] > 0.95
    announce(7, "codebook monotonicity, Voronoi oracle, 1/log K fit")


# 8 ---------------------------------------------------------------------------


def test_acceptance_8_dynamics():
    a, b = lorenz_twins(SeedSpec(320, "acc-lle"), 4000, delta=1e-9)
    res = estimate_lle(a, b)
    assert abs(res.lle - LORENZ_LLE_ORACLE) / LORENZ_LLE_ORACLE < 0.10
    t = np.arange(600) * 0.01
    base = np.stack(
        [np.exp(-0.8 * t) * np.cos(6 * t), np.exp(-0.8 * t) * np.sin(6 * t)], axis=1
    )
    from geotax.dynamics import Trajectory

    damped = estimate_lle(Trajectory(base, 0.01), Trajectory(1.0001 * base, 0.01))
    assert damped.lle < 0
    assert butterfly_test(gen_lorenz(SeedSpec(320, "acc-bf"), 5000)).passed
    flat = Trajectory(np.tile([1.0, 1.0, 20.0], (1000, 1)), 0.01)
    assert not butterfly_test(flat).passed
    rng = rng_create(SeedSpec(320, "acc-noise"))
    noise = Trajectory(
        np.stack([rng.uniform(-15, 15, 2000), rng.uniform(-20, 20, 2000),
                  rng.uniform(5, 40, 2000)], axis=1), 0.01)
    assert not butterfly_test(noise).passed
    announce(8, "LLE vs divergence oracle, butterfly pass/fail")


# 9 ---------------------------------------------------------------------------


def test_acceptance_9_probe_diagnostics():
    rng = rng_create(SeedSpec(320, "acc-probe"))
    n, d = 200, 10
    blobs = np.vstack([rng.standard_normal((n, d)), rng.standard_normal((n, d)) + 4.0])
    labels = np.array([0] * n + [1] * n)
    acc, _ = frozen_head_classifier(blobs, labels, folds=5, seed=SeedSpec(320))
    assert acc > 0.95
    shuffled = rng.permutation(labels)
    acc_sh, _ = frozen_head_classifier(blobs, shuffled, folds=5, seed=SeedSpec(320))
    assert abs(acc_sh - 0.5) < 0.08
    # XOR: nonlinear probe succeeds where the linear head cannot
    signs = rng.choice([-1.0, 1.0], size=(400, 2))
    xor_x = signs + 0.2 * rng.standard_normal((400, 2))
    xor_y = (signs[:, 0] * signs[:, 1] > 0).astype(np.int64)
    lin_acc, _ = frozen_head_classifier(xor_x, xor_y, folds=5, seed=SeedSpec(320))
    mlp_acc, _ = mlp_probe_cv(xor_x, xor_y, "mlp", folds=5, seed=SeedSpec(320))
    assert abs(lin_acc - 0.5) < 0.12
    assert mlp_acc > 0.9
    announce(9, "linear/MLP probe diagnostics incl. XOR separation")


# 10 --------------------------------------------------------------------------


def test_acceptance_10_end_to_end_determinism(tmp_path):
    rng = rng_create(SeedSpec(320, "acc-e2e"))
    x = rng.standard_normal((100, 10))
    clean = tmp_path / "clean.emb1"
    pert = tmp_path / "pert.emb1"
    write_embeddings(clean, EmbeddingMatrix(x))
    write_embeddings(pert, EmbeddingMatrix(x + 0.03 * rng.standard_normal(x.shape)))
    cfg = Config({
        "experiment": "stability", "seed": "320",
        "stability.clean": str(clean), "stability.pert.noise": str(pert),
        "stability.n_splits": "4", "stability.n_bootstrap": "2",
    })
    run1 = run_pipeline(cfg, tmp_path / "run1")
    run2 = rerun_from_provenance(run1 / "report.json", tmp_path / "run2")
    files1 = {p.name: p.read_bytes() for p in sorted(run1.iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted(run2.iterdir())}
    assert files1 == files2
    # cache hits byte-equal cold runs
    dna = "ACGTTGCAGG" * 40
    spec = FetchSpec(chromosome="chr9", start=0, end=400)
    response = (200, json.dumps({"dna": dna}).encode())
    cold = fetch_genome(spec, RecordingTransport(default=response), None)
    cache = ResultCache(tmp_path / "cache")
    fetch_genome(spec, RecordingTransport(default=response), cache)
    offline = RecordingTransport(default=(500, b""))
    warm = fetch_genome(spec, offline, cache)
    assert (warm.symbols == cold.symbols).all()
    assert offline.calls == []
    announce(10, "provenance rerun + cache hits byte-identical")


# 11 --------------------------------------------------------------------------


def test_acceptance_11_scale_scope_disclosure(tmp_path):
    text = " ".join(README.read_text().split())
    assert "scale scope" in text.lower()
    for marker in ("not reproduced", "desk scale"):
        assert marker in text.lower(), f"README must state: {marker}"
    # the toolkit ingests externally produced embeddings and regenerates
    # the per-perturbation report table from them
    rng = rng_create(SeedSpec(320, "acc-ingest"))
    x = rng.standard_normal((150, 24))
    clean = tmp_path / "model_clean.emb1"
    write_embeddings(clean, EmbeddingMatrix(x))
    names = ("snp_1pct", "snp_5pct", "reverse")
    cfg_values = {
        "experiment": "stability", "seed": "320",
        "stability.clean": str(clean),
        "stability.n_splits": "4", "stability.n_bootstrap": "1",
    }
    for i, name in enumerate(names):
        pert = tmp_path / f"model_{name}.emb1"
        write_embeddings(
            pert, EmbeddingMatrix(x + (0.02 + 0.02 * i) * rng.standard_normal(x.shape))
        )
        cfg_values[f"stability.pert.{name}"] = str(pert)
    run = run_pipeline(Config(cfg_values), tmp_path / "tables")
    lines = (run / "report.csv").read_text().splitlines()
    assert lines[0] == "Perturbation,RDM Sim.,Pert. Stab.,Pert. Mag.,Composite"
    assert len(lines) == 1 + len(names)
    announce(11, "scale-scope disclosure + fixture-driven report tables")
