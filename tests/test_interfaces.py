"""Serialization seams: walk export, FASTA feature extraction, MI report
emission."""

import json

import numpy as np

from geotax.cli import main
from geotax.core.io import load_matrix, write_embeddings
from geotax.core.embedding import EmbeddingMatrix
from geotax.core.rng import SeedSpec, rng_create
from geotax.core.sequence import DNA, SymbolSequence
from geotax.dynamics import GlobalRange, Trajectory
from geotax.ingest.fasta import FastaRecord, write_fasta
from geotax.mine.features import features_from_fasta
from geotax.walks import build_interpolation_walk, walk_to_matrix


def test_walk_matrix_export(tmp_path, rng):
    t = np.arange(64) / 16.0
    a = Trajectory(np.cos(3 * t), 0.0625)
    b = Trajectory(np.cos(9 * t + 1.0), 0.0625)
    walk = build_interpolation_walk(a, b, GlobalRange([-1.0], [1.0]), n_steps=7)
    mat = walk_to_matrix(walk)
    assert mat.n == 7 and mat.d == 64
    write_embeddings(tmp_path / "walk.emb1", mat)
    assert load_matrix(tmp_path / "walk.emb1").n == 7


def test_features_from_fasta(tmp_path):
    path = tmp_path / "c.fasta"
    write_fasta([FastaRecord("a", "GGCC"), FastaRecord("b", "ATAT")], path)
    feats = features_from_fasta(path, "dna")
    assert feats.shape == (2, 17)
    assert feats[0, 0] == 1.0 and feats[1, 0] == 0.0


def test_cli_walk_interpolation_emits_emb1(tmp_path):
    out = tmp_path / "walk"
    assert main(["--seed", "320", "--out-dir", str(out), "walk",
                 "--mode", "interpolation", "--steps", "21"]) == 0
    assert (out / "walk.emb1").exists()
    steps = (out / "walk_steps.csv").read_text().splitlines()
    assert steps[0] == "step,alpha"
    assert len(steps) == 22


def test_cli_mine_fasta_features_report(tmp_path, rng):
    corpus = []
    gen = rng_create(SeedSpec(320, "mine-fasta"))
    for i in range(40):
        seq = SymbolSequence(gen.integers(0, 4, 300), DNA)
        corpus.append(FastaRecord(f"s{i}", seq.to_string()))
    fasta = tmp_path / "c.fasta"
    write_fasta(corpus, fasta)
    feats = features_from_fasta(fasta, "dna")
    emb = tmp_path / "emb.emb1"
    # embeddings correlated with the features plus noise
    write_embeddings(
        emb,
        EmbeddingMatrix(feats @ gen.standard_normal((17, 6))
                        + 0.1 * gen.standard_normal((40, 6))),
    )
    out = tmp_path / "mi"
    assert main(["--out-dir", str(out), "mine",
                 "--features-fasta", str(fasta), "--embeddings", str(emb),
                 "--seeds", "320", "--epochs", "30"]) == 0
    report = json.loads((out / "report.json").read_text())
    payload = report["results"]
    assert "traces" in payload and "320" in payload["traces"]
    assert payload["excess"] is not None
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[0].startswith("condition,length")
    assert csv[1].startswith("model,40,")


def test_cli_csv_header_flag(tmp_path, rng):
    x = rng.standard_normal((30, 6))
    clean = tmp_path / "clean.csv"
    with open(clean, "w") as fh:
        fh.write("c0,c1,c2,c3,c4,c5\n")
        for row in x:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    pert = tmp_path / "pert.csv"
    with open(pert, "w") as fh:
        fh.write("c0,c1,c2,c3,c4,c5\n")
        for row in x + 0.05 * rng.standard_normal(x.shape):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    out = tmp_path / "run"
    assert main(["--csv-header", "--out-dir", str(out), "stability",
                 "--clean", str(clean), "--pert", f"n={pert}",
                 "--splits", "2", "--bootstrap", "1"]) == 0
    assert (out / "report.csv").exists()
