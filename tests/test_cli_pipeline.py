import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_core import openblas_threads

from geotax.cli import main
from geotax.core.embedding import EmbeddingMatrix
from geotax.core.io import write_embeddings
from geotax.core.rng import SeedSpec, rng_create
from geotax.dynamics import gen_lorenz
from geotax.errors import ConfigError
from geotax.ingest.config import Config
from geotax.quantize import rd_bound_codebook
from geotax.report import rerun_from_provenance, run_pipeline
from geotax.stability import evaluate


@pytest.fixture
def embedding_pair(tmp_path):
    rng = rng_create(SeedSpec(320, "cli-fixture"))
    x = rng.standard_normal((120, 12))
    clean = tmp_path / "clean.emb1"
    pert = tmp_path / "pert.emb1"
    write_embeddings(clean, EmbeddingMatrix(x))
    write_embeddings(pert, EmbeddingMatrix(x + 0.05 * rng.standard_normal(x.shape)))
    return clean, pert


def read_all_bytes(run_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


# -- pipeline ------------------------------------------------------------


def test_stability_pipeline_byte_identical(tmp_path, embedding_pair):
    clean, pert = embedding_pair
    cfg = Config(
        {
            "experiment": "stability",
            "seed": "320",
            "stability.clean": str(clean),
            "stability.pert.noise": str(pert),
            "stability.n_splits": "4",
            "stability.n_bootstrap": "2",
        }
    )
    run1 = run_pipeline(cfg, tmp_path / "run1")
    run2 = run_pipeline(cfg, tmp_path / "run2")
    assert read_all_bytes(run1) == read_all_bytes(run2)
    csv = (run1 / "report.csv").read_text().splitlines()
    assert csv[0] == "Perturbation,RDM Sim.,Pert. Stab.,Pert. Mag.,Composite"
    assert csv[1].startswith("noise,")
    assert (run1 / "report.ndjson").exists()


def test_rerun_from_provenance_reproduces_reports(tmp_path, embedding_pair):
    clean, pert = embedding_pair
    cfg = Config(
        {
            "experiment": "stability",
            "seed": "320",
            "stability.clean": str(clean),
            "stability.pert.noise": str(pert),
            "stability.n_splits": "3",
            "stability.n_bootstrap": "1",
        }
    )
    run1 = run_pipeline(cfg, tmp_path / "run1")
    run2 = rerun_from_provenance(run1 / "report.json", tmp_path / "run2")
    assert read_all_bytes(run1) == read_all_bytes(run2)


def test_texture_pipeline_desk_corpus(tmp_path):
    cfg = Config(
        {
            "experiment": "texture",
            "seed": "320",
            "texture.n": "200",
            "texture.length": "400",
            "stability.n_splits": "6",
            "stability.n_bootstrap": "1",
        }
    )
    run = run_pipeline(cfg, tmp_path / "tex")
    table = (run / "report.csv").read_text().splitlines()
    assert table[0] == "Condition,RC RDM,RC Composite,Recovery"
    assert len(table) == 5
    report = json.loads((run / "report.json").read_text())
    recoveries = {c["condition"]: c["recovery"] for c in report["results"]["conditions"]}
    assert recoveries["real"] == pytest.approx(1.0)
    assert recoveries["random"] == pytest.approx(0.0)
    assert recoveries["dinuc_shuffled"] > recoveries["markov"]


def test_texture_config_file_runs_the_cli_split_defaults(tmp_path):
    cfg_path = tmp_path / "tex.cfg"
    cfg_path.write_text("experiment = texture\ntexture.n = 30\ntexture.length = 80\n")
    assert main(["--out-dir", str(tmp_path / "cfg"), "report", "--config", str(cfg_path)]) == 0
    assert main(["--out-dir", str(tmp_path / "cli"), "texture", "--n", "30",
                 "--length", "80"]) == 0
    results = [json.loads((tmp_path / run / "report.json").read_text())["results"]
               for run in ("cfg", "cli")]
    assert results[0] == results[1]


def test_unknown_experiment_is_config_error(tmp_path):
    from geotax.errors import ConfigError

    with pytest.raises(ConfigError):
        run_pipeline(Config({"experiment": "nope"}), tmp_path / "x")


def test_missing_key_error_names_key(tmp_path):
    from geotax.errors import ConfigError

    with pytest.raises(ConfigError) as err:
        run_pipeline(Config({"experiment": "stability"}), tmp_path / "x")
    assert "stability.clean" in str(err.value)


# -- CLI ------------------------------------------------------------------


def test_cli_gen_discretize_round(tmp_path):
    gen_dir = tmp_path / "gen"
    code = main(
        ["--seed", "320", "--out-dir", str(gen_dir),
         "gen", "--system", "oscillator", "--n", "3", "--length", "128"]
    )
    assert code == 0
    assert (gen_dir / "range.emb1").exists()
    assert (gen_dir / "meta.cfg").exists()
    disc_dir = tmp_path / "disc"
    code = main(
        ["--out-dir", str(disc_dir), "discretize",
         "--input", str(gen_dir / "traj_0000.emb1"),
         "--range", str(gen_dir / "range.emb1")]
    )
    assert code == 0
    symbols = (disc_dir / "traj_0000.sym.csv").read_text().strip().split(",")
    assert len(symbols) == 128
    assert all(0 <= int(s) <= 255 for s in symbols)


def test_cli_stability_and_exit_codes(tmp_path, embedding_pair):
    clean, pert = embedding_pair
    out = tmp_path / "stab"
    code = main(
        ["--out-dir", str(out), "stability", "--clean", str(clean),
         "--pert", f"noise={pert}", "--splits", "3", "--bootstrap", "1"]
    )
    assert code == 0
    assert (out / "report.json").exists()
    # malformed --pert is a config error (exit 2)
    code = main(
        ["--out-dir", str(tmp_path / "bad"), "stability",
         "--clean", str(clean), "--pert", "justapath"]
    )
    assert code == 2
    # missing file is a data error (exit 3)
    code = main(
        ["--out-dir", str(tmp_path / "bad2"), "stability",
         "--clean", str(tmp_path / "absent.emb1"), "--pert", f"n={pert}"]
    )
    assert code == 3


def test_cli_procrustes(tmp_path, embedding_pair):
    clean, pert = embedding_pair
    out = tmp_path / "proc"
    assert main(["--out-dir", str(out), "procrustes",
                 "--clean", str(clean), "--pert", str(pert)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["regime"] in ("BrittleGlass", "TransitionZone", "UntetheredGel")


def test_cli_perturb_fasta(tmp_path):
    fasta = tmp_path / "in.fasta"
    fasta.write_text(">s1\nACGTACGTACGTACGTACGT\n")
    out = tmp_path / "out.fasta"
    assert main(["perturb", "--input", str(fasta), "--kind", "reverse_complement",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert "ACGTACGTACGTACGTACGT" in text  # RC palindrome
    # single-file mode writes --output only, no run directory
    assert not Path("geotax-run").exists()


def test_cli_walk_and_lipschitz(tmp_path):
    walk_dir = tmp_path / "walk"
    assert main(["--seed", "320", "--out-dir", str(walk_dir), "walk",
                 "--mode", "mutation", "--length", "400", "--n-mutations", "12"]) == 0
    fasta = (walk_dir / "walk.fasta").read_text()
    assert fasta.count(">") == 13

    rng = rng_create(SeedSpec(320, "lip"))
    path_file = tmp_path / "path.emb1"
    write_embeddings(
        path_file,
        EmbeddingMatrix(np.cumsum(rng.standard_normal((30, 6)), axis=0) + 10.0),
    )
    lip_dir = tmp_path / "lip"
    assert main(["--out-dir", str(lip_dir), "lipschitz",
                 "--embeddings", str(path_file), "--metric", "l2"]) == 0
    assert (lip_dir / "profile.csv").read_text().startswith("step,L")
    assert (lip_dir / "trajectory.svg").exists()


def test_cli_fetch_synthetic_and_report_rerun(tmp_path):
    fasta = tmp_path / "synth.fasta"
    assert main(["--seed", "9", "fetch", "--source", "synthetic",
                 "--end", "200", "--output", str(fasta)]) == 0
    text = fasta.read_text()
    assert text.startswith(">synthetic")

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "experiment = texture\nseed = 320\ntexture.n = 40\ntexture.length = 120\n"
        "stability.n_splits = 3\nstability.n_bootstrap = 1\n"
    )
    out1 = tmp_path / "r1"
    assert main(["--out-dir", str(out1), "report", "--config", str(cfg_path)]) == 0
    out2 = tmp_path / "r2"
    assert main(["--out-dir", str(out2), "report",
                 "--rerun", str(out1 / "report.json")]) == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)


def test_cli_vq_sweep(tmp_path):
    out = tmp_path / "vq"
    assert main(["--seed", "320", "--out-dir", str(out),
                 "vq-sweep", "--k-values", "8,16,32"]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "K,recon_mse,procrustes_D,shannon_D"
    assert len(lines) == 4
    # literals from before the nested flag and the codebook method were removed
    results = json.loads((out / "report.json").read_text())["results"]
    assert [row[:3] for row in results["rows"]] == [
        [8, 9.446260527420073, 0.6236731120385823],
        [16, 4.124008129080286, 0.5201668906391353],
        [32, 2.1070294662317997, 0.4684456221089574],
    ]
    assert results["fit"] == {
        "a": 0.23136664668003423, "b": 0.8124738109947955, "r2": 0.9977991632870556,
    }


def test_cli_vq_sweep_shannon_column(tmp_path):
    var = float(gen_lorenz(SeedSpec(320, "vq-lorenz"), 2000).values.var())
    reports = {}
    for d_m, flags in ((2.06, []), (3.0, ["--intrinsic-dim", "3"])):
        out = tmp_path / str(d_m)
        assert main(["--out-dir", str(out), "vq-sweep", "--k-values", "4,8,16", *flags]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["intrinsic_dim"] == d_m
        assert [row[3] for row in results["rows"]] == [
            rd_bound_codebook(var, d_m, k) for k in (4, 8, 16)
        ]
        csv_rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        assert [row[3] for row in csv_rows[1:]] == [f"{row[3]:.10g}" for row in results["rows"]]
        reports[d_m] = results
    assert [row[:3] for row in reports[2.06]["rows"]] == [row[:3] for row in reports[3.0]["rows"]]
    assert main(["--out-dir", str(tmp_path / "bad"), "vq-sweep", "--intrinsic-dim", "0"]) == 2


def test_cli_probe(tmp_path, capsys):
    """probe writes report.json and report.csv, and its rerun is byte-identical."""
    rng = rng_create(SeedSpec(320, "probe-cli"))
    x = np.vstack([rng.standard_normal((60, 6)), rng.standard_normal((60, 6)) + 4])
    emb = tmp_path / "emb.emb1"
    write_embeddings(emb, EmbeddingMatrix(x))
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(["0"] * 60 + ["1"] * 60) + "\n")
    out = tmp_path / "probe"
    assert main(["--out-dir", str(out), "probe", "--embeddings", str(emb),
                 "--labels", str(labels), "--arch", "linear"]) == 0
    assert capsys.readouterr().out == f"probe report in {out}\n"
    report = json.loads((out / "report.json").read_text())
    results = report["results"]
    assert report["experiment"] == "probe"
    assert results["arch"] == "linear" and results["folds"] == 5 and results["accuracy"] > 0.9
    assert (out / "report.csv").read_text() == (
        f"arch,folds,accuracy,std\nlinear,5,{results['accuracy']:.6f},{results['std']:.6f}\n"
    )
    rerun = tmp_path / "rerun"
    assert main(["--out-dir", str(rerun), "report", "--rerun", str(out / "report.json")]) == 0
    assert read_all_bytes(out) == read_all_bytes(rerun)


# -- one BLAS thread per report, no leftovers on failure -----------------------


def test_report_runs_on_one_blas_thread_and_restores_the_callers(tmp_path, embedding_pair,
                                                                  monkeypatch):
    before = openblas_threads()
    if before is None:
        pytest.skip("numpy has no bundled scipy-openblas")
    clean, pert = embedding_pair
    inside = []

    def recording(*args, **kwargs):
        inside.append(openblas_threads())
        return evaluate(*args, **kwargs)

    def failing(*args, **kwargs):
        inside.append(openblas_threads())
        raise ConfigError("stop inside the experiment")

    argv = ["stability", "--clean", str(clean), "--pert", f"noise={pert}",
            "--splits", "3", "--bootstrap", "1"]
    monkeypatch.setattr("geotax.report.evaluate", recording)
    assert main(["--out-dir", str(tmp_path / "ok"), *argv]) == 0
    assert inside == [1]
    assert openblas_threads() == before
    monkeypatch.setattr("geotax.report.evaluate", failing)
    assert main(["--out-dir", str(tmp_path / "fail"), *argv]) == 2
    assert inside == [1, 1]
    assert openblas_threads() == before


def test_stability_report_is_byte_identical_on_one_and_two_blas_threads(tmp_path):
    if openblas_threads() is None:
        pytest.skip("numpy has no bundled scipy-openblas")
    rng = np.random.default_rng(1)
    labels = rng.permutation(np.arange(200) % 4)
    centers = 2 * rng.standard_normal((4, 64))
    clean = centers[labels] + rng.standard_normal((200, 64))
    pert = clean + 0.3 * rng.standard_normal(clean.shape)
    write_embeddings(tmp_path / "clean.emb1", EmbeddingMatrix(clean, labels=labels))
    write_embeddings(tmp_path / "pert.emb1", EmbeddingMatrix(pert, labels=labels))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "geotax.cli", "--out-dir", str(out), "stability",
             "--clean", str(tmp_path / "clean.emb1"), "--pert", f"p={tmp_path / 'pert.emb1'}",
             "--max-samples", "200", "--splits", "4", "--bootstrap", "2"],
            env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_failed_run_removes_only_the_directories_it_created(tmp_path, embedding_pair):
    _, pert = embedding_pair
    cfg = tmp_path / "vq.cfg"
    cfg.write_text("experiment = vq-sweep\nvq.n = -5\n")
    out = tmp_path / "new" / "run"
    assert main(["--out-dir", str(out), "report", "--config", str(cfg)]) == 2
    assert not (tmp_path / "new").exists()
    assert main(["--out-dir", str(out), "stability",
                 "--clean", str(tmp_path / "absent.emb1"), "--pert", f"n={pert}"]) == 3
    assert not (tmp_path / "new").exists()
    # an --out-dir that existed stays, with what it held
    out.mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    assert main(["--out-dir", str(out), "report", "--config", str(cfg)]) == 2
    assert (out / "notes.txt").read_text() == "kept\n"
