import hashlib
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
from geotax.core.io import read_embeddings, write_embeddings
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
    results = json.loads((gen_dir / "report.json").read_text())["results"]
    assert (results["system"], results["n"], results["length"]) == ("oscillator", 3, 128)
    assert sorted(results["files"]) == ["range.emb1", *(f"traj_{i:04d}.emb1" for i in range(3))]
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


def rerun_reproduces(run: Path, rerun: Path) -> None:
    """``report --rerun`` writes the run's report.json and every file it
    names again, byte for byte; a file outside the run directory is
    deleted first and written again in place."""
    files = json.loads((run / "report.json").read_text())["results"]["files"]
    written = {run / name: (run / name).read_bytes() for name in files}
    assert all(hashlib.sha256(written[run / name]).hexdigest() == digest
               for name, digest in files.items())
    outside = [path for path in written if not path.is_relative_to(run)]
    for path in outside:
        path.unlink()
    assert main(["--out-dir", str(rerun), "report", "--rerun", str(run / "report.json")]) == 0
    assert read_all_bytes(rerun) == read_all_bytes(run)
    assert all(path.read_bytes() == written[path] for path in outside)


def test_cli_gen_rerun_is_byte_identical(tmp_path):
    run = tmp_path / "gen"
    assert main(["--seed", "5", "--out-dir", str(run), "gen", "--system", "waveform",
                 "--n", "3", "--length", "64", "--components", "2"]) == 0
    rerun_reproduces(run, tmp_path / "rerun")


def test_cli_discretize_rerun_is_byte_identical(tmp_path, embedding_pair):
    clean, pert = embedding_pair
    run = tmp_path / "disc"
    assert main(["--out-dir", str(run), "discretize", "--input", str(clean), str(pert),
                 "--bins", "32"]) == 0
    rerun_reproduces(run, tmp_path / "rerun")


def test_cli_perturb_rerun_is_byte_identical(tmp_path, embedding_pair):
    clean, _ = embedding_pair
    fasta = tmp_path / "in.fasta"
    fasta.write_text(">s1\nACGTTGCAACGGATCCATGA\n>s2\nGGATCCATGATTACAGGCAT\n")
    manifest = tmp_path / "man.csv"
    manifest.write_text(f"{clean},value_noise,0.1,3\n{fasta},substitute,0.2,4\n")
    single = ["perturb", "--input", str(clean), "--kind", "value_noise", "--rate", "0.2",
              "--output", str(tmp_path / "noisy.emb1")]
    for name, argv in (("single", single), ("manifest", ["perturb", "--manifest", str(manifest)])):
        run = tmp_path / name
        assert main(["--seed", "9", "--out-dir", str(run), *argv]) == 0
        rerun_reproduces(run, tmp_path / f"{name}-rerun")


def test_cli_discretize_missing_input_removes_the_directories_it_made(tmp_path, capsys):
    out = tmp_path / "d_new" / "sub"
    argv = ["--out-dir", str(out), "discretize", "--input", str(tmp_path / "missing.emb1")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "d_new").exists()


def test_cli_discretize_range_of_three_rows_removes_the_run_directory(tmp_path,
                                                                    embedding_pair, capsys):
    clean, _ = embedding_pair
    grange = tmp_path / "range.emb1"
    write_embeddings(grange, EmbeddingMatrix(np.arange(36.0).reshape(3, 12)))
    out = tmp_path / "sym"
    assert main(["--out-dir", str(out), "discretize", "--input", str(clean),
                 "--range", str(grange)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {grange}: range file must hold exactly 2 rows (min, max)\n"
    )
    assert not out.exists()


def test_cli_discretize_inputs_with_one_stem_exit_2_before_writing(tmp_path, embedding_pair,
                                                                   capsys):
    clean, _ = embedding_pair
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second = tmp_path / "a" / "x.emb1", tmp_path / "b" / "x.emb1"
    for path in (first, second):
        path.write_bytes(clean.read_bytes())
    out = tmp_path / "sym"
    out.mkdir()
    assert main(["--out-dir", str(out), "discretize", "--input", str(first), str(second)]) == 2
    assert capsys.readouterr().err == (
        f"config error: <cli>: discretize inputs {first} and {second} would both write x.sym.csv\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("with_range", [True, False], ids=["range-file", "first-input"])
def test_cli_discretize_channel_mismatch_names_files_and_counts(with_range, tmp_path,
                                                               embedding_pair, capsys):
    clean, _ = embedding_pair   # 12 channels
    narrow = tmp_path / "narrow.emb1"
    write_embeddings(narrow, EmbeddingMatrix(np.arange(20.0).reshape(10, 2)))
    grange = tmp_path / "range.emb1"
    write_embeddings(grange, EmbeddingMatrix(np.array([[0.0, 0.0], [1.0, 1.0]])))
    if with_range:
        argv, first = [str(clean), "--range", str(grange)], f"range file {grange}"
    else:
        argv, first = [str(narrow), str(clean)], str(narrow)
    out = tmp_path / "sym"
    assert main(["--out-dir", str(out), "discretize", "--input", *argv]) == 3
    assert capsys.readouterr().err == f"data error: {clean} has 12 channels but {first} has 2\n"
    assert not out.exists()


def test_cli_perturb_manifest_missing_file_removes_the_run_directory(tmp_path,
                                                                   embedding_pair, capsys):
    clean, _ = embedding_pair
    manifest = tmp_path / "man.csv"
    manifest.write_text(f"{clean},value_noise,0.1,1\n{tmp_path / 'missing.emb1'},reverse,0,1\n")
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "perturb", "--manifest", str(manifest)]) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not out.exists()


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


def three_perturbations(tmp_path, clean_path):
    x = read_embeddings(clean_path).data
    rng = rng_create(SeedSpec(320, "cli-three"))
    argv = []
    for name, sigma in (("a", 0.05), ("b", 0.3), ("c", 1.0)):
        path = tmp_path / f"{name}.emb1"
        write_embeddings(path, EmbeddingMatrix(x + sigma * rng.standard_normal(x.shape)))
        argv += ["--pert", f"{name}={path}"]
    return argv


def test_cli_stability_rows_share_one_clean_side(tmp_path, embedding_pair):
    clean, _ = embedding_pair
    out = tmp_path / "stab"
    assert main(["--out-dir", str(out), "stability", "--clean", str(clean),
                 *three_perturbations(tmp_path, clean), "--splits", "3", "--bootstrap", "2"]) == 0
    rows = json.loads((out / "report.json").read_text())["results"]
    assert sorted(rows) == ["a", "b", "c"]
    for row in rows.values():
        assert row["provenance"]["stream"] == "stability"
        for key in ("sample_split", "feature_split", "anchor_stability"):
            assert row["metrics"][key] == rows["a"]["metrics"][key]
            assert row["bootstrap_std"][key] == rows["a"]["bootstrap_std"][key]
    assert rows["a"]["metrics"]["rdm_similarity"] > rows["c"]["metrics"]["rdm_similarity"]


def test_cli_stability_rejects_a_repeated_or_empty_perturbation_name(tmp_path, embedding_pair,
                                                                   capsys):
    clean, pert = embedding_pair
    out = tmp_path / "bad"
    argv = ["--out-dir", str(out), "stability", "--clean", str(clean)]
    assert main([*argv, "--pert", f"a={pert}", "--pert", f"a={clean}"]) == 2
    assert f"--pert 'a={clean}': perturbation name 'a' is repeated" in capsys.readouterr().err
    assert main([*argv, "--pert", f"={pert}"]) == 2
    assert f"--pert '={pert}': empty perturbation name" in capsys.readouterr().err
    cfg = tmp_path / "empty-name.cfg"
    cfg.write_text(f"experiment = stability\nstability.clean = {clean}\n"
                   f"stability.pert. = {pert}\n")
    assert main(["--out-dir", str(out), "report", "--config", str(cfg)]) == 2
    assert "key 'stability.pert.' has an empty perturbation name" in capsys.readouterr().err
    assert not out.exists()


def test_cli_stability_shape_mismatch_names_the_perturbation(tmp_path, embedding_pair, capsys):
    clean, _ = embedding_pair
    argv = three_perturbations(tmp_path, clean)
    bad = tmp_path / "bad.emb1"
    write_embeddings(bad, EmbeddingMatrix(np.ones((50, 12))))
    argv[-1] = f"c={bad}"  # the last of three pairs
    out = tmp_path / "stab"
    assert main(["--out-dir", str(out), "stability", "--clean", str(clean), *argv,
                 "--splits", "2", "--bootstrap", "1"]) == 3
    assert capsys.readouterr().err == (
        "data error: perturbation 'c': clean and perturbed shapes differ: "
        "clean (120, 12), perturbed (50, 12)\n"
    )
    assert not out.exists()


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
    run = tmp_path / "run"
    assert main(["--out-dir", str(run), "perturb", "--input", str(fasta),
                 "--kind", "reverse_complement", "--output", str(out)]) == 0
    text = out.read_text()
    assert "ACGTACGTACGTACGTACGT" in text  # RC palindrome
    # the report names --output with its SHA-256
    files = json.loads((run / "report.json").read_text())["results"]["files"]
    assert files == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}


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
    monkeypatch.setattr("geotax.stability.evaluate", recording)
    assert main(["--out-dir", str(tmp_path / "ok"), *argv]) == 0
    assert inside == [1]
    assert openblas_threads() == before
    monkeypatch.setattr("geotax.stability.evaluate", failing)
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


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # plain np.unique and np.setdiff1d import numpy.ma on their first call
    rng = np.random.default_rng(2)
    labels = rng.permutation(np.arange(80) % 2)
    clean = 3.0 * labels[:, None] + rng.standard_normal((80, 8))
    write_embeddings(tmp_path / "clean.emb1", EmbeddingMatrix(clean, labels=labels))
    write_embeddings(tmp_path / "pert.emb1",
                     EmbeddingMatrix(clean + 0.3 * rng.standard_normal(clean.shape), labels=labels))
    (tmp_path / "labels.csv").write_text("".join(f"{v}\n" for v in labels))
    runs = [
        ["stability", "--clean", "clean.emb1", "--pert", "p=pert.emb1",
         "--max-samples", "60", "--splits", "2", "--bootstrap", "2"],
        ["texture", "--n", "7", "--length", "64", "--splits", "2"],
        ["vq-sweep", "--k-values", "4,8,16"],
        ["probe", "--embeddings", "clean.emb1", "--labels", "labels.csv", "--arch", "linear"],
    ]
    code = (
        "import sys\nfrom geotax.cli import main\n"
        f"for i, argv in enumerate({runs!r}):\n"
        "    assert main(['--out-dir', f'run{i}', *argv]) == 0, argv\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout.splitlines()[-1:], proc.stderr) == (0, ["False"], "")
