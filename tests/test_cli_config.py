"""The config each pipeline subcommand hands to ``run_pipeline``, and the
exit code of bad seeds and settings.

The CLI config holds the keys of the flags given, in the order of
``report.KEYS``.  ``Config.dump()`` keeps that order and is written into
``report.json`` as ``provenance.config_echo``, so the key order below is
part of the report bytes.
"""

import argparse
import ast
import json
import shlex
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import geotax.cli as cli
import geotax.mine.estimator as estimator
from geotax.core.embedding import EmbeddingMatrix
from geotax.core.io import write_embeddings
from geotax.core.rng import SeedSpec, rng_create
from geotax.errors import ConfigError
from geotax.ingest.config import Config
from geotax.report import KEYS, RUNNERS, run_pipeline

CONFIG_CASES = {
    "gen": (
        ["--seed", "5", "gen", "--system", "lorenz", "--n", "3"],
        "experiment = gen\nseed = 5\ngen.system = lorenz\ngen.n = 3\n",
    ),
    "discretize": (
        ["--csv-header", "discretize", "--input", "a.csv", "b.emb1", "--range", "r.csv",
         "--bins", "64"],
        "experiment = discretize\nio.csv_header = true\n"
        "discretize.input.0 = a.csv\ndiscretize.input.1 = b.emb1\ndiscretize.range = r.csv\n"
        "discretize.bins = 64\n",
    ),
    "perturb": (
        ["perturb", "--input", "in.fasta", "--kind", "substitute", "--rate", "0.05",
         "--output", "snp.fasta"],
        "experiment = perturb\n"
        "perturb.input = in.fasta\nperturb.kind = substitute\nperturb.rate = 0.05\n"
        "perturb.output = snp.fasta\n",
    ),
    "perturb-manifest": (
        ["perturb", "--manifest", "man.csv", "--magnitude", "2"],
        "experiment = perturb\nperturb.magnitude = 2\nperturb.manifest = man.csv\n",
    ),
    "stability": (
        ["--seed", "7", "--threads", "2", "stability", "--clean", "c.emb1",
         "--pert", "b=p2.emb1", "--pert", "a=p1.emb1", "--splits", "4"],
        "experiment = stability\nseed = 7\nthreads = 2\n"
        "stability.clean = c.emb1\nstability.pert.b = p2.emb1\nstability.pert.a = p1.emb1\n"
        "stability.n_splits = 4\n",
    ),
    "stability-deltas": (
        ["--csv-header", "stability", "--clean", "c.csv", "--pert", "x=p.csv",
         "--deltas", "d.csv", "--max-samples", "100", "--bootstrap", "1",
         "--composite-variant", "perturbation"],
        "experiment = stability\nio.csv_header = true\n"
        "stability.clean = c.csv\nstability.pert.x = p.csv\nstability.deltas = d.csv\n"
        "stability.max_samples = 100\nstability.n_bootstrap = 1\n"
        "stability.composite_variant = perturbation\n",
    ),
    "procrustes": (
        ["procrustes", "--clean", "c.emb1", "--pert", "p.emb1"],
        "experiment = procrustes\nprocrustes.clean = c.emb1\nprocrustes.pert = p.emb1\n",
    ),
    "procrustes-export": (
        ["--csv-header", "procrustes", "--clean", "c.csv", "--pert", "p.csv",
         "--export-rotation"],
        "experiment = procrustes\nio.csv_header = true\n"
        "procrustes.clean = c.csv\nprocrustes.pert = p.csv\nprocrustes.export_rotation = true\n",
    ),
    "walk": (
        ["walk"],
        "experiment = walk\n",
    ),
    "walk-profiles": (
        ["walk-profiles", "--steps", "5"],
        "experiment = walk-profiles\nwalk.n_steps = 5\n",
    ),
    "walk-fasta": (
        ["--seed", "9", "walk", "--mode", "mutation", "--fasta", "w.fasta",
         "--n-mutations", "5"],
        "experiment = walk\nseed = 9\n"
        "walk.mode = mutation\nwalk.fasta = w.fasta\nwalk.n_mutations = 5\n",
    ),
    "lipschitz": (
        ["lipschitz", "--embeddings", "e.emb1", "--metric", "l2"],
        "experiment = lipschitz\nlipschitz.embeddings = e.emb1\nlipschitz.metric = l2\n",
    ),
    "mine": (
        ["mine", "--features", "x.emb1", "--embeddings", "z.emb1"],
        "experiment = mine\nmine.features = x.emb1\nmine.embeddings = z.emb1\n",
    ),
    "mine-fasta": (
        ["--threads", "3", "mine", "--features-fasta", "f.fasta", "--feature-kind",
         "protein", "--embeddings", "z.emb1", "--seeds", "1,2", "--epochs", "7",
         "--condition", "Shuffled"],
        "experiment = mine\nthreads = 3\n"
        "mine.features_fasta = f.fasta\nmine.feature_kind = protein\nmine.embeddings = z.emb1\n"
        "mine.seeds = 1,2\nmine.epochs = 7\nmine.condition = Shuffled\n",
    ),
    "mine-sanity": (
        ["mine-sanity"],
        "experiment = mine-sanity\n",
    ),
    "mine-sanity-seeds": (
        ["mine-sanity", "--n", "64", "--seeds", "320,420"],
        "experiment = mine-sanity\nmine.n = 64\nmine.seeds = 320,420\n",
    ),
    "texture": (
        ["texture"],
        "experiment = texture\n",
    ),
    "texture-fasta": (
        ["texture", "--fasta", "t.fasta", "--splits", "2", "--max-samples", "100",
         "--bootstrap", "3"],
        "experiment = texture\n"
        "stability.n_splits = 2\nstability.max_samples = 100\nstability.n_bootstrap = 3\n"
        "texture.fasta = t.fasta\n",
    ),
    "probe": (
        ["probe", "--embeddings", "e.emb1", "--labels", "l.csv"],
        "experiment = probe\nprobe.embeddings = e.emb1\nprobe.labels = l.csv\n",
    ),
    "probe-mlp": (
        ["--csv-header", "probe", "--embeddings", "e.csv", "--labels", "l.csv",
         "--arch", "mlp", "--folds", "3"],
        "experiment = probe\nio.csv_header = true\n"
        "probe.embeddings = e.csv\nprobe.labels = l.csv\nprobe.arch = mlp\n"
        "probe.folds = 3\n",
    ),
    "vq-sweep": (
        ["vq-sweep"],
        "experiment = vq-sweep\n",
    ),
    "vq-sweep-data": (
        ["--seed", "0", "vq-sweep", "--data", "v.emb1", "--k-values", "4,8,16",
         "--sigma", "0.5"],
        "experiment = vq-sweep\nseed = 0\n"
        "vq.data = v.emb1\nvq.k_values = 4,8,16\nvq.sigma = 0.5\n",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_cli_pipeline_config_echo(case, tmp_path, monkeypatch, capsys):
    argv, expected = CONFIG_CASES[case]
    calls = []
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg, out: calls.append((cfg, out)))
    out_dir = tmp_path / "run"
    assert cli.main(["--out-dir", str(out_dir), *argv]) == 0
    (cfg, out), = calls
    assert cfg.dump() == expected
    assert cfg.source == "<cli>"
    assert out == out_dir
    assert capsys.readouterr().out == f"report in {out_dir}\n"


def keys_read_in_source() -> set[str]:
    """Every key literal read from a runner's settings, ``s["..."]``, in
    the source."""
    return {
        node.slice.value
        for path in Path(cli.__file__).parent.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "s" and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def test_key_table_census():
    """``report.KEYS`` holds one row per key a runner reads and nothing
    else, every row names experiments of ``report.RUNNERS``, and each
    subcommand's options are exactly the flags of the rows its experiment
    reads, stored under their keys; a row every experiment reads is a
    global option."""
    rows = [row.key for row in KEYS]
    assert len(rows) == len(set(rows))
    assert sorted(keys_read_in_source()) == sorted(rows)
    assert all(row.reads and set(row.reads) <= set(RUNNERS) for row in KEYS)
    parser = cli.build_parser()
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(RUNNERS) | {"report"}

    def options(p):
        return {(a.option_strings[0], a.dest) for a in p._actions if a.option_strings} - {
            ("-h", "help"), ("--version", "version"), ("--out-dir", "out_dir")}

    every = [row for row in KEYS if set(row.reads) == set(RUNNERS)]
    assert options(parser) == {(row.flag, row.dest) for row in every}
    for command in RUNNERS:
        flagged = {(row.flag, row.dest) for row in KEYS
                   if command in row.reads and row.flag and row not in every}
        assert options(subparsers.choices[command]) == flagged, command


@pytest.mark.parametrize("argv", [
    ["report"],
    ["report", "--config", "a.cfg", "--rerun", "r.json"],
    ["--config", "x.cfg", "report"],
    ["--format", "csv", "probe", "--embeddings", "e.emb1", "--labels", "l.csv"],
    ["--cache-dir", "d", "walk"],
    ["fetch", "--source", "synthetic", "--end", "10", "--output", "o.fa"],
], ids=["report-bare", "report-config-and-rerun", "global-config", "global-format",
        "global-cache-dir", "removed-fetch"])
def test_cli_report_source_and_removed_global_flags_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg, out: pytest.fail("must not run"))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: geotax" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "5", "seed"), ("--threads", "2", "threads"), ("--csv-header", None, "io.csv_header"),
])
@pytest.mark.parametrize("source", ["--config", "--rerun"])
def test_cli_report_refuses_a_global_flag_it_would_ignore(flag, value, key, source, capsys):
    # before, report ran its config's value (seed 320) and exited 0
    Path("s.cfg").write_text("experiment = walk\nwalk.length = 40\nwalk.n_mutations = 2\n")
    argv = ["--out-dir", "run", flag, *([value] if value else []), "report", source, "s.cfg"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: report does not read {flag}; the config key {key!r} sets it\n")
    assert not Path("run").exists()


def test_cli_mine_without_features_is_config_error(capsys):
    # z.emb1 does not exist: the key is missed before any input is read
    assert cli.main(["--out-dir", "run", "mine", "--embeddings", "z.emb1"]) == 2
    assert capsys.readouterr().err == "config error: <cli>: missing required key 'mine.features'\n"
    assert not Path("run").exists()


@pytest.fixture
def pair(tmp_path):
    rng = rng_create(SeedSpec(320, "cli-exit"))
    x = rng.standard_normal((40, 6))
    clean, pert = tmp_path / "clean.emb1", tmp_path / "pert.emb1"
    write_embeddings(clean, EmbeddingMatrix(x))
    write_embeddings(pert, EmbeddingMatrix(x + 0.05 * rng.standard_normal(x.shape)))
    return clean, pert


BAD_SETTINGS = {
    "negative-seed": ["--seed", "-1", "stability"],
    "seed-over-64-bits": ["--seed", "18446744073709551616", "vq-sweep"],
    "zero-splits": ["stability", "--splits", "0"],
    "max-samples-below-10": ["stability", "--max-samples", "5"],
    "texture-zero-splits": ["texture", "--n", "10", "--length", "40", "--splits", "0"],
    "k-values-not-integers": ["vq-sweep", "--k-values", "4,x"],
    "k-values-zero": ["vq-sweep", "--k-values", "0,8,16"],
    "k-values-one": ["vq-sweep", "--k-values", "1,2,4"],
    "k-values-repeated": ["vq-sweep", "--k-values", "8,16,16,32"],
    "k-values-repeated-only-two-distinct": ["vq-sweep", "--k-values", "8,8,16"],
    "k-values-only-two": ["vq-sweep", "--k-values", "8,16"],
    "sigma-nan": ["vq-sweep", "--sigma", "nan"],
    "sigma-inf": ["vq-sweep", "--sigma", "inf"],
    "sigma-zero": ["vq-sweep", "--sigma", "0"],
    "intrinsic-dim-nan": ["vq-sweep", "--intrinsic-dim", "nan"],
    "k-values-empty": ["vq-sweep", "--k-values", ""],
    "zero-bootstrap": ["stability", "--bootstrap", "0"],
    "texture-negative-bootstrap": ["texture", "--n", "10", "--length", "40", "--bootstrap", "-1"],
    "texture-negative-length": ["texture", "--length", "-1"],
    "walk-negative-length": ["walk", "--length", "-1"],
    "gen-negative-length": ["gen", "--system", "lorenz", "--length", "-1"],
    "gen-zero-components": ["gen", "--system", "waveform", "--components", "0"],
    "zero-threads": ["--threads", "0", "mine-sanity", "--n", "16", "--seeds", "1"],
    "seeds-empty": ["mine-sanity", "--n", "16", "--seeds", ""],
}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_cli_bad_seed_and_split_settings_exit_2(case, pair, tmp_path, capsys):
    argv = list(BAD_SETTINGS[case])
    if "stability" in argv:
        clean, pert = pair
        argv += ["--clean", str(clean), "--pert", f"noise={pert}"]
    assert cli.main(["--out-dir", str(tmp_path / "run"), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.fixture
def probe_inputs(tmp_path):
    rng = rng_create(SeedSpec(320, "cli-probe-exit"))
    emb = tmp_path / "emb.emb1"
    write_embeddings(emb, EmbeddingMatrix(rng.standard_normal((20, 3))))
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n" * 10)
    return emb, labels


@pytest.mark.parametrize("arch", ["linear", "mlp"])
@pytest.mark.parametrize("folds", ["0", "1"])
def test_cli_probe_folds_below_2_exit_2(arch, folds, probe_inputs, capsys):
    emb, labels = probe_inputs
    argv = ["probe", "--embeddings", str(emb), "--labels", str(labels),
            "--arch", arch, "--folds", folds]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_cli_probe_non_integer_label_exit_3(probe_inputs, capsys):
    emb, labels = probe_inputs
    labels.write_text("0\nfoo\n")
    assert cli.main(["probe", "--embeddings", str(emb), "--labels", str(labels)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {labels}: ")


def test_cli_probe_label_count_mismatch_exit_3(probe_inputs, capsys):
    # before, an empty file printed numpy's "input contained no data" warning
    # first, and no message named the labels file
    emb, labels = probe_inputs
    for text, count in (("", 0), ("0\n1\n" * 5, 10), ("0\n1\n" * 11, 22)):
        labels.write_text(text)
        assert cli.main(["--out-dir", "run", "probe", "--embeddings", str(emb),
                         "--labels", str(labels)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {labels}: {count} labels for the 20 rows of {emb}\n")
        assert not Path("run").exists()


def test_cli_perturb_manifest_bad_rate_exit_2(pair, tmp_path, capsys):
    clean, _ = pair
    manifest = tmp_path / "man.csv"
    manifest.write_text(f"{clean},value_noise,0.1,1\n{clean},value_noise,x,1\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["--out-dir", str(out), "perturb", "--manifest", str(manifest)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {manifest}:2: ")
    # every row is checked before row 1 is written
    assert not (out / "clean.value_noise.0.emb1").exists()
    assert out.is_dir()


@pytest.mark.parametrize("flag, value", [
    ("--rate", "2"), ("--rate", "-1"), ("--rate", "nan"),
    ("--magnitude", "nan"), ("--magnitude", "inf"), ("--magnitude", "-0.5"),
])
def test_cli_perturb_bad_flag_value_exit_2(flag, value, pair, tmp_path, capsys):
    clean, _ = pair
    argv = ["perturb", "--input", str(clean), "--kind", "value_noise", flag, value,
            "--output", str(tmp_path / "out.emb1")]
    assert cli.main(["--out-dir", str(tmp_path / "run"), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must ")
    assert not (tmp_path / "out.emb1").exists()


def test_cli_perturb_manifest_rate_out_of_range_exit_2(pair, tmp_path, capsys):
    clean, _ = pair
    manifest = tmp_path / "man.csv"
    manifest.write_text(f"{clean},value_noise,0.1,1\n{clean},value_noise,2,1\n")
    argv = ["--out-dir", str(tmp_path / "out"), "perturb", "--manifest", str(manifest)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {manifest}:2: --rate must lie in [0, 1], got 2.0\n"
    )


def test_cli_perturb_manifest_nul_path_exit_2(pair, tmp_path, capsys):
    clean, _ = pair
    manifest = tmp_path / "man.csv"
    manifest.write_bytes(f"{clean},value_noise,0.1,1\n".encode()
                         + b"a\x00.emb1,value_noise,0.1,1\n")
    argv = ["--out-dir", str(tmp_path / "out"), "perturb", "--manifest", str(manifest)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {manifest}:2: NUL byte in 'a\\x00.emb1,value_noise,0.1,1'\n"
    )


def test_cli_perturb_output_in_a_missing_directory_exits_2_before_reading(capsys):
    # before, the input was read and the write failed: "data error: [Errno 2] ..."
    argv = ["--out-dir", "run", "perturb", "--input", "absent.emb1", "--kind", "value_noise",
            "--output", "missing/o.emb1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: <cli>: key 'perturb.output': missing is not an existing directory\n")
    assert not Path("run").exists()


def test_cli_write_that_fails_exits_3_naming_the_path(pair, capsys):
    clean, _ = pair
    Path("taken").mkdir()
    argv = ["--out-dir", "run", "perturb", "--input", str(clean), "--kind", "value_noise",
            "--output", "taken"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: cannot write taken: [Errno 21] ")
    assert not Path("run").exists()
    # an --out-dir that is a file; before, the message named no path
    assert cli.main(["--out-dir", str(clean), "walk", "--length", "40"]) == 3
    assert capsys.readouterr().err == (
        f"data error: cannot write {clean}: [Errno 17] File exists: '{clean}'\n")


def test_cli_perturb_manifest_unknown_kind_exit_2(pair, tmp_path, capsys):
    clean, _ = pair
    manifest = tmp_path / "man.csv"
    manifest.write_text(f"{clean},bogus,0.1,1\n")
    argv = ["--out-dir", str(tmp_path / "out"), "perturb", "--manifest", str(manifest)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {manifest}:1: unknown perturbation kind 'bogus'; choose from "
    )


@pytest.mark.parametrize("flag, value, err", [
    ("--n", "6", "config error: <cli>: key 'texture.n': 6 is below 7\n"),
    ("--n", "7", ""),
    ("--length", "7", "config error: <cli>: key 'texture.length': 7 is below 8\n"),
    ("--length", "8", ""),
])
def test_cli_texture_generated_corpus_boundaries(flag, value, err, tmp_path, capsys):
    run = tmp_path / "run"
    argv = ["--out-dir", str(run), "texture", "--n", "7", "--length", "40", "--splits", "2",
            flag, value]
    assert cli.main(argv) == (2 if err else 0)
    assert capsys.readouterr().err == err
    assert (run / "report.json").exists() == (not err)


@pytest.mark.parametrize("records, short, err", [
    (6, 40, "data error: texture corpus has 6 records, needs at least 7\n"),
    (7, 40, ""),
    (7, 7, "data error: texture corpus record 3 has 7 bases, needs at least 8\n"),
    (7, 8, ""),
])
def test_cli_texture_fasta_corpus_boundaries(records, short, err, tmp_path, capsys):
    """Record 3 holds ``short`` bases, the others 40."""
    rng = rng_create(SeedSpec(320, "cli-texture-fasta"))
    fasta = tmp_path / "t.fasta"
    fasta.write_text("".join(
        f">r{i}\n" + "".join(rng.choice(list("ACGT"), size=short if i == 3 else 40)) + "\n"
        for i in range(1, records + 1)
    ))
    run = tmp_path / "run"
    argv = ["--out-dir", str(run), "texture", "--fasta", str(fasta), "--splits", "2"]
    assert cli.main(argv) == (3 if err else 0)
    assert capsys.readouterr().err == err
    assert (run / "report.json").exists() == (not err)


@pytest.mark.parametrize("bins", [0, -3, 2**53 + 1, 9223372036854775807])
def test_cli_discretize_bins_out_of_range_exit_2(bins, pair, tmp_path, capsys):
    clean, _ = pair
    out = tmp_path / "sym"
    argv = ["--out-dir", str(out), "discretize", "--input", str(clean), "--bins", str(bins)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    bound = "is below 1" if bins < 1 else "is above 2**53"
    assert capsys.readouterr().err == (
        f"config error: <cli>: key 'discretize.bins': {bins} {bound}\n"
    )
    assert not out.exists()


def test_cli_discretize_bins_at_bounds_exit_0(pair, tmp_path):
    clean, _ = pair
    for bins in (1, 2**53):
        out = tmp_path / f"sym{bins}"
        argv = ["--out-dir", str(out), "discretize", "--input", str(clean), "--bins", str(bins)]
        assert cli.main(argv) == 0
        symbols = np.loadtxt(out / "clean.sym.csv", delimiter=",", dtype=np.int64)
        assert symbols.min() >= 0 and symbols.max() <= bins - 1


def test_cli_csv_non_numeric_field_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    argv = ["--out-dir", str(tmp_path / "run"), "lipschitz", "--embeddings", str(bad)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"data error: {bad}:2: ")


def test_cli_fasta_non_ascii_exit_3(tmp_path, capsys):
    fasta = tmp_path / "w.fasta"
    fasta.write_text(">a\nACéGT" + "ACGT" * 600 + "\n", encoding="utf-8")
    argv = ["--out-dir", str(tmp_path / "run"), "walk", "--fasta", str(fasta)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"data error: {fasta}: record 'a': symbol 'É' not in alphabet dna\n")


def write_named_error_inputs() -> None:
    """Two 8-record FASTA files, one with an N in record s6 and one with an
    N in record s0 (walk reads only the first record), a matrix, a range
    file whose rows are equal in one column, and two matrices that share a
    constant column."""
    rng = rng_create(SeedSpec(320, "cli-named-errors"))
    for name, bad in (("n.fasta", 6), ("n0.fasta", 0)):
        records = []
        for i in range(8):
            bases = "".join("ACGT"[b] for b in rng.integers(0, 4, size=60))
            records.append(f">s{i}\n{bases[:10] + 'N' + bases[11:] if i == bad else bases}\n")
        Path(name).write_text("".join(records))
    write_embeddings(Path("z.emb1"), EmbeddingMatrix(rng.standard_normal((8, 3))))
    write_embeddings(Path("t.emb1"), EmbeddingMatrix(rng.standard_normal((10, 2))))
    write_embeddings(Path("r.emb1"), EmbeddingMatrix(np.array([[0.0, -3.0], [0.0, 3.0]])))
    # channel 1 holds 1.0 in every row of both files
    write_embeddings(Path("c.emb1"), EmbeddingMatrix(np.array([[0.0, 1.0], [2.0, 1.0]])))
    write_embeddings(Path("d.emb1"), EmbeddingMatrix(np.array([[1.0, 1.0], [3.0, 1.0]])))


N_IN_S6 = "n.fasta: record 's6': symbol 'N' not in alphabet dna"
NAMED_DATA_ERRORS = {
    "texture-fasta": (["texture", "--fasta", "n.fasta"], N_IN_S6),
    "walk-fasta": (["walk", "--fasta", "n0.fasta"],
                   "n0.fasta: record 's0': symbol 'N' not in alphabet dna"),
    "mine-features-fasta": (["mine", "--features-fasta", "n.fasta", "--embeddings", "z.emb1"],
                            N_IN_S6),
    "perturb-fasta": (["perturb", "--input", "n.fasta", "--kind", "substitute", "--output",
                       "o.fasta"], N_IN_S6),
    "discretize-range": (["discretize", "--input", "t.emb1", "--range", "r.emb1"],
                         "r.emb1: max must exceed min in every channel"),
    "discretize-constant-channel": (["discretize", "--input", "c.emb1", "d.emb1"],
                                    "c.emb1, d.emb1: max must exceed min in every channel, "
                                    "but channel 1 is constant"),
}


@pytest.mark.parametrize("case", sorted(NAMED_DATA_ERRORS))
def test_cli_data_error_names_the_file_and_the_record(case, capsys):
    write_named_error_inputs()
    argv, message = NAMED_DATA_ERRORS[case]
    assert cli.main(["--out-dir", "run", *argv]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not Path("run").exists() and not Path("o.fasta").exists()


@pytest.mark.parametrize("argv, message", [
    (["walk", "--length", "3"], "<cli>: core region holds 2 candidate sites < 120: "
     "walk.length = 3, walk.n_mutations = 120, walk.core_start = 0, walk.core_end = 2"),
    (["walk", "--length", "1"], "<cli>: core region outside sequence: walk.length = 1, "
     "walk.n_mutations = 120, walk.core_start = 0, walk.core_end = 0"),
    (["report", "--config", "walk.cfg"], "walk.cfg: core region outside sequence: "
     "walk.length = 2000, walk.n_mutations = 120, walk.core_start = -5, walk.core_end = 1500"),
], ids=["length-3", "length-1", "config-core-start"])
def test_cli_walk_core_region_that_does_not_fit_exits_2_naming_the_keys(argv, message, capsys):
    Path("walk.cfg").write_text("experiment = walk\nwalk.core_start = -5\n")
    assert cli.main(["--out-dir", "run", *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not Path("run").exists()


@pytest.mark.parametrize("argv, steps", [
    (["walk", "--mode", "interpolation", "--steps", "1"], 1),
    (["walk-profiles", "--steps", "0"], 0),
], ids=["walk-interpolation", "walk-profiles"])
def test_cli_walk_steps_below_two_exit_2_naming_the_key(argv, steps, capsys):
    assert cli.main(["--out-dir", "run", *argv]) == 2
    assert capsys.readouterr().err == (
        f"config error: <cli>: key 'walk.n_steps': {steps} is below 2\n")
    assert not Path("run").exists()


def test_cli_walk_fasta_core_region_that_does_not_fit_exits_3_naming_the_file(capsys):
    Path("w.fasta").write_text(">w\nACGT\n")
    assert cli.main(["--out-dir", "run", "walk", "--fasta", "w.fasta"]) == 3
    assert capsys.readouterr().err == (
        "data error: w.fasta: core region holds 2 candidate sites < 120\n")


UNTRAINABLE = {
    "mine-zero-epochs": ["mine", "--seeds", "1", "--epochs", "0"],
    "mine-sanity-one-sample": ["mine-sanity", "--n", "1"],
    "mine-sanity-no-samples": ["mine-sanity", "--n", "0"],
    "walk-negative-mutations": ["walk", "--length", "100", "--n-mutations", "-1"],
    "walk-interpolation-one-step": ["walk", "--mode", "interpolation", "--steps", "1"],
    "walk-interpolation-no-steps": ["walk", "--mode", "interpolation", "--steps", "0"],
    "walk-interpolation-negative-steps": ["walk", "--mode", "interpolation", "--steps", "-4"],
    "walk-profiles-one-step": ["walk-profiles", "--steps", "1"],
}


@pytest.mark.parametrize("case", sorted(UNTRAINABLE))
def test_cli_settings_that_cannot_train_or_walk_exit_2(case, pair, tmp_path, capsys):
    argv = list(UNTRAINABLE[case])
    if argv[0] == "mine":
        clean, pert = pair
        argv += ["--features", str(clean), "--embeddings", str(pert)]
    run = tmp_path / "run"
    assert cli.main(["--out-dir", str(run), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (run / "report.json").exists()


def test_cli_mine_sanity_bad_seed_exits_2_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    run = tmp_path / "run"
    argv = ["--out-dir", str(run), "mine-sanity", "--n", "32", "--seeds", "320,-1"]
    assert cli.main(argv) == 2
    assert "seed -1 must fit in 64 bits" in capsys.readouterr().err
    assert trained == []
    assert not (run / "report.json").exists()


def _mine_argv(experiment, pair):
    if experiment == "mine":
        clean, pert = pair
        return ["mine", "--features", str(clean), "--embeddings", str(pert), "--epochs", "2"]
    return ["mine-sanity", "--n", "32"]


@pytest.mark.parametrize("experiment", ["mine", "mine-sanity"])
def test_cli_mine_repeated_seed_exits_2_before_training(experiment, pair, tmp_path, capsys,
                                                        monkeypatch):
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    run = tmp_path / "run"
    argv = ["--out-dir", str(run), *_mine_argv(experiment, pair), "--seeds", "320,420,320"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: seed 320 is repeated; MINE seeds must be distinct\n"
    )
    assert trained == []
    assert not (run / "report.json").exists()


def test_cli_fasta_not_utf8_exit_3(tmp_path, capsys):
    fasta = tmp_path / "latin.fasta"
    fasta.write_bytes(b">a\nAC\xe9GT\n")
    argv = ["--out-dir", str(tmp_path / "run"), "walk", "--fasta", str(fasta)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"data error: {fasta}: not UTF-8 text")


def test_cli_emb1_trailing_bytes_exit_3(pair, tmp_path, capsys):
    clean, _ = pair
    clean.write_bytes(clean.read_bytes() + b"junk")
    argv = ["--out-dir", str(tmp_path / "run"), "lipschitz", "--embeddings", str(clean)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"data error: {clean}: 4 trailing bytes after the label block\n"
    )


@pytest.fixture
def csv_pair(tmp_path):
    """The same matrix as a plain CSV and as a CSV with a header line."""
    rng = rng_create(SeedSpec(320, "cli-csv-header"))
    x = rng.standard_normal((20, 3))
    plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
    np.savetxt(plain, x, fmt="%.17g", delimiter=",")
    headed.write_text("a,b,c\n" + plain.read_text())
    return x, plain, headed


def probe_report(run):
    """The ``results`` of a probe run's report.json and its report.csv."""
    results = json.loads((run / "report.json").read_text())["results"]
    return results, (run / "report.csv").read_text()


def test_cli_csv_header_reaches_probe(csv_pair, tmp_path):
    x, plain, headed = csv_pair
    labels, labels_headed = tmp_path / "labels.csv", tmp_path / "labels_h.csv"
    labels.write_text("".join(f"{int(v > 0)}\n" for v in x[:, 0]))
    labels_headed.write_text("label\n" + labels.read_text())
    reports = []
    for flags, path, lab in (([], plain, labels), (["--csv-header"], headed, labels_headed)):
        run = tmp_path / f"run-{path.stem}"
        argv = [*flags, "--out-dir", str(run), "probe", "--embeddings", str(path),
                "--labels", str(lab)]
        assert cli.main(argv) == 0
        reports.append(probe_report(run))
    assert reports[0] == reports[1]


def test_cli_csv_header_reaches_discretize_and_perturb(csv_pair, tmp_path):
    x, plain, headed = csv_pair
    range_plain, range_headed = tmp_path / "range.csv", tmp_path / "range_h.csv"
    np.savetxt(range_plain, np.vstack([x.min(0), x.max(0)]), fmt="%.17g", delimiter=",")
    range_headed.write_text("lo,hi,mid\n" + range_plain.read_text())
    written = []
    for flags, path, grange in (
        ([], plain, range_plain),
        (["--csv-header"], headed, range_headed),
    ):
        runs = {
            "fit": ["discretize", "--input", str(path)],
            "range": ["discretize", "--input", str(path), "--range", str(grange)],
            "perturb": ["perturb", "--input", str(path), "--kind", "value_noise",
                        "--output", str(tmp_path / f"{path.stem}.noisy.emb1")],
        }
        for name, argv in runs.items():
            out = tmp_path / f"{path.stem}-{name}"
            assert cli.main([*flags, "--out-dir", str(out), *argv]) == 0
        written.append([
            (tmp_path / f"{path.stem}-fit" / f"{path.stem}.sym.csv").read_bytes(),
            (tmp_path / f"{path.stem}-range" / f"{path.stem}.sym.csv").read_bytes(),
            (tmp_path / f"{path.stem}.noisy.emb1").read_bytes(),
        ])
    assert written[0] == written[1]


def test_cli_csv_header_reaches_probe_labels(probe_inputs, tmp_path):
    emb, labels = probe_inputs
    headed = tmp_path / "labels_h.csv"
    headed.write_text("label\n" + labels.read_text())
    reports = []
    for flags, lab in (([], labels), (["--csv-header"], headed)):
        run = tmp_path / f"run-{lab.stem}"
        argv = [*flags, "--out-dir", str(run), "probe", "--embeddings", str(emb),
                "--labels", str(lab)]
        assert cli.main(argv) == 0
        reports.append(probe_report(run))
    assert reports[0] == reports[1]


def _stability_with_deltas(pair, deltas, out, *flags):
    clean, pert = pair
    argv = [*flags, "--out-dir", str(out), "stability", "--clean", str(clean),
            "--pert", f"noise={pert}", "--deltas", str(deltas),
            "--splits", "2", "--bootstrap", "1", "--composite-variant", "perturbation"]
    return cli.main(argv)


def test_cli_csv_header_reaches_stability_deltas(pair, tmp_path):
    plain, headed = tmp_path / "deltas.csv", tmp_path / "deltas_h.csv"
    rng = rng_create(SeedSpec(320, "cli-deltas"))
    plain.write_text("".join(f"{v:.17g}\n" for v in rng.uniform(0.1, 1.0, 40)))
    headed.write_text("delta\n" + plain.read_text())
    assert _stability_with_deltas(pair, plain, tmp_path / "plain") == 0
    assert _stability_with_deltas(pair, headed, tmp_path / "headed", "--csv-header") == 0
    for name in ("report.csv", "report.ndjson"):
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "headed" / name
        ).read_bytes()
    results = [json.loads((tmp_path / run / "report.json").read_text())["results"]
               for run in ("plain", "headed")]
    assert results[0] == results[1]


BAD_DELTAS = {
    "short": "0.5\n" * 39,
    "long": "0.5\n" * 41,
    "nan": "0.5\n" * 20 + "nan\n" + "0.5\n" * 19,
    "two-columns": "0.5,0.5\n" * 40,
}


@pytest.mark.parametrize("case", sorted(BAD_DELTAS))
def test_cli_stability_bad_deltas_exit_3(case, pair, tmp_path, capsys):
    deltas = tmp_path / "deltas.csv"
    deltas.write_text(BAD_DELTAS[case])
    assert _stability_with_deltas(pair, deltas, tmp_path / "run") == 3
    assert capsys.readouterr().err.startswith("data error: ")


SMALL_CLEAN = {
    4: "sample split needs n >= 6 rows, got 4",
    5: "sample split needs n >= 6 rows, got 5",
    6: "anchor stability needs n >= 7 with anchor_count 1, got 6",
    7: None,
}


@pytest.mark.parametrize("rows", sorted(SMALL_CLEAN))
def test_cli_stability_too_few_rows_exit_3_naming_the_metric(rows, tmp_path, capsys):
    x = rng_create(SeedSpec(320, "small-clean")).standard_normal((rows, 8))
    clean, pert = tmp_path / "clean.emb1", tmp_path / "pert.emb1"
    write_embeddings(clean, EmbeddingMatrix(x))
    write_embeddings(pert, EmbeddingMatrix(x + 0.1))
    code = cli.main(["--out-dir", str(tmp_path / "run"), "stability", "--clean", str(clean),
                     "--pert", f"q={pert}", "--splits", "2", "--bootstrap", "1"])
    message = SMALL_CLEAN[rows]
    assert code == (0 if message is None else 3)
    if message is not None:
        assert capsys.readouterr().err == f"data error: {message}\n"


NON_FINITE_INPUTS = {
    "emb1": b"EMB1" + struct.pack("<II", 2, 2) + np.array([1, 2, 3, np.nan], "<f4").tobytes(),
    "csv": b"1.0,2.0\n3.0,nan\n",
}


@pytest.mark.parametrize("suffix", sorted(NON_FINITE_INPUTS))
def test_cli_non_finite_embeddings_exit_3_naming_the_file(suffix, tmp_path, capsys):
    path = tmp_path / f"nf.{suffix}"
    path.write_bytes(NON_FINITE_INPUTS[suffix])
    assert cli.main(["--out-dir", str(tmp_path / "run"), "lipschitz",
                     "--embeddings", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and "non-finite" in err


def test_cli_signaling_nan_emb1_prints_only_the_data_error(tmp_path, capsys):
    # 0x7F800001 is a float32 signaling NaN: casting it to float64 is an
    # invalid operation, which numpy reports as a RuntimeWarning
    x = np.random.default_rng(3).standard_normal((40, 6)).astype("<f4")
    raw = bytearray(b"EMB1" + struct.pack("<II", *x.shape) + x.tobytes() + b"\x00")
    raw[12:16] = struct.pack("<I", 0x7F800001)
    path = tmp_path / "snan.emb1"
    path.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--out-dir", str(tmp_path / "run"), "lipschitz",
                         "--embeddings", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: embedding matrix contains non-finite values\n")


def test_cli_non_finite_deltas_exit_3_naming_the_file(pair, tmp_path, capsys):
    deltas = tmp_path / "nf_deltas.csv"
    deltas.write_text(BAD_DELTAS["nan"])
    assert _stability_with_deltas(pair, deltas, tmp_path / "run") == 3
    err = capsys.readouterr().err
    assert str(deltas) in err and "non-finite" in err


@pytest.mark.parametrize("case", ["short", "long"])
def test_cli_wrong_length_deltas_exit_3_naming_the_file(case, pair, tmp_path, capsys):
    deltas = tmp_path / "deltas.csv"
    deltas.write_text(BAD_DELTAS[case])
    assert _stability_with_deltas(pair, deltas, tmp_path / "run") == 3
    rows = 39 if case == "short" else 41
    assert capsys.readouterr().err == (
        f"data error: {deltas}: one delta per clean row required: {rows} rows for 40\n"
    )


def test_cli_perturbation_variant_without_deltas_exit_2(pair, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "geotax.stability._stratified_subsample", lambda *a: pytest.fail("harness ran")
    )
    clean, pert = pair
    run = tmp_path / "run"
    argv = ["--out-dir", str(run), "stability", "--clean", str(clean),
            "--pert", f"noise={pert}", "--composite-variant", "perturbation"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (run / "report.json").exists()


def test_cli_csv_not_utf8_exit_3(tmp_path, capsys):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"1.0,2.0\n3.0,4.\xe9\n")
    argv = ["--out-dir", str(tmp_path / "run"), "lipschitz", "--embeddings", str(bad)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"data error: {bad}: not UTF-8 text")


def test_cli_report_config_not_utf8_exit_2(tmp_path, capsys):
    config = tmp_path / "latin.cfg"
    config.write_bytes(b"experiment = lipschitz\n# r\xe9sum\xe9\n")
    argv = ["--out-dir", str(tmp_path / "run"), "report", "--config", str(config)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}: not UTF-8 text")


MALFORMED_REPORTS = {
    "not-json": b"experiment = lipschitz\n",
    "no-provenance": b"{}",
    "not-utf8": b'{"provenance": {"config_echo": "experiment = lipschitz \xe9"}}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_cli_report_rerun_malformed_report_exit_3(case, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_bytes(MALFORMED_REPORTS[case])
    argv = ["--out-dir", str(tmp_path / "run"), "report", "--rerun", str(report)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"data error: {report}: ")


def test_cli_perturb_manifest_not_utf8_exit_2(pair, tmp_path, capsys):
    clean, _ = pair
    manifest = tmp_path / "man.csv"
    manifest.write_bytes(f"{clean},value_noise,0.1,1\n".encode() + b"\xe9\n")
    argv = ["--out-dir", str(tmp_path / "out"), "perturb", "--manifest", str(manifest)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {manifest}: not UTF-8 text")


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("geotax ")]
    assert len(lines) == 16
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command in argv, line


def _report_from_config(tmp_path, text):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    run = tmp_path / "run"
    return cli.main(["--out-dir", str(run), "report", "--config", str(config)]), config, run


BELOW_MINIMUM_CONFIGS = {
    "stability": "experiment = stability\nstability.clean = {clean}\n"
                 "stability.pert.noise = {pert}\nstability.n_splits = 2\n"
                 "stability.n_bootstrap = 1\n",
    "texture": "experiment = texture\ntexture.n = 10\ntexture.length = 40\n"
               "stability.n_splits = 2\n",
    "vq-sweep": "experiment = vq-sweep\nvq.k_values = 4,8,16\n",
}


@pytest.mark.parametrize("experiment, key, value, minimum", [
    ("stability", "stability.anchor_count", -3, 1),
    ("stability", "stability.anchor_count", 0, 1),
    ("texture", "stability.anchor_count", -3, 1),
    ("texture", "stability.anchor_count", 0, 1),
    ("vq-sweep", "vq.n", -5, 2),
    ("vq-sweep", "vq.n", 1, 2),
])
def test_config_key_below_minimum_exit_2(experiment, key, value, minimum, pair, tmp_path,
                                         capsys):
    clean, pert = pair
    text = BELOW_MINIMUM_CONFIGS[experiment].format(clean=clean, pert=pert)
    code, config, run = _report_from_config(tmp_path, text + f"{key} = {value}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: key '{key}': {value} is below {minimum}\n"
    )
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("text, err", [
    ("experiment = gen\ngen.system = bogus\n",
     "key 'gen.system': 'bogus' is not one of waveform, oscillator, lorenz"),
    ("experiment = gen\ngen.system = lorenz\ngen.length = 1\n", "key 'gen.length': 1 is below 2"),
    ("experiment = discretize\ndiscretize.bins = 8\n",
     "missing required key 'discretize.input.<i>'"),
    ("experiment = perturb\nperturb.input = a.emb1\nperturb.output = b.emb1\n",
     "missing required key 'perturb.kind'"),
], ids=["gen-system", "gen-length", "discretize-no-input", "perturb-no-kind"])
def test_config_file_writing_experiments_bad_keys_exit_2(text, err, tmp_path, capsys):
    code, config, run = _report_from_config(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {config}: {err}\n"
    assert not run.exists()


def test_config_anchor_count_above_n_exit_3(pair, tmp_path, capsys):
    clean, pert = pair
    text = BELOW_MINIMUM_CONFIGS["stability"].format(clean=clean, pert=pert)
    code, _, run = _report_from_config(tmp_path, text + "stability.anchor_count = 1000\n")
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("lr", ["nan", "-1"])
def test_config_mine_lr_not_positive_exits_2_before_training(lr, pair, tmp_path, capsys,
                                                              monkeypatch):
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    clean, pert = pair
    code, _, run = _report_from_config(
        tmp_path, f"experiment = mine\nmine.features = {clean}\nmine.embeddings = {pert}\n"
                  f"mine.seeds = 1\nmine.epochs = 2\nmine.lr = {lr}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: lr must be finite and > 0, got {float(lr)}\n"
    )
    assert trained == []
    assert not (run / "report.json").exists()


def test_config_mine_unknown_feature_kind_exits_2_before_reading(pair, tmp_path, capsys,
                                                                 monkeypatch):
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    _, pert = pair
    fasta = tmp_path / "f.fasta"
    fasta.write_text(">a\nACGTACGT\n")
    code, config, run = _report_from_config(
        tmp_path, f"experiment = mine\nmine.features_fasta = {fasta}\n"
                  f"mine.feature_kind = rna\nmine.embeddings = {pert}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: key 'mine.feature_kind': 'rna' is not one of dna, protein\n"
    )
    assert trained == []
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("experiment", ["mine", "mine-sanity"])
def test_config_mine_repeated_seed_exits_2_before_training(experiment, pair, tmp_path, capsys,
                                                           monkeypatch):
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    clean, pert = pair
    keys = (f"mine.features = {clean}\nmine.embeddings = {pert}\nmine.epochs = 2\n"
            if experiment == "mine" else "mine.n = 32\n")
    code, _, run = _report_from_config(
        tmp_path, f"experiment = {experiment}\n{keys}mine.seeds = 5,6,6\n")
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: seed 6 is repeated; MINE seeds must be distinct\n"
    )
    assert trained == []
    assert not (run / "report.json").exists()


def test_config_probe_unknown_arch_exits_2_before_reading(tmp_path, capsys):
    code, config, run = _report_from_config(
        tmp_path, "experiment = probe\nprobe.arch = cnn\nprobe.embeddings = absent.emb1\n"
                  "probe.labels = absent.csv\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: key 'probe.arch': 'cnn' is not one of linear, mlp, mlp-wide\n"
    )
    assert not run.exists()


UNECHOABLE = {
    # report --rerun would read "r" for both paths and exit 3
    "hash-in-paths": (["stability", "--clean", "r#1/clean.emb1", "--pert", "n=r#1/pert.emb1"],
                      "'stability.clean' = 'r#1/clean.emb1'"),
    # report --rerun would find a line without '=' and exit 2
    "newline-in-pert-name": (["stability", "--clean", "clean.emb1", "--pert", "a\nb=pert.emb1"],
                             "'stability.pert.a\\nb' = 'pert.emb1'"),
    # a non-UTF-8 locale decodes the argument "α" to lone surrogates, which
    # report.json cannot hold as UTF-8
    "surrogates-in-pert-name": (["stability", "--clean", "clean.emb1",
                                 "--pert", "\udcce\udcb1=pert.emb1"],
                                "'stability.pert.\\udcce\\udcb1' = 'pert.emb1'"),
    # report --rerun would run condition "model", not " model "
    "spaces-around-condition": (["mine", "--features", "clean.emb1", "--embeddings",
                                 "pert.emb1", "--epochs", "1", "--condition", " model "],
                                "'mine.condition' = ' model '"),
}


@pytest.mark.parametrize("case", sorted(UNECHOABLE))
def test_cli_value_the_config_echo_cannot_hold_exits_2_before_the_run(case, pair, tmp_path,
                                                                       capsys, monkeypatch):
    (tmp_path / "r#1").mkdir()
    for path in pair:
        (tmp_path / "r#1" / path.name).write_bytes(path.read_bytes())
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    argv, item = UNECHOABLE[case]
    assert cli.main(["--out-dir", "run", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {item}")
    assert "would not read back from the config echo" in err
    assert trained == []
    assert not (tmp_path / "run").exists()


def test_run_pipeline_refuses_an_item_the_echo_cannot_hold_before_creating_the_run(tmp_path):
    """A library caller's config meets the same echo check as the CLI's."""
    out = tmp_path / "d"
    cfg = Config({"experiment": "gen", "gen.system": "lorenz #1", "gen.n": "1"})
    with pytest.raises(ConfigError, match="^'gen.system' = 'lorenz #1' would not read back "):
        run_pipeline(cfg, out)
    assert not out.exists()


def write_slot_inputs() -> None:
    """Readable inputs: a 40-row matrix, 40 labels, a 40-record FASTA file and
    a one-row perturb manifest."""
    rng = rng_create(SeedSpec(320, "cli-slots"))
    write_embeddings(Path("c.emb1"), EmbeddingMatrix(rng.standard_normal((40, 3))))
    Path("l.csv").write_text("0\n1\n" * 20)
    Path("w.fasta").write_text("".join(
        f">s{i}\n" + "".join(rng.choice(list("ACGT"), size=60)) + "\n" for i in range(40)))
    Path("m.csv").write_text("c.emb1,value_noise,0.1,1\n")


# A setting below its minimum next to the input ``in.*``, which is missing or
# a copy of a readable one: either way the setting is refused first, by key.
CONFIG_NEXT_TO_AN_INPUT = {
    "stability-splits": (["stability", "--clean", "in.emb1", "--pert", "a=c.emb1",
                          "--splits", "0"], "key 'stability.n_splits': 0 is below 1"),
    "stability-max-samples": (["stability", "--clean", "in.emb1", "--pert", "a=c.emb1",
                               "--max-samples", "9"], "key 'stability.max_samples': 9 is below 10"),
    "stability-bootstrap": (["stability", "--clean", "in.emb1", "--pert", "a=c.emb1",
                             "--bootstrap", "0"], "key 'stability.n_bootstrap': 0 is below 1"),
    "probe-folds": (["probe", "--embeddings", "in.emb1", "--labels", "l.csv", "--folds", "1"],
                    "key 'probe.folds': 1 is below 2"),
    "mine-epochs": (["mine", "--features", "in.emb1", "--embeddings", "c.emb1", "--epochs", "0"],
                    "key 'mine.epochs': 0 is below 1"),
    "texture-splits": (["texture", "--fasta", "in.fasta", "--splits", "0"],
                       "key 'stability.n_splits': 0 is below 1"),
    "texture-bootstrap": (["texture", "--fasta", "in.fasta", "--bootstrap", "0"],
                          "key 'stability.n_bootstrap': 0 is below 1"),
}


@pytest.mark.parametrize("readable", [False, True], ids=["missing", "readable"])
@pytest.mark.parametrize("case", sorted(CONFIG_NEXT_TO_AN_INPUT))
def test_cli_setting_is_checked_before_any_input_is_read(case, readable, capsys):
    write_slot_inputs()
    if readable:
        Path("in.emb1").write_bytes(Path("c.emb1").read_bytes())
        Path("in.fasta").write_bytes(Path("w.fasta").read_bytes())
    argv, message = CONFIG_NEXT_TO_AN_INPUT[case]
    assert cli.main(["--out-dir", "run", *argv]) == 2
    assert capsys.readouterr().err == f"config error: <cli>: {message}\n"
    assert not Path("run").exists()


# Two keys set for one input: the run would read one and ignore the other.
TWO_INPUTS_FOR_ONE_SLOT = {
    "perturb-manifest-input": (["perturb", "--manifest", "m.csv", "--input", "c.emb1", "--kind",
                                "time_reverse", "--output", "never.emb1"],
                               "<cli>: key 'perturb.input' goes unread with "
                               "perturb.manifest = m.csv"),
    "perturb-manifest-kind": (["perturb", "--manifest", "m.csv", "--kind", "time_reverse"],
                              "<cli>: key 'perturb.kind' goes unread with "
                              "perturb.manifest = m.csv"),
    "perturb-manifest-output": (["perturb", "--manifest", "m.csv", "--output", "never.emb1"],
                                "<cli>: key 'perturb.output' goes unread with "
                                "perturb.manifest = m.csv"),
    "mine-features-and-fasta": (["mine", "--features", "c.emb1", "--features-fasta", "w.fasta",
                                 "--embeddings", "c.emb1", "--seeds", "1", "--epochs", "1"],
                                "<cli>: key 'mine.features' goes unread with "
                                "mine.features_fasta = w.fasta"),
    "walk-interpolation-fasta": (["walk", "--mode", "interpolation", "--fasta", "w.fasta",
                                  "--steps", "3"],
                                 "<cli>: key 'walk.fasta' goes unread with "
                                 "walk.mode = interpolation"),
    "vq-data-and-n": (["report", "--config", "vq.cfg"],
                      "vq.cfg: key 'vq.n' goes unread with vq.data = c.emb1"),
}


@pytest.mark.parametrize("case", sorted(TWO_INPUTS_FOR_ONE_SLOT))
def test_cli_two_inputs_for_one_slot_exit_2_naming_both_keys(case, capsys, monkeypatch):
    write_slot_inputs()
    Path("vq.cfg").write_text("experiment = vq-sweep\nvq.data = c.emb1\nvq.intrinsic_dim = 2\n"
                              "vq.k_values = 2,4,8\nvq.n = 50\n")
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    argv, message = TWO_INPUTS_FOR_ONE_SLOT[case]
    assert cli.main(["--out-dir", "run", *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert trained == []
    assert not Path("run").exists() and not Path("never.emb1").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--pert", "lo,hi", "stability.pert.lo,hi"),
    ("--pert", 'lo"hi', 'stability.pert.lo"hi'),
    ("--condition", "a,b", "mine.condition"),
    ("--condition", 'a"b', "mine.condition"),
])
def test_cli_csv_breaking_name_exits_2_naming_the_item(flag, value, key, pair, tmp_path, capsys,
                                                       monkeypatch):
    trained = []
    monkeypatch.setattr(estimator, "_train_cohort", lambda *args: trained.append(args))
    clean, pert = pair
    if flag == "--pert":
        argv = ["stability", "--clean", str(clean), "--pert", f"{value}={pert}"]
    else:
        argv = ["mine", "--features", str(clean), "--embeddings", str(pert), "--epochs", "1",
                "--condition", value]
    assert cli.main(["--out-dir", "run", *argv]) == 2
    assert capsys.readouterr().err == (
        f"config error: <cli>: key {key!r}: {value!r} holds a ',' or '\"', which would break "
        "its report.csv row\n"
    )
    assert trained == []
    assert not (tmp_path / "run").exists()


def test_config_csv_breaking_perturbation_name_exits_2_before_reading(tmp_path, capsys):
    code, config, run = _report_from_config(
        tmp_path, "experiment = stability\nstability.clean = absent.emb1\n"
                  "stability.pert.lo,hi = absent.emb1\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {config}: key 'stability.pert.lo,hi': 'lo,hi' holds a ',' or '\"', "
        "which would break its report.csv row\n"
    )
    assert not run.exists()


# Each runner's config next to the input files it would read, none of which
# exists; the runners without an input file run on tiny settings.
ABSENT_INPUTS = {
    "gen": "gen.system = lorenz\ngen.n = 1\ngen.length = 8\n",
    "discretize": "discretize.input.0 = absent.emb1\n",
    "perturb": "perturb.input = absent.emb1\nperturb.kind = value_noise\n"
               "perturb.output = o.emb1\n",
    "stability": "stability.clean = absent.emb1\nstability.pert.a = absent.emb1\n",
    "procrustes": "procrustes.clean = absent.emb1\nprocrustes.pert = absent.emb1\n",
    "walk": "walk.fasta = absent.fasta\n",
    "walk-profiles": "",
    "lipschitz": "lipschitz.embeddings = absent.emb1\n",
    "mine": "mine.features = absent.emb1\nmine.embeddings = absent.emb1\n",
    "mine-sanity": "mine.n = 8\n",
    "texture": "texture.fasta = absent.fasta\n",
    "probe": "probe.embeddings = absent.emb1\nprobe.labels = absent.csv\n",
    "vq-sweep": "vq.data = absent.emb1\nvq.intrinsic_dim = 2\nvq.k_values = 2,4,8\n",
}

# Per runner: a one-letter typo of one of its keys, a value out of range or
# outside its choices, and a key that goes unread where the runner has one;
# each exits 2 naming the key, with "{config}" standing for the config file.
# Before the key table, every typo ran the defaults (exit 0) or reached the
# absent input (exit 3).
REFUSED = {
    ("gen", "typo"): ("gen.component = 2", "{config}: unknown key 'gen.component' for "
                      "experiment gen"),
    ("gen", "value"): ("gen.components = 0", "{config}: key 'gen.components': 0 is below 1"),
    ("discretize", "typo"): ("discretize.bin = 8", "{config}: unknown key 'discretize.bin' for "
                             "experiment discretize"),
    ("discretize", "value"): ("discretize.bins = 0",
                              "{config}: key 'discretize.bins': 0 is below 1"),
    ("perturb", "typo"): ("perturb.rat = 0.1", "{config}: unknown key 'perturb.rat' for "
                          "experiment perturb"),
    ("perturb", "value"): ("perturb.magnitude = big",
                           "{config}: key 'perturb.magnitude': 'big' is not a number"),
    ("perturb", "unread"): ("perturb.manifest = absent.csv",
                            "{config}: key 'perturb.input' goes unread with "
                            "perturb.manifest = absent.csv"),
    ("stability", "typo"): ("stability.n_split = 3", "{config}: unknown key 'stability.n_split' "
                            "for experiment stability"),
    ("stability", "value"): ("stability.composite_variant = median",
                             "{config}: key 'stability.composite_variant': 'median' is not one "
                             "of anchor, perturbation"),
    ("procrustes", "typo"): ("procrustes.export_rotatio = true", "{config}: unknown key "
                             "'procrustes.export_rotatio' for experiment procrustes"),
    ("procrustes", "value"): ("procrustes.export_rotation = maybe", "{config}: key "
                              "'procrustes.export_rotation': 'maybe' is not a boolean"),
    ("walk", "typo"): ("walk.n_mutation = 5", "{config}: unknown key 'walk.n_mutation' for "
                       "experiment walk"),
    ("walk", "value"): ("walk.n_mutations = -1",
                        "{config}: key 'walk.n_mutations': -1 is below 0"),
    ("walk", "unread"): ("walk.n_steps = 11", "{config}: key 'walk.n_steps' goes unread with "
                         "walk.mode = mutation"),
    ("walk-profiles", "typo"): ("walk.n_step = 5", "{config}: unknown key 'walk.n_step' for "
                                "experiment walk-profiles"),
    ("walk-profiles", "value"): ("walk.n_steps = 1",
                                 "{config}: key 'walk.n_steps': 1 is below 2"),
    ("lipschitz", "typo"): ("lipschitz.metrics = l2", "{config}: unknown key "
                            "'lipschitz.metrics' for experiment lipschitz"),
    ("lipschitz", "value"): ("lipschitz.metric = x",
                             "{config}: key 'lipschitz.metric': 'x' is not one of cosine, l2"),
    ("mine", "typo"): ("mine.epoch = 1", "{config}: unknown key 'mine.epoch' for experiment "
                       "mine"),
    ("mine", "value"): ("mine.epochs = 0", "{config}: key 'mine.epochs': 0 is below 1"),
    ("mine", "unread"): ("mine.feature_kind = protein", "{config}: key 'mine.feature_kind' goes "
                         "unread with mine.features = absent.emb1"),
    ("mine-sanity", "typo"): ("mine.epoch = 1", "{config}: unknown key 'mine.epoch' for "
                              "experiment mine-sanity"),
    ("mine-sanity", "value"): ("mine.seeds = 1;2", "{config}: key 'mine.seeds': '1;2' is not a "
                               "comma-separated integer list"),
    ("texture", "typo"): ("texture.lengt = 40", "{config}: unknown key 'texture.lengt' for "
                          "experiment texture"),
    ("texture", "value"): ("stability.n_bootstrap = 0",
                           "{config}: key 'stability.n_bootstrap': 0 is below 1"),
    ("texture", "unread"): ("texture.n = 5", "{config}: key 'texture.n' goes unread with "
                            "texture.fasta = absent.fasta"),
    ("probe", "typo"): ("probe.fold = 3", "{config}: unknown key 'probe.fold' for experiment "
                        "probe"),
    ("probe", "value"): ("probe.arch = cnn",
                         "{config}: key 'probe.arch': 'cnn' is not one of linear, mlp, mlp-wide"),
    ("vq-sweep", "typo"): ("vq.sigm = 0.1", "{config}: unknown key 'vq.sigm' for experiment "
                           "vq-sweep"),
    ("vq-sweep", "value"): ("vq.sigma = 0", "vq.sigma must be finite and > 0, got 0.0"),
    ("vq-sweep", "unread"): ("vq.n = 50",
                             "{config}: key 'vq.n' goes unread with vq.data = absent.emb1"),
}


def test_every_runner_has_its_refused_config_faults():
    assert {experiment for experiment, _ in REFUSED} == set(RUNNERS)


@pytest.mark.parametrize("experiment, case", sorted(REFUSED),
                         ids=[f"{experiment}-{case}" for experiment, case in sorted(REFUSED)])
def test_config_fault_exits_2_naming_the_key_before_any_input_is_read(experiment, case,
                                                                      tmp_path, capsys):
    line, message = REFUSED[experiment, case]
    code, config, run = _report_from_config(
        tmp_path, f"experiment = {experiment}\n{ABSENT_INPUTS[experiment]}{line}\n")
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message.format(config=config)}\n"
    assert not run.exists()


# Every config of ABSENT_INPUTS that names an absent file, and the inputs
# read after the first one or in place of it; probe's embeddings exist, so
# that its labels are read.
ABSENT_FILE_CONFIGS = {
    **{experiment: f"experiment = {experiment}\n{text}"
       for experiment, text in ABSENT_INPUTS.items() if "absent." in text},
    "perturb-fasta": "experiment = perturb\nperturb.input = absent.fasta\n"
                     "perturb.kind = substitute\nperturb.output = o.fasta\n",
    "perturb-manifest": "experiment = perturb\nperturb.manifest = absent.csv\n",
    "mine-features-fasta": "experiment = mine\nmine.features_fasta = absent.fasta\n"
                           "mine.embeddings = absent.emb1\n",
    "probe-labels": "experiment = probe\nprobe.embeddings = present.emb1\n"
                    "probe.labels = absent.csv\n",
}


@pytest.mark.parametrize("case", sorted(ABSENT_FILE_CONFIGS))
def test_absent_input_exits_3_naming_the_file(case, tmp_path, capsys):
    write_embeddings(tmp_path / "present.emb1", EmbeddingMatrix(np.eye(4)))
    code, _, run = _report_from_config(tmp_path, ABSENT_FILE_CONFIGS[case])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: cannot read absent.")
    assert not run.exists()


@pytest.mark.parametrize("source", ["--config", "--rerun"])
def test_absent_report_source_exits_3_naming_the_file(source, tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["--out-dir", str(run), "report", source, "absent.cfg"]) == 3
    assert capsys.readouterr().err.startswith("data error: cannot read absent.cfg: ")
    assert not run.exists()


# the report a `walk --length 200 --n-mutations 4` run wrote before the
# config echo held only the keys given: it echoes every walk flag's default
PRE_KEY_TABLE_WALK_REPORT = {
    "experiment": "walk",
    "provenance": {
        "config_echo": "experiment = walk\nseed = 320\nthreads = 1\nio.csv_header = false\n"
                       "walk.mode = mutation\nwalk.n_mutations = 4\nwalk.length = 200\n"
                       "walk.n_steps = 101\n",
        "seed": 320,
        "version": "0.1.0",
    },
    "results": {"mode": "mutation", "steps": 5},
}


def test_rerun_of_a_report_that_echoes_an_unread_default_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(PRE_KEY_TABLE_WALK_REPORT, sort_keys=True, indent=2) + "\n")
    run = tmp_path / "rerun"
    assert cli.main(["--out-dir", str(run), "report", "--rerun", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {report}#provenance: key 'walk.n_steps' goes unread with "
        "walk.mode = mutation\n")
    assert not run.exists()


# the report of a `--seed 9 fetch --source synthetic --end 200 --output
# synth.fasta` run, written while geotax had a fetch subcommand
FETCH_REPORT = {
    "experiment": "fetch",
    "provenance": {
        "config_echo": "experiment = fetch\nseed = 9\nfetch.source = synthetic\n"
                       "fetch.end = 200\nfetch.output = synth.fasta\n",
        "seed": 9,
        "version": "0.1.0",
    },
    "results": {"files": {
        "synth.fasta": "427a0b94838e649145160c093da65c2c3d764fb600e870b34606db5c737ed297"}},
}


def test_rerun_of_a_fetch_report_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(FETCH_REPORT, sort_keys=True, indent=2) + "\n")
    run = tmp_path / "rerun"
    assert cli.main(["--out-dir", str(run), "report", "--rerun", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {report}#provenance: unknown experiment 'fetch'; "
        f"choose from {sorted(RUNNERS)}\n")
    assert not run.exists()
