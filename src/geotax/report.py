"""Experiment pipeline: config-driven runs with reproducible reports.

A run directory holds ``report.json`` (results + provenance), a CSV view,
and SVG plots where applicable.  Provenance embeds the exact config text,
seeds, and tool version; ``rerun_from_provenance`` re-executes a report
from that block and must reproduce it byte for byte.  Reports carry no
timestamps for exactly that reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core.io import load_matrix, read_text, write_embeddings
from .core.embedding import EmbeddingMatrix
from .core.parallel import single_thread_blas
from .core.rng import SeedSpec, rng_create
from .core.sequence import DNA, SymbolSequence
from .errors import ConfigError, DataError
from .ingest.config import Config
from .ingest.fasta import FastaRecord, parse_fasta, write_fasta

# Each runner imports its experiment's modules, so a process loads (and,
# without a bytecode cache, compiles) only the experiment it runs.

STABILITY_CSV_HEADER = "Perturbation,RDM Sim.,Pert. Stab.,Pert. Mag.,Composite"


def _split_config(cfg: Config, n_splits: int = 30, n_bootstrap: int = 5):
    """The harness settings a config declares; ``n_splits`` and
    ``n_bootstrap`` are the experiment's defaults for keys it leaves out."""
    from .stability import SplitConfig

    return SplitConfig(
        n_splits=cfg.get_int("stability.n_splits", n_splits, minimum=1),
        max_samples=cfg.get_int("stability.max_samples", 2500, minimum=10),
        n_bootstrap=cfg.get_int("stability.n_bootstrap", n_bootstrap, minimum=1),
        anchor_count=cfg.get_int("stability.anchor_count", None, minimum=1),
        rank_normalize_anchors=cfg.get_bool("stability.rank_normalize_anchors"),
        composite_variant=cfg.get("stability.composite_variant", "anchor"),
    )


def _csv_cell(cfg: Config, key: str, value: str) -> str:
    """``value``, refused when a comma or a quote in it would break the
    columns of its ``report.csv`` row."""
    if "," in value or '"' in value:
        raise ConfigError(f"{cfg.source}: key {key!r}: {value!r} holds a ',' or '\"', "
                          "which would break its report.csv row")
    return value


def _alone(cfg: Config, key: str, *others: str) -> str | None:
    """``key``'s value, refused when one of ``others``, keys for the same
    input, is set with it and would go unread."""
    value = cfg.get(key)
    for other in others:
        if value is not None and other in cfg.values:
            raise ConfigError(f"{cfg.source}: key {other!r} goes unread with {key} = {value}")
    return value


def _loader(cfg: Config):
    header = cfg.get_bool("io.csv_header")
    return lambda path: load_matrix(path, csv_header=header)


def run_pipeline(config: Config | str | Path, out_dir: str | Path) -> Path:
    """Execute the experiment a config declares; returns the run directory.

    The experiment runs on one OpenBLAS thread, so its sums come out in the
    same order, and its report in the same bytes, on any core count; the
    caller's thread count is restored when the run returns or raises.  A
    run that raises removes the directories it created; an ``out_dir``
    that already existed stays."""
    cfg = config if isinstance(config, Config) else Config.load(config)
    experiment = cfg.require("experiment")
    seed = cfg.get_int("seed", 320)
    if experiment not in RUNNERS:
        raise ConfigError(
            f"{cfg.source}: unknown experiment {experiment!r}; choose from {sorted(RUNNERS)}"
        )
    echo = cfg.dump()  # refuses an item the echo cannot hold, before the run starts
    out = Path(out_dir)
    # the outermost directory this run creates, None when out_dir exists
    created = next((d for d in reversed([out, *out.parents]) if not d.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with single_thread_blas():
            results = RUNNERS[experiment](cfg, seed, out)
        report = {
            "experiment": experiment,
            "results": results,
            "provenance": {"version": __version__, "seed": seed, "config_echo": echo},
        }
        (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    except BaseException:
        if created is not None:
            shutil.rmtree(created)
        raise
    return out


def rerun_from_provenance(report_path: str | Path, out_dir: str | Path) -> Path:
    """Re-execute a run from its embedded provenance block."""
    try:
        echo = json.loads(read_text(report_path, DataError))["provenance"]["config_echo"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{report_path}: not a report with a provenance block ({exc!r})") from None
    if not isinstance(echo, str):
        raise DataError(f"{report_path}: provenance config_echo is not text")
    cfg = Config.parse(echo, source=f"{report_path}#provenance")
    return run_pipeline(cfg, out_dir)


# -- experiment runners -------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_gen(cfg: Config, seed: int, out: Path) -> dict:
    from .dynamics import fit_global_range, gen_lorenz, gen_oscillator, gen_waveform
    from .dynamics import sample_oscillator_params

    system = cfg.require("gen.system")
    n = cfg.get_int("gen.n", 10, minimum=1)
    length = cfg.get_int("gen.length", 512, minimum=2)
    components = cfg.get_int("gen.components", 3, minimum=1)
    rng = rng_create(SeedSpec(seed, "gen"))
    systems = {
        "waveform": lambda i: gen_waveform(SeedSpec(seed, f"gen/{i}"), components, length),
        "oscillator": lambda i: gen_oscillator(sample_oscillator_params(rng), length),
        "lorenz": lambda i: gen_lorenz(SeedSpec(seed, f"gen/{i}"), length),
    }
    if system not in systems:
        raise ConfigError(f"{cfg.source}: gen.system must be waveform, oscillator or lorenz")
    trajs = [systems[system](i) for i in range(n)]
    grange = fit_global_range(trajs)
    files = {f"traj_{i:04d}.emb1": traj.values for i, traj in enumerate(trajs)}
    files["range.emb1"] = np.vstack([grange.minimum, grange.maximum])
    for name, values in files.items():
        write_embeddings(out / name, EmbeddingMatrix(values))
    digests = {name: _sha256(out / name) for name in files}
    return {"system": system, "n": n, "length": length, "dt": trajs[0].dt, "files": digests}


def _run_discretize(cfg: Config, seed: int, out: Path) -> dict:
    from .dynamics import MAX_BINS, GlobalRange, Trajectory, discretize, fit_global_range

    bins = cfg.get_int("discretize.bins", 256, minimum=1)
    if bins > MAX_BINS:
        raise ConfigError(f"{cfg.source}: key 'discretize.bins': {bins} is above 2**53")
    inputs = list(cfg.section("discretize.input").values())
    if not inputs:
        raise ConfigError(f"{cfg.source}: no discretize.input.<i> entries")
    names = [Path(path).stem + ".sym.csv" for path in inputs]
    writer = {}
    for path, name in zip(inputs, names):
        if name in writer:
            raise ConfigError(f"{cfg.source}: discretize inputs {writer[name]} and {path} "
                              f"would both write {name}")
        writer[name] = path
    load = _loader(cfg)
    trajs = [Trajectory(load(path).data, 1.0) for path in inputs]
    range_file = cfg.get("discretize.range")
    if range_file:
        mat = load(range_file)
        if mat.n != 2:
            raise DataError(f"{range_file}: range file must hold exactly 2 rows (min, max)")
        try:
            grange = GlobalRange(mat.data[0], mat.data[1])
        except DataError as exc:
            raise DataError(f"{range_file}: {exc}") from None
        first, width = f"range file {range_file}", mat.d
    else:
        first, width = inputs[0], trajs[0].channels
    for path, traj in zip(inputs, trajs):
        if traj.channels != width:
            raise DataError(f"{path} has {traj.channels} channels but {first} has {width}")
    if not range_file:
        try:
            grange = fit_global_range(trajs)
        except DataError as exc:
            raise DataError(f"{', '.join(inputs)}: {exc}") from None
    for name, traj in zip(names, trajs):
        seq = discretize(traj, grange, bins)
        (out / name).write_text(",".join(str(s) for s in seq.symbols) + "\n")
    return {"files": {name: _sha256(out / name) for name in names}}


def _manifest_jobs(manifest: str, magnitude: float, out: Path) -> list:
    """Each ``input,kind,rate,seed`` row of a perturb manifest as an
    (input, spec, output) job; every row is checked before any is run."""
    from .perturb import PerturbationSpec

    jobs = []
    for i, line in enumerate(read_text(manifest, ConfigError).strip().splitlines()):
        where = f"{manifest}:{i + 1}"
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"{where}: expected input,kind,rate,seed")
        path, kind, rate, row_seed = parts
        if "\x00" in path:
            raise ConfigError(f"{where}: NUL byte in {line!r}")
        try:
            spec = PerturbationSpec(kind, float(rate), magnitude,
                                    SeedSpec(int(row_seed), f"perturb/{kind}"))
        except ValueError:
            raise ConfigError(f"{where}: bad rate or seed") from None
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        source = Path(path)
        jobs.append((source, spec, out / f"{source.stem}.{kind}.{i}{source.suffix or '.emb1'}"))
    return jobs


def _run_perturb(cfg: Config, seed: int, out: Path) -> dict:
    from .dynamics import Trajectory
    from .perturb import PerturbationSpec, apply_perturbation

    magnitude = cfg.get_float("perturb.magnitude", 1.0)
    manifest = _alone(cfg, "perturb.manifest", "perturb.input", "perturb.kind", "perturb.output")
    if manifest:
        jobs = _manifest_jobs(manifest, magnitude, out)
    else:
        source, kind, output = (cfg.require(f"perturb.{k}") for k in ("input", "kind", "output"))
        spec = PerturbationSpec(kind, cfg.get_float("perturb.rate", 0.01), magnitude,
                                SeedSpec(seed, f"perturb/{kind}"))
        jobs = [(Path(source), spec, Path(output))]
    load = _loader(cfg)
    for source, spec, target in jobs:
        if source.suffix in (".fa", ".fasta"):
            write_fasta([
                FastaRecord(rec.header,
                            apply_perturbation(rec.decode(DNA, source), spec).to_string())
                for rec in parse_fasta(source)
            ], target)
        else:
            traj = apply_perturbation(Trajectory(load(source).data, 1.0), spec)
            write_embeddings(target, EmbeddingMatrix(traj.values))
    # a file in the run directory by its name, --output as configured
    return {"files": {
        target.name if manifest else str(target): _sha256(target)
        for _, _, target in jobs
    }}


def _run_stability(cfg: Config, seed: int, out: Path) -> dict:
    from .stability import evaluate

    clean_path = cfg.require("stability.clean")
    pairs = cfg.section("stability.pert")
    if not pairs:
        raise ConfigError(f"{cfg.source}: no stability.pert.<name> entries")
    if "" in pairs:
        raise ConfigError(f"{cfg.source}: key 'stability.pert.' has an empty perturbation name")
    for name in pairs:
        _csv_cell(cfg, f"stability.pert.{name}", name)
    scfg = _split_config(cfg)
    load = _loader(cfg)
    clean = load(clean_path)
    deltas_path = cfg.get("stability.deltas")
    deltas = None
    if deltas_path:
        column = load(deltas_path)
        if column.d != 1:
            raise DataError(
                f"{deltas_path}: deltas need one value per row, not {column.d} columns"
            )
        if column.n != clean.n:
            raise DataError(
                f"{deltas_path}: one delta per clean row required: {column.n} rows for {clean.n}"
            )
        deltas = column.data[:, 0]
    # a generator, so each perturbed file is loaded only when its turn comes
    perturbed = ((name, load(pairs[name])) for name in sorted(pairs))
    reports = evaluate(clean, perturbed, deltas, scfg, SeedSpec(seed, "stability"))
    rows = {}
    ndjson_lines = []
    csv_lines = [STABILITY_CSV_HEADER]
    for name, report in reports.items():
        rows[name] = report.to_dict()
        ndjson_lines.append(json.dumps({"perturbation": name, **rows[name]}, sort_keys=True))
        m = report.metrics
        csv_lines.append(
            f"{name},{m['rdm_similarity']:.6f},"
            f"{m.get('perturbation_stability', float('nan')):.6f},"
            f"{m['perturbation_magnitude']:.6f},{report.composite:.6f}"
        )
    (out / "report.ndjson").write_text("\n".join(ndjson_lines) + "\n")
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n")
    return rows


def _run_procrustes(cfg: Config, seed: int, out: Path) -> dict:
    from .procrustes import classify_regime, procrustes_align

    load = _loader(cfg)
    clean = load(cfg.require("procrustes.clean"))
    pert = load(cfg.require("procrustes.pert"))
    res = procrustes_align(clean, pert)
    if cfg.get_bool("procrustes.export_rotation"):
        write_embeddings(out / "rotation.emb1", EmbeddingMatrix(res.rotation))
    return {
        "raw_error": res.raw_error,
        "aligned_error": res.aligned_error,
        "ratio": res.ratio,
        "reduction_percent": res.reduction_percent,
        "scale": res.scale,
        "exact_match": res.exact_match,
        "regime": classify_regime(res.reduction_percent),
    }


def _serialize_walk(walk, out: Path) -> None:
    from .walks import walk_to_matrix

    if walk.kind == "interpolation":
        # discretized continuous steps travel as an EMB1 matrix + alpha list
        write_embeddings(out / "walk.emb1", walk_to_matrix(walk))
        lines = ["step,alpha"] + [f"{i},{a:.6f}" for i, a in enumerate(walk.step_meta)]
        (out / "walk_steps.csv").write_text("\n".join(lines) + "\n")
        return
    records = []
    for i, (step, meta) in enumerate(zip(walk.steps, walk.step_meta)):
        header = f"step={i} pos={-1 if meta is None else meta}"
        records.append(FastaRecord(header, step.to_string()))
    write_fasta(records, out / "walk.fasta")


def _run_walk(cfg: Config, seed: int, out: Path) -> dict:
    from .dynamics import fit_global_range, gen_oscillator, sample_oscillator_params
    from .walks import build_interpolation_walk, build_mutation_walk

    mode = cfg.get("walk.mode", "mutation")
    if mode == "mutation":
        fasta = cfg.get("walk.fasta")
        if fasta:
            wt = parse_fasta(fasta)[0].decode(DNA, fasta)
        else:
            length = cfg.get_int("walk.length", 2000, minimum=1)
            wt = SymbolSequence(
                rng_create(SeedSpec(seed, "walk-wt")).integers(0, 4, size=length), DNA
            )
        core = (
            cfg.get_int("walk.core_start", len(wt) // 4),
            cfg.get_int("walk.core_end", 3 * len(wt) // 4),
        )
        n_mutations = cfg.get_int("walk.n_mutations", 120)
        try:
            walk = build_mutation_walk(wt, n_mutations, core, SeedSpec(seed, "walk"))
        except DataError as exc:  # the core region does not fit
            if fasta:
                raise DataError(f"{fasta}: {exc}") from None
            raise ConfigError(
                f"{cfg.source}: {exc}: walk.length = {len(wt)}, walk.n_mutations = "
                f"{n_mutations}, walk.core_start = {core[0]}, walk.core_end = {core[1]}"
            ) from None
    elif mode == "interpolation":
        _alone(cfg, "walk.mode", "walk.fasta")
        rng = rng_create(SeedSpec(seed, "walk-interp"))
        ta = gen_oscillator(sample_oscillator_params(rng))
        tb = gen_oscillator(sample_oscillator_params(rng))
        grange = fit_global_range([ta, tb])
        walk = build_interpolation_walk(
            ta, tb, grange, cfg.get_int("walk.n_steps", 101, minimum=2)
        )
    else:
        raise ConfigError(f"{cfg.source}: walk.mode must be mutation or interpolation")
    _serialize_walk(walk, out)
    return {"mode": mode, "steps": len(walk)}


def _run_walk_profiles(cfg: Config, seed: int, out: Path) -> dict:
    from .walks import lipschitz_gap, mean_lipschitz, pca_trajectory, walk_profiles

    n_steps = cfg.get_int("walk.n_steps", 101, minimum=2)
    encoders = {}
    for name, (profiles, path) in walk_profiles(n_steps, SeedSpec(seed, "pairs")).items():
        encoders[name] = {"mean_lipschitz": mean_lipschitz(profiles),
                          "max_spikes_per_pair": max(len(p.spikes) for p in profiles)}
        (out / f"{name}_path.svg").write_text(pca_trajectory(path)[1])
    (out / "report.csv").write_text("encoder,mean_L,max_spikes_per_pair\n" + "".join(
        f"{name},{row['mean_lipschitz']:.10g},{row['max_spikes_per_pair']}\n"
        for name, row in encoders.items()))
    means = [row["mean_lipschitz"] for row in encoders.values()]
    return {"encoders": encoders, "lipschitz_gap": lipschitz_gap(means)}


def _run_lipschitz(cfg: Config, seed: int, out: Path) -> dict:
    from .walks import lipschitz_cosine, lipschitz_l2, pca_trajectory

    emb = _loader(cfg)(cfg.require("lipschitz.embeddings"))
    metric = cfg.get("lipschitz.metric", "cosine")
    if metric == "cosine":
        profile = lipschitz_cosine(emb)
    elif metric == "l2":
        profile = lipschitz_l2(emb)
    else:
        raise ConfigError(f"{cfg.source}: lipschitz.metric must be cosine or l2")
    lines = ["step,L"] + [f"{i},{v:.10g}" for i, v in enumerate(profile.values)]
    (out / "profile.csv").write_text("\n".join(lines) + "\n")
    pca_res, svg = pca_trajectory(emb)
    (out / "trajectory.svg").write_text(svg)
    return {
        "metric": metric,
        "mean": profile.mean,
        "max": profile.max,
        "smoothness_ratio": profile.smoothness_ratio,
        "spikes": list(profile.spikes),
        "pca_explained": [float(v) for v in pca_res.explained_variance_ratio],
    }


def _run_mine(cfg: Config, seed: int, out: Path) -> dict:
    from .mine.estimator import DEFAULT_SEEDS, excess_mi_report
    from .mine.features import features_from_fasta
    from .mine.mlp import MLPConfig

    condition = _csv_cell(cfg, "mine.condition", cfg.get("mine.condition", "model"))
    seeds = _int_list(cfg, "mine.seeds", DEFAULT_SEEDS)
    mlp_cfg = MLPConfig(
        epochs=cfg.get_int("mine.epochs", 500, minimum=1),
        lr=cfg.get_float("mine.lr", 1e-4),
    )
    load = _loader(cfg)
    fasta = _alone(cfg, "mine.features_fasta", "mine.features")
    embeddings = cfg.require("mine.embeddings")
    if fasta:
        x = features_from_fasta(fasta, cfg.get("mine.feature_kind", "dna"))
    else:
        x = load(cfg.require("mine.features")).data
    z = load(embeddings).data
    est = excess_mi_report(
        x, z, mlp_cfg, seeds, workers=cfg.get_int("threads", 1, minimum=1)
    )
    (out / "report.csv").write_text(
        "condition,length,mean,std,baseline,ceiling,excess\n"
        f"{condition},{x.shape[0]},{est.mean:.6f},{est.std:.6f},"
        f"{est.baseline:.6f},{est.ceiling:.6f},{est.excess:.6f}\n"
    )
    payload = est.to_dict()
    payload["traces"] = {str(r.seed): [list(p) for p in r.trace] for r in est.runs}
    return payload


def _run_mine_sanity(cfg: Config, seed: int, out: Path) -> dict:
    from .mine.estimator import DEFAULT_SEEDS, sanity_suite

    seeds = _int_list(cfg, "mine.seeds", DEFAULT_SEEDS)
    cases = sanity_suite(
        n=cfg.get_int("mine.n", 2000),
        seeds=seeds,
        data_seed=seed,
        workers=cfg.get_int("threads", 1, minimum=1),
    )
    csv_lines = ["rho,true_mi,estimate,std,tolerance,passed"]
    for c in cases:
        csv_lines.append(
            f"{c.rho},{c.true_mi:.6f},{c.estimate:.6f},{c.std:.6f},{c.tolerance:.6f},{int(c.passed)}"
        )
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n")
    return {
        "cases": [asdict(c) for c in cases],
        "all_passed": all(c.passed for c in cases),
    }


def _run_texture(cfg: Config, seed: int, out: Path) -> dict:
    from .texture import (
        ENCODER_WINDOWS,
        MIN_CORPUS,
        four_condition_experiment,
        heterogeneous_corpus,
    )

    # the texture subcommand's defaults, so a config file runs what the CLI runs
    split_config = _split_config(cfg, n_splits=10, n_bootstrap=1)
    fasta = cfg.get("texture.fasta")
    if fasta:
        corpus = [rec.decode(DNA, fasta) for rec in parse_fasta(fasta)]
    else:
        corpus = heterogeneous_corpus(
            cfg.get_int("texture.n", 200, minimum=MIN_CORPUS),
            cfg.get_int("texture.length", 400, minimum=ENCODER_WINDOWS),
            SeedSpec(seed, "texture-corpus"),
        )
    rows = four_condition_experiment(corpus, SeedSpec(seed, "texture"), split_config=split_config)
    csv_lines = ["Condition,RC RDM,RC Composite,Recovery"]
    for r in rows:
        csv_lines.append(f"{r.condition},{r.rc_rdm:.6f},{r.rc_composite:.6f},{r.recovery:.6f}")
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n")
    return {"conditions": [asdict(r) for r in rows]}


def _run_probe(cfg: Config, seed: int, out: Path) -> dict:
    from .mine.probes import mlp_probe_cv, probe_config
    from .procrustes import frozen_head_classifier

    arch = cfg.get("probe.arch", "linear")
    if arch != "linear":
        probe_config(arch)  # an unknown arch is refused before any input is read
    folds = cfg.get_int("probe.folds", 5, minimum=2)
    header = cfg.get_bool("io.csv_header")
    emb = load_matrix(cfg.require("probe.embeddings"), csv_header=header)
    labels_path = cfg.require("probe.labels")
    try:
        labels = np.loadtxt(labels_path, delimiter=",", dtype=np.int64, ndmin=1,
                            skiprows=int(header))
    except ValueError as exc:
        raise DataError(f"{labels_path}: labels must be integers ({exc})") from None
    spec = SeedSpec(seed, "probe")
    if arch == "linear":
        mean, std = frozen_head_classifier(emb, labels, folds, spec)
    else:
        mean, std = mlp_probe_cv(emb, labels, arch, folds, spec)
    row = f"{arch},{folds},{mean:.6f},{std:.6f}"
    (out / "report.csv").write_text(f"arch,folds,accuracy,std\n{row}\n")
    return {"arch": arch, "folds": folds, "accuracy": mean, "std": std}


def _run_vq_sweep(cfg: Config, seed: int, out: Path) -> dict:
    from .dynamics import gen_lorenz
    from .quantize import rd_bound_codebook, vq_double_bind_sweep

    source = _alone(cfg, "vq.data", "vq.n")
    if source and cfg.get("vq.intrinsic_dim") is None:
        raise ConfigError(
            f"{cfg.source}: vq.data needs vq.intrinsic_dim (--intrinsic-dim), the d_M of "
            "its Shannon column"
        )
    # d_M of the Shannon reference; 2.06 is the Lorenz attractor's dimension
    d_m = cfg.get_float("vq.intrinsic_dim", 2.06)
    if not (math.isfinite(d_m) and d_m > 0):
        raise ConfigError(f"{cfg.source}: vq.intrinsic_dim must be finite and > 0, got {d_m}")
    if source:
        data = _loader(cfg)(source).data
    else:
        traj = gen_lorenz(SeedSpec(seed, "vq-lorenz"), cfg.get_int("vq.n", 2000, minimum=2))
        data = traj.values
    k_values = _int_list(cfg, "vq.k_values", (32, 64, 128, 256, 512, 1024))
    curve = vq_double_bind_sweep(
        data,
        k_values,
        sigma=cfg.get_float("vq.sigma", 0.05),
        seed=SeedSpec(seed, "vq"),
    )
    var = float(data.var())
    rows = [[k, mse, d, rd_bound_codebook(var, d_m, k)] for k, mse, d in curve.rows()]
    csv_lines = ["K,recon_mse,procrustes_D,shannon_D"]
    for k, mse, d, shannon in rows:
        csv_lines.append(f"{k},{mse:.10g},{d:.10g},{shannon:.10g}")
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n")
    return {
        "rows": rows,
        "fit": {"a": curve.fit_intercept, "b": curve.fit_slope, "r2": curve.fit_r2},
        "intrinsic_dim": d_m,
    }


def _run_fetch(cfg: Config, seed: int, out: Path) -> dict:
    from .ingest.cache import ResultCache
    from .ingest.fetch import FetchSpec, fetch_genome

    output = Path(cfg.require("fetch.output"))
    spec = FetchSpec(cfg.get("fetch.source", "genome-rest"), cfg.get("fetch.assembly", "hg38"),
                     cfg.get("fetch.chrom", "chr22"), cfg.get_int("fetch.start", 0),
                     cfg.get_int("fetch.end", 0), cfg.get("fetch.n_policy", "reject"),
                     SeedSpec(seed, "fetch"))
    seq = fetch_genome(spec, cache=ResultCache(cfg.get("fetch.cache_dir")))
    header = f"{spec.assembly}:{spec.chromosome}:{spec.start}-{spec.end}" \
        if spec.source == "genome-rest" else f"synthetic seed={seed}"
    write_fasta([FastaRecord(header, seq.to_string())], output)
    # --output as configured, as single-file perturb names it
    return {"files": {str(output): _sha256(output)}}


# the experiments, each by its name in a config and on the command line
RUNNERS = {
    "gen": _run_gen,
    "discretize": _run_discretize,
    "perturb": _run_perturb,
    "stability": _run_stability,
    "procrustes": _run_procrustes,
    "walk": _run_walk,
    "walk-profiles": _run_walk_profiles,
    "lipschitz": _run_lipschitz,
    "mine": _run_mine,
    "mine-sanity": _run_mine_sanity,
    "texture": _run_texture,
    "probe": _run_probe,
    "vq-sweep": _run_vq_sweep,
    "fetch": _run_fetch,
}


def _int_list(cfg: Config, key: str, default: tuple) -> tuple:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return tuple(int(s) for s in raw.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"{cfg.source}: key {key!r}: {raw!r} is not a comma-separated integer list"
        ) from exc
