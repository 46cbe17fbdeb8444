"""Experiment pipeline: config-driven runs with reproducible reports.

A run directory holds ``report.json`` (results + provenance), a CSV view,
and SVG plots where applicable.  Provenance embeds the exact config text,
seeds, and tool version; ``rerun_from_provenance`` re-executes a report
from that block and must reproduce it byte for byte.  Reports carry no
timestamps for exactly that reason.
"""

from __future__ import annotations

import json
import math
import shutil
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core.io import load_matrix, read_text, write_embeddings, write_file
from .core.embedding import EmbeddingMatrix
from .core.parallel import single_thread_blas
from .core.rng import SeedSpec, rng_create
from .core.sequence import DNA, SymbolSequence
from .errors import ConfigError, DataError
from .ingest.config import Config, Key, Settings, boolean, int_list
from .ingest.fasta import FastaRecord, parse_fasta, write_fasta

# Each runner imports its experiment's modules, so a process loads (and,
# without a bytecode cache, compiles) only the experiment it runs.

STABILITY_CSV_HEADER = "Perturbation,RDM Sim.,Pert. Stab.,Pert. Mag.,Composite"


def _split_config(s: Settings, **variant):
    """The harness settings; ``variant``, the composite variant where read."""
    from .stability import SplitConfig

    return SplitConfig(
        n_splits=s["stability.n_splits"],
        max_samples=s["stability.max_samples"],
        n_bootstrap=s["stability.n_bootstrap"],
        anchor_count=s["stability.anchor_count"],
        rank_normalize_anchors=s["stability.rank_normalize_anchors"],
        **variant,
    )


def _csv_cell(s: Settings, key: str, value: str) -> str:
    """``value``, refused when a comma or a quote in it would break the
    columns of its ``report.csv`` row."""
    if "," in value or '"' in value:
        raise ConfigError(f"{s.source}: key {key!r}: {value!r} holds a ',' or '\"', "
                          "which would break its report.csv row")
    return value


def _loader(s: Settings):
    header = s["io.csv_header"]
    return lambda path: load_matrix(path, csv_header=header)


def run_pipeline(config: Config | str | Path, out_dir: str | Path) -> Path:
    """Execute the experiment a config declares; returns the run directory.

    The whole config is checked against ``KEYS`` before any input is read
    or any directory is made.  The experiment runs on one OpenBLAS thread,
    so its sums come out in the same order, and its report in the same
    bytes, on any core count; the caller's thread count is restored when
    the run returns or raises.  A run that raises removes the directories
    it created; an ``out_dir`` that already existed stays."""
    cfg = config if isinstance(config, Config) else Config.load(config)
    experiment = cfg.values.get("experiment")
    if experiment is None:
        raise ConfigError(f"{cfg.source}: missing required key 'experiment'")
    if experiment not in RUNNERS:
        raise ConfigError(
            f"{cfg.source}: unknown experiment {experiment!r}; choose from {sorted(RUNNERS)}"
        )
    echo = cfg.dump()  # refuses an item the echo cannot hold, before the run starts
    s = cfg.check(KEYS, experiment)
    out = Path(out_dir)
    # the outermost directory this run creates, None when out_dir exists
    created = next((d for d in reversed([out, *out.parents]) if not d.exists()), None)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from exc
    try:
        with single_thread_blas():
            results = RUNNERS[experiment](s, out)
        report = {
            "experiment": experiment,
            "results": results,
            "provenance": {"version": __version__, "seed": s["seed"], "config_echo": echo},
        }
        write_file(out / "report.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
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


def _run_gen(s: Settings, out: Path) -> dict:
    """generate synthetic dynamical-system datasets"""
    from .dynamics import fit_global_range, gen_lorenz, gen_oscillator, gen_waveform
    from .dynamics import sample_oscillator_params

    seed, system, n, length = s["seed"], s["gen.system"], s["gen.n"], s["gen.length"]
    rng = rng_create(SeedSpec(seed, "gen"))
    systems = {
        "waveform": lambda i: gen_waveform(SeedSpec(seed, f"gen/{i}"), s["gen.components"],
                                           length),
        "oscillator": lambda i: gen_oscillator(sample_oscillator_params(rng), length),
        "lorenz": lambda i: gen_lorenz(SeedSpec(seed, f"gen/{i}"), length),
    }
    trajs = [systems[system](i) for i in range(n)]
    grange = fit_global_range(trajs)
    files = {f"traj_{i:04d}.emb1": traj.values for i, traj in enumerate(trajs)}
    files["range.emb1"] = np.vstack([grange.minimum, grange.maximum])
    digests = {name: write_embeddings(out / name, EmbeddingMatrix(values))
               for name, values in files.items()}
    return {"system": system, "n": n, "length": length, "dt": trajs[0].dt, "files": digests}


def _run_discretize(s: Settings, out: Path) -> dict:
    """two-pass global discretization"""
    from .dynamics import MAX_BINS, GlobalRange, Trajectory, discretize, fit_global_range

    bins = s["discretize.bins"]
    if bins > MAX_BINS:
        raise ConfigError(f"{s.source}: key 'discretize.bins': {bins} is above 2**53")
    inputs = list(s["discretize.input.<i>"].values())
    names = [Path(path).stem + ".sym.csv" for path in inputs]
    writer = {}
    for path, name in zip(inputs, names):
        if name in writer:
            raise ConfigError(f"{s.source}: discretize inputs {writer[name]} and {path} "
                              f"would both write {name}")
        writer[name] = path
    load = _loader(s)
    trajs = [Trajectory(load(path).data, 1.0) for path in inputs]
    range_file = s["discretize.range"]
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
    symbols = {name: discretize(traj, grange, bins).symbols for name, traj in zip(names, trajs)}
    return {"files": {name: write_file(out / name, ",".join(map(str, seq)) + "\n")
                      for name, seq in symbols.items()}}


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


def _run_perturb(s: Settings, out: Path) -> dict:
    """apply a perturbation to a trajectory or sequence"""
    from .dynamics import Trajectory
    from .perturb import PerturbationSpec, apply_perturbation

    magnitude = s["perturb.magnitude"]
    manifest = s["perturb.manifest"]
    if manifest:
        jobs = _manifest_jobs(manifest, magnitude, out)
    else:
        kind = s["perturb.kind"]
        spec = PerturbationSpec(kind, s["perturb.rate"], magnitude,
                                SeedSpec(s["seed"], f"perturb/{kind}"))
        target = Path(s["perturb.output"])
        if not target.parent.is_dir():
            raise ConfigError(f"{s.source}: key 'perturb.output': {target.parent} is not an "
                              "existing directory")
        jobs = [(Path(s["perturb.input"]), spec, target)]
    load = _loader(s)
    digests = {}
    for source, spec, target in jobs:
        if source.suffix in (".fa", ".fasta"):
            digest = write_fasta([
                FastaRecord(rec.header,
                            apply_perturbation(rec.decode(DNA, source), spec).to_string())
                for rec in parse_fasta(source)
            ], target)
        else:
            traj = apply_perturbation(Trajectory(load(source).data, 1.0), spec)
            digest = write_embeddings(target, EmbeddingMatrix(traj.values))
        # a file in the run directory by its name, --output as configured
        digests[target.name if manifest else str(target)] = digest
    return {"files": digests}


def _run_stability(s: Settings, out: Path) -> dict:
    """run the stability harness"""
    from .stability import evaluate

    pairs = s["stability.pert.<name>"]
    if "" in pairs:
        raise ConfigError(f"{s.source}: key 'stability.pert.' has an empty perturbation name")
    for name in pairs:
        _csv_cell(s, f"stability.pert.{name}", name)
    scfg = _split_config(s, composite_variant=s["stability.composite_variant"])
    load = _loader(s)
    clean = load(s["stability.clean"])
    deltas_path = s["stability.deltas"]
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
    reports = evaluate(clean, perturbed, deltas, scfg, SeedSpec(s["seed"], "stability"))
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
    write_file(out / "report.ndjson", "\n".join(ndjson_lines) + "\n")
    write_file(out / "report.csv", "\n".join(csv_lines) + "\n")
    return rows


def _run_procrustes(s: Settings, out: Path) -> dict:
    """spin test: optimal rotation + scale"""
    from .procrustes import classify_regime, procrustes_align

    load = _loader(s)
    clean = load(s["procrustes.clean"])
    pert = load(s["procrustes.pert"])
    res = procrustes_align(clean, pert)
    if s["procrustes.export_rotation"]:
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
        write_file(out / "walk_steps.csv", "\n".join(lines) + "\n")
        return
    records = []
    for i, (step, meta) in enumerate(zip(walk.steps, walk.step_meta)):
        header = f"step={i} pos={-1 if meta is None else meta}"
        records.append(FastaRecord(header, step.to_string()))
    write_fasta(records, out / "walk.fasta")


def _run_walk(s: Settings, out: Path) -> dict:
    """build an interpolation or mutation walk"""
    from .dynamics import fit_global_range, gen_oscillator, sample_oscillator_params
    from .walks import build_interpolation_walk, build_mutation_walk

    seed, mode = s["seed"], s["walk.mode"]
    if mode == "mutation":
        fasta = s["walk.fasta"]
        if fasta:
            wt = parse_fasta(fasta)[0].decode(DNA, fasta)
        else:
            wt = SymbolSequence(
                rng_create(SeedSpec(seed, "walk-wt")).integers(0, 4, size=s["walk.length"]), DNA
            )
        start, end = s["walk.core_start"], s["walk.core_end"]  # None: the middle half
        core = (len(wt) // 4 if start is None else start, 3 * len(wt) // 4 if end is None else end)
        n_mutations = s["walk.n_mutations"]
        try:
            walk = build_mutation_walk(wt, n_mutations, core, SeedSpec(seed, "walk"))
        except DataError as exc:  # the core region does not fit
            if fasta:
                raise DataError(f"{fasta}: {exc}") from None
            raise ConfigError(
                f"{s.source}: {exc}: walk.length = {len(wt)}, walk.n_mutations = "
                f"{n_mutations}, walk.core_start = {core[0]}, walk.core_end = {core[1]}"
            ) from None
    else:
        rng = rng_create(SeedSpec(seed, "walk-interp"))
        ta = gen_oscillator(sample_oscillator_params(rng))
        tb = gen_oscillator(sample_oscillator_params(rng))
        grange = fit_global_range([ta, tb])
        walk = build_interpolation_walk(ta, tb, grange, s["walk.n_steps"])
    _serialize_walk(walk, out)
    return {"mode": mode, "steps": len(walk)}


def _run_walk_profiles(s: Settings, out: Path) -> dict:
    """interpolation-walk profiles through two toy encoders"""
    from .walks import lipschitz_gap, mean_lipschitz, pca_trajectory, walk_profiles

    encoders = {}
    for name, (profiles, path) in walk_profiles(s["walk.n_steps"],
                                                SeedSpec(s["seed"], "pairs")).items():
        encoders[name] = {"mean_lipschitz": mean_lipschitz(profiles),
                          "max_spikes_per_pair": max(len(p.spikes) for p in profiles)}
        write_file(out / f"{name}_path.svg", pca_trajectory(path)[1])
    write_file(out / "report.csv", "encoder,mean_L,max_spikes_per_pair\n" + "".join(
        f"{name},{row['mean_lipschitz']:.10g},{row['max_spikes_per_pair']}\n"
        for name, row in encoders.items()))
    means = [row["mean_lipschitz"] for row in encoders.values()]
    return {"encoders": encoders, "lipschitz_gap": lipschitz_gap(means)}


def _run_lipschitz(s: Settings, out: Path) -> dict:
    """per-step embedding displacement profile"""
    from .walks import lipschitz_cosine, lipschitz_l2, pca_trajectory

    metric = s["lipschitz.metric"]
    emb = _loader(s)(s["lipschitz.embeddings"])
    profile = {"cosine": lipschitz_cosine, "l2": lipschitz_l2}[metric](emb)
    lines = ["step,L"] + [f"{i},{v:.10g}" for i, v in enumerate(profile.values)]
    write_file(out / "profile.csv", "\n".join(lines) + "\n")
    pca_res, svg = pca_trajectory(emb)
    write_file(out / "trajectory.svg", svg)
    return {
        "metric": metric,
        "mean": profile.mean,
        "max": profile.max,
        "smoothness_ratio": profile.smoothness_ratio,
        "spikes": list(profile.spikes),
        "pca_explained": [float(v) for v in pca_res.explained_variance_ratio],
    }


def _run_mine(s: Settings, out: Path) -> dict:
    """excess mutual information estimate"""
    from .mine.estimator import excess_mi_report
    from .mine.features import features_from_fasta
    from .mine.mlp import MLPConfig

    condition = _csv_cell(s, "mine.condition", s["mine.condition"])
    mlp_cfg = MLPConfig(epochs=s["mine.epochs"], lr=s["mine.lr"])
    load = _loader(s)
    fasta = s["mine.features_fasta"]
    if fasta:
        x = features_from_fasta(fasta, s["mine.feature_kind"])
    else:
        x = load(s["mine.features"]).data
    z = load(s["mine.embeddings"]).data
    est = excess_mi_report(x, z, mlp_cfg, s["mine.seeds"], workers=s["threads"])
    write_file(out / "report.csv", "condition,length,mean,std,baseline,ceiling,excess\n"
               f"{condition},{x.shape[0]},{est.mean:.6f},{est.std:.6f},"
               f"{est.baseline:.6f},{est.ceiling:.6f},{est.excess:.6f}\n")
    payload = est.to_dict()
    payload["traces"] = {str(r.seed): [list(p) for p in r.trace] for r in est.runs}
    return payload


def _run_mine_sanity(s: Settings, out: Path) -> dict:
    """estimator check on known-MI Gaussians"""
    from .mine.estimator import sanity_suite

    cases = sanity_suite(n=s["mine.n"], seeds=s["mine.seeds"], data_seed=s["seed"],
                         workers=s["threads"])
    csv_lines = ["rho,true_mi,estimate,std,tolerance,passed"]
    for c in cases:
        csv_lines.append(
            f"{c.rho},{c.true_mi:.6f},{c.estimate:.6f},{c.std:.6f},{c.tolerance:.6f},{int(c.passed)}"
        )
    write_file(out / "report.csv", "\n".join(csv_lines) + "\n")
    return {
        "cases": [asdict(c) for c in cases],
        "all_passed": all(c.passed for c in cases),
    }


def _run_texture(s: Settings, out: Path) -> dict:
    """four-condition RC texture test"""
    from .texture import ENCODER_WINDOWS, MIN_CORPUS, four_condition_experiment
    from .texture import heterogeneous_corpus

    split_config = _split_config(s)
    fasta = s["texture.fasta"]
    if fasta:
        corpus = [rec.decode(DNA, fasta) for rec in parse_fasta(fasta)]
    else:
        for key, minimum in (("texture.n", MIN_CORPUS), ("texture.length", ENCODER_WINDOWS)):
            if s[key] < minimum:
                raise ConfigError(f"{s.source}: key {key!r}: {s[key]} is below {minimum}")
        corpus = heterogeneous_corpus(s["texture.n"], s["texture.length"],
                                      SeedSpec(s["seed"], "texture-corpus"))
    rows = four_condition_experiment(corpus, SeedSpec(s["seed"], "texture"),
                                     split_config=split_config)
    csv_lines = ["Condition,RC RDM,RC Composite,Recovery"]
    for r in rows:
        csv_lines.append(f"{r.condition},{r.rc_rdm:.6f},{r.rc_composite:.6f},{r.recovery:.6f}")
    write_file(out / "report.csv", "\n".join(csv_lines) + "\n")
    return {"conditions": [asdict(r) for r in rows]}


def _run_probe(s: Settings, out: Path) -> dict:
    """frozen linear / MLP probes with stratified CV"""
    from .mine.probes import mlp_probe_cv
    from .procrustes import frozen_head_classifier

    arch, folds, header = s["probe.arch"], s["probe.folds"], s["io.csv_header"]
    emb = load_matrix(s["probe.embeddings"], csv_header=header)
    labels_path = s["probe.labels"]
    lines = read_text(labels_path, DataError).split("\n")
    try:
        with warnings.catch_warnings():  # an empty file: the count check below names it
            warnings.simplefilter("ignore", UserWarning)
            labels = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=1,
                                skiprows=int(header))
    except ValueError as exc:
        raise DataError(f"{labels_path}: labels must be integers ({exc})") from None
    if labels.size != emb.n:
        raise DataError(f"{labels_path}: {labels.size} labels for the {emb.n} rows of "
                        f"{s['probe.embeddings']}")
    spec = SeedSpec(s["seed"], "probe")
    if arch == "linear":
        mean, std = frozen_head_classifier(emb, labels, folds, spec)
    else:
        mean, std = mlp_probe_cv(emb, labels, arch, folds, spec)
    row = f"{arch},{folds},{mean:.6f},{std:.6f}"
    write_file(out / "report.csv", f"arch,folds,accuracy,std\n{row}\n")
    return {"arch": arch, "folds": folds, "accuracy": mean, "std": std}


def _run_vq_sweep(s: Settings, out: Path) -> dict:
    """codebook size sweep: reconstruction vs geometry"""
    from .dynamics import gen_lorenz
    from .quantize import check_sweep, rd_bound_codebook, vq_double_bind_sweep

    source, d_m = s["vq.data"], s["vq.intrinsic_dim"]
    if d_m is None:
        if source:
            raise ConfigError(f"{s.source}: vq.data needs vq.intrinsic_dim (--intrinsic-dim), "
                              "the d_M of its Shannon column")
        d_m = 2.06  # the Lorenz attractor's dimension, d_M of the Shannon reference
    if not (math.isfinite(d_m) and d_m > 0):
        raise ConfigError(f"{s.source}: vq.intrinsic_dim must be finite and > 0, got {d_m}")
    check_sweep(s["vq.k_values"], s["vq.sigma"])
    if source:
        data = _loader(s)(source).data
    else:
        data = gen_lorenz(SeedSpec(s["seed"], "vq-lorenz"), s["vq.n"]).values
    curve = vq_double_bind_sweep(data, s["vq.k_values"], sigma=s["vq.sigma"],
                                 seed=SeedSpec(s["seed"], "vq"))
    var = float(data.var())
    rows = [[k, mse, d, rd_bound_codebook(var, d_m, k)] for k, mse, d in curve.rows()]
    csv_lines = ["K,recon_mse,procrustes_D,shannon_D"]
    for k, mse, d, shannon in rows:
        csv_lines.append(f"{k},{mse:.10g},{d:.10g},{shannon:.10g}")
    write_file(out / "report.csv", "\n".join(csv_lines) + "\n")
    return {
        "rows": rows,
        "fit": {"a": curve.fit_intercept, "b": curve.fit_slope, "r2": curve.fit_r2},
        "intrinsic_dim": d_m,
    }


# the experiments, each by its name in a config and on the command line; each
# runner's docstring is its subcommand's help line
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
}

MANIFEST = ("perturb.manifest",)
INTERPOLATION = ("walk.mode=interpolation",)
SPLITS = ("stability", "texture")

# every config key, in the order of the config echo and of each subcommand's
# flags; a key every experiment reads has a global flag
KEYS = (
    Key("seed", "--seed", dict.fromkeys(RUNNERS, 320), int),
    Key("threads", "--threads", dict.fromkeys(RUNNERS, 1), int, minimum=1),
    Key("io.csv_header", "--csv-header", dict.fromkeys(RUNNERS, False), boolean,
        help="CSV inputs carry one header line to skip"),
    Key("gen.system", "--system", {"gen": None}, choices=("waveform", "oscillator", "lorenz"),
        required=True),
    Key("gen.n", "--n", {"gen": 10}, int, minimum=1),
    Key("gen.length", "--length", {"gen": 512}, int, minimum=2),
    Key("gen.components", "--components", {"gen": 3}, int, minimum=1),
    Key("discretize.input.<i>", "--input", {"discretize": {}}, required=True,
        help="each path becomes a discretize.input.<i> key"),
    Key("discretize.range", "--range", {"discretize": None}),
    Key("discretize.bins", "--bins", {"discretize": 256}, int, minimum=1),
    Key("perturb.input", "--input", {"perturb": None}, required=True, unread_with=MANIFEST),
    Key("perturb.kind", "--kind", {"perturb": None}, required=True, unread_with=MANIFEST),
    Key("perturb.rate", "--rate", {"perturb": 0.01}, float, unread_with=MANIFEST),
    Key("perturb.magnitude", "--magnitude", {"perturb": 1.0}, float),
    Key("perturb.output", "--output", {"perturb": None}, required=True, unread_with=MANIFEST),
    Key("perturb.manifest", "--manifest", {"perturb": None},
        help="CSV of input,kind,rate,seed rows"),
    Key("stability.clean", "--clean", {"stability": None}, required=True),
    Key("stability.pert.<name>", "--pert", {"stability": {}}, required=True,
        help="repeatable perturbed matrix"),
    Key("stability.deltas", "--deltas", {"stability": None}),
    Key("stability.n_splits", "--splits", {"stability": 30, "texture": 10}, int, minimum=1),
    Key("stability.max_samples", "--max-samples", dict.fromkeys(SPLITS, 2500), int, minimum=10),
    Key("stability.n_bootstrap", "--bootstrap", {"stability": 5, "texture": 1}, int, minimum=1),
    Key("stability.anchor_count", None, dict.fromkeys(SPLITS), int, minimum=1),
    Key("stability.rank_normalize_anchors", None, dict.fromkeys(SPLITS, False), boolean),
    Key("stability.composite_variant", "--composite-variant", {"stability": "anchor"},
        choices=("anchor", "perturbation")),
    Key("procrustes.clean", "--clean", {"procrustes": None}, required=True),
    Key("procrustes.pert", "--pert", {"procrustes": None}, required=True),
    Key("procrustes.export_rotation", "--export-rotation", {"procrustes": False}, boolean),
    Key("walk.mode", "--mode", {"walk": "mutation"}, choices=("mutation", "interpolation")),
    Key("walk.fasta", "--fasta", {"walk": None}, unread_with=INTERPOLATION),
    Key("walk.n_mutations", "--n-mutations", {"walk": 120}, int, minimum=0,
        unread_with=INTERPOLATION),
    Key("walk.length", "--length", {"walk": 2000}, int, minimum=1,
        unread_with=("walk.fasta", *INTERPOLATION)),
    Key("walk.n_steps", "--steps", {"walk": 101, "walk-profiles": 101}, int, minimum=2,
        unread_with=("walk.mode=mutation",)),
    Key("walk.core_start", None, {"walk": None}, int, unread_with=INTERPOLATION),
    Key("walk.core_end", None, {"walk": None}, int, unread_with=INTERPOLATION),
    Key("lipschitz.embeddings", "--embeddings", {"lipschitz": None}, required=True),
    Key("lipschitz.metric", "--metric", {"lipschitz": "cosine"}, choices=("cosine", "l2")),
    Key("mine.features", "--features", {"mine": None}, required=True,
        unread_with=("mine.features_fasta",)),
    Key("mine.features_fasta", "--features-fasta", {"mine": None},
        help="extract compositional features from FASTA instead"),
    Key("mine.feature_kind", "--feature-kind", {"mine": "dna"}, choices=("dna", "protein"),
        unread_with=("mine.features",)),
    Key("mine.embeddings", "--embeddings", {"mine": None}, required=True),
    Key("mine.n", "--n", {"mine-sanity": 2000}, int, minimum=2),
    Key("mine.seeds", "--seeds", dict.fromkeys(("mine", "mine-sanity"), (320, 420, 520, 620, 720)),
        int_list),
    Key("mine.epochs", "--epochs", {"mine": 500}, int, minimum=1),
    Key("mine.lr", None, {"mine": 1e-4}, float),
    Key("mine.condition", "--condition", {"mine": "model"}),
    Key("texture.fasta", "--fasta", {"texture": None}),
    Key("texture.n", "--n", {"texture": 200}, int, unread_with=("texture.fasta",)),
    Key("texture.length", "--length", {"texture": 400}, int, unread_with=("texture.fasta",)),
    Key("probe.embeddings", "--embeddings", {"probe": None}, required=True),
    Key("probe.labels", "--labels", {"probe": None}, required=True),
    Key("probe.arch", "--arch", {"probe": "linear"}, choices=("linear", "mlp", "mlp-wide")),
    Key("probe.folds", "--folds", {"probe": 5}, int, minimum=2),
    Key("vq.data", "--data", {"vq-sweep": None}),
    Key("vq.k_values", "--k-values", {"vq-sweep": (32, 64, 128, 256, 512, 1024)}, int_list),
    Key("vq.sigma", "--sigma", {"vq-sweep": 0.05}, float),
    Key("vq.intrinsic_dim", "--intrinsic-dim", {"vq-sweep": None}, float,
        help="d_M of the Shannon D(R) column; required with --data "
             "(default 2.06, the Lorenz attractor)"),
    Key("vq.n", None, {"vq-sweep": 2000}, int, minimum=2, unread_with=("vq.data",)),
)
