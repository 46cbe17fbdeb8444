"""Command-line surface.

Every analysis subcommand assembles a flat config and hands it to the
pipeline runner, so a CLI invocation and a config-file run produce
identical artifacts.  Each of their options is declared once, with its
config key as its dest; ``--help`` shows that key as the value name of
every option that has no fixed choices.
Exit codes: 0 ok, 2 config error, 3 data error, 4 network error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .core.embedding import EmbeddingMatrix
from .core.io import load_matrix, read_text, write_embeddings
from .core.rng import SeedSpec, rng_create
from .core.sequence import DNA
from .dynamics import (
    MAX_BINS,
    GlobalRange,
    Trajectory,
    discretize,
    fit_global_range,
    gen_lorenz,
    gen_oscillator,
    gen_waveform,
    sample_oscillator_params,
)
from .errors import ConfigError, DataError, GeotaxError, NetworkError
from .ingest.cache import ResultCache
from .ingest.config import Config
from .ingest.fasta import FastaRecord, parse_fasta, write_fasta
from .perturb import KINDS, PerturbationSpec, apply_perturbation
from .ingest.fetch import FetchSpec, fetch_genome
from .report import rerun_from_provenance, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NETWORK = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geotax", description=__doc__)
    parser.add_argument("--version", action="version", version=f"geotax {__version__}")
    parser.add_argument("--seed", type=int, default=320)
    parser.add_argument("--out-dir", type=Path, default=Path("geotax-run"))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--csv-header", action="store_true",
                        help="CSV inputs carry one header line to skip")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic dynamical-system datasets")
    p.add_argument("--system", choices=("waveform", "oscillator", "lorenz"), required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--length", type=int, default=512)
    p.add_argument("--components", type=int, default=3)

    p = sub.add_parser("discretize", help="two-pass global discretization")
    p.add_argument("--input", type=Path, required=True, nargs="+")
    p.add_argument("--range", type=Path, dest="range_file")
    p.add_argument("--bins", type=int, default=256)

    p = sub.add_parser("perturb", help="apply a perturbation to a trajectory or sequence")
    p.add_argument("--input", type=Path)
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--rate", type=float, default=0.01)
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--output", type=Path)
    p.add_argument("--manifest", type=Path, help="CSV of input,kind,rate,seed rows")

    # A pipeline subcommand's options are stored under their config keys
    # (dest), so argparse's namespace order is the order of the config echo.
    p = sub.add_parser("stability", help="run the stability harness")
    p.add_argument("--clean", dest="stability.clean", type=Path, required=True)
    p.add_argument("--pert", action="append", required=True,
                   metavar="NAME=PATH", help="repeatable perturbed matrix")
    p.add_argument("--deltas", dest="stability.deltas", type=Path)
    p.add_argument("--splits", dest="stability.n_splits", type=int, default=30)
    p.add_argument("--max-samples", dest="stability.max_samples", type=int, default=2500)
    p.add_argument("--bootstrap", dest="stability.n_bootstrap", type=int, default=5)
    p.add_argument("--composite-variant", dest="stability.composite_variant",
                   choices=("anchor", "perturbation"), default="anchor")

    p = sub.add_parser("procrustes", help="spin test: optimal rotation + scale")
    p.add_argument("--clean", dest="procrustes.clean", type=Path, required=True)
    p.add_argument("--pert", dest="procrustes.pert", type=Path, required=True)
    p.add_argument("--export-rotation", dest="procrustes.export_rotation", action="store_true")

    p = sub.add_parser("walk", help="build an interpolation or mutation walk")
    p.add_argument("--mode", dest="walk.mode", choices=("mutation", "interpolation"),
                   default="mutation")
    p.add_argument("--fasta", dest="walk.fasta", type=Path)
    p.add_argument("--n-mutations", dest="walk.n_mutations", type=int, default=120)
    p.add_argument("--length", dest="walk.length", type=int, default=2000)
    p.add_argument("--steps", dest="walk.n_steps", type=int, default=101)

    p = sub.add_parser("lipschitz", help="per-step embedding displacement profile")
    p.add_argument("--embeddings", dest="lipschitz.embeddings", type=Path, required=True)
    p.add_argument("--metric", dest="lipschitz.metric", choices=("cosine", "l2"),
                   default="cosine")

    p = sub.add_parser("mine", help="excess mutual information estimate")
    p.add_argument("--features", dest="mine.features", type=Path)
    p.add_argument("--features-fasta", dest="mine.features_fasta", type=Path,
                   help="extract compositional features from FASTA instead")
    p.add_argument("--feature-kind", dest="mine.feature_kind", choices=("dna", "protein"),
                   default="dna")
    p.add_argument("--embeddings", dest="mine.embeddings", type=Path, required=True)
    p.add_argument("--seeds", dest="mine.seeds")
    p.add_argument("--epochs", dest="mine.epochs", type=int, default=500)
    p.add_argument("--condition", dest="mine.condition", default="model")

    p = sub.add_parser("mine-sanity", help="estimator check on known-MI Gaussians")
    p.add_argument("--n", dest="mine.n", type=int, default=2000)
    p.add_argument("--seeds", dest="mine.seeds")

    p = sub.add_parser("texture", help="four-condition RC texture test")
    p.add_argument("--fasta", dest="texture.fasta", type=Path)
    p.add_argument("--n", dest="texture.n", type=int, default=200)
    p.add_argument("--length", dest="texture.length", type=int, default=400)
    p.add_argument("--splits", dest="stability.n_splits", type=int, default=10)
    p.add_argument("--bootstrap", dest="stability.n_bootstrap", type=int, default=1)

    p = sub.add_parser("probe", help="frozen linear / MLP probes with stratified CV")
    p.add_argument("--embeddings", dest="probe.embeddings", type=Path, required=True)
    p.add_argument("--labels", dest="probe.labels", type=Path, required=True)
    p.add_argument("--arch", dest="probe.arch", choices=("linear", "mlp", "mlp-wide"),
                   default="linear")
    p.add_argument("--folds", dest="probe.folds", type=int, default=5)

    p = sub.add_parser("fetch", help="fetch a genomic span (cached)")
    p.add_argument("--source", choices=("genome-rest", "synthetic"), default="genome-rest")
    p.add_argument("--assembly", default="hg38")
    p.add_argument("--chrom", default="chr22")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int, default=0)
    p.add_argument("--n-policy", choices=("reject", "replace"), default="reject")
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--cache-dir", type=Path, help="default: $GEOTAX_CACHE or ~/.cache/geotax")

    p = sub.add_parser("report", help="run a config-declared experiment")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="flat key=value config file")
    source.add_argument("--rerun", type=Path, help="re-execute from a report's provenance")

    p = sub.add_parser("vq-sweep", help="codebook size sweep: reconstruction vs geometry")
    p.add_argument("--data", dest="vq.data", type=Path)
    p.add_argument("--k-values", dest="vq.k_values", default="32,64,128,256,512,1024")
    p.add_argument("--sigma", dest="vq.sigma", type=float, default=0.05)
    p.add_argument("--intrinsic-dim", dest="vq.intrinsic_dim", type=float,
                   help="d_M of the Shannon D(R) column (default 2.06, the Lorenz attractor)")

    return parser


def _cmd_gen(args) -> int:
    for flag, value, least in (("--n", args.n, 1), ("--length", args.length, 2),
                               ("--components", args.components, 1)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    trajs: list[Trajectory] = []
    rng = rng_create(SeedSpec(args.seed, "gen"))
    for i in range(args.n):
        spec = SeedSpec(args.seed, f"gen/{i}")
        if args.system == "oscillator":
            trajs.append(gen_oscillator(sample_oscillator_params(rng), args.length))
        elif args.system == "waveform":
            trajs.append(gen_waveform(spec, args.components, args.length))
        else:
            trajs.append(gen_lorenz(spec, args.length))
    grange = fit_global_range(trajs)
    for i, traj in enumerate(trajs):
        write_embeddings(out / f"traj_{i:04d}.emb1", EmbeddingMatrix(traj.values))
    write_embeddings(
        out / "range.emb1", EmbeddingMatrix(np.vstack([grange.minimum, grange.maximum]))
    )
    meta = {
        "system": args.system,
        "n": args.n,
        "length": args.length,
        "seed": args.seed,
        "dt": trajs[0].dt,
    }
    (out / "meta.cfg").write_text("".join(f"{k} = {v}\n" for k, v in meta.items()))
    print(f"wrote {args.n} trajectories to {out}")
    return EXIT_OK


def _cmd_discretize(args) -> int:
    if not 1 <= args.bins <= MAX_BINS:
        raise ConfigError(f"--bins must lie in [1, 2**53], got {args.bins}")
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    load = partial(load_matrix, csv_header=args.csv_header)
    if args.range_file:
        mat = load(args.range_file)
        if mat.n != 2:
            raise DataError(f"{args.range_file}: range file must hold exactly 2 rows (min, max)")
        grange = GlobalRange(mat.data[0], mat.data[1])
    else:
        trajs = [Trajectory(load(p).data, 1.0) for p in args.input]
        grange = fit_global_range(trajs)
    for path in args.input:
        traj = Trajectory(load(path).data, 1.0)
        seq = discretize(traj, grange, args.bins)
        target = out / (Path(path).stem + ".sym.csv")
        target.write_text(",".join(str(s) for s in seq.symbols) + "\n")
    print(f"discretized {len(args.input)} file(s) into {out}")
    return EXIT_OK


def _perturb_one(args, input_path: Path, kind: str, rate: float, seed: int,
                 output: Path) -> None:
    spec = PerturbationSpec(kind, rate, args.magnitude, SeedSpec(seed, f"perturb/{kind}"))
    if input_path.suffix in (".fa", ".fasta"):
        out_records = [
            FastaRecord(rec.header, apply_perturbation(rec.decode(DNA), spec).to_string())
            for rec in parse_fasta(input_path)
        ]
        write_fasta(out_records, output)
    else:
        traj = Trajectory(load_matrix(input_path, csv_header=args.csv_header).data, 1.0)
        result = apply_perturbation(traj, spec)
        write_embeddings(output, EmbeddingMatrix(result.values))


def _cmd_perturb(args) -> int:
    if args.manifest:
        lines = read_text(args.manifest, ConfigError).strip().splitlines()
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for i, line in enumerate(lines):
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ConfigError(f"{args.manifest}:{i + 1}: expected input,kind,rate,seed")
            path, kind, rate, seed = parts
            if "\x00" in path:
                raise ConfigError(f"{args.manifest}:{i + 1}: NUL byte in {line!r}")
            try:
                rate, seed = float(rate), int(seed)
            except ValueError:
                raise ConfigError(f"{args.manifest}:{i + 1}: bad rate or seed") from None
            output = args.out_dir / f"{Path(path).stem}.{kind}.{i}{Path(path).suffix or '.emb1'}"
            try:
                _perturb_one(args, Path(path), kind, rate, seed, output)
            except ConfigError as exc:
                raise ConfigError(f"{args.manifest}:{i + 1}: {exc}") from None
        print(f"applied {len(lines)} manifest rows into {args.out_dir}")
        return EXIT_OK
    if not (args.input and args.kind and args.output):
        raise ConfigError("perturb needs --input/--kind/--output or --manifest")
    _perturb_one(args, args.input, args.kind, args.rate, args.seed, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_fetch(args) -> int:
    spec = FetchSpec(
        source=args.source,
        assembly=args.assembly,
        chromosome=args.chrom,
        start=args.start,
        end=args.end,
        n_policy=args.n_policy,
        seed=SeedSpec(args.seed, "fetch"),
    )
    seq = fetch_genome(spec, cache=ResultCache(args.cache_dir))
    header = f"{args.assembly}:{args.chrom}:{args.start}-{args.end}" \
        if args.source == "genome-rest" else f"synthetic seed={args.seed}"
    write_fasta([FastaRecord(header, seq.to_string())], args.output)
    print(f"wrote {args.output} ({len(seq)} bases)")
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.rerun:
        run_dir = rerun_from_provenance(args.rerun, args.out_dir)
    else:
        run_dir = run_pipeline(args.config, args.out_dir)
    print(f"report in {run_dir}")
    return EXIT_OK


# each pipeline subcommand's closing message
PIPELINES = {
    "stability": "stability report in",
    "procrustes": "procrustes report in",
    "walk": "walk written to",
    "lipschitz": "profile in",
    "mine": "MI report in",
    "mine-sanity": "sanity report in",
    "texture": "texture table in",
    "probe": "probe report in",
    "vq-sweep": "sweep in",
}


def _cmd_pipeline(args) -> int:
    """Copy the global settings and the subcommand's options, stored under
    their config keys, into a config and run the pipeline.  Unset (None)
    options are left out."""
    values = {"experiment": args.command, "seed": str(args.seed), "threads": str(args.threads),
              "io.csv_header": str(args.csv_header).lower()}
    for key, value in vars(args).items():
        if "." in key and value is not None:
            values[key] = str(value).lower() if isinstance(value, bool) else str(value)
    if args.command == "mine" and not ("mine.features" in values
                                       or "mine.features_fasta" in values):
        raise ConfigError("mine needs --features or --features-fasta")
    if args.command == "stability":
        for item in args.pert:
            if "=" not in item:
                raise ConfigError(f"--pert expects NAME=PATH, got {item!r}")
            name, path = item.split("=", 1)
            values[f"stability.pert.{name}"] = path
    run_pipeline(Config(values, source="<cli>"), args.out_dir)
    print(f"{PIPELINES[args.command]} {args.out_dir}")
    return EXIT_OK


COMMANDS = {
    "gen": _cmd_gen,
    "discretize": _cmd_discretize,
    "perturb": _cmd_perturb,
    "fetch": _cmd_fetch,
    "report": _cmd_report,
    **dict.fromkeys(PIPELINES, _cmd_pipeline),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse turns an attached "--" (``--n=--``) into [] without calling type=
    if [] in vars(args).values():
        parser.error("'--' is not an option value")
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NetworkError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (DataError, GeotaxError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
