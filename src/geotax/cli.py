"""Command-line surface.

Every subcommand but ``fetch`` and ``report`` assembles a flat config
and hands it to the pipeline runner, so a CLI invocation and a
config-file run produce identical artifacts.  Each of their options is
declared once, with its config key as its dest; ``--help`` shows that
key as the value name of every option that has no fixed choices.
Exit codes: 0 ok, 2 config error, 3 data error, 4 network error.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Run as the program (``python -m geotax.cli`` or the ``geotax`` script):
    # start OpenBLAS on one thread before numpy loads, unless the caller chose
    # a count.  Every report runs on one BLAS thread anyway, and OpenBLAS
    # threads started at import spin for CPU time no report uses.  Imported
    # as a library, the module leaves the environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from pathlib import Path

from . import __version__
from .core.rng import SeedSpec
from .errors import ConfigError, DataError, GeotaxError, NetworkError
from .ingest.config import Config
from .ingest.fasta import FastaRecord, write_fasta
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

    # A pipeline subcommand's options are stored under their config keys
    # (dest), so argparse's namespace order is the order of the config echo.
    p = sub.add_parser("gen", help="generate synthetic dynamical-system datasets")
    p.add_argument("--system", dest="gen.system", choices=("waveform", "oscillator", "lorenz"),
                   required=True)
    p.add_argument("--n", dest="gen.n", type=int, default=10)
    p.add_argument("--length", dest="gen.length", type=int, default=512)
    p.add_argument("--components", dest="gen.components", type=int, default=3)

    p = sub.add_parser("discretize", help="two-pass global discretization")
    p.add_argument("--input", dest="discretize.input", type=Path, required=True, nargs="+",
                   help="each path becomes a discretize.input.<i> key")
    p.add_argument("--range", dest="discretize.range", type=Path)
    p.add_argument("--bins", dest="discretize.bins", type=int, default=256)

    p = sub.add_parser("perturb", help="apply a perturbation to a trajectory or sequence")
    p.add_argument("--input", dest="perturb.input", type=Path)
    p.add_argument("--kind", dest="perturb.kind")
    p.add_argument("--rate", dest="perturb.rate", type=float, default=0.01)
    p.add_argument("--magnitude", dest="perturb.magnitude", type=float, default=1.0)
    p.add_argument("--output", dest="perturb.output", type=Path)
    p.add_argument("--manifest", dest="perturb.manifest", type=Path,
                   help="CSV of input,kind,rate,seed rows")

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
                   help="d_M of the Shannon D(R) column; required with --data "
                        "(default 2.06, the Lorenz attractor)")

    return parser


def _cmd_fetch(args) -> int:
    # imported here, so the other subcommands never load the network code
    from .ingest.cache import ResultCache
    from .ingest.fetch import FetchSpec, fetch_genome

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
    "gen": "trajectories in",
    "discretize": "symbols in",
    "perturb": "perturbation report in",
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
    options are left out, and an item the config echo cannot hold is
    refused before the run starts."""
    values = {"experiment": args.command, "seed": str(args.seed), "threads": str(args.threads),
              "io.csv_header": str(args.csv_header).lower()}
    for key, value in vars(args).items():
        if "." in key and value is not None:
            if isinstance(value, list):  # nargs="+": one key per item, in order
                values.update((f"{key}.{i}", str(item)) for i, item in enumerate(value))
            else:
                values[key] = str(value).lower() if isinstance(value, bool) else str(value)
    if args.command == "mine" and not ("mine.features" in values
                                       or "mine.features_fasta" in values):
        raise ConfigError("mine needs --features or --features-fasta")
    if args.command == "stability":
        for item in args.pert:
            if "=" not in item:
                raise ConfigError(f"--pert expects NAME=PATH, got {item!r}")
            name, path = item.split("=", 1)
            if not name:
                raise ConfigError(f"--pert {item!r}: empty perturbation name")
            if f"stability.pert.{name}" in values:
                raise ConfigError(f"--pert {item!r}: perturbation name {name!r} is repeated")
            values[f"stability.pert.{name}"] = path
    # report --rerun parses the config echo, which must give back every item
    for key, value in values.items():
        try:
            echoed = Config.parse(Config({key: value}).dump()).values
        except ConfigError:
            echoed = None
        if echoed != {key: value}:
            raise ConfigError(f"{key!r} = {value!r} would not read back from the config echo; "
                              "it may hold no '#', line break, or space at either end")
    run_pipeline(Config(values, source="<cli>"), args.out_dir)
    print(f"{PIPELINES[args.command]} {args.out_dir}")
    return EXIT_OK


# the subcommands with their own handler; every other one is a pipeline
COMMANDS = {"fetch": _cmd_fetch, "report": _cmd_report}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse turns an attached "--" (``--n=--``) into [] without calling type=
    if [] in vars(args).values():
        parser.error("'--' is not an option value")
    try:
        return COMMANDS.get(args.command, _cmd_pipeline)(args)
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
