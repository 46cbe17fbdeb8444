"""Command-line surface.

Every subcommand but ``report`` is an experiment of ``report.RUNNERS``,
with flags generated from the key table ``report.KEYS``; the flags given
become a flat config for the pipeline runner, so a CLI invocation and a
config-file run produce identical artifacts.  The CLI checks only that
each ``--pert`` is a NAME=PATH pair under a new name; every other check
is the table's or the runner's.  ``--help`` shows each flag's config key
as its value name, unless the flag has fixed choices.  A run that
succeeds prints ``report in <out-dir>``.
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
from .errors import ConfigError, DataError, GeotaxError, NetworkError
from .ingest.config import Config, boolean
from .report import KEYS, RUNNERS, rerun_from_provenance, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NETWORK = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geotax", description=__doc__)
    parser.add_argument("--version", action="version", version=f"geotax {__version__}")
    parser.add_argument("--out-dir", type=Path, default=Path("geotax-run"))
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, help=run.__doc__) for name, run in RUNNERS.items()}
    # each flag is stored under its key (dest), unparsed; a flag not given
    # stays None and is left out of the config
    for row in (row for row in KEYS if row.flag):
        options = {"dest": row.dest, "help": row.help,
                   "required": row.required and not row.unread_with}
        if row.parse is boolean:
            options.update(action="store_const", const="true")
        elif row.choices:
            options["choices"] = row.choices
        if row.key.endswith(".<name>"):  # NAME=PATH pairs become <family>.<name> keys
            options.update(action="append", metavar="NAME=PATH")
        elif row.key.endswith(".<i>"):  # each item becomes a <family>.<i> key
            options["nargs"] = "+"
        for target in [parser] if row.reads.keys() == RUNNERS.keys() else map(subs.get, row.reads):
            target.add_argument(row.flag, **options)

    p = sub.add_parser("report", help="run a config-declared experiment")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="flat key=value config file")
    source.add_argument("--rerun", type=Path, help="re-execute from a report's provenance")
    return parser


def _config(args) -> Config:
    """The experiment and the flags given, stored under their config keys."""
    values = {"experiment": args.command}
    for row in KEYS:
        value = getattr(args, row.dest, None)
        if value is None:
            continue
        if row.key.endswith(".<name>"):
            for item in value:
                name, sep, path = item.partition("=")
                if not sep:
                    raise ConfigError(f"{row.flag} expects NAME=PATH, got {item!r}")
                key = f"{row.dest}.{name}"
                if key in values:
                    raise ConfigError(f"{row.flag} {item!r}: perturbation name {name!r} is "
                                      "repeated")
                values[key] = path
        elif row.key.endswith(".<i>"):
            values.update((f"{row.dest}.{i}", item) for i, item in enumerate(value))
        else:
            values[row.key] = value
    return Config(values, source="<cli>")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse turns an attached "--" (``--n=--``) into [] without calling type=
    if [] in vars(args).values():
        parser.error("'--' is not an option value")
    try:
        if args.command != "report":
            run_pipeline(_config(args), args.out_dir)
        elif args.rerun:
            rerun_from_provenance(args.rerun, args.out_dir)
        else:
            run_pipeline(args.config, args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NetworkError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (DataError, GeotaxError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"report in {args.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
