"""geotax benchmark: runs the ``geotax`` CLI on one generated workload.

    python3 bench/run.py --workload stability-3pert --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` times CLI processes, one
at a time, for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` calls ``geotax.cli.main`` in this process with wrappers around
each layer and reports the per-layer metrics.  Both check every report the
program writes.  A metric table goes to standard output, and its last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Workload, run_checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3           # CLI runs per timed run, however short --seconds is
SETUP_EVERY = 2        # one fresh-interpreter set-up sample per this many CLI runs
CLI_TIMEOUT_S = 60.0   # a CLI process running longer is killed and counts as failed
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up as a user pays it: a fresh interpreter imports the CLI and reads
# the workload's input files.  argv[1] is the source tree that must be used.
SETUP_CODE = """\
import sys
import geotax
import geotax.cli
from geotax.core.io import load_matrix
if not geotax.__file__.startswith(sys.argv[1]):
    sys.exit("geotax imported from " + geotax.__file__)
for path in sys.argv[2:]:
    load_matrix(path)
"""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "geotax").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({type(exc).__name__})"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas_info = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info,
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def spawn(cmd: list[str], env: dict, log: Path) -> tuple:
    """Run one process to completion: wall seconds from spawn to exit, the
    rusage ``wait4`` reports (the process plus the children it reaped), and
    the exit code."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def log_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class OutputSet:
    """Checks each report, and that the reports of runs on the same input
    are byte-identical."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(
        self, label: str, rc: int, report: Path, detail: str = "", input_key: int = 0, results_only: bool = False
    ) -> None:
        """Count one run on input ``input_key``.  ``results_only`` compares
        only the report's ``results`` with the first run on that input, for
        a run whose flags (echoed in the report) differ from the set's."""
        self.attempted += 1
        if rc != 0:
            errors = [f"exit code {rc}: {detail}"]
        elif not report.is_file():
            errors = ["no report.json written"]
        else:
            raw = report.read_bytes()
            errors = run_checks(self.workload, raw)
            first = self.first.setdefault(input_key, raw)
            if results_only:
                try:
                    same = json.loads(raw)["results"] == json.loads(first)["results"]
                except (ValueError, KeyError, TypeError):
                    same = False
                if not same:
                    errors.append("results differ from the first run on this input")
            elif raw != first:
                digests = (hashlib.sha256(raw).hexdigest()[:12], hashlib.sha256(first).hexdigest()[:12])
                errors.append("report.json differs from the first run on this input (%s != %s)" % digests)
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]
            print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_run(workload: Workload, inputs: list, seconds: int, run_dir: Path):
    """End-to-end metrics: CLI processes started one at a time, tracing off,
    cycling through the generated ``(input seed, files)`` pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    log = run_dir / "stderr.log"
    setup_cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, inputs[0][1].values())]

    def setup_sample() -> float:
        wall, _, rc = spawn(setup_cmd, env, log)
        if rc != 0:
            raise RuntimeError(f"set-up failed with exit code {rc}: {log_tail(log)}")
        return wall

    deadline = time.perf_counter() + seconds
    setup_sample()  # untimed: fills the bytecode cache
    out_dir = run_dir / "out"
    argvs = [workload.argv(seed, files) for seed, files in inputs]
    outputs = OutputSet(workload)
    samples = {name: [] for name in END_TO_END}
    while outputs.attempted < MIN_RUNS or time.perf_counter() < deadline:
        # Set-up samples are spread over the run, like the CLI runs, so that
        # both see the same machine conditions.
        if outputs.attempted % SETUP_EVERY == 0:
            samples["setup_s"].append(setup_sample())
        key = outputs.attempted % len(argvs)
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [sys.executable, "-m", "geotax.cli", "--out-dir", str(out_dir), *argvs[key]]
        wall, usage, rc = spawn(cmd, env, log)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        outputs.record(f"run {outputs.attempted + 1}", rc, out_dir / "report.json", log_tail(log), key)
    return samples, outputs


def traced_run(workload: Workload, inputs: list, seconds: int, run_dir: Path):
    """Per-layer metrics: ``geotax.cli.main`` in this process on the first
    input, first without wrappers (the untraced baseline for the overhead),
    then traced."""
    sys.path.insert(0, str(SRC))
    import geotax
    import geotax.cli

    from layers import COVERAGE_WARN, LAYERS, layer_metrics
    from spans import Tracer, install

    if not geotax.__file__.startswith(str(SRC)):
        raise RuntimeError(f"geotax imported from {geotax.__file__}, not {SRC}")
    out_dir = run_dir / "out"
    outputs = OutputSet(workload)

    def call(argv: list[str], label: str, tracer: Tracer | None = None, results_only: bool = False) -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        restore = install(tracer, LAYERS) if tracer else None
        start = time.perf_counter()
        detail = ""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = geotax.cli.main(["--out-dir", str(out_dir), *argv])
        except Exception:  # one failed run is counted; the set goes on
            rc, detail = -1, traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - start
            if restore:
                restore()
        outputs.record(label, rc, out_dir / "report.json", detail, results_only=results_only)
        return wall

    seed, files = inputs[0]
    argv = workload.argv(seed, files)
    untraced = []  # the first run is a warm-up: lazy imports, first-call costs
    deadline = time.perf_counter() + seconds / 2
    while len(untraced) < 3 or time.perf_counter() < deadline:
        untraced.append(call(argv, f"untraced {len(untraced) + 1}"))
    tracer = Tracer()
    traced_wall = call(argv, "traced", tracer)
    pool_spans = None
    if workload.pool_argv:
        # Same work through the worker pool.  Its report echoes another
        # thread count, but its results must equal the one-worker runs'.
        pool_tracer = Tracer()
        call(workload.pool_argv(seed, files), "pool", pool_tracer, results_only=True)
        pool_spans = pool_tracer.spans
    metrics = layer_metrics(tracer.spans, traced_wall, statistics.median(untraced[1:]), pool_spans)
    if metrics["trace.coverage"] < COVERAGE_WARN:
        print(
            f"warning: trace coverage {metrics['trace.coverage']:.3f} is below {COVERAGE_WARN}; "
            "a layer binding may be missing",
            file=sys.stderr,
        )
    return metrics, outputs


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geotax" / "cli.py").is_file():
        print(f"error: no geotax source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    run_dir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = []
        for seed in workload.input_seeds(args.seed):
            root = run_dir / f"inputs-{seed}"
            root.mkdir()
            inputs.append((seed, workload.inputs(seed, root)))
        if args.trace:
            values, outputs = traced_run(workload, inputs, args.seconds, run_dir)
            summary = {name: {"value": v} for name, v in values.items()}
        else:
            samples, outputs = timed_run(workload, inputs, args.seconds, run_dir)
            summary = {}
            for name, vals in samples.items():
                q1, med, q3 = quartiles(vals)
                summary[name] = {"value": med, "q1": q1, "q3": q3, "n": len(vals), "samples": vals}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in summary]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for m in declared:
        summary[m["name"]]["unit"] = m["unit"]
    failed_frac = outputs.failed / outputs.attempted

    mode = "traced" if args.trace else "timed"
    print(f"geotax bench  workload={workload.name}  seed={args.seed}  mode={mode}  seconds={args.seconds}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"{'metric':48} {'unit':>6} {'value':>14}")
        for m in declared:
            print(f"{m['name']:48} {m['unit']:>6} {summary[m['name']]['value']:14.6g}")
    else:
        print(f"{'metric':14} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
        for m in declared:
            row = summary[m["name"]]
            print(f"{m['name']:14} {m['unit']:>6} {row['value']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} {row['n']:4d}")
    print(f"{'failed_frac':14} {'ratio':>6} {failed_frac:12.6g}  ({outputs.failed} of {outputs.attempted} runs)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "mode": mode,
        "env": env, "attempted": outputs.attempted, "failed": outputs.failed,
        "failed_frac": failed_frac, "errors": outputs.errors, "metrics": summary,
    }
    (results / f"BENCH_{workload.name}_seed{args.seed}_{mode}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {m["name"]: {"value": summary[m["name"]]["value"], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
