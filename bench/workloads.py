"""Benchmark workloads: generated inputs, CLI arguments and output checks.

Each workload is one ``geotax`` CLI command.  Its inputs come only from the
bench seed: either EMB1 files written here, or the CLI ``--seed`` flag for
subcommands that generate their own data.  The sizes are scaled down from
the paper defaults so that one CLI process takes a few seconds and a timed
run holds several of them (see README.md for the scaling of each one).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# stability-3pert: a labelled clean matrix and three noisier copies of it.
STABILITY_N = 1200
STABILITY_D = 64
STABILITY_CLASSES = 4
PERTURBATIONS = (("lo", 0.05), ("mid", 0.3), ("hi", 1.0))

TEXTURE_CONDITIONS = ("real", "dinuc_shuffled", "markov", "random")


def write_emb1(path: Path, data: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write the EMB1 format (see ``geotax.core.io``) without importing geotax,
    so the inputs stay the same bytes whatever the program under test does."""
    n, d = data.shape
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
        if labels is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(np.asarray(labels, dtype="<u4").tobytes())


def stability_inputs(seed: int, root: Path) -> dict[str, Path]:
    """Clean EMB1 with class structure plus lo/mid/hi Gaussian-noise copies."""
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = rng.permutation(np.arange(STABILITY_N) % STABILITY_CLASSES)
    centers = 2.0 * rng.standard_normal((STABILITY_CLASSES, STABILITY_D))
    clean = centers[labels] + rng.standard_normal((STABILITY_N, STABILITY_D))
    files = {"clean": root / "clean.emb1"}
    write_emb1(files["clean"], clean, labels)
    for name, sigma in PERTURBATIONS:
        files[name] = root / f"{name}.emb1"
        noisy = clean + sigma * rng.standard_normal(clean.shape)
        write_emb1(files[name], noisy, labels)
    return files


def no_inputs(seed: int, root: Path) -> dict[str, Path]:
    return {}


def stability_argv(seed: int, files: dict[str, Path]) -> list[str]:
    argv = ["stability", "--clean", str(files["clean"])]
    for name, _ in PERTURBATIONS:
        argv += ["--pert", f"{name}={files[name]}"]
    return argv + ["--max-samples", "200", "--splits", "4", "--bootstrap", "2"]


def texture_argv(seed: int, files: dict[str, Path]) -> list[str]:
    return ["--seed", str(seed), "texture", "--n", "100"]


def vq_argv(seed: int, files: dict[str, Path]) -> list[str]:
    return ["--seed", str(seed), "vq-sweep", "--k-values", "32,64,128,256,512"]


# Worker processes of the mine-sanity pool pass; core.parallel.scaling_eff
# divides by it.
POOL_THREADS = 2


def mine_argv(threads: int) -> Callable[[int, dict[str, Path]], list[str]]:
    # The data seed stays at the CLI default (320) and the network seed at
    # 320, whatever the bench seed.  The sanity tolerance is set for
    # n=2000; n=256 is the smallest size tried at which every data seed
    # tried passes (README.md lists the margins).
    def argv(seed: int, files: dict[str, Path]) -> list[str]:
        return ["--threads", str(threads), "mine-sanity", "--n", "256", "--seeds", "320"]

    return argv


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_stability(report: dict) -> list[str]:
    results = report["results"]
    errors = []
    names = [name for name, _ in PERTURBATIONS]
    if sorted(results) != sorted(names):
        return [f"perturbations {sorted(results)} != {sorted(names)}"]
    for name in names:
        row = results[name]
        values = {**row["metrics"], **{f"std.{k}": v for k, v in row["bootstrap_std"].items()}}
        values["composite"] = row["composite"]
        errors += [f"{name}: {k} = {v!r} is not finite" for k, v in values.items() if not _finite(v)]
        rdm = row["metrics"]["rdm_similarity"]
        if _finite(rdm) and not -1.0 <= rdm <= 1.0:
            errors.append(f"{name}: rdm_similarity {rdm} outside [-1, 1]")
    if not errors:
        rdm = [results[name]["metrics"]["rdm_similarity"] for name in names]
        if not rdm[0] > rdm[1] > rdm[2]:
            errors.append(f"rdm_similarity not ordered lo > mid > hi: {rdm}")
    return errors


def check_texture(report: dict) -> list[str]:
    rows = {row["condition"]: row for row in report["results"]["conditions"]}
    if sorted(rows) != sorted(TEXTURE_CONDITIONS):
        return [f"conditions {sorted(rows)} != {sorted(TEXTURE_CONDITIONS)}"]
    errors = [
        f"{name}: {k} = {v!r} is not finite"
        for name, row in rows.items()
        for k, v in row.items()
        if k != "condition" and not _finite(v)
    ]
    if rows["real"]["recovery"] != 1.0:
        errors.append(f"real recovery {rows['real']['recovery']!r} != 1")
    if rows["random"]["recovery"] != 0.0:
        errors.append(f"random recovery {rows['random']['recovery']!r} != 0")
    return errors


def check_mine(report: dict) -> list[str]:
    if report["results"]["all_passed"] is not True:
        return ["all_passed is not true"]
    return []


def check_vq(report: dict) -> list[str]:
    rows = sorted(report["results"]["rows"])
    errors = []
    if len(rows) < 2:
        errors.append(f"only {len(rows)} codebook sizes")
    mse = [row[1] for row in rows]
    if not all(_finite(v) for v in mse):
        errors.append(f"non-finite recon_mse: {mse}")
    elif any(b >= a for a, b in zip(mse, mse[1:])):
        errors.append(f"recon_mse not strictly decreasing in K: {mse}")
    r2 = report["results"]["fit"]["r2"]
    if not _finite(r2):
        errors.append(f"fit r2 {r2!r} is not finite")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, Path], dict[str, Path]]
    argv: Callable[[int, dict[str, Path]], list[str]]
    check: Callable[[dict], list[str]]
    # CLI arguments of a companion pass through the process pool, run only
    # in the traced mode to measure the core.parallel layer.
    pool_argv: Callable[[int, dict[str, Path]], list[str]] | None = None
    # Inputs a timed run cycles through, for workloads whose work depends on
    # the input, so that one run's median averages over several of them.
    variants: int = 1

    def input_seeds(self, seed: int) -> list[int]:
        """The seeds of the inputs one bench seed generates."""
        return [seed * self.variants + v for v in range(self.variants)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stability-3pert", stability_inputs, stability_argv, check_stability),
        Workload("texture-desk", no_inputs, texture_argv, check_texture),
        Workload("mine-sanity-1w", no_inputs, mine_argv(1), check_mine, pool_argv=mine_argv(POOL_THREADS)),
        # k-means iterations to converge vary by about 20% between inputs
        Workload("vq-lorenz", no_inputs, vq_argv, check_vq, variants=4),
    )
}


def run_checks(workload: Workload, report_bytes: bytes) -> list[str]:
    """Parse a report.json and apply the workload's check; a report that is
    not the expected shape fails instead of raising."""
    try:
        return workload.check(json.loads(report_bytes))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
