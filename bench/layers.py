"""The geotax functions the traced run wraps, and the per-layer metrics
derived from their spans.

Span names are ``<module>.<function>`` relative to the ``geotax`` package;
methods are named after their module and method (``mine.mlp.forward`` for
``MLP.forward``, ``mine.mlp.adam`` for ``Adam.step``).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from spans import Layer, Span, self_times
from workloads import POOL_THREADS

SPLIT_METRICS = ("stability.sample_split", "stability.feature_split", "stability.anchor_stability")


def _elements(bound, result) -> dict:
    return {"elements": int(np.size(bound.arguments["a"]))}


def _degenerate(bound, result) -> dict:
    return {"degenerate": int(bool(result[1]))}


def _entries(bound, result) -> dict:
    return {"entries": result.n * (result.n - 1) // 2}


def _file_bytes(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _networks(bound, result) -> dict:
    return {"networks": sum(type(item).__name__ == "MIRun" for item in result)}


def _clean_rounds(bound, result) -> dict:
    # Identify the clean matrix by content, so that perturbations sharing
    # one clean input count as one (clean matrix, round) set.
    x = bound.arguments["x_clean"]
    data = np.ascontiguousarray(getattr(x, "data", x), dtype=np.float64)
    return {
        "clean": hashlib.sha256(data.tobytes()).hexdigest(),
        "rounds": max(1, bound.arguments["cfg"].n_bootstrap),
    }


def _iterations(bound, result) -> dict:
    return {"iterations": len(result.inertia_trace) - 1}


def _steps(bound, result) -> dict:
    return {"steps": int(result.values.shape[0])}


LAYERS = (
    Layer("core.io.load_matrix", "geotax.core.io", "load_matrix", _file_bytes),
    Layer("core.stats.rankdata", "geotax.core.stats", "rankdata", _elements),
    Layer("core.stats.pearson", "geotax.core.stats", "pearson"),
    Layer("core.stats.spearman_checked", "geotax.core.stats", "spearman_checked", _degenerate),
    Layer("core.embedding.cosine_rdm", "geotax.core.embedding", "cosine_rdm", _entries),
    Layer("core.embedding.cross_distance_block", "geotax.core.embedding", "cross_distance_block"),
    Layer("core.parallel.ordered_map", "geotax.core.parallel", "ordered_map", _networks, rusage=True),
    Layer("stability.evaluate", "geotax.stability", "evaluate", _clean_rounds),
    Layer("stability.rdm_similarity", "geotax.stability", "rdm_similarity"),
    Layer("stability.sample_split", "geotax.stability", "sample_split"),
    Layer("stability.feature_split", "geotax.stability", "feature_split"),
    Layer("stability.anchor_stability", "geotax.stability", "anchor_stability"),
    Layer("mine.mlp.forward", "geotax.mine.mlp", "MLP.forward"),
    Layer("mine.mlp.backward", "geotax.mine.mlp", "MLP.backward"),
    Layer("mine.mlp.adam", "geotax.mine.mlp", "Adam.step"),
    Layer("mine.mlp.clip_gradient", "geotax.mine.mlp", "clip_gradient"),
    Layer("quantize.kmeans_fit", "geotax.quantize", "kmeans_fit", _iterations),
    Layer("quantize.encode", "geotax.quantize", "encode"),
    Layer("procrustes.procrustes_align", "geotax.procrustes", "procrustes_align"),
    Layer("dynamics.gen_lorenz", "geotax.dynamics", "gen_lorenz", _steps),
    Layer("texture.gen_markov", "geotax.texture", "gen_markov"),
    Layer("texture.dinucleotide_shuffle", "geotax.texture", "dinucleotide_shuffle"),
    Layer("report.run_pipeline", "geotax.report", "run_pipeline"),
)

# Spans that mostly call other wrapped layers.  Their self time is glue,
# plus the time of any layer whose binding was missed, so coverage leaves
# them out: a missed binding then lowers coverage instead of hiding in them.
CONTAINERS = frozenset(
    {
        "report.run_pipeline",
        "core.parallel.ordered_map",
        "core.stats.spearman_checked",
        "stability.evaluate",
        "stability.rdm_similarity",
        *SPLIT_METRICS,
    }
)

# Coverage below this warns: some layer's time is not attributed.
COVERAGE_WARN = 0.8


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
    return out


def clean_reuse_ratio(spans: list[Span]) -> float:
    """Split-metric evaluations needed, one per (clean matrix, bootstrap
    round, metric), divided by those the harness performed inside
    ``evaluate``; 0 when it performed none."""
    rounds: dict[str, int] = {}
    for span in spans:
        if span.name == "stability.evaluate":
            key = span.counts["clean"]
            rounds[key] = max(rounds.get(key, 0), span.counts["rounds"])
    needed = len(SPLIT_METRICS) * sum(rounds.values())
    performed = 0
    for span in spans:
        if span.name in SPLIT_METRICS:
            parent = span.parent
            while parent is not None and spans[parent].name != "stability.evaluate":
                parent = spans[parent].parent
            performed += parent is not None
    return needed / performed if performed else 0.0


def layer_metrics(
    spans: list[Span],
    traced_wall: float,
    untraced_wall: float,
    pool_spans: list[Span] | None = None,
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``pool_spans`` are the spans of a companion run of the same command
    through the process pool; the core.parallel metrics come from it and
    are 0 without it; the pool runs ``POOL_THREADS`` workers.  Layers the
    workload never calls read 0.
    """
    s = summarize(spans)

    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    rank = "core.stats.rankdata"
    m[f"{rank}.calls"] = get(rank, "calls")
    m[f"{rank}.elements"] = get(rank, "elements")
    m[f"{rank}.self_s"] = get(rank, "self_s")
    m[f"{rank}.ns_per_element"] = ratio(1e9 * get(rank, "self_s"), get(rank, "elements"))
    m["core.stats.pearson.self_s"] = get("core.stats.pearson", "self_s")
    m["core.stats.spearman_checked.degenerate"] = get("core.stats.spearman_checked", "degenerate")

    rdm = "core.embedding.cosine_rdm"
    m[f"{rdm}.calls"] = get(rdm, "calls")
    m[f"{rdm}.entries"] = get(rdm, "entries")
    m[f"{rdm}.self_s"] = get(rdm, "self_s")
    m["core.embedding.cross_distance_block.self_s"] = get("core.embedding.cross_distance_block", "self_s")

    m["stability.evaluate.calls"] = get("stability.evaluate", "calls")
    for name in ("stability.rdm_similarity", *SPLIT_METRICS):
        m[f"{name}.total_s"] = get(name, "total_s")
    m["stability.clean_reuse_ratio"] = clean_reuse_ratio(spans)

    m["core.io.load_matrix.self_s"] = get("core.io.load_matrix", "self_s")
    m["core.io.load_matrix.bytes"] = get("core.io.load_matrix", "bytes")

    # On the inline (one-worker) path ordered_map covers all MINE training.
    steps = get("mine.mlp.adam", "calls")
    training_s = get("core.parallel.ordered_map", "total_s")
    m["mine.mlp.steps"] = steps
    m["mine.mlp.step_ms"] = ratio(1e3 * training_s, steps)
    for part in ("forward", "backward", "adam"):
        m[f"mine.mlp.{part}.self_s"] = get(f"mine.mlp.{part}", "self_s")
    networks_per_s = ratio(get("core.parallel.ordered_map", "networks"), training_s)
    m["mine.estimator.networks"] = get("core.parallel.ordered_map", "networks")
    m["mine.estimator.networks_per_s"] = networks_per_s

    pool = summarize(pool_spans or []).get("core.parallel.ordered_map", {})
    pool_wall = pool.get("total_s", 0.0)
    pool_cpu = pool.get("self_cpu_s", 0.0) + pool.get("children_cpu_s", 0.0)
    m["core.parallel.ordered_map.wall_s"] = pool_wall
    m["core.parallel.worker_cpu_s"] = pool.get("children_cpu_s", 0.0)
    m["core.parallel.cpu_per_wall"] = ratio(pool_cpu, pool_wall)
    m["core.parallel.scaling_eff"] = ratio(
        ratio(pool.get("networks", 0), pool_wall), POOL_THREADS * networks_per_s
    )

    km = "quantize.kmeans_fit"
    m[f"{km}.calls"] = get(km, "calls")
    m[f"{km}.iterations"] = get(km, "iterations")
    m[f"{km}.self_s"] = get(km, "self_s")
    m[f"{km}.iter_ms"] = ratio(1e3 * get(km, "self_s"), get(km, "iterations"))
    m["quantize.encode.self_s"] = get("quantize.encode", "self_s")
    m["procrustes.procrustes_align.self_s"] = get("procrustes.procrustes_align", "self_s")
    m["dynamics.gen_lorenz.self_s"] = get("dynamics.gen_lorenz", "self_s")
    m["dynamics.gen_lorenz.steps_per_s"] = ratio(
        get("dynamics.gen_lorenz", "steps"), get("dynamics.gen_lorenz", "self_s")
    )
    m["texture.gen_markov.self_s"] = get("texture.gen_markov", "self_s")
    m["texture.dinucleotide_shuffle.self_s"] = get("texture.dinucleotide_shuffle", "self_s")
    m["report.run_pipeline.self_s"] = get("report.run_pipeline", "self_s")

    m["trace.overhead_s"] = traced_wall - untraced_wall
    leaf_s = sum(row["self_s"] for name, row in s.items() if name not in CONTAINERS)
    m["trace.coverage"] = ratio(leaf_s, traced_wall)
    return m
