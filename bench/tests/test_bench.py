"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, install, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_fake_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.advance(seconds)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf(2.0)
        leaf(3.0)
        clock.advance(0.5)

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.advance(4.0)
        middle()
        leaf(1.5)

    tracer.wrap("outer", outer)()
    by_name = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name.setdefault(span.name, []).append((span.duration, own))
    assert by_name["outer"] == [(12.0, 4.0)]
    assert by_name["middle"] == [(6.5, 1.5)]
    assert by_name["leaf"] == [(2.0, 2.0), (3.0, 3.0), (1.5, 1.5)]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    summary = layers.summarize(tracer.spans)
    assert summary["leaf"]["calls"] == 3
    assert summary["leaf"]["self_s"] == pytest.approx(6.5)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].duration == 1.0
    assert tracer._open == []


def test_install_wraps_every_binding_and_restores_them():
    import geotax.core.stats
    import geotax.stability

    originals = (geotax.stability.rankdata, geotax.stability.cosine_rdm, geotax.core.stats.rankdata)
    tracer = Tracer()
    restore = install(tracer, layers.LAYERS)
    try:
        x = np.random.default_rng(0).standard_normal((12, 5))
        geotax.stability.rdm_similarity(x, x + 0.1)
    finally:
        restore()
    names = [s.name for s in tracer.spans]
    assert names.count("core.embedding.cosine_rdm") == 2
    assert names.count("core.stats.rankdata") == 2
    assert tracer.spans[0].name == "stability.rdm_similarity"
    rdm_span = tracer.spans[names.index("core.embedding.cosine_rdm")]
    assert rdm_span.counts == {"entries": 66}
    assert (geotax.stability.rankdata, geotax.stability.cosine_rdm, geotax.core.stats.rankdata) == originals


def test_install_skips_a_layer_that_no_longer_exists(capsys):
    from spans import Layer

    restore = install(Tracer(), [Layer("gone", "geotax.core.stats", "no_such_function")])
    restore()
    assert "gone not wrapped" in capsys.readouterr().err


def test_inputs_are_byte_identical_for_one_seed_and_differ_for_another(tmp_path):
    def generate(seed, name):
        root = tmp_path / name
        root.mkdir()
        files = workloads.stability_inputs(seed, root)
        return {key: path.read_bytes() for key, path in files.items()}

    first, again, other = generate(5, "a"), generate(5, "b"), generate(6, "c")
    assert first == again
    assert set(first) == set(other) == {"clean", "lo", "mid", "hi"}
    assert all(first[key] != other[key] for key in first)
    for name in ("texture-desk", "vq-lorenz"):
        argv = workloads.WORKLOADS[name].argv
        assert argv(5, {}) == argv(5, {}) != argv(6, {})


def test_emb1_inputs_read_back_through_the_program(tmp_path):
    from geotax.core.io import load_matrix

    files = workloads.stability_inputs(1, tmp_path)
    clean = load_matrix(files["clean"])
    assert (clean.n, clean.d) == (workloads.STABILITY_N, workloads.STABILITY_D)
    assert sorted(np.unique(clean.labels)) == list(range(workloads.STABILITY_CLASSES))


def test_metric_names_are_valid_unique_and_match_the_code():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
        assert len(names) == len(set(names))
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == set(run.END_TO_END)
    assert set(layers.layer_metrics([], 1.0, 1.0)) == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def stability_report():
    row = {
        "metrics": {"rdm_similarity": 0.9, "sample_split": 0.8, "feature_split": 0.7,
                    "anchor_stability": 0.6, "perturbation_magnitude": 0.1},
        "bootstrap_std": {"rdm_similarity": 0.01},
        "composite": 0.75,
    }
    results = {name: copy.deepcopy(row) for name in ("lo", "mid", "hi")}
    for name, rdm in (("lo", 0.99), ("mid", 0.95), ("hi", 0.9)):
        results[name]["metrics"]["rdm_similarity"] = rdm
    return {"results": results}


def texture_report():
    recovery = {"real": 1.0, "dinuc_shuffled": 0.9, "markov": 0.4, "random": 0.0}
    return {"results": {"conditions": [
        {"condition": c, "rc_rdm": 0.5, "rc_composite": 0.3, "recovery": r}
        for c, r in recovery.items()
    ]}}


def vq_report():
    return {"results": {"rows": [[32, 2.0, 0.4], [64, 1.0, 0.3], [128, 0.5, 0.2]],
                        "fit": {"a": 0.1, "b": 2.0, "r2": 0.9}}}


def mine_report():
    return {"results": {"all_passed": True, "cases": []}}


def corrupt_nan(report):
    report["results"]["mid"]["metrics"]["sample_split"] = math.nan


def corrupt_order(report):
    report["results"]["hi"]["metrics"]["rdm_similarity"] = 0.999


def corrupt_recovery(report):
    report["results"]["conditions"][0]["recovery"] = 0.98


def corrupt_random_recovery(report):
    report["results"]["conditions"][3]["recovery"] = 0.01


def corrupt_condition(report):
    report["results"]["conditions"].pop()


def corrupt_mse(report):
    report["results"]["rows"][2][1] = 1.5


def corrupt_mse_flat(report):
    report["results"]["rows"][2][1] = report["results"]["rows"][1][1]


def corrupt_r2(report):
    report["results"]["fit"]["r2"] = math.nan


def corrupt_passed(report):
    report["results"]["all_passed"] = False


@pytest.mark.parametrize(
    "workload, make, corrupt",
    [
        ("stability-3pert", stability_report, corrupt_nan),
        ("stability-3pert", stability_report, corrupt_order),
        ("texture-desk", texture_report, corrupt_recovery),
        ("texture-desk", texture_report, corrupt_random_recovery),
        ("texture-desk", texture_report, corrupt_condition),
        ("vq-lorenz", vq_report, corrupt_mse),
        ("vq-lorenz", vq_report, corrupt_mse_flat),
        ("vq-lorenz", vq_report, corrupt_r2),
        ("mine-sanity-1w", mine_report, corrupt_passed),
    ],
)
def test_output_checks_reject_a_corrupted_report(workload, make, corrupt):
    workload = workloads.WORKLOADS[workload]
    report = make()
    assert workloads.run_checks(workload, json.dumps(report).encode()) == []
    corrupt(report)
    assert workloads.run_checks(workload, json.dumps(report).encode())


def test_malformed_report_fails_without_raising():
    for workload in workloads.WORKLOADS.values():
        assert workloads.run_checks(workload, b"{not json")
        assert workloads.run_checks(workload, b'{"results": {}}')


def test_output_set_counts_a_report_that_changes_within_a_set(tmp_path):
    report = tmp_path / "report.json"
    outputs = run.OutputSet(workloads.WORKLOADS["mine-sanity-1w"])
    report.write_text(json.dumps(mine_report()))
    outputs.record("run 1", 0, report)
    outputs.record("run 2", 0, report)
    report.write_text(json.dumps(mine_report()) + " ")
    outputs.record("run 3", 0, report)
    outputs.record("run 4", 3, report, "data error")
    assert (outputs.attempted, outputs.failed) == (4, 2)
    outputs.record("other input", 0, report, input_key=1)
    assert (outputs.attempted, outputs.failed) == (5, 2)


def test_output_set_compares_only_results_for_a_run_with_other_flags(tmp_path):
    report = tmp_path / "report.json"
    outputs = run.OutputSet(workloads.WORKLOADS["mine-sanity-1w"])
    one_worker = mine_report()
    report.write_text(json.dumps({**one_worker, "provenance": {"threads": 1}}))
    outputs.record("run 1", 0, report)
    report.write_text(json.dumps({**one_worker, "provenance": {"threads": 2}}))
    outputs.record("pool", 0, report, results_only=True)
    assert (outputs.attempted, outputs.failed) == (2, 0)
    other = mine_report()
    other["results"]["cases"].append({"rho": 0.3, "estimate": 0.1})
    report.write_text(json.dumps(other))
    outputs.record("pool", 0, report, results_only=True)
    assert (outputs.attempted, outputs.failed) == (3, 1)
    assert "results differ" in outputs.errors[-1]


def test_input_seeds_are_distinct_across_bench_seeds():
    for workload in workloads.WORKLOADS.values():
        seeds = [workload.input_seeds(s) for s in range(4)]
        assert all(len(x) == workload.variants for x in seeds)
        flat = [x for group in seeds for x in group]
        assert len(flat) == len(set(flat))
    assert workloads.WORKLOADS["stability-3pert"].input_seeds(7) == [7]


def test_clean_reuse_ratio_counts_split_metrics_per_clean_matrix_and_round():
    def evaluate(clean, rounds, start):
        spans = [Span("stability.evaluate", start, None, start + 1, {"clean": clean, "rounds": rounds})]
        parent = len(spans_all)
        for r in range(rounds):
            for name in layers.SPLIT_METRICS:
                spans.append(Span(name, start, parent, start + 0.1))
        spans_all.extend(spans)

    spans_all: list[Span] = []
    for k in range(3):  # three perturbations of one clean matrix
        evaluate("same", 2, float(k))
    spans_all.append(Span("stability.sample_split", 9.0, None, 9.5))  # called outside evaluate
    assert layers.clean_reuse_ratio(spans_all) == pytest.approx(1 / 3)
    spans_all = []
    for k in range(4):  # four clean matrices, one round each
        evaluate(f"clean{k}", 1, float(k))
    assert layers.clean_reuse_ratio(spans_all) == 1.0
