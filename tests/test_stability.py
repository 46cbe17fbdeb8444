import json
import weakref

import numpy as np
import pytest

from geotax.core.embedding import EmbeddingMatrix, cosine_rdm, cross_distance_block
from geotax import stability
from geotax.core.rng import SeedSpec, rng_create
from geotax.core.stats import rankdata, spearman_checked
from geotax.errors import ConfigError, DataError
from geotax.stability import (
    SplitConfig,
    anchor_stability,
    evaluate,
    feature_split,
    perturbation_magnitude,
    perturbation_stability,
    rdm_similarity,
    sample_split,
)


# -- oracles -------------------------------------------------------------


def naive_rdm_similarity(xc, xp):
    """Double-loop cosine RDM + rank-based Spearman; no vectorized paths."""

    def rdm_vec(x):
        out = []
        for i in range(len(x)):
            for j in range(i + 1, len(x)):
                num = float(np.dot(x[i], x[j]))
                den = float(np.linalg.norm(x[i]) * np.linalg.norm(x[j]))
                out.append(1.0 - num / den)
        return np.array(out)

    return spearman_checked(rdm_vec(xc), rdm_vec(xp))[0]


def iid_sample_split_oracle(x, n_splits, seed):
    """Independent re-implementation of the split-half sample score."""
    rng = rng_create(SeedSpec(seed, "oracle"))
    n = x.shape[0]
    scores = []
    for _ in range(n_splits):
        perm = rng.permutation(n)
        half = n // 2
        a, b = x[perm[:half]], x[perm[half : 2 * half]]
        scores.append(naive_rdm_similarity_fast(a, b))
    return float(np.mean(scores))


def naive_rdm_similarity_fast(a, b):
    return spearman_checked(cosine_rdm(a).vector(), cosine_rdm(b).vector())[0]


# Exact draw-order oracles: each re-derives the metric's seed stream and
# makes the same permutation/choice calls in the same order, so its score
# must equal the metric's bit for bit.


def _oracle_halves(rng, n):
    perm = rng.permutation(n)
    return perm[: n // 2], perm[n // 2 : 2 * (n // 2)]


def sample_split_oracle(x, n_splits, s):
    rng = rng_create(SeedSpec(s).derive("sample-split"))
    scores = []
    for _ in range(n_splits):
        a, b = _oracle_halves(rng, x.shape[0])
        rho, _ = spearman_checked(cosine_rdm(x[a]).vector(), cosine_rdm(x[b]).vector())
        scores.append(rho)
    return float(np.mean(scores))


def feature_split_oracle(x, n_splits, s):
    rng = rng_create(SeedSpec(s).derive("feature-split"))
    scores = []
    for _ in range(n_splits):
        a, b = _oracle_halves(rng, x.shape[1])
        rho, _ = spearman_checked(cosine_rdm(x[:, a]).vector(), cosine_rdm(x[:, b]).vector())
        scores.append(rho)
    return float(np.mean(scores))


def anchor_stability_oracle(x, n_splits, s, n_anchors, rank_normalize):
    rng = rng_create(SeedSpec(s).derive("anchor"))
    anchor_idx = rng.choice(x.shape[0], size=n_anchors, replace=False)
    rest = np.setdiff1d(np.arange(x.shape[0]), anchor_idx)
    scores = []
    for _ in range(n_splits):
        profiles = []
        for half in _oracle_halves(rng, rest.size):
            block = cross_distance_block(x[anchor_idx], x[rest[half]])
            if rank_normalize:
                block = np.vstack([rankdata(row) for row in block])
            profiles.append(block.ravel())
        scores.append(spearman_checked(*profiles)[0])
    return float(np.mean(scores))


# -- rdm similarity ------------------------------------------------------


def test_rdm_similarity_identity(rng):
    x = rng.standard_normal((30, 8))
    assert rdm_similarity(x, x) == pytest.approx(1.0, abs=1e-12)


def test_rdm_similarity_scale_invariance(rng):
    x = rng.standard_normal((30, 8))
    assert rdm_similarity(x, 3.7 * x) == pytest.approx(1.0, abs=1e-12)


def test_rdm_similarity_matches_naive_oracle(rng):
    for _ in range(5):
        xc = rng.standard_normal((5, 4))
        xp = xc + 0.3 * rng.standard_normal((5, 4))
        assert rdm_similarity(xc, xp) == pytest.approx(
            naive_rdm_similarity(xc, xp), abs=1e-12
        )


def test_rdm_similarity_rotation_invariance(rng):
    xc = rng.standard_normal((40, 12))
    xp = xc + 0.1 * rng.standard_normal((40, 12))
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    assert rdm_similarity(xc @ q, xp @ q) == pytest.approx(
        rdm_similarity(xc, xp), abs=1e-9
    )


# -- sample split -----------------------------------------------------------


def test_sample_split_duplicated_rows_high_score(rng):
    # duplication oracle: rows 2i and 2i+1 are copies, so copy-aligned
    # forced halves must agree near-perfectly
    base = rng.standard_normal((40, 6))
    dup = np.repeat(base, 2, axis=0)
    forced = [(np.arange(0, 80, 2), np.arange(1, 80, 2))]
    cfg = SplitConfig(n_splits=5, n_bootstrap=1)
    score = sample_split(dup, cfg, SeedSpec(320), forced_splits=forced)
    assert score >= 0.9


def test_sample_split_deterministic(rng):
    x = rng.standard_normal((60, 6))
    cfg = SplitConfig(n_splits=3, n_bootstrap=1)
    assert sample_split(x, cfg, SeedSpec(1)) == sample_split(x, cfg, SeedSpec(1))


def test_sample_split_iid_matches_reimplementation_oracle():
    rng = rng_create(SeedSpec(320, "iid"))
    x = rng.standard_normal((2000, 50))
    cfg = SplitConfig(n_splits=10, n_bootstrap=1, max_samples=2500)
    mine = sample_split(x, cfg, SeedSpec(11))
    oracle = iid_sample_split_oracle(x, 10, seed=99)
    assert mine == pytest.approx(oracle, abs=0.1)


@pytest.mark.parametrize("s", [0, 320])
def test_split_metrics_match_exact_draw_order_oracles(s):
    # odd n and d exercise the dropped last element of each permutation
    x = rng_create(SeedSpec(320, "draw-order")).standard_normal((41, 9))
    cfg = SplitConfig(n_splits=4, n_bootstrap=1)
    assert sample_split(x, cfg, s) == sample_split_oracle(x, 4, s)
    assert feature_split(x, cfg, SeedSpec(s)) == feature_split_oracle(x, 4, s)
    for rank_normalize in (False, True):
        acfg = SplitConfig(n_splits=4, n_bootstrap=1, rank_normalize_anchors=rank_normalize)
        assert anchor_stability(x, acfg, s) == anchor_stability_oracle(
            x, 4, s, acfg.anchors_for(41), rank_normalize
        )


def test_sample_split_too_few():
    with pytest.raises(DataError, match="sample split needs n >= 6"):
        sample_split(np.ones((3, 5)), SplitConfig(n_splits=1))


def test_split_metric_size_bounds_name_the_metric():
    # the smallest sizes whose halves still give 3 entries to correlate
    x = rng_create(SeedSpec(320, "size-bounds")).standard_normal((6, 4))
    cfg = SplitConfig(n_splits=2, n_bootstrap=1)
    assert np.isfinite(sample_split(x, cfg, 1))
    assert np.isfinite(feature_split(x[:3], cfg, 1))
    with pytest.raises(DataError, match="sample split needs n >= 6 rows, got 5"):
        sample_split(x[:5], cfg, 1)
    with pytest.raises(DataError, match="feature split needs d >= 4 and n >= 3 rows, got d=3, n=6"):
        feature_split(x[:, :3], cfg, 1)
    with pytest.raises(DataError, match="feature split needs d >= 4 and n >= 3 rows, got d=4, n=2"):
        feature_split(x[:2], cfg, 1)


@pytest.mark.parametrize("anchors, need", [(1, 7), (2, 6), (3, 7), (5, 9)])
def test_anchor_stability_size_bound(anchors, need):
    # n >= m + max(4, 2 * ceil(3 / m)): each half of the rest holds 2 rows
    # and, across the m anchors, 3 distances
    x = rng_create(SeedSpec(320, "anchor-bound")).standard_normal((need, 5))
    cfg = SplitConfig(n_splits=2, n_bootstrap=1, anchor_count=anchors)
    assert np.isfinite(anchor_stability(x, cfg, 1))
    message = f"anchor stability needs n >= {need} with anchor_count {anchors}, got {need - 1}"
    with pytest.raises(DataError, match=message):
        anchor_stability(x[:-1], cfg, 1)


@pytest.mark.parametrize("metric", [sample_split, feature_split, anchor_stability])
def test_split_metrics_draw_every_pair_before_the_first_score(metric, monkeypatch):
    x = rng_create(SeedSpec(320, "draws-first")).standard_normal((41, 9))
    events = []
    real_halves, real_rho = stability._disjoint_halves, stability.spearman_checked

    def drawing(n, rng_):
        events.append("draw")
        return real_halves(n, rng_)

    def scoring(a, b):
        events.append("score")
        return real_rho(a, b)

    monkeypatch.setattr("geotax.stability._disjoint_halves", drawing)
    monkeypatch.setattr("geotax.stability.spearman_checked", scoring)
    metric(x, SplitConfig(n_splits=3, n_bootstrap=1), SeedSpec(5))
    assert events == ["draw"] * 3 + ["score"] * 3


@pytest.mark.parametrize("metric", [sample_split, feature_split, anchor_stability])
def test_forced_splits_cycle_in_split_order(metric):
    x = rng_create(SeedSpec(320, "forced-cycle")).standard_normal((40, 8))
    size = 8 if metric is feature_split else 40
    p1 = (np.arange(size // 2), np.arange(size // 2, size))
    p2 = (np.arange(0, size, 2), np.arange(1, size, 2))

    def run(n_splits, forced):
        return metric(x, SplitConfig(n_splits=n_splits, n_bootstrap=1), SeedSpec(2), forced)

    one, two = run(1, [p1]), run(1, [p2])
    assert one != two
    assert run(3, [p1, p2]) == float(np.mean([one, two, one]))


# -- feature split ------------------------------------------------------------


def test_feature_split_duplicated_blocks_perfect(rng):
    base = rng.standard_normal((30, 6))
    dup = np.concatenate([base, base], axis=1)  # features copied twice
    forced = [(np.arange(6), np.arange(6, 12))]
    cfg = SplitConfig(n_splits=4, n_bootstrap=1)
    score = feature_split(dup, cfg, SeedSpec(320), forced_splits=forced)
    assert score == pytest.approx(1.0, abs=1e-9)


def test_feature_split_deterministic(rng):
    x = rng.standard_normal((40, 16))
    cfg = SplitConfig(n_splits=4, n_bootstrap=1)
    assert feature_split(x, cfg, SeedSpec(3)) == feature_split(x, cfg, SeedSpec(3))


def test_feature_split_constant_features_degenerate():
    # all-constant rows give all-zero distances: degenerate spearman
    # returns the flagged 0.0 instead of crashing the harness
    x = np.ones((20, 8))
    cfg = SplitConfig(n_splits=2, n_bootstrap=1)
    assert feature_split(x, cfg, SeedSpec(1)) == 0.0


# -- anchor stability ------------------------------------------------------------


def test_anchor_stability_two_clusters_near_one(rng):
    # cluster oracle: two angular clusters, each point paired with a
    # near-twin; twin-aligned subsets give entrywise-matching anchor
    # profiles, so the score should sit near 1
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    pts = []
    for center in (u, v):
        for _ in range(30):
            p = center + 0.05 * rng.standard_normal(5)
            pts.append(p)
            pts.append(p + 1e-6 * rng.standard_normal(5))  # twin
    x = np.array(pts)
    s1 = np.arange(0, x.shape[0], 2)
    s2 = np.arange(1, x.shape[0], 2)
    cfg = SplitConfig(n_splits=3, n_bootstrap=1, anchor_count=6)
    score = anchor_stability(x, cfg, SeedSpec(320), forced_splits=[(s1, s2)])
    assert score > 0.9


def test_anchor_stability_identical_subsets_forced(rng):
    x = rng.standard_normal((50, 6))
    idx = np.arange(10, 30)
    cfg = SplitConfig(n_splits=2, n_bootstrap=1, anchor_count=1)
    score = anchor_stability(x, cfg, SeedSpec(2), forced_splits=[(idx, idx)])
    assert score == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("count", [0, -3])
def test_split_config_rejects_anchor_count_below_1(count):
    with pytest.raises(ConfigError, match=f"anchor_count must be >= 1, got {count}"):
        SplitConfig(anchor_count=count)


def test_anchor_stability_deterministic(rng):
    x = rng.standard_normal((80, 6))
    cfg = SplitConfig(n_splits=3, n_bootstrap=1)
    assert anchor_stability(x, cfg, SeedSpec(7)) == anchor_stability(x, cfg, SeedSpec(7))


# -- perturbation metrics -----------------------------------------------------------


def test_perturbation_stability_linear_displacement(rng):
    x = rng.standard_normal((50, 6))
    deltas = rng.uniform(0.1, 2.0, size=50)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    xp = x + deltas[:, None] * u
    assert perturbation_stability(deltas, x, xp) == pytest.approx(1.0)


def test_perturbation_stability_zero_deltas_degenerate(rng):
    x = rng.standard_normal((20, 4))
    assert perturbation_stability(np.zeros(20), x, x) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_perturbation_stability_rejects_non_finite_deltas(rng, bad):
    x = rng.standard_normal((30, 5))
    xp = x + 0.2 * rng.standard_normal((30, 5))
    deltas = rng.uniform(0, 1, 30)
    deltas[[4, 17]] = bad
    with pytest.raises(DataError, match="non-finite"):
        perturbation_stability(deltas, x, xp)


def test_perturbation_stability_matches_rank_oracle(rng):
    from test_core import spearman_oracle

    x = rng.standard_normal((30, 5))
    xp = x + 0.2 * rng.standard_normal((30, 5))
    deltas = rng.uniform(0, 1, 30)
    disp = np.linalg.norm(x - xp, axis=1)
    assert perturbation_stability(deltas, x, xp) == pytest.approx(
        spearman_oracle(deltas, disp), abs=1e-12
    )


def test_perturbation_magnitude_trivials(rng):
    x = rng.standard_normal((20, 4))
    assert perturbation_magnitude(x, x) == 0.0
    v = np.array([3.0, 4.0, 0.0, 0.0])
    assert perturbation_magnitude(x, x + v) == pytest.approx(5.0)


def test_perturbation_magnitude_matches_hand_computation():
    x = np.zeros((2, 2))
    xp = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert perturbation_magnitude(x, xp) == pytest.approx(1.5)


# -- evaluate -------------------------------------------------------------------------


def test_evaluate_identity_criteria(rng):
    x = rng.standard_normal((120, 10))
    cfg = SplitConfig(n_splits=5, n_bootstrap=3, max_samples=2500)
    report = evaluate(x, [("p", x)], cfg=cfg, seed=SeedSpec(320))["p"]
    m = report.metrics
    assert m["rdm_similarity"] == pytest.approx(1.0, abs=1e-9)
    assert m["perturbation_magnitude"] == 0.0
    expected = np.mean(
        [m["rdm_similarity"], m["sample_split"], m["feature_split"], m["anchor_stability"]]
    )
    assert report.composite == pytest.approx(expected, abs=1e-12)


def test_evaluate_byte_identical_reports(rng):
    x = rng.standard_normal((80, 8))
    xp = x + 0.05 * rng.standard_normal((80, 8))
    cfg = SplitConfig(n_splits=4, n_bootstrap=3)
    r1 = evaluate(x, [("p", xp)], cfg=cfg, seed=SeedSpec(320))["p"]
    r2 = evaluate(x, [("p", xp)], cfg=cfg, seed=SeedSpec(320))["p"]
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_evaluate_subsample_identity_under_cap(rng):
    x = rng.standard_normal((50, 6))
    cfg = SplitConfig(n_splits=2, n_bootstrap=1, max_samples=100)
    report = evaluate(x, [("p", x)], cfg=cfg, seed=SeedSpec(1))["p"]
    assert report.provenance["n_used"] == 50


def test_evaluate_bootstrap_std_zero_single_round(rng):
    x = rng.standard_normal((40, 6))
    xp = x + 0.1 * rng.standard_normal((40, 6))
    cfg = SplitConfig(n_splits=2, n_bootstrap=1)
    report = evaluate(x, [("p", xp)], cfg=cfg, seed=SeedSpec(1))["p"]
    assert all(v == 0.0 for v in report.bootstrap_std.values())


def test_evaluate_stratified_subsampling_respects_labels(rng):
    x = EmbeddingMatrix(
        rng.standard_normal((200, 6)), labels=np.array([0] * 150 + [1] * 50)
    )
    xp = EmbeddingMatrix(x.data + 0.1 * rng.standard_normal((200, 6)), labels=x.labels)
    cfg = SplitConfig(n_splits=2, n_bootstrap=1, max_samples=40)
    report = evaluate(x, [("p", xp)], cfg=cfg, seed=SeedSpec(5))["p"]
    assert report.provenance["n_used"] == 40


def test_evaluate_main_text_composite_variant(rng):
    x = rng.standard_normal((60, 8))
    xp = x + 0.1 * rng.standard_normal((60, 8))
    deltas = rng.uniform(0.1, 1.0, 60)
    cfg = SplitConfig(n_splits=3, n_bootstrap=1, composite_variant="perturbation")
    report = evaluate(x, [("p", xp)], deltas, cfg, SeedSpec(2))["p"]
    m = report.metrics
    expected = np.mean(
        [m["rdm_similarity"], m["sample_split"], m["feature_split"],
         m["perturbation_stability"]]
    )
    assert report.composite == pytest.approx(expected, abs=1e-12)


def test_evaluate_shape_mismatch(rng):
    with pytest.raises(DataError, match="clean and perturbed shapes differ"):
        evaluate(rng.standard_normal((10, 4)), [("p", rng.standard_normal((10, 5)))])


# Values captured from the loop-based ranker on quantised data, where RDM
# entries, anchor rows and deltas all hold long runs of ties: a change in
# how ties are ranked moves them.  Shared metrics: (bootstrap mean, std).
TIED_SHARED = {
    "rdm_similarity": (0.38199404197847353, 0.024423192639666108),
    "sample_split": (-0.03748264402038636, 0.04333205334363013),
    "feature_split": (0.06362178415819564, 0.046836283405668415),
    "perturbation_magnitude": (1.7108859085955852, 0.019345160608437828),
    "perturbation_stability": (0.23826938628654196, 0.07255228595476435),
}
# (rank_normalize_anchors, composite_variant) -> anchor mean, anchor std, composite
TIED_CASES = {
    (False, "anchor"): (0.003396196550497846, 0.15620597024490152, 0.10288234466669516),
    (True, "anchor"): (0.018670544432712467, 0.12387257432225199, 0.10670093163724882),
    (False, "perturbation"): (
        0.003396196550497846, 0.15620597024490152, 0.16160064210070618
    ),
}


@pytest.mark.parametrize("case", sorted(TIED_CASES))
def test_evaluate_on_tied_data_matches_golden_values(case):
    rank_normalize, variant = case
    rng = rng_create(SeedSpec(320, "tied-golden"))
    x = rng.integers(1, 3, size=(48, 6)).astype(float)
    xp = x + rng.integers(0, 2, size=(48, 6))
    deltas = rng.integers(0, 3, size=48).astype(float)
    labels = np.repeat([0, 1, 2], 16)
    cfg = SplitConfig(
        n_splits=3, n_bootstrap=2, rank_normalize_anchors=rank_normalize,
        composite_variant=variant,
    )
    pairs = [("p", EmbeddingMatrix(xp, labels))]
    report = evaluate(EmbeddingMatrix(x, labels), pairs, deltas, cfg, SeedSpec(7))["p"]
    anchor_mean, anchor_std, composite = TIED_CASES[case]
    expected = {**TIED_SHARED, "anchor_stability": (anchor_mean, anchor_std)}
    assert report.metrics == {k: mean for k, (mean, _) in expected.items()}
    assert report.bootstrap_std == {k: std for k, (_, std) in expected.items()}
    assert report.composite == composite


@pytest.mark.parametrize("size", [47, 49])
def test_evaluate_rejects_deltas_of_wrong_length(size, rng):
    x = rng.standard_normal((48, 6))
    message = rf"one input delta per clean row required: \({size},\) for 48 rows"
    with pytest.raises(DataError, match=message):
        evaluate(x, [("p", x)], np.ones(size), SplitConfig(n_splits=2, n_bootstrap=1))



def test_evaluate_perturbation_variant_without_deltas_is_config_error(rng, monkeypatch):
    monkeypatch.setattr(
        "geotax.stability._stratified_subsample", lambda *a: pytest.fail("harness ran")
    )
    x = rng.standard_normal((48, 6))
    cfg = SplitConfig(n_splits=2, n_bootstrap=1, composite_variant="perturbation")
    with pytest.raises(ConfigError, match="needs input deltas"):
        evaluate(x, [("p", x)], None, cfg)


# -- one clean side for many perturbations ---------------------------------------------


def three_pairs(rng, n=60, d=8):
    x = EmbeddingMatrix(rng.standard_normal((n, d)), labels=np.arange(n) % 3)
    pairs = [(name, EmbeddingMatrix(x.data + sigma * rng.standard_normal((n, d)), x.labels))
             for name, sigma in (("lo", 0.05), ("mid", 0.3), ("hi", 1.0))]
    return x, pairs


def test_evaluate_scores_each_split_metric_once_per_round(rng, monkeypatch):
    x, pairs = three_pairs(rng)
    calls = {}
    for metric in ("sample_split", "feature_split", "anchor_stability"):
        def counting(*args, _real=getattr(stability, metric), _metric=metric, **kwargs):
            calls[_metric] = calls.get(_metric, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(f"geotax.stability.{metric}", counting)
    reports = evaluate(x, pairs, cfg=SplitConfig(n_splits=3, n_bootstrap=2), seed=SeedSpec(4))
    assert list(reports) == ["lo", "mid", "hi"]
    assert calls == {"sample_split": 2, "feature_split": 2, "anchor_stability": 2}


def test_evaluate_each_pair_equals_its_single_pair_run(rng):
    x, pairs = three_pairs(rng)
    deltas = rng.uniform(0.1, 1.0, x.n)
    cfg = SplitConfig(n_splits=3, n_bootstrap=3, max_samples=45)
    reports = evaluate(x, pairs, deltas, cfg, SeedSpec(9, "stability"))
    for name, xp in pairs:
        alone = evaluate(x, [(name, xp)], deltas, cfg, SeedSpec(9, "stability"))[name]
        assert json.dumps(reports[name].to_dict()) == json.dumps(alone.to_dict())
    shared = ("sample_split", "feature_split", "anchor_stability")
    for report in reports.values():
        for key in shared:
            assert report.metrics[key] == reports["lo"].metrics[key]
            assert report.bootstrap_std[key] == reports["lo"].bootstrap_std[key]
    assert reports["lo"].metrics["rdm_similarity"] > reports["hi"].metrics["rdm_similarity"]


def test_evaluate_loads_the_next_pair_only_after_the_previous_is_scored(rng, monkeypatch):
    x, pairs = three_pairs(rng)
    events = []
    previous = []

    def loading():
        for name, xp in pairs:
            # the pair yielded before has been dropped by the harness
            assert all(ref() is None for ref in previous)
            events.append(f"load {name}")
            matrix = xp.data.copy()
            previous.append(weakref.ref(matrix))
            yield name, matrix
            del matrix

    real = stability.rdm_similarity

    def scoring(c, p):
        events.append("score")
        return real(c, p)

    monkeypatch.setattr("geotax.stability.rdm_similarity", scoring)
    evaluate(x.data, loading(), cfg=SplitConfig(n_splits=2, n_bootstrap=2), seed=SeedSpec(1))
    assert events == ["load lo", "score", "score", "load mid", "score", "score",
                      "load hi", "score", "score"]
    assert all(ref() is None for ref in previous)


def test_evaluate_shape_mismatch_names_the_pair_and_both_shapes(rng):
    x, pairs = three_pairs(rng)
    pairs[2] = ("bad", rng.standard_normal((50, 8)))
    message = (r"perturbation 'bad': clean and perturbed shapes differ: "
               r"clean \(60, 8\), perturbed \(50, 8\)")
    with pytest.raises(DataError, match=message):
        evaluate(x, pairs, cfg=SplitConfig(n_splits=2, n_bootstrap=1))


def test_bootstrap_round_halves_and_anchors_are_disjoint_by_position_not_source_row(
    rng, monkeypatch
):
    # Resampling with replacement repeats rows within a round.  The split
    # metrics split a round by position, so copies of one source row can
    # land in both "disjoint" halves and among both the anchors and the rest.
    x = rng.standard_normal((40, 6))
    source = np.arange(40)
    source[20:] = 0  # positions 0 and 20..39 of the round all hold source row 0
    monkeypatch.setattr("geotax.stability._stratified_resample", lambda *a: source.copy())
    real_halves, real_anchor = stability._disjoint_halves, stability.anchor_stability
    halves, anchor_sets = [], []

    def recording_halves(n, rng_):
        a, b = real_halves(n, rng_)
        halves.append((n, a, b))
        return a, b

    def recording_anchor(c, cfg, seed):
        anchor_rng = stability._rng(seed, "anchor")
        anchor_sets.append(anchor_rng.choice(c.n, size=cfg.anchors_for(c.n), replace=False))
        return real_anchor(c, cfg, seed)

    monkeypatch.setattr("geotax.stability._disjoint_halves", recording_halves)
    monkeypatch.setattr("geotax.stability.anchor_stability", recording_anchor)
    cfg = SplitConfig(n_splits=4, n_bootstrap=2)
    report = evaluate(x, [("p", x)], cfg=cfg, seed=SeedSpec(3))["p"]
    sample_halves = [(a, b) for n, a, b in halves if n == 40]
    assert len(sample_halves) == 8  # 4 splits in each of 2 rounds
    for a, b in sample_halves:
        assert not set(a) & set(b)  # disjoint positions ...
        assert 0 in source[a] and 0 in source[b]  # ... both holding source row 0
    assert len(anchor_sets) == 2
    for anchors in anchor_sets:
        rest = np.setdiff1d(np.arange(40), anchors)
        assert 0 in source[anchors] and 0 in source[rest]
    # no de-duplication: each round scores the round matrix, copies and all
    monkeypatch.undo()
    expected = np.mean([sample_split(x[source], cfg, SeedSpec(3).derive(f"round{r}"))
                        for r in range(2)])
    assert report.metrics["sample_split"] == expected
