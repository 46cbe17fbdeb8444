"""The geometric stability harness.

Four core metrics over clean/perturbed embedding pairs: RDM similarity
(clean vs perturbed), plus three internal-consistency scores of the clean
matrix (sample split, feature split, anchor stability).  The composite is
their four-way mean.  Perturbation stability and perturbation magnitude
are reported alongside but excluded from the composite.

Evaluation subsamples to ``max_samples`` (stratified by label when
present), runs ``n_bootstrap`` stratified resampling rounds, and reports
bootstrap means with full provenance.  One evaluation scores a clean
matrix against all of its perturbations: the subsample, the rounds and
the split metrics are drawn and computed once and shared by every pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core.embedding import EmbeddingMatrix, cosine_rdm, cross_distance_block
from .core.rng import SeedSpec, rng_create
from .core.stats import distinct, rankdata, spearman_checked
from .errors import ConfigError, DataError

CORE_METRICS = ("rdm_similarity", "sample_split", "feature_split", "anchor_stability")


@dataclass(frozen=True)
class SplitConfig:
    """Harness knobs: 30 splits, 2500-sample cap, 5 bootstrap replicates."""

    n_splits: int = 30
    max_samples: int = 2500
    n_bootstrap: int = 5
    anchor_count: int | None = None      # default min(50, n // 10)
    rank_normalize_anchors: bool = False
    composite_variant: str = "anchor"    # anchor | perturbation

    def __post_init__(self):
        if self.n_splits < 1:
            raise ConfigError("n_splits must be >= 1")
        if self.max_samples < 10:
            raise ConfigError("max_samples must be >= 10")
        if self.n_bootstrap < 1:
            raise ConfigError("n_bootstrap must be >= 1")
        if self.anchor_count is not None and self.anchor_count < 1:
            raise ConfigError(f"anchor_count must be >= 1, got {self.anchor_count}")
        if self.composite_variant not in ("anchor", "perturbation"):
            raise ConfigError("composite_variant must be 'anchor' or 'perturbation'")

    def anchors_for(self, n: int) -> int:
        if self.anchor_count is not None:
            return self.anchor_count
        return max(1, min(50, n // 10))


def rdm_similarity(x_clean, x_pert) -> float:
    """Spearman correlation between vectorized clean and perturbed RDMs."""
    xc = EmbeddingMatrix.coerce(x_clean)
    xp = EmbeddingMatrix.coerce(x_pert)
    if xc.n != xp.n:
        raise DataError("clean and perturbed sample counts differ")
    return _mean_rho([(xc, xp)], _rdm_vector)


def _rdm_vector(x) -> np.ndarray:
    # RDM entries are paired positionally
    return cosine_rdm(x).vector()


def _disjoint_halves(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # odd-sized sets drop the last shuffled element
    perm = rng.permutation(n)
    half = n // 2
    return perm[:half], perm[half : 2 * half]


def _split_pairs(n_splits: int, forced_splits, n: int, rng: np.random.Generator) -> list:
    """All ``n_splits`` index pairs of a split metric, before any is scored:
    cycled from ``forced_splits`` when given, else disjoint halves of
    ``range(n)`` drawn from ``rng`` in split order."""
    if forced_splits is not None:
        return [tuple(np.asarray(idx) for idx in forced_splits[k % len(forced_splits)])
                for k in range(n_splits)]
    return [_disjoint_halves(n, rng) for _ in range(n_splits)]


def _mean_rho(pairs, vector) -> float:
    """Mean Spearman correlation of ``vector(a)`` against ``vector(b)`` over
    the pairs (a, b); a degenerate split counts as its flagged 0.0."""
    return float(np.mean([spearman_checked(vector(a), vector(b))[0] for a, b in pairs]))


def sample_split(
    x,
    cfg: SplitConfig = SplitConfig(),
    seed: SeedSpec | int = SeedSpec(),
    forced_splits=None,
) -> float:
    """Mean split-half agreement between RDMs of disjoint sample subsets.

    Each split correlates the vectorized RDM of one half against the other,
    pairing entries positionally.  ``forced_splits`` substitutes explicit
    (idx1, idx2) pairs for the random draws, which is how constructed
    correspondences (e.g. duplicated datasets) are tested.  The halves are
    disjoint by row position: when ``x`` is a bootstrap round, copies of
    one source row can land in both.
    """
    xm = EmbeddingMatrix.coerce(x)
    if xm.n < 6:
        # a half of 3 rows is the smallest with 3 RDM entries
        raise DataError(f"sample split needs n >= 6 rows, got {xm.n}")
    pairs = _split_pairs(cfg.n_splits, forced_splits, xm.n, _rng(seed, "sample-split"))
    return _mean_rho(pairs, lambda rows: _rdm_vector(xm.data[rows]))


def feature_split(
    x,
    cfg: SplitConfig = SplitConfig(),
    seed: SeedSpec | int = SeedSpec(),
    forced_splits=None,
) -> float:
    """Mean agreement between full-sample RDMs on disjoint feature halves."""
    xm = EmbeddingMatrix.coerce(x)
    if xm.d < 4 or xm.n < 3:
        raise DataError(f"feature split needs d >= 4 and n >= 3 rows, got d={xm.d}, n={xm.n}")
    pairs = _split_pairs(cfg.n_splits, forced_splits, xm.d, _rng(seed, "feature-split"))
    return _mean_rho(pairs, lambda cols: _rdm_vector(xm.data[:, cols]))


def anchor_stability(
    x,
    cfg: SplitConfig = SplitConfig(),
    seed: SeedSpec | int = SeedSpec(),
    forced_splits=None,
) -> float:
    """Consistency of anchor-to-subset distance profiles across resampling.

    Anchors are drawn once per evaluation, before the splits and on the
    same stream; each split correlates the vectorized anchor-distance
    blocks of two disjoint non-anchor subsets (optionally rank-normalized
    row-wise).  Forced splits are row indices of ``x``.
    """
    xm = EmbeddingMatrix.coerce(x)
    m = cfg.anchors_for(xm.n)
    # each half of the rest needs 2 rows and, across m anchors, 3 distances
    need = m + max(4, 2 * -(-3 // m))
    if xm.n < need:
        raise DataError(f"anchor stability needs n >= {need} with anchor_count {m}, got {xm.n}")
    rng = _rng(seed, "anchor")
    anchor_idx = rng.choice(xm.n, size=m, replace=False)
    is_rest = np.ones(xm.n, dtype=bool)
    is_rest[anchor_idx] = False
    rest = np.flatnonzero(is_rest)
    anchors = xm.data[anchor_idx]
    pairs = _split_pairs(cfg.n_splits, forced_splits, rest.size, rng)
    if forced_splits is None:
        pairs = [(rest[h1], rest[h2]) for h1, h2 in pairs]

    def profile(rows: np.ndarray) -> np.ndarray:
        block = cross_distance_block(anchors, xm.data[rows])
        if cfg.rank_normalize_anchors:
            block = np.vstack([rankdata(row) for row in block])
        return block.ravel()

    return _mean_rho(pairs, profile)


def _displacement(x_clean, x_pert) -> np.ndarray:
    """Row-wise L2 distance between a clean and a perturbed matrix."""
    xc = EmbeddingMatrix.coerce(x_clean)
    xp = EmbeddingMatrix.coerce(x_pert)
    if xc.data.shape != xp.data.shape:
        raise DataError("clean and perturbed shapes differ")
    return np.linalg.norm(xc.data - xp.data, axis=1)


def perturbation_stability(input_deltas, x_clean, x_pert) -> float:
    """Rank correlation between input perturbation magnitude and
    embedding-space displacement."""
    deltas = np.asarray(input_deltas, dtype=np.float64)
    disp = _displacement(x_clean, x_pert)
    if deltas.shape != disp.shape:
        raise DataError("one input delta per sample required")
    rho, _ = spearman_checked(deltas, disp)
    return rho


def perturbation_magnitude(x_clean, x_pert) -> float:
    """Mean row-wise L2 displacement between clean and perturbed embeddings."""
    return float(_displacement(x_clean, x_pert).mean())


def _rng(seed, tag: str) -> np.random.Generator:
    return rng_create(SeedSpec.coerce(seed).derive(tag))


@dataclass(frozen=True)
class StabilityReport:
    """Per-perturbation metric bundle with bootstrap statistics."""

    metrics: dict                      # metric -> bootstrap mean (or point value)
    bootstrap_std: dict
    composite: float
    provenance: dict = field(compare=False, default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _stratified_subsample(
    labels: np.ndarray | None, n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Proportional allocation with largest-remainder rounding; uniform
    without labels.  Identity when n <= size."""
    if n <= size:
        return np.arange(n)
    if labels is None:
        return np.sort(rng.choice(n, size=size, replace=False))
    classes, counts = np.unique(labels, return_counts=True)
    exact = counts * (size / n)
    alloc = np.floor(exact).astype(np.int64)
    remainder = exact - alloc
    short = size - int(alloc.sum())
    for i in np.argsort(-remainder)[:short]:
        alloc[i] += 1
    picks = []
    for cls, take in zip(classes, alloc):
        idx = np.nonzero(labels == cls)[0]
        take = min(take, idx.size)
        if take:
            picks.append(rng.choice(idx, size=take, replace=False))
    return np.sort(np.concatenate(picks))


def _stratified_resample(labels: np.ndarray | None, n: int, rng: np.random.Generator) -> np.ndarray:
    """Same-size resample with replacement, per class when labels exist."""
    if labels is None:
        return rng.integers(0, n, size=n)
    out = []
    for cls in distinct(labels):
        idx = np.nonzero(labels == cls)[0]
        out.append(idx[rng.integers(0, idx.size, size=idx.size)])
    return np.concatenate(out)


def evaluate(
    x_clean,
    perturbed,
    input_deltas=None,
    cfg: SplitConfig = SplitConfig(),
    seed: SeedSpec | int = SeedSpec(),
) -> dict[str, StabilityReport]:
    """Score one clean matrix against each ``(name, matrix)`` pair of
    ``perturbed``; returns ``{name: StabilityReport}`` in input order.

    The clean side is scored once per run: one subsample, one set of
    bootstrap rows and, per round, one value of each split metric, shared
    by every perturbation.  RDM similarity and the perturbation metrics
    compare each pair on those same rows.  ``perturbed`` is consumed
    lazily and no pair is kept after it is scored, so a generator that
    loads each matrix holds one perturbed matrix in memory at a time.

    A bootstrap round resamples rows with replacement, so the split
    metrics' disjoint halves and anchors are disjoint by position in the
    round, not by source row: copies of one row can land in both halves,
    or among both the anchors and the rest.

    Fixed seeds give byte-identical reports.  The perturbation-variant
    composite without ``input_deltas`` is a ``ConfigError``, raised before
    any work; a perturbed matrix whose shape differs from the clean one is
    a ``DataError`` naming the pair.
    """
    if cfg.composite_variant == "perturbation" and input_deltas is None:
        raise ConfigError("the perturbation-variant composite needs input deltas")
    xc = EmbeddingMatrix.coerce(x_clean)
    deltas = None if input_deltas is None else np.asarray(input_deltas, dtype=np.float64)
    if deltas is not None and deltas.shape != (xc.n,):
        raise DataError(f"one input delta per clean row required: {deltas.shape} for {xc.n} rows")
    spec = SeedSpec.coerce(seed)
    sub_rng = rng_create(spec.derive("subsample"))
    keep = _stratified_subsample(xc.labels, xc.n, cfg.max_samples, sub_rng)
    sub = xc.take(keep)
    deltas = None if deltas is None else deltas[keep]
    if cfg.n_bootstrap <= 1:
        rounds = [(np.arange(sub.n), "round0")]
    else:
        boot_rng = rng_create(spec.derive("bootstrap"))
        rounds = [
            (_stratified_resample(sub.labels, sub.n, boot_rng), f"round{r}")
            for r in range(cfg.n_bootstrap)
        ]
    provenance = {
        "seed": spec.seed,
        "stream": spec.stream,
        "n_splits": cfg.n_splits,
        "max_samples": cfg.max_samples,
        "n_bootstrap": cfg.n_bootstrap,
        "n_used": int(sub.n),
        "anchor_count": cfg.anchors_for(sub.n),
        "rank_normalize_anchors": cfg.rank_normalize_anchors,
        "composite_variant": cfg.composite_variant,
    }
    shared = None  # per round: its rows and clean split metrics, scored at the first pair
    reports = {}
    for name, x_pert in perturbed:
        xp = EmbeddingMatrix.coerce(x_pert)
        if xp.data.shape != xc.data.shape:
            raise DataError(
                f"perturbation {name!r}: clean and perturbed shapes differ: "
                f"clean {xc.data.shape}, perturbed {xp.data.shape}"
            )
        if shared is None:
            shared = [(rows, _split_metrics(sub.take(rows), cfg, spec.derive(tag)))
                      for rows, tag in rounds]
        reports[name] = _pair_report(sub, xp.take(keep), deltas, shared, cfg, provenance)
        # drop this pair before the iterable loads the next one
        del x_pert, xp
    return reports


def _split_metrics(c: EmbeddingMatrix, cfg: SplitConfig, rseed: SeedSpec) -> dict:
    return {
        "sample_split": sample_split(c, cfg, rseed),
        "feature_split": feature_split(c, cfg, rseed),
        "anchor_stability": anchor_stability(c, cfg, rseed),
    }


def _pair_report(sub, xp, deltas, shared, cfg: SplitConfig, provenance: dict) -> StabilityReport:
    """One pair's report: its own metrics per round next to the shared
    split metrics, reduced to bootstrap means and standard deviations."""
    per_round = []
    for rows, split in shared:
        c = sub.take(rows)
        p = xp.take(rows)
        vals = {
            "rdm_similarity": rdm_similarity(c, p),
            **split,
            "perturbation_magnitude": perturbation_magnitude(c, p),
        }
        if deltas is not None:
            vals["perturbation_stability"] = perturbation_stability(deltas[rows], c, p)
        per_round.append(vals)
    keys = per_round[0].keys()
    metrics = {k: float(np.mean([r[k] for r in per_round])) for k in keys}
    stds = {k: float(np.std([r[k] for r in per_round])) for k in keys}

    if cfg.composite_variant == "anchor":
        parts = CORE_METRICS
    else:
        # main-text variant: perturbation stability replaces anchor stability
        parts = ("rdm_similarity", "sample_split", "feature_split", "perturbation_stability")
    composite = float(np.mean([metrics[k] for k in parts]))
    return StabilityReport(metrics, stds, composite, dict(provenance))
