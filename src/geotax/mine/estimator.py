"""Mutual information estimation via the Donsker-Varadhan lower bound.

    I(X; Z) >= E_p[T(x, z)] - log E_{p x p}[exp(T(x, z))]

A statistics network T is trained to maximize the bound; marginal samples
come from in-batch permutation of Z.  Estimates are the mean over the last
10% of training epochs, evaluated full-batch with dropout off.  Reported
values aggregate five seeded runs; excess MI subtracts a matched random
baseline to remove the finite-sample bias of the estimator, and a ceiling
run (X against a noisy copy of itself) calibrates the achievable maximum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..core.embedding import as_columns
from ..core.parallel import ordered_map
from ..core.pca import pca_project
from ..core.rng import SeedSpec, rng_create
from ..errors import ConfigError, DataError
from .mlp import BATCH_SIZE, CLIP_INF, MLP, Adam, MLPConfig, Workspace, clip_gradient

DEFAULT_SEEDS = (320, 420, 520, 620, 720)
SANITY_CONFIG = MLPConfig(hidden=(128, 64), epochs=300)
PCA_COMPONENTS = 50
TAIL_FRACTION = 0.10
TRACE_STRIDE = 10      # pre-tail evaluation stride (diagnostics only)
CEILING_NOISE_SIGMA = 0.1   # noise on the ceiling run's copy of X


def zscore(x: np.ndarray) -> np.ndarray:
    """Independent per-feature standardization; constant features map to 0."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (x - mean) / std


def logmeanexp(values: np.ndarray) -> float:
    """log(mean(exp(v))) with max subtraction for stability."""
    peak = float(values.max())
    return peak + float(np.log(np.exp(values - peak).mean()))


def dv_bound(t_joint: np.ndarray, t_marginal: np.ndarray) -> float:
    return float(t_joint.mean()) - logmeanexp(t_marginal)


@dataclass(frozen=True)
class MIRun:
    seed: int
    estimate: float            # tail mean of the evaluation trace
    trace: tuple = field(repr=False, default=())   # (epoch, value) pairs


@dataclass(frozen=True)
class MIEstimate:
    runs: tuple
    mean: float
    std: float
    baseline: float
    ceiling: float

    @property
    def excess(self) -> float:
        return self.mean - self.baseline

    def to_dict(self) -> dict:
        excess = self.excess
        # None with a ceiling of 0
        normalized = excess / self.ceiling if self.ceiling else None
        return {
            "seeds": [r.seed for r in self.runs],
            "per_seed": [r.estimate for r in self.runs],
            "mean": self.mean,
            "std": self.std,
            "baseline": self.baseline,
            "ceiling": self.ceiling,
            "excess": excess,
            "normalized": normalized,
        }


class _Network:
    """One statistics network of a cohort: its standardized data, weights,
    Adam state and evaluation trace.  Its training steps and full-batch
    evaluations run through the cohort's shared workspace ``ws``."""

    def __init__(self, x: np.ndarray, z: np.ndarray, net: MLP, cfg: MLPConfig,
                 eval_perm: np.ndarray, ws: Workspace):
        self.x, self.z, self.net, self.ws = x, z, net, ws
        self.opt = Adam(net.theta.size, cfg.lr)
        self.eval_input = np.concatenate(
            [np.concatenate([x, z], axis=1), np.concatenate([x, z[eval_perm]], axis=1)]
        )
        self.trace: list[tuple[int, float]] = []
        self.tail_values: list[float] = []

    def full_bound(self) -> float:
        n = self.x.shape[0]
        t = self.net.forward(self.eval_input, ws=self.ws)[0].ravel()
        return dv_bound(t[:n], t[n:])

    def step(self, idx: np.ndarray, perm: np.ndarray, mask: np.ndarray | None) -> None:
        """One optimizer step on the batch ``idx`` paired with ``z[idx][perm]``
        for the marginal."""
        x, z, b, dx, ws = self.x, self.z, idx.size, self.x.shape[1], self.ws
        inp, gout = ws.input[: 2 * b], ws.grad_out[: 2 * b]
        inp[:b, :dx] = x[idx]
        inp[:b, dx:] = z[idx]
        inp[b:, :dx] = x[idx]
        inp[b:, dx:] = z[idx][perm]
        out, cache = self.net.forward(inp, mask, ws)
        tm = out[b:, 0]
        w = np.exp(tm - tm.max())
        # d(-bound)/dT: -1/B on the joint pass, softmax weights on the marginal
        gout[:b, 0] = -1.0 / b
        gout[b:, 0] = w / w.sum()
        self.net.backward(cache, gout)
        self.opt.step(self.net.theta, clip_gradient(self.net.grad, CLIP_INF))

    def record(self, epoch: int, tail_start: int) -> None:
        value = self.full_bound()
        if epoch >= tail_start:
            if not np.isfinite(value):
                raise DataError(f"DV bound diverged at epoch {epoch}")
            self.tail_values.append(value)
        self.trace.append((epoch, value))


def _train_cohort(tasks: list[tuple], pre_tail_trace: bool = True) -> list[MIRun]:
    """Seeded DV maximizations of (x, z, cfg, seed) tasks that share a seed,
    sample count, input width and config; x and z arrive standardized.
    The trace holds every tail epoch and, with ``pre_tail_trace``, every
    ``TRACE_STRIDE``-th epoch before the tail.

    Every draw depends on those alone, never on the data, so the networks
    train in lockstep on one stream: one He init copied into each, then per
    step one batch order, marginal permutation and dropout mask applied to
    each network in task order, all through one workspace.  Each result is
    the run its task would get trained alone."""
    x0, z0, cfg, seed = tasks[0]
    n = x0.shape[0]
    spec = SeedSpec(seed, "mine-run")
    rng = rng_create(spec)
    eval_perm = rng_create(spec.derive("eval-perm")).permutation(n)
    first = MLP(x0.shape[1] + z0.shape[1], cfg.hidden, 1, rng)
    # rows for the full-batch evaluation; a batch step uses the first 2 * b
    ws = Workspace(first.dims, 2 * n)
    nets = [
        _Network(x, z, first if i == 0 else first.clone(), cfg, eval_perm, ws)
        for i, (x, z, _, _) in enumerate(tasks)
    ]
    tail = max(1, int(round(TAIL_FRACTION * cfg.epochs)))
    tail_start = cfg.epochs - tail
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            b = idx.size
            if b < 2:
                continue
            perm = rng.permutation(b)
            mask = first.dropout_mask(2 * b, cfg.dropout, rng, ws)
            for net in nets:
                net.step(idx, perm, mask)
        if epoch >= tail_start or (pre_tail_trace and epoch % TRACE_STRIDE == 0):
            for net in nets:
                net.record(epoch, tail_start)
    return [
        MIRun(seed, float(np.mean(net.tail_values)), tuple(net.trace))
        for net in nets
    ]


def _estimates(groups: list[list[tuple]], workers: int,
               pre_tail_trace: bool = True) -> list[list[MIRun]]:
    """Train every (x, z, cfg, seed) task of every group in one fan-out;
    the runs of each group, in group and task order.  Every seed is
    checked before the first network trains, and a seed may occur only
    once per group.  ``pre_tail_trace`` is passed to ``_train_cohort``.

    Tasks that draw the same stream form a cohort, trained by one
    ``_train_cohort`` call.  With several workers a cohort splits
    round-robin into one piece per worker, at most one per task, and each
    piece draws the stream anew; every split gives the same runs."""
    cohorts: dict[tuple, list[int]] = {}
    tasks = []
    for group in groups:
        seen = set()
        for task in group:
            x, z, cfg, seed = task
            SeedSpec(seed, "mine-run")
            if seed in seen:
                raise ConfigError(f"seed {seed} is repeated; MINE seeds must be distinct")
            seen.add(seed)
            cohorts.setdefault((seed, x.shape[0], x.shape[1] + z.shape[1], cfg), []).append(
                len(tasks))
            tasks.append(task)
    pieces = []
    for members in cohorts.values():
        k = min(workers, len(members))
        pieces += [members[i::k] for i in range(k)]
    trained = ordered_map(functools.partial(_train_cohort, pre_tail_trace=pre_tail_trace),
                          [[tasks[i] for i in piece] for piece in pieces], workers)
    runs = [None] * len(tasks)
    for piece, piece_runs in zip(pieces, trained):
        for i, run in zip(piece, piece_runs):
            runs[i] = run
    runs = iter(runs)
    return [[next(runs) for _ in group] for group in groups]


def _prepare(x, z, pca_dim: int | None) -> tuple[np.ndarray, np.ndarray]:
    x, z = as_columns(x), as_columns(z)
    if x.shape[0] != z.shape[0]:
        raise DataError("feature and embedding sample counts differ")
    if pca_dim is not None:
        k = min(pca_dim, z.shape[0], z.shape[1])
        if k < z.shape[1]:
            z = pca_project(z, k).scores
    return zscore(x), zscore(z)


def _baseline_tasks(x, d, cfg, seeds) -> list[tuple]:
    xs = as_columns(zscore(x))
    zs = [rng_create(SeedSpec(s, "baseline-z")).standard_normal((xs.shape[0], d)) for s in seeds]
    return [(xs, zscore(z), cfg, s) for z, s in zip(zs, seeds)]


def _ceiling_tasks(x, cfg, seeds) -> list[tuple]:
    xs = as_columns(x)
    eps = [rng_create(SeedSpec(s, "ceiling-noise")).standard_normal(xs.shape) for s in seeds]
    return [
        (zscore(xs), zscore(xs + CEILING_NOISE_SIGMA * e), cfg, s) for e, s in zip(eps, seeds)
    ]


def excess_mi_report(
    x,
    z,
    cfg: MLPConfig = MLPConfig(),
    seeds: tuple = DEFAULT_SEEDS,
    pca_dim: int | None = PCA_COMPONENTS,
    workers: int = 1,
) -> MIEstimate:
    """Model estimate with matched baseline and ceiling attached; the
    model, baseline and ceiling networks share one fan-out."""
    xs, zs = _prepare(x, z, pca_dim)
    runs = _estimates(
        [
            [(xs, zs, cfg, s) for s in seeds],
            _baseline_tasks(x, zs.shape[1], cfg, seeds),
            _ceiling_tasks(x, cfg, seeds),
        ],
        workers,
    )
    model, base, ceil = (np.array([r.estimate for r in group]) for group in runs)
    return MIEstimate(tuple(runs[0]), float(model.mean()), float(model.std()),
                      float(base.mean()), float(ceil.mean()))


# -- estimator validation -----------------------------------------------------


@dataclass(frozen=True)
class SanityCase:
    rho: float
    true_mi: float
    estimate: float
    std: float
    tolerance: float
    passed: bool


def gaussian_mi(rho: float) -> float:
    """Closed-form MI of a correlated bivariate Gaussian: -0.5 ln(1 - rho^2)."""
    return -0.5 * float(np.log(1.0 - rho * rho))


def sanity_tolerance(true_mi: float) -> float:
    return max(0.15, 0.3 * true_mi)


def sanity_suite(
    rhos: tuple = (0.0, 0.3, 0.6, 0.9),
    n: int = 2000,
    seeds: tuple = DEFAULT_SEEDS,
    cfg: MLPConfig = SANITY_CONFIG,
    data_seed: int = 320,
    workers: int = 1,
) -> list[SanityCase]:
    """Validate the estimator on correlated Gaussians with known MI.

    Passes when |estimate - I| < max(0.15, 0.3 I) for every rho.
    """
    if n < 2:
        raise ConfigError(f"sanity suite needs n >= 2 samples to train on, got {n}")
    groups = []
    for rho in rhos:
        rng = rng_create(SeedSpec(data_seed, f"sanity-data/{rho}"))
        x = rng.standard_normal(n)
        y = rho * x + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        xs, ys = zscore(as_columns(x)), zscore(as_columns(y))
        groups.append([(xs, ys, cfg, s) for s in seeds])
    cases = []
    # the cases report tail estimates only, so no pre-tail trace is evaluated
    for rho, runs in zip(rhos, _estimates(groups, workers, pre_tail_trace=False)):
        est = np.array([r.estimate for r in runs])
        mean, std = float(est.mean()), float(est.std())
        true = gaussian_mi(rho)
        tol = sanity_tolerance(true)
        cases.append(SanityCase(rho, true, mean, std, tol, abs(mean - true) < tol))
    return cases
