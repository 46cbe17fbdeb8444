"""Input-space walks and embedding Lipschitz profiles.

Interpolation walks step between two continuous trajectories through the
shared discretization grid; mutation walks flip one base at a time toward
a mutant endpoint.  Profiles measure per-step embedding displacement (L2
or cosine) with spike detection at mean + 2 population standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core.embedding import EmbeddingMatrix, as_array, unit_rows
from .core.pca import PCAResult, pca_project
from .core.rng import SeedSpec, rng_create
from .core.sequence import DNA, SymbolSequence
from .dynamics import GlobalRange, Trajectory, discretize
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Walk:
    """Ordered inputs plus per-step metadata.

    For interpolation walks ``step_meta`` holds alpha per step; for mutation
    walks it holds the position changed going into each step (None for the
    start).
    """

    steps: tuple
    step_meta: tuple
    kind: str                      # interpolation | mutation

    def __len__(self) -> int:
        return len(self.steps)


def build_interpolation_walk(
    traj_a: Trajectory,
    traj_b: Trajectory,
    grange: GlobalRange,
    n_steps: int = 101,
) -> Walk:
    """Discretized linear interpolation (1-alpha) A + alpha B, alpha in [0,1].

    Endpoints equal the standalone discretizations of A and B exactly.
    """
    if n_steps < 2:
        raise ConfigError(f"interpolation needs at least 2 steps, got {n_steps}")
    if traj_a.values.shape != traj_b.values.shape:
        raise DataError("interpolation endpoints must share shape")
    steps, alphas = [], []
    for i in range(n_steps):
        alpha = i / (n_steps - 1)
        blend = (1.0 - alpha) * traj_a.values + alpha * traj_b.values
        steps.append(discretize(Trajectory(blend, traj_a.dt), grange))
        alphas.append(alpha)
    return Walk(tuple(steps), tuple(alphas), "interpolation")


def build_mutation_walk(
    wildtype: SymbolSequence,
    n_mutations: int,
    core_region: tuple[int, int],
    seed: SeedSpec | int = SeedSpec(),
) -> Walk:
    """Single-point mutation walk from wildtype to an n-mutation endpoint.

    Positions are sampled without replacement from the core region, each
    changed to a uniformly random alternative base.  Mutations are applied
    one per step in a seed-shuffled order, so consecutive steps differ at
    exactly one position.
    """
    if n_mutations < 0:
        raise ConfigError(f"mutation count must be >= 0, got {n_mutations}")
    wildtype.require(DNA, "mutation walks are defined over the DNA alphabet")
    lo, hi = core_region
    if not (0 <= lo < hi <= len(wildtype)):
        raise DataError("core region outside sequence")
    if n_mutations > hi - lo:
        raise DataError(f"core region holds {hi - lo} candidate sites < {n_mutations}")
    rng = rng_create(SeedSpec.coerce(seed).derive("mutation-walk"))
    positions = rng.choice(np.arange(lo, hi), size=n_mutations, replace=False)
    draw = rng.integers(0, 3, size=n_mutations)
    ref = wildtype.symbols[positions]
    alts = np.where(draw >= ref, draw + 1, draw)  # uniform over the 3 non-reference bases
    order = rng.permutation(n_mutations)
    steps = [wildtype]
    meta = [None]
    current = wildtype.symbols.copy()
    for pos, base in zip(positions[order].tolist(), alts[order].tolist()):
        current[pos] = base
        steps.append(SymbolSequence(current.copy(), DNA))
        meta.append(pos)
    return Walk(tuple(steps), tuple(meta), "mutation")


def walk_to_matrix(walk: Walk) -> EmbeddingMatrix:
    """Stack walk steps as rows (n_steps x L) for EMB1 export, the handoff
    format for embedding the steps through an external model."""
    rows = np.vstack([step.symbols.astype(np.float64) for step in walk.steps])
    return EmbeddingMatrix(rows)


# -- profiles ---------------------------------------------------------------

SPIKE_MIN_VALUES = 3


@dataclass(frozen=True)
class LipschitzProfile:
    """Per-step displacement along a walk, plus summary statistics."""

    values: np.ndarray             # length n_steps - 1
    mean: float
    max: float
    smoothness_ratio: float        # mean / max; 1.0 for a flat profile
    spikes: tuple                  # indices strictly above mean + 2 sigma


def detect_spikes(values: np.ndarray) -> tuple:
    """Indices strictly exceeding mean + 2 population standard deviations."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < SPIKE_MIN_VALUES:
        raise DataError(f"need >= {SPIKE_MIN_VALUES} profile values")
    threshold = values.mean() + 2.0 * values.std()
    return tuple(int(i) for i in np.nonzero(values > threshold)[0])


def _summarize(values: np.ndarray) -> LipschitzProfile:
    mean = float(values.mean())
    vmax = float(values.max())
    ratio = 1.0 if vmax == 0.0 else mean / vmax
    spikes = detect_spikes(values) if values.size >= SPIKE_MIN_VALUES else ()
    return LipschitzProfile(values, mean, vmax, ratio, spikes)


def _rows(embeddings) -> np.ndarray:
    arr = as_array(embeddings)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise DataError("need an ordered matrix with >= 2 rows")
    return arr


def lipschitz_l2(embeddings) -> LipschitzProfile:
    """Consecutive L2 displacements along an ordered embedding path."""
    e = _rows(embeddings)
    values = np.linalg.norm(np.diff(e, axis=0), axis=1)
    return _summarize(values)


def lipschitz_cosine(embeddings) -> LipschitzProfile:
    """Consecutive cosine distances; dimension-invariant across models."""
    unit = unit_rows(_rows(embeddings))
    values = 1.0 - np.clip((unit[1:] * unit[:-1]).sum(axis=1), -1.0, 1.0)
    return _summarize(values)


def lipschitz_gap(mean_values) -> float:
    """max/min spread of mean Lipschitz across a model set (the track gap)."""
    vals = np.asarray(mean_values, dtype=np.float64)
    if vals.size < 2 or (vals <= 0).any():
        raise DataError("gap needs >= 2 positive means")
    return float(vals.max() / vals.min())


def mean_lipschitz(profiles) -> float:
    """Mean of per-pair means (pairs first, then averaged)."""
    return float(np.mean([p.mean for p in profiles]))


# -- PCA trajectory export ----------------------------------------------------

SVG_WIDTH = 640
SVG_HEIGHT = 480
SVG_MARGIN = 20


def pca_trajectory(embeddings, k: int = 3) -> tuple[PCAResult, str]:
    """Project an embedding path to k components and render an SVG polyline.

    The SVG bytes are deterministic for fixed input (fixed float formatting,
    no timestamps).
    """
    e = _rows(embeddings)
    result = pca_project(e, k)
    path = result.scores
    svg = render_path_svg(path[:, 0], path[:, 1] if path.shape[1] > 1 else np.zeros(len(path)))
    return result, svg


def render_path_svg(x: np.ndarray, y: np.ndarray) -> str:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    spans = []
    for v in (x, y):
        lo, hi = float(v.min()), float(v.max())
        if hi - lo == 0.0:
            lo, hi = lo - 0.5, hi + 0.5
        spans.append((lo, hi))
    (x0, x1), (y0, y1) = spans
    px = SVG_MARGIN + (x - x0) / (x1 - x0) * (SVG_WIDTH - 2 * SVG_MARGIN)
    py = SVG_HEIGHT - SVG_MARGIN - (y - y0) / (y1 - y0) * (SVG_HEIGHT - 2 * SVG_MARGIN)
    pts = " ".join(f"{a:.6f},{b:.6f}" for a, b in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">'
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        f'<circle cx="{px[0]:.6f}" cy="{py[0]:.6f}" r="4" fill="#2ca02c"/>'
        f'<circle cx="{px[-1]:.6f}" cy="{py[-1]:.6f}" r="4" fill="#d62728"/>'
        "</svg>"
    )
