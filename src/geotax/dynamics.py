"""Synthetic dynamical systems, two-pass global discretization, and
dynamical-fidelity checks (largest Lyapunov exponent, butterfly test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core.embedding import as_columns, read_only
from .core.rng import SeedSpec, rng_create
from .core.sequence import SymbolSequence, bins_alphabet
from .errors import DataError

# Canonical Lorenz-63 parameters.  The source material never states them,
# so the textbook values are used.  RK4 at step LORENZ_DT stays on the
# attractor; steps above 0.02 no longer integrate it faithfully.
LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0
LORENZ_DT = 0.01
LORENZ_TRANSIENT = 1000
BLOWUP_LIMIT = 1e6
# Oscillator and waveform series cover t in [0, TIME_SPAN).
TIME_SPAN = 4.0


@dataclass(frozen=True)
class OscillatorParams:
    """Damped harmonic oscillator x(t) = A exp(-gamma t) cos(omega t + phi)."""

    amplitude: float
    damping: float
    omega: float
    phase: float


def sample_oscillator_params(rng: np.random.Generator) -> OscillatorParams:
    """Draw parameters from the standard training ranges."""
    return OscillatorParams(
        amplitude=rng.uniform(0.5, 2.0),
        damping=rng.uniform(0.2, 2.0),
        omega=rng.uniform(2.0, 20.0),
        phase=rng.uniform(0.0, 2.0 * np.pi),
    )


@dataclass(frozen=True)
class Trajectory:
    """T x m continuous time series with sample interval dt."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        vals = as_columns(self.values)
        if vals.ndim != 2 or vals.shape[0] < 2:
            raise DataError("trajectory needs at least 2 samples")
        if not np.isfinite(vals).all():
            raise DataError("trajectory contains non-finite values")
        object.__setattr__(self, "values", read_only(vals, self.values))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GlobalRange:
    """Dataset-wide per-channel min/max, computed in a first pass so the
    same physical state maps to the same bin across all sequences."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.minimum, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.maximum, dtype=np.float64))
        if lo.shape != hi.shape:
            raise DataError("range min/max shape mismatch")
        if not (hi > lo).all():
            raise DataError("max must exceed min in every channel")
        object.__setattr__(self, "minimum", read_only(lo, self.minimum))
        object.__setattr__(self, "maximum", read_only(hi, self.maximum))

    @property
    def width(self) -> np.ndarray:
        return self.maximum - self.minimum


def time_grid(n_steps: int) -> np.ndarray:
    return TIME_SPAN * np.arange(n_steps) / n_steps


def gen_oscillator(params: OscillatorParams, n_steps: int = 512) -> Trajectory:
    t = time_grid(n_steps)
    x = params.amplitude * np.exp(-params.damping * t) * np.cos(params.omega * t + params.phase)
    return Trajectory(x, TIME_SPAN / n_steps)


def waveform_from_components(
    amplitudes: Sequence[float],
    omegas: Sequence[float],
    phases: Sequence[float],
    n_steps: int = 512,
) -> Trajectory:
    t = time_grid(n_steps)
    x = np.zeros_like(t)
    for a, w, p in zip(amplitudes, omegas, phases):
        x += a * np.cos(w * t + p)
    return Trajectory(x, TIME_SPAN / n_steps)


def gen_waveform(spec: SeedSpec | int, n_components: int = 3, n_steps: int = 512) -> Trajectory:
    """Superposed sines with per-component amplitude/frequency/phase drawn
    from the oscillator ranges, without damping."""
    rng = rng_create(spec)
    amps = rng.uniform(0.5, 2.0, size=n_components)
    omegas = rng.uniform(2.0, 20.0, size=n_components)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_components)
    return waveform_from_components(amps, omegas, phases, n_steps)


def _rk4_step(state: tuple[float, float, float], dt: float) -> tuple[float, float, float]:
    """One RK4 step of the Lorenz system on Python floats.

    The operations run in the order of the numpy array form, which the
    tests keep as an oracle: a stage is ``state + 0.5 * dt * k`` with
    ``0.5 * dt`` first, and the update ``state + dt / 6 * (k1 + 2 k2 + 2 k3
    + k4)`` sums left to right.  IEEE doubles round the same in both, so a
    step gives the same bytes without a numpy call.
    """
    sigma, rho, beta = LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA
    x, y, z = state
    h = 0.5 * dt
    a1, b1, c1 = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
    x2, y2, z2 = x + h * a1, y + h * b1, z + h * c1
    a2, b2, c2 = sigma * (y2 - x2), x2 * (rho - z2) - y2, x2 * y2 - beta * z2
    x3, y3, z3 = x + h * a2, y + h * b2, z + h * c2
    a3, b3, c3 = sigma * (y3 - x3), x3 * (rho - z3) - y3, x3 * y3 - beta * z3
    x4, y4, z4 = x + dt * a3, y + dt * b3, z + dt * c3
    a4, b4, c4 = sigma * (y4 - x4), x4 * (rho - z4) - y4, x4 * y4 - beta * z4
    w = dt / 6.0
    return (
        x + w * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        y + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        z + w * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
    )


def _integrate_lorenz(state: np.ndarray, n_steps: int) -> Trajectory:
    rows = []
    step = tuple(state.tolist())
    for i in range(n_steps):
        rows.append(step)
        step = _rk4_step(step, LORENZ_DT)
        if max(abs(step[0]), abs(step[1]), abs(step[2])) > BLOWUP_LIMIT:
            raise DataError(f"lorenz integration diverged at step {i}")
    return Trajectory(np.array(rows, dtype=np.float64).reshape(-1, 3), LORENZ_DT)


def lorenz_initial_state(spec: SeedSpec | int) -> np.ndarray:
    """On-attractor state: randomly perturbed IC plus a discarded transient."""
    rng = rng_create(spec)
    state = (np.array([1.0, 1.0, 1.0]) + rng.uniform(-0.5, 0.5, size=3)).tolist()
    for _ in range(LORENZ_TRANSIENT):
        state = _rk4_step(state, LORENZ_DT)
    return np.array(state)


def gen_lorenz(spec: SeedSpec | int, n_steps: int = 512) -> Trajectory:
    return _integrate_lorenz(lorenz_initial_state(spec), n_steps)


def lorenz_twins(
    spec: SeedSpec | int, n_steps: int, delta: float = 1e-9
) -> tuple[Trajectory, Trajectory]:
    """Two trajectories from the same on-attractor state, offset by delta in x."""
    state = lorenz_initial_state(spec)
    a = _integrate_lorenz(state, n_steps)
    state[0] += delta
    return a, _integrate_lorenz(state, n_steps)


# -- two-pass discretization ---------------------------------------------


def fit_global_range(dataset: Sequence[Trajectory]) -> GlobalRange:
    """Exact per-channel envelope over the whole dataset (pass one)."""
    if not dataset:
        raise DataError("empty dataset")
    counts = sorted({t.channels for t in dataset})
    if len(counts) > 1:
        raise DataError(f"trajectories differ in channel count: {counts}")
    lo = np.min([t.values.min(axis=0) for t in dataset], axis=0)
    hi = np.max([t.values.max(axis=0) for t in dataset], axis=0)
    flat = np.flatnonzero(hi == lo)
    if flat.size:
        raise DataError(f"max must exceed min in every channel, but channel {flat[0]} is constant")
    return GlobalRange(lo, hi)


# The most bins ``discretize`` takes: up to 2**53, n_bins - 1 is exact in
# float64, so the clamped bin index casts to int64 without overflow.
MAX_BINS = 2**53


def discretize(traj: Trajectory, grange: GlobalRange, n_bins: int = 256) -> SymbolSequence:
    """Uniform binning: bin(v) = clamp(floor((v-min)/(max-min)*n_bins), 0, n_bins-1).

    Out-of-range values clamp rather than error: perturbed continuous values
    may exceed the envelope the range was fit on.  Multichannel trajectories
    flatten row-major (time-major) into one symbol stream.
    """
    if grange.minimum.shape[0] != traj.channels:
        raise DataError(
            f"range has {grange.minimum.shape[0]} channels but the trajectory has {traj.channels}"
        )
    scaled = (traj.values - grange.minimum) / grange.width * n_bins
    bins = np.clip(np.floor(scaled), 0, n_bins - 1).astype(np.int64)
    return SymbolSequence(bins.reshape(-1), bins_alphabet(n_bins))


# -- dynamical fidelity ----------------------------------------------------

LLE_MIN_WINDOW = 50
_SEP_FLOOR = 1e-300


@dataclass(frozen=True)
class LLEResult:
    lle: float                  # per unit time
    window: tuple[int, int]     # fitted step range [start, end)


def estimate_lle(traj_a: Trajectory, traj_b: Trajectory) -> LLEResult:
    """Largest Lyapunov exponent from twin trajectories.

    The estimate is the least-squares slope of log separation versus time
    over the pre-saturation window.  Identical trajectories give exactly 0
    (the floored separation is constant).
    """
    if traj_a.values.shape != traj_b.values.shape:
        raise DataError("twin trajectories must share shape")
    if traj_a.dt != traj_b.dt:
        raise DataError("twin trajectories must share dt")
    sep = np.linalg.norm(traj_a.values - traj_b.values, axis=1)
    sep = np.maximum(sep, _SEP_FLOOR)
    log_sep = np.log(sep)
    sep_max = sep.max()
    if sep_max <= 2.0 * sep[0]:
        # no meaningful growth (contracting or flat twins): fit everything
        end = sep.size
    else:
        end = int(np.argmax(sep >= 0.1 * sep_max)) + 1
        end = max(end, 2)
    if end < LLE_MIN_WINDOW:
        raise DataError(f"linear window {end} steps < {LLE_MIN_WINDOW}; reduce the initial offset")
    if np.ptp(log_sep[:end]) == 0.0:
        return LLEResult(0.0, (0, end))   # constant separation
    t = np.arange(end) * traj_a.dt
    slope = np.polyfit(t, log_sep[:end], 1)[0]
    return LLEResult(float(slope), (0, end))


@dataclass(frozen=True)
class ButterflyResult:
    passed: bool
    bounds_ok: bool
    n_lobe_switches: int
    mean_dwell_steps: float
    min_lobe_occupancy: float
    mean_z_at_switch: float


# Attractor envelope from a long canonical reference integration.
BUTTERFLY_BOUNDS = {"x": 25.0, "y": 30.0, "z": (0.0, 55.0)}
BUTTERFLY_MIN_SWITCHES = 3
BUTTERFLY_MIN_DWELL = 10.0      # steps; noise alternates every ~2
BUTTERFLY_MIN_OCCUPANCY = 0.1
BUTTERFLY_Z_SWITCH = 10.0


def butterfly_test(traj: Trajectory) -> ButterflyResult:
    """Structural check that a 3-channel series lives on the two-lobe attractor.

    Pass requires the attractor envelope to hold and lobe alternation
    statistics consistent with chaotic switching: several sign changes of x,
    long dwell within a lobe, both lobes visited, switches at elevated z.
    """
    if traj.channels != 3:
        raise DataError("butterfly test expects a 3-channel trajectory")
    x, y, z = traj.values.T
    bounds_ok = bool(
        (np.abs(x) < BUTTERFLY_BOUNDS["x"]).all()
        and (np.abs(y) < BUTTERFLY_BOUNDS["y"]).all()
        and (z > BUTTERFLY_BOUNDS["z"][0]).all()
        and (z < BUTTERFLY_BOUNDS["z"][1]).all()
    )
    sign = np.sign(x)
    sign[sign == 0] = 1
    switches = np.nonzero(np.diff(sign) != 0)[0]
    n_switch = int(switches.size)
    if n_switch:
        dwell = float(np.mean(np.diff(np.concatenate([[0], switches, [x.size - 1]]))))
        z_at = float(np.mean(z[switches]))
    else:
        dwell = float(x.size)
        z_at = 0.0
    occupancy = float(min((sign > 0).mean(), (sign < 0).mean()))
    passed = (
        bounds_ok
        and n_switch >= BUTTERFLY_MIN_SWITCHES
        and dwell >= BUTTERFLY_MIN_DWELL
        and occupancy >= BUTTERFLY_MIN_OCCUPANCY
        and z_at > BUTTERFLY_Z_SWITCH
    )
    return ButterflyResult(passed, bounds_ok, n_switch, dwell, occupancy, z_at)
