"""Perturbation suite: value noise, time reversal, symbol substitution
and reverse complement.

Every rate-based perturbation touches exactly ceil(rate * L) positions,
chosen without replacement, so "1% noise" on a 512-step series perturbs
exactly 6 positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core.rng import SeedSpec, rng_create
from .core.sequence import SymbolSequence, reverse_complement
from .dynamics import Trajectory
from .errors import ConfigError, DataError

KINDS = ("value_noise", "time_reverse", "reverse", "substitute", "reverse_complement")


@dataclass(frozen=True)
class PerturbationSpec:
    """What to do, how much of the input to touch, and under which seed."""

    kind: str                    # one of KINDS
    rate: float = 0.0            # fraction of positions in [0, 1]
    magnitude: float = 1.0       # noise scale (fraction of each channel's range)
    seed: SeedSpec = SeedSpec()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown perturbation kind {self.kind!r}; choose from {', '.join(KINDS)}"
            )
        # rate and magnitude are the `perturb` flags of the same names
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"--rate must lie in [0, 1], got {self.rate}")
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ConfigError(f"--magnitude must be finite and >= 0, got {self.magnitude}")


def n_positions(rate: float, length: int) -> int:
    """Ceiling convention: 1% of 512 perturbs 6 positions."""
    return min(length, math.ceil(rate * length))


def value_noise(traj: Trajectory, spec: PerturbationSpec) -> Trajectory:
    """Additive Gaussian noise at ceil(rate*T) time positions.

    Noise sigma is magnitude times the trajectory's own per-channel
    envelope (max - min, 1 for a flat channel), so "1% noise" is
    comparable across datasets.
    """
    count = n_positions(spec.rate, traj.length)
    if count == 0 or spec.magnitude == 0.0:
        return traj
    width = np.ptp(traj.values, axis=0)
    width[width == 0] = 1.0
    rng = rng_create(spec.seed.derive("value-noise"))
    pos = rng.choice(traj.length, size=count, replace=False)
    out = traj.values.copy()
    out[pos] += rng.standard_normal((count, traj.channels)) * spec.magnitude * width
    return Trajectory(out, traj.dt)


def substitute(seq: SymbolSequence, spec: PerturbationSpec) -> SymbolSequence:
    """Replace ceil(rate*L) positions by a uniformly random different symbol."""
    if seq.alphabet.size < 2:
        raise DataError("substitution needs an alphabet of size >= 2")
    count = n_positions(spec.rate, len(seq))
    if count == 0:
        return seq
    rng = rng_create(spec.seed.derive("substitute"))
    pos = rng.choice(len(seq), size=count, replace=False)
    out = seq.symbols.copy()
    # draw from size-1 alternatives, then shift past the original symbol
    draw = rng.integers(0, seq.alphabet.size - 1, size=count)
    out[pos] = np.where(draw >= out[pos], draw + 1, draw)
    return seq.replace(out)


def time_reverse(x: Trajectory | SymbolSequence):
    """Index reversal; involutive; works on either input type."""
    if isinstance(x, Trajectory):
        return Trajectory(x.values[::-1], x.dt)
    return x.replace(x.symbols[::-1])


def apply_perturbation(x: Trajectory | SymbolSequence, spec: PerturbationSpec):
    """Dispatch a spec onto the matching operation."""
    kind = spec.kind
    if kind == "value_noise":
        if not isinstance(x, Trajectory):
            raise DataError("value_noise needs a continuous trajectory")
        return value_noise(x, spec)
    if kind in ("time_reverse", "reverse"):
        return time_reverse(x)
    if kind == "substitute":
        if not isinstance(x, SymbolSequence):
            raise DataError("substitute needs a symbol sequence")
        return substitute(x, spec)
    # reverse_complement, the last of KINDS
    if not isinstance(x, SymbolSequence):
        raise DataError("reverse_complement needs a symbol sequence")
    return reverse_complement(x)
