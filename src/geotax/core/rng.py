"""Deterministic random number streams.

All randomized operations take a :class:`SeedSpec` (seed + purpose tag) and
draw from a counter-based Philox generator, so identical specs produce
identical draws on every platform and independent purpose tags produce
independent streams.  The canonical experiment seed throughout the
toolkit is 320.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_SEED = 320


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash; used for stream keys and cache keys."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _U64
    return h


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible stream identity: a 64-bit seed plus a purpose tag.

    Identical (seed, stream) pairs yield byte-identical downstream output.
    ``derive`` splits off an independent child stream, e.g. one per
    bootstrap replicate or per trajectory.
    """

    seed: int = DEFAULT_SEED
    stream: str = "main"

    def __post_init__(self):
        if not 0 <= int(self.seed) <= _U64:
            raise ConfigError(f"seed {self.seed} must fit in 64 bits (0 to 2**64 - 1)")

    @classmethod
    def coerce(cls, seed: "SeedSpec | int") -> "SeedSpec":
        """``seed`` itself if it is a spec, else ``SeedSpec(int(seed))``."""
        return seed if isinstance(seed, SeedSpec) else cls(int(seed))

    def derive(self, tag: str | int) -> "SeedSpec":
        return SeedSpec(self.seed, f"{self.stream}/{tag}")

    def key(self) -> int:
        """128-bit Philox key combining seed and hashed stream tag."""
        return (int(self.seed) & _U64) | (fnv1a64(self.stream) << 64)


def rng_create(spec: SeedSpec | int) -> np.random.Generator:
    """Create the deterministic generator for a spec.

    Counter-based (Philox), so draws are reproducible across platforms and
    numpy versions within the supported range.  Passing a bare int is
    shorthand for ``SeedSpec(seed)``.
    """
    return np.random.Generator(np.random.Philox(key=SeedSpec.coerce(spec).key()))
