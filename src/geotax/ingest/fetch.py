"""Genome sequence acquisition with caching and a replaceable transport.

The HTTP layer is the module's ``default_transport(url) -> (status, bytes)``,
which tests replace with recorded responses; no live network is touched in
CI.  Fetched spans are cached on disk keyed by the canonical parameter
hash, and a synthetic source provides deterministic sequences offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.rng import SeedSpec, rng_create
from ..core.sequence import DNA, SymbolSequence
from ..errors import ConfigError, DataError, NetworkError
from .cache import ResultCache, cache_key

GENOME_API = "https://api.genome.ucsc.edu/getData/sequence"
MAX_N_FRACTION = 0.05


@dataclass(frozen=True)
class FetchSpec:
    """Where a sequence comes from and how ambiguity is handled."""

    source: str = "genome-rest"        # genome-rest | synthetic
    assembly: str = "hg38"
    chromosome: str = "chr22"
    start: int = 0
    end: int = 0
    n_policy: str = "reject"           # reject | replace
    seed: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self):
        if self.start < 0 or self.end < 0:
            raise ConfigError(f"fetch span must not be negative, got {self.start}-{self.end}")
        if self.end <= self.start:
            raise ConfigError(f"fetch span needs end > start, got {self.start}-{self.end}")
        if self.n_policy not in ("reject", "replace"):
            raise ConfigError("n_policy must be 'reject' or 'replace'")

    @property
    def length(self) -> int:
        return self.end - self.start


def default_transport(url: str) -> tuple[int, bytes]:
    import requests

    resp = requests.get(url, timeout=60)
    return resp.status_code, resp.content


def _apply_n_policy(text: str, spec: FetchSpec) -> SymbolSequence:
    text = text.upper()
    n_count = sum(1 for ch in text if ch not in "ACGT")
    if n_count:
        frac = n_count / len(text)
        if spec.n_policy == "reject" and frac > MAX_N_FRACTION:
            raise DataError(f"{frac:.1%} ambiguous bases exceeds the {MAX_N_FRACTION:.0%} budget")
        rng = rng_create(spec.seed.derive("n-replace"))
        letters = list(text)
        for i, ch in enumerate(letters):
            if ch not in "ACGT":
                letters[i] = "ACGT"[rng.integers(4)]
        text = "".join(letters)
    return SymbolSequence.from_string(text, DNA)


def synthetic_sequence(length: int, seed: SeedSpec) -> SymbolSequence:
    """Deterministic uniform DNA for offline runs."""
    rng = rng_create(seed.derive("synthetic-dna"))
    return SymbolSequence(rng.integers(0, 4, size=length), DNA)


def fetch_genome(spec: FetchSpec, cache: ResultCache) -> SymbolSequence:
    """Fetch a genomic span, serving repeats from the on-disk cache.

    The raw remote payload is cached before the N policy applies, so policy
    changes never require refetching.
    """
    if spec.source == "synthetic":
        return synthetic_sequence(spec.length, spec.seed)
    if spec.source != "genome-rest":
        raise ConfigError(f"fetch_genome cannot serve source {spec.source!r}")
    key = cache_key(
        "fetch-genome",
        assembly=spec.assembly,
        chromosome=spec.chromosome,
        start=spec.start,
        end=spec.end,
    )
    raw = cache.get(key)
    if raw is None:
        url = (
            f"{GENOME_API}?genome={spec.assembly}"
            f";chrom={spec.chromosome};start={spec.start};end={spec.end}"
        )
        try:
            status, body = default_transport(url)
        except OSError as exc:  # requests errors subclass IOError
            raise NetworkError(f"fetch failed: {exc}") from exc
        if status != 200:
            raise NetworkError(f"genome endpoint returned {status}")
        raw = body
        cache.put(key, raw)
    try:
        payload = json.loads(raw.decode("utf-8"))
        text = payload["dna"]
    except (ValueError, KeyError) as exc:
        raise DataError("unrecognized genome endpoint payload") from exc
    if len(text) != spec.length:
        raise NetworkError(f"endpoint served {len(text)} bases for a {spec.length}-base span")
    return _apply_n_policy(text, spec)

