"""Deterministic result cache.

Entries are keyed by the FNV-1a 64 hash of a canonical parameter string
(which includes the tool version, so format changes invalidate cleanly).
Writes are atomic (write-temp-then-rename), so concurrent runs never see
partial entries.  A cache hit is byte-identical to the cold result.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .. import __version__
from ..core.rng import fnv1a64

ENV_CACHE_DIR = "GEOTAX_CACHE"


def canonical_key_string(operation: str, **params) -> str:
    parts = [f"geotax/{__version__}", operation]
    parts.extend(f"{k}={params[k]}" for k in sorted(params))
    return "|".join(parts)


def cache_key(operation: str, **params) -> str:
    """16-hex-digit key for an expensive operation's parameters."""
    return f"{fnv1a64(canonical_key_string(operation, **params)):016x}"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "geotax"


class ResultCache:
    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path_for(self, key: str) -> Path:
        return self.directory / f"{key}.bin"

    def get(self, key: str) -> bytes | None:
        path = self._path_for(key)
        if path.exists():
            return path.read_bytes()
        return None

    def put(self, key: str, payload: bytes) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self._path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return final
