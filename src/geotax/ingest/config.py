"""Flat ``key = value`` configuration files.

Sections come from dotted key prefixes (``stability.n_splits = 30``);
``#`` starts a comment; blank lines are ignored.  Errors carry line
numbers.  The format is trivially parseable and diff-friendly.
"""

from __future__ import annotations

from pathlib import Path

from ..core.io import read_text
from ..errors import ConfigError


class Config:
    def __init__(self, values: dict[str, str], source: str = "<memory>"):
        self.values = values
        self.source = source

    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "Config":
        values: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "\0" in line:
                raise ConfigError(f"{source}:{lineno}: NUL byte in {raw!r}")
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{source}:{lineno}: empty key")
            if key in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            values[key] = value
        return cls(values, source)

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        return cls.parse(read_text(path, ConfigError), str(path))

    def dump(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in self.values)

    # typed getters -------------------------------------------------------

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return self.values[key]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_int(
        self, key: str, default: int | None = None, minimum: int | None = None
    ) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.source}: key {key!r}: {raw!r} is not an integer") from exc
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.source}: key {key!r}: {value} is below {minimum}")
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.source}: key {key!r}: {raw!r} is not a number") from exc

    def get_bool(self, key: str) -> bool:
        """The key's boolean value; False when the key is absent."""
        raw = self.values.get(key)
        if raw is None:
            return False
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{self.source}: key {key!r}: {raw!r} is not a boolean")

    def section(self, prefix: str) -> dict[str, str]:
        dotted = prefix.rstrip(".") + "."
        return {k[len(dotted):]: v for k, v in self.values.items() if k.startswith(dotted)}
