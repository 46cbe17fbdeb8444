"""Flat ``key = value`` configuration files, and the key table they are
checked against.

Sections come from dotted key prefixes (``stability.n_splits = 30``);
``#`` starts a comment; blank lines are ignored.  Errors carry line
numbers.  The format is trivially parseable and diff-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..core.io import read_text
from ..errors import ConfigError


def boolean(raw: str) -> bool:
    return {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}[raw.lower()]


def int_list(raw: str) -> tuple:
    return tuple(int(s) for s in raw.split(","))


# what each parser reads, for the message that refuses a value
EXPECTED = {int: "an integer", float: "a number", boolean: "a boolean",
            int_list: "a comma-separated integer list"}


@dataclass(frozen=True)
class Key:
    """One config key: its flag, the experiments that read it with their
    defaults, its parser and bound, and the keys (``key`` or ``key=value``)
    with which it goes unread.  A ``.<name>`` or ``.<i>`` key is a family:
    the keys under its prefix, by name or by position."""

    key: str
    flag: str | None
    reads: dict
    parse: Callable = str
    minimum: int | None = None
    choices: tuple = ()
    required: bool = False
    unread_with: tuple = ()
    help: str | None = None

    @property
    def dest(self) -> str:
        """The key, or a family's prefix without its dot."""
        return self.key.rsplit(".<", 1)[0]


class Settings(dict):
    """Every key one experiment reads, typed, as given or defaulted; a
    family holds its items by name, in config order."""

    def __init__(self, values: dict, source: str):
        super().__init__(values)
        self.source = source


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
        """The config echo, one ``key = value`` line per item in order.  An
        item that ``parse`` would not read back is refused, so a report's
        echo always reruns the config that made it."""
        lines = []
        for key, value in self.values.items():
            line = f"{key} = {value}\n"
            try:
                echoed = Config.parse(line).values
            except ConfigError:
                echoed = None
            if echoed != {key: value}:
                raise ConfigError(f"{key!r} = {value!r} would not read back from the config "
                                  "echo; it may hold no '#', line break, or space at either end")
            lines.append(line)
        return "".join(lines)

    def check(self, keys, experiment: str) -> Settings:
        """The settings ``experiment`` reads, each parsed, bounded and
        defaulted by its row of ``keys``.  A key no row of the experiment
        declares, a value that does not parse or lies outside its bound or
        choices, a missing required key and a key given where it goes
        unread are each a ``ConfigError`` naming the key.  ``experiment``
        itself names the rows and is no setting."""
        rows = {row.key: row for row in keys if experiment in row.reads}
        values = {key: row.reads[experiment] for key, row in rows.items()}
        for key, raw in self.values.items():
            row = rows.get(key) or next((r for r in rows.values() if r.dest != r.key
                                         and key.startswith(r.dest + ".")), None)
            if row is None and key == "experiment":
                continue
            if row is None:
                raise ConfigError(f"{self.source}: unknown key {key!r} for experiment "
                                  f"{experiment}")
            try:
                value = row.parse(raw)
            except (KeyError, ValueError):
                raise ConfigError(f"{self.source}: key {key!r}: {raw!r} is not "
                                  f"{EXPECTED[row.parse]}") from None
            if row.minimum is not None and value < row.minimum:
                raise ConfigError(f"{self.source}: key {key!r}: {value} is below {row.minimum}")
            if row.choices and value not in row.choices:
                raise ConfigError(f"{self.source}: key {key!r}: {value!r} is not one of "
                                  f"{', '.join(row.choices)}")
            if row.dest == row.key:
                values[key] = value
            else:  # a new dict, so the row's default stays empty
                values[row.key] = {**values[row.key], key[len(row.dest) + 1:]: value}

        def holds(condition: str) -> bool:  # ``key`` is set, or ``key=value`` holds
            key, sep, value = condition.partition("=")
            return key in rows and (values[key] == rows[key].parse(value) if sep
                                    else values[key] is not None)

        for key, row in rows.items():
            unread = next((condition for condition in row.unread_with if holds(condition)), None)
            if unread and key in self.values:
                other = unread.partition("=")[0]
                raise ConfigError(f"{self.source}: key {key!r} goes unread with "
                                  f"{other} = {self.values.get(other, values[other])}")
            if row.required and not unread and values[key] in (None, {}):
                raise ConfigError(f"{self.source}: missing required key {key!r}")
        return Settings(values, self.source)
