"""In-memory spans recorded by wrappers installed around program functions.

A span has a name, a start, an end and the index of the span that was open
when it began (its parent).  A span's self time is its duration minus the
durations of its child spans.  Spans stay in memory until the bench turns
them into metrics; nothing here writes files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Records spans of wrapped calls made in this process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count=None, rusage: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(bound_args, result)`` returns counts to add to the span.
        ``rusage`` adds this process's and its reaped children's CPU seconds
        spent during the call as the ``self_cpu_s`` and ``children_cpu_s``
        counts.
        """
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            if rusage:
                cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            span = Span(name, self.clock(), parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if rusage:
                span.counts["self_cpu_s"] = _cpu(resource.RUSAGE_SELF) - cpu0[0]
                span.counts["children_cpu_s"] = _cpu(resource.RUSAGE_CHILDREN) - cpu0[1]
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(count(bound, result))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its child spans."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


@dataclass(frozen=True)
class Layer:
    """One wrapped function: span name, defining module and attribute path
    (``Class.method`` for methods), and an optional count hook."""

    name: str
    module: str
    attr: str
    count: Callable | None = None
    rusage: bool = False


def install(tracer: Tracer, layers) -> Callable[[], None]:
    """Wrap each layer's function at every ``geotax`` module that binds it
    by name, and at its class for methods.  Returns a function that puts
    the originals back.  A layer whose function no longer exists is skipped
    with a warning; its metrics then read 0."""
    patched = []
    for layer in layers:
        *path, attr = layer.attr.split(".")
        try:
            owner = importlib.import_module(layer.module)
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError) as exc:
            print(f"warning: layer {layer.name} not wrapped: {exc!r}", file=sys.stderr)
            continue
        wrapper = tracer.wrap(layer.name, original, layer.count, layer.rusage)
        if path:
            targets = [(owner, attr)]
        else:
            targets = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if mod_name == "geotax" or mod_name.startswith("geotax.")
                for key, value in list(vars(module).items())
                if value is original
            ]
        for obj, key in targets:
            patched.append((obj, key, original))
            setattr(obj, key, wrapper)

    def restore() -> None:
        for obj, key, original in reversed(patched):
            setattr(obj, key, original)

    return restore
