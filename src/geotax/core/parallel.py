"""Deterministic fan-out helper.

Results are collected in submission order (a fixed-order reduction), so
output is independent of worker count and completion order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """Map preserving input order.  With more than one worker and item the
    calls fan out to worker processes, so fn and items must be picklable;
    otherwise they run inline in this process."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = [pool.submit(fn, it) for it in items]
        return [f.result() for f in futures]
