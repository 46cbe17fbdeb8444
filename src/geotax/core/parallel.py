"""Deterministic fan-out helper.

Results are collected in submission order (a fixed-order reduction), so
output is independent of worker count and completion order.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def _single_thread_blas() -> None:
    """Pin numpy's bundled OpenBLAS to one thread in this process.

    Worker processes already run in parallel, and their small matrix
    products slow down when each also starts BLAS threads.  Does nothing
    when numpy ships no scipy-openblas library or it lacks the symbol.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """Map preserving input order.  With more than one worker and item the
    calls fan out to worker processes, each on single-threaded BLAS, so fn
    and items must be picklable; otherwise they run inline in this
    process."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                             initializer=_single_thread_blas) as pool:
        futures = [pool.submit(fn, it) for it in items]
        return [f.result() for f in futures]
