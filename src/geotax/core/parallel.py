"""Deterministic fan-out helper and the one home of BLAS thread control.

Results are collected in submission order (a fixed-order reduction), so
output is independent of worker count and completion order.  Mapped
calls run on one OpenBLAS thread, in worker processes and inline alike:
the MINE networks' small matrix products only slow down when BLAS starts
threads of its own.  Everything outside ``ordered_map`` keeps the
process's BLAS threads.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


@functools.cache
def _openblas_threads_api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy ships no scipy-openblas library with both symbols."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            blas = ctypes.CDLL(str(lib))
            get = blas.scipy_openblas_get_num_threads64_
            set_ = blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _pin_blas() -> None:
    """Pool initializer: one BLAS thread for the worker's whole life."""
    api = _openblas_threads_api()
    if api is not None:
        api[1](1)


@contextmanager
def single_thread_blas() -> Iterator[None]:
    """Run the body on one OpenBLAS thread, then restore the caller's
    count, also when the body raises.  Does nothing without the library."""
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """Map preserving input order, each call on one BLAS thread.  With more
    than one worker and item the calls fan out to worker processes, so fn
    and items must be picklable; otherwise they run inline in this process,
    which gets its BLAS thread count back when the map returns or raises."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        with single_thread_blas():
            return [fn(it) for it in items]
    # imported here: the pool machinery costs every CLI start-up otherwise
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                             initializer=_pin_blas) as pool:
        futures = [pool.submit(fn, it) for it in items]
        return [f.result() for f in futures]
