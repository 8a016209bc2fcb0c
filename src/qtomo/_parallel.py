"""Deterministic chunked execution.

Work is always split into fixed-size pieces keyed by index, never by
worker count, so outputs are identical whether the pieces run serially
or on a pool. The samplers draw their randomness per CHUNK_SHOTS =
65,536-shot Philox chunk and solve it in fixed 8,192-row blocks
(sampler.ROW_BLOCK), small because each worker's arena keeps its block's
transients. chunk_map serves the samplers alone; the homodyne pattern
table (estimators.homodyne._f_at) builds serially under _one_blas_thread.

QTOMO_THREADS caps the pool; unset, it falls back to the CPUs this process
may run on, at most 8. cli.main reads it once at entry, so every command
refuses a bad value. While a pool of two or more workers runs, numpy's
bundled OpenBLAS runs one thread per worker, so the pool, not BLAS, owns
the cores; the previous BLAS count comes back when the pool ends.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

from .errors import UsageError

T = TypeVar("T")

CHUNK_SHOTS = 1 << 16

_BLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_BLAS_SUFFIXES = ("64_", "")


def max_workers() -> int:
    """The pool size: QTOMO_THREADS, an integer >= 1, else the default when unset or empty."""
    env = os.environ.get("QTOMO_THREADS", "").strip()
    if not env:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        return min(8, cpus or 1)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"QTOMO_THREADS must be an integer >= 1, got {env!r}")
    return workers


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[ctypes.CDLL, str, str]]:
    """numpy's bundled OpenBLAS with its symbol prefix and suffix; None where it is not found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _BLAS_PREFIXES:
            for suffix in _BLAS_SUFFIXES:
                if (hasattr(lib, f"{prefix}get_num_threads{suffix}")
                        and hasattr(lib, f"{prefix}set_num_threads{suffix}")):
                    return lib, prefix, suffix
    return None


def _blas_function(name: str, restype, argtypes) -> Optional[Callable]:
    """OpenBLAS's function name (without its prefix and suffix); None where it is not found."""
    found = _openblas()
    if found is None:
        return None
    lib, prefix, suffix = found
    fn = getattr(lib, f"{prefix}{name}{suffix}", None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


@functools.lru_cache(maxsize=None)
def _blas_threads_api() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of numpy's bundled OpenBLAS; None where it is not found."""
    if _openblas() is None:
        return None
    return (_blas_function("get_num_threads", ctypes.c_int, []),
            _blas_function("set_num_threads", None, [ctypes.c_int]))


def blas_corename() -> Optional[str]:
    """The CPU core whose kernels numpy's bundled OpenBLAS runs; None where it is not found."""
    fn = _blas_function("get_corename", ctypes.c_char_p, [])
    return None if fn is None else fn().decode("ascii", "replace")


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold OpenBLAS at one thread; the outermost of nested or concurrent holds restores it."""
    global _blas_depth, _blas_saved
    api = _blas_threads_api()
    if api is None:
        yield
        return
    get, put = api
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                put(_blas_saved)


def chunk_map(fn: Callable[[int], T], n_chunks: int) -> List[T]:
    """fn(0..n_chunks-1), results returned in index order."""
    workers = min(max_workers(), n_chunks)
    if n_chunks <= 1 or workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))
