"""Deterministic chunked execution.

Work is always split into fixed-size chunks keyed by chunk index, never
by worker count, so outputs are identical whether chunks run serially or
on a pool. QTOMO_THREADS caps the pool; unset it falls back to the
machine size, at most 8.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, TypeVar

from .errors import UsageError

T = TypeVar("T")

CHUNK_SHOTS = 1 << 16


def max_workers() -> int:
    """The pool size: QTOMO_THREADS, an integer >= 1, else the default when unset or empty."""
    env = os.environ.get("QTOMO_THREADS", "").strip()
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"QTOMO_THREADS must be an integer >= 1, got {env!r}")
    return workers


def chunk_map(fn: Callable[[int], T], n_chunks: int) -> List[T]:
    """fn(0..n_chunks-1), results returned in index order."""
    workers = min(max_workers(), n_chunks)
    if n_chunks <= 1 or workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))
