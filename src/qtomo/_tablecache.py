"""A per-user on-disk copy of each table whose bytes depend only on its key and this build.

The cache is $XDG_CACHE_HOME/qtomo, or ~/.cache/qtomo when that is unset, empty
or relative, with one file per key. A file's name is the key's label and the
SHA-256 of the key and of fingerprint(): everything besides the key that the
bytes depend on and this process can read. The file holds the SHA-256 of the
table's bytes, then the table as a .npy. A file that is missing, unreadable,
short, or whose checksum, shape or dtype does not match is a miss: the caller's
build runs as it would without a cache, and its table is written through a
unique temporary file and os.replace, so that a reader sees a whole file or
none. An OSError on either path means no cache, never an error.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import platform
import tempfile
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from . import _parallel


def directory() -> Optional[Path]:
    """Where the tables live; None where no absolute path names it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "qtomo") if os.path.isabs(base) else None


@functools.lru_cache(maxsize=None)
def fingerprint() -> str:
    """The package's .py sources, numpy's version and the CPU features it dispatches on,
    the OpenBLAS core and the C library, as one string."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    package = Path(__file__).resolve().parent
    sources = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        sources.update(path.relative_to(package).as_posix().encode() + b"\0")
        sources.update(hashlib.sha256(path.read_bytes()).digest())
    features = sorted(name for name, on in __cpu_features__.items() if on)
    return repr((sources.hexdigest(), np.__version__, features, _parallel.blas_corename(),
                 platform.libc_ver()))


def _load(path: Path, shape: Tuple[int, ...], dtype) -> Optional[np.ndarray]:
    """The table stored at path, or None if it is not there whole."""
    try:
        with open(path, "rb") as fh:
            digest = fh.read(hashlib.sha256().digest_size)
            table = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if (table.shape != shape or table.dtype != dtype or not table.flags.c_contiguous
            or hashlib.sha256(table).digest() != digest):
        return None
    return table


def _store(path: Path, table: np.ndarray) -> None:
    """Write table to path whole or not at all."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
        with os.fdopen(fd, "wb") as fh:
            fh.write(hashlib.sha256(table).digest())
            np.lib.format.write_array(fh, table, allow_pickle=False)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def cached(key: tuple, shape: Tuple[int, ...], dtype,
           build: Callable[[], np.ndarray]) -> np.ndarray:
    """The table stored under key (its first entry a label), else build()'s, a C-contiguous
    array that is then stored under key."""
    try:
        base = directory()
        name = hashlib.sha256(repr((key, fingerprint())).encode()).hexdigest()
    except OSError:
        base = None
    path = None if base is None else base / f"{key[0]}-{name}.table"
    table = None if path is None else _load(path, shape, dtype)
    if table is None:
        table = build()
        if path is not None:
            _store(path, table)
    return table
