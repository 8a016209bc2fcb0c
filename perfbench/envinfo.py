"""Environment block recorded with every benchmark result.

Run as a script it prints the block as one JSON line; it must run in the
same environment as the measured commands (PYTHONPATH pointing at the
checkout's src/) so that the thread counts it reports are theirs.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

_BLAS_THREAD_FUNCS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                      "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIG_FUNCS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                      "openblas_get_config64_", "openblas_get_config")


def _getconf(name: str) -> int:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=False).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return 0


def _blas_call(funcs, restype):
    """Call the first exported function found in numpy's bundled OpenBLAS."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in funcs:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_threads() -> int:
    """OpenBLAS thread count of this process; 0 when the library is not found."""
    n = _blas_call(_BLAS_THREAD_FUNCS, ctypes.c_int)
    return int(n) if n is not None else 0


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy
    from qtomo._parallel import CHUNK_SHOTS, max_workers

    numpy.linalg.eigvalsh(numpy.eye(2))  # make sure BLAS is loaded and initialised
    config = _blas_call(_BLAS_CONFIG_FUNCS, ctypes.c_char_p)
    return {
        "nproc": os.cpu_count(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config.decode() if config else "unknown",
        "blas_threads": blas_threads(),
        "QTOMO_THREADS": os.environ.get("QTOMO_THREADS", ""),
        "max_workers": max_workers(),
        "CHUNK_SHOTS": CHUNK_SHOTS,
        "git_commit": _git_commit(root),
    }


if __name__ == "__main__":
    print(json.dumps(environment(Path(sys.argv[1]))))
