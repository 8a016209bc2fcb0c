"""Summary statistics and the per-run correctness gate.

The gate never raises on a wrong output: each check returns a list of
problems, and the caller counts the operation as failed when the list is
not empty, so one bad command does not abort the run.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import List, Optional, Sequence, Tuple

import numpy as np

from workloads import HOMODYNE_REG_EPS, PINNED_SEED, Workload

Z_LIMIT = 5.0
CSV_HEADER = b"quorum,s1,s2,s3,o1\n"


# statistics ----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a constant 0)."""
    q1, q3 = quartiles(values)
    med = median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted operation")
    return failed / attempted


# files -----------------------------------------------------------------------

def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def state_matrix(doc: dict) -> np.ndarray:
    """Density matrix of a qtomo state document."""
    dim = doc["dim"]
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    return flat.reshape(dim, dim)


def check_state_file(path, wl: Workload) -> List[str]:
    digest = sha256_file(path)
    if digest != wl.state_sha256:
        return [f"state file sha256 {digest[:12]} != recorded {wl.state_sha256[:12]}"]
    return []


def check_csv(path, wl: Workload, seed: int) -> List[str]:
    """Byte-identical to the recorded digest at the pinned seed; shape otherwise."""
    if seed == PINNED_SEED:
        digest = sha256_file(path)
        if digest != wl.csv_sha256:
            return [f"records sha256 {digest[:12]} != recorded {wl.csv_sha256[:12]}"]
        return []
    with open(path, "rb") as fh:
        header = fh.readline()
        rows = sum(1 for _ in fh)
    problems = []
    if header != CSV_HEADER:
        problems.append(f"unexpected CSV header {header!r}")
    if rows != wl.shots:
        problems.append(f"{rows} CSV rows, expected {wl.shots}")
    return problems


# statistical checks -----------------------------------------------------------

def z_score(mean: complex, se: float, expected: complex) -> float:
    """|mean - expected| in standard errors; an exact zero error needs an exact mean."""
    dev = abs(complex(mean) - complex(expected))
    if se > 0:
        return dev / se
    return 0.0 if dev < 1e-9 else float("inf")


def expected_observable(wl: Workload, rho: np.ndarray) -> complex:
    """Tr[rho A] for the workload's observable, plus the homodyne <n> bias."""
    obs = wl.observable
    if obs == "number":
        value = complex(np.sum(np.arange(rho.shape[0]) * np.diag(rho).real))
        if wl.method == "homodyne":
            value += 4.0 * HOMODYNE_REG_EPS
        return value
    if obs.startswith("matrix_unit:"):
        k, n = (int(x) for x in obs.split(":", 1)[1].split(","))
        return complex(rho[k, n])  # matrix_unit:K,N estimates <K|rho|N>
    raise ValueError(f"no reference value for observable {obs!r}")


def check_reconstruction(doc: dict, rho: np.ndarray,
                         shots: int) -> Tuple[Optional[float], List[str]]:
    """Every reachable element within Z_LIMIT standard errors of the reference.

    Kerr results omit the diagonal, which the method cannot reach, so only
    the elements present in the document are checked.
    """
    problems = []
    elements = doc.get("elements") or []
    if not elements:
        return None, ["reconstruction holds no elements"]
    max_z = 0.0
    for el in elements:
        k, n = el["k"], el["n"]
        if el["n_samples"] != shots:
            problems.append(f"element ({k},{n}) used {el['n_samples']} of {shots} records")
        z = z_score(complex(*el["mean"]), el["std_error"], rho[k, n])
        max_z = max(max_z, z)
        if not z <= Z_LIMIT:
            problems.append(f"element ({k},{n}) is {z:.2f} se from the reference")
    return max_z, problems


def check_estimate(doc: dict, expected: complex,
                   shots: int) -> Tuple[float, List[str]]:
    problems = []
    if doc.get("n_samples") != shots:
        problems.append(f"estimate used {doc.get('n_samples')} of {shots} records")
    z = z_score(complex(*doc["mean"]), doc["std_error"], expected)
    if not z <= Z_LIMIT:
        problems.append(f"estimate is {z:.2f} se from Tr[rho A] = {expected:.6g}")
    return z, problems
