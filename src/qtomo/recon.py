"""Averaging engine: records + kernels -> expectations and density matrices.

Every estimate flows through a single count/mean/M2 accumulator so that
partitioned streams merge exactly; the merge is associative, which the
concurrency layer relies on. For complex kernels M2 tracks the total
squared deviation |x - mean|^2, whose normalized value is the variance
of the real part plus the variance of the imaginary part.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError, UsageError
from .estimators.homodyne import homodyne_kernel_block
from .estimators.kerr import kerr_kernel_block
from .estimators.parity import check_parity_boundary, parity_kernel_block
from .estimators.spin import pauli_estimate, spin_kernel_block
from .operators import Operator, fock_matrix_unit
from .records import FAMILIES, RecordBatch
from .states import DensityMatrix

__all__ = [
    "EstimationResult",
    "Accumulator",
    "ReconstructedMatrix",
    "estimate",
    "reconstruct_matrix",
    "compare_states",
    "nearest_physical_state",
]

# Bytes of one complex (n, d, d) kernel block in reconstruct_matrix: 8192 records at d = 8.
_BLOCK_BYTES = 8 << 20


@dataclasses.dataclass(frozen=True)
class EstimationResult:
    mean: complex
    std_error: float
    n_samples: int


class Accumulator:
    """Single-pass mean/M2 accumulation over complex values, mergeable."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0j
        self.m2 = 0.0

    def push(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=complex).ravel()
        if v.size == 0:
            return
        cm = complex(v.mean())
        cm2 = float(np.sum(np.abs(v - cm) ** 2))
        self._combine(v.size, cm, cm2)

    def merge(self, other: "Accumulator") -> None:
        self._combine(other.n, other.mean, other.m2)

    def _combine(self, n2: int, mean2: complex, m2_2: float) -> None:
        if n2 == 0:
            return
        n1 = self.n
        n = n1 + n2
        delta = mean2 - self.mean
        self.mean += delta * (n2 / n)
        self.m2 += m2_2 + abs(delta) ** 2 * (n1 * n2 / n)
        self.n = n

    def result(self) -> EstimationResult:
        if self.n < 2:
            raise UsageError("need at least 2 values for a standard error")
        var = max(self.m2, 0.0) / (self.n - 1)
        return EstimationResult(
            mean=complex(self.mean),
            std_error=math.sqrt(var / self.n),
            n_samples=self.n,
        )


def estimate(values: np.ndarray) -> EstimationResult:
    """Ensemble average of per-record kernel values, with its standard error."""
    if len(values) < 2:
        raise UsageError("estimate needs at least 2 records")
    acc = Accumulator()
    acc.push(values)
    return acc.result()


@dataclasses.dataclass(frozen=True)
class ReconstructedMatrix:
    """Per-element estimates for A = |k><n| plus the Hermitized point value.

    elements[k][n] estimates <k|rho|n>; None marks elements the method
    cannot reach (Kerr diagonals). hermitized is (M + M^dag)/2 with
    unreachable elements left at zero.
    """

    dim: int
    method: str
    elements: Tuple[Tuple[Optional[EstimationResult], ...], ...]
    hermitized: np.ndarray
    diagnostics: Dict[str, object]

    def element(self, k: int, n: int) -> Optional[EstimationResult]:
        return self.elements[k][n]


def _block_elements(batch: RecordBatch, block: Callable, dim: int,
                    diagonal: bool = True) -> Dict[Tuple[int, int], EstimationResult]:
    """One pass over the records: per chunk one kernel block, one push per element.

    block(settings, outcomes) is a family's <family>_kernel_block: the
    (n, dim, dim) kernel matrices of n records, whose element [i, k, n]
    estimates <k|rho|n>.
    """
    accs = {(k, n): Accumulator() for k in range(dim) for n in range(dim)
            if diagonal or k != n}
    step = max(1, _BLOCK_BYTES // (16 * dim * dim))
    for lo in range(0, len(batch), step):
        kb = block(batch.settings[lo : lo + step],
                   batch.outcomes[lo : lo + step]).reshape(-1, dim * dim)
        # Element-major copy, in cache-sized slabs: d^2 strided column reads cost more.
        rows = np.empty((dim * dim, kb.shape[0]), dtype=complex)
        for i in range(0, kb.shape[0], 256):
            rows[:, i : i + 256] = kb[i : i + 256].T
        for (k, n), acc in accs.items():
            acc.push(rows[k * dim + n])
    return {key: acc.result() for key, acc in accs.items()}


def reconstruct_matrix(records: RecordBatch, method: str, n_max: int,
                       cfg=None, twice_s: Optional[int] = None,
                       squeeze=None, reference: Optional[DensityMatrix] = None,
                       nearest_physical: bool = False) -> ReconstructedMatrix:
    """Estimate every element <k|rho|n> with k, n <= n_max for the given method.

    n_max is the largest Fock/spin index wanted; the working dimension is
    n_max + 1 and must not exceed what cfg (or 2s+1) supports.
    """
    if method not in FAMILIES:
        raise UsageError(f"unknown method '{method}'; choose from {tuple(FAMILIES)}")
    records.require(method)
    dim = n_max + 1

    if method == "pauli":
        if dim != 2:
            raise UsageError("pauli reconstruction is for n_max = 1")
        results = {(k, n): pauli_estimate(fock_matrix_unit(n, k, 2), records)
                   for k in range(2) for n in range(2)}
    else:
        if method == "spin":
            if twice_s is None or twice_s + 1 != dim:
                raise UsageError("spin reconstruction needs twice_s with 2s = n_max * 2")
            block = functools.partial(spin_kernel_block, twice_s=twice_s)
        else:
            if cfg is None or cfg.dim < dim:
                raise UsageError(f"{method} reconstruction needs cfg with dim > n_max")
            work = dataclasses.replace(cfg, dim=dim) if cfg.dim != dim else cfg
            if method == "homodyne":
                block = functools.partial(homodyne_kernel_block, cfg=work, squeeze=squeeze)
            elif method == "parity":
                check_parity_boundary(None, work)
                block = functools.partial(parity_kernel_block, cfg=work)
            else:
                block = functools.partial(kerr_kernel_block, cfg=work)
        results = _block_elements(records, block, dim, diagonal=method != "kerr")

    elements = tuple(
        tuple(results.get((k, n)) for n in range(dim)) for k in range(dim)
    )
    raw = np.zeros((dim, dim), dtype=complex)
    for (k, n), res in results.items():
        raw[k, n] = res.mean
    herm = 0.5 * (raw + raw.conj().T)

    diagnostics: Dict[str, object] = {"method": method, "n_records": len(records)}
    if method == "kerr":
        diagnostics["diagonal"] = "not estimated"
    else:
        tr = sum(results[(k, k)].mean.real for k in range(dim))
        tr_se = math.sqrt(sum(results[(k, k)].std_error ** 2 for k in range(dim)))
        diagnostics["trace"] = tr
        diagnostics["trace_std_error"] = tr_se
    if reference is not None:
        diagnostics["comparison"] = compare_states(herm, reference)
    if nearest_physical:
        phys = nearest_physical_state(herm)
        diagnostics["nearest_physical_distance"] = float(
            np.linalg.norm(herm - phys.mat)
        )
    return ReconstructedMatrix(
        dim=dim, method=method, elements=elements, hermitized=herm,
        diagnostics=diagnostics,
    )


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, (DensityMatrix, Operator)):
        return x.mat
    return np.asarray(x, dtype=complex)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def compare_states(rho_est, rho_ref) -> Dict[str, float]:
    """Fidelity, trace distance, and sup-norm error of an estimate vs a reference.

    The estimate may be slightly non-physical; any negative eigenvalue
    mass met inside the fidelity is reported instead of silently clipped.
    """
    a = _as_matrix(rho_est)
    b = _as_matrix(rho_ref)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape {a.shape} vs {b.shape}")
    a = 0.5 * (a + a.conj().T)
    sq = _psd_sqrt(b)
    inner = sq @ a @ sq
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    negative_mass = float(-np.sum(np.minimum(w, 0.0)))
    fidelity = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    diff_w = np.linalg.eigvalsh(a - b)
    return {
        "fidelity": fidelity,
        "trace_distance": float(0.5 * np.sum(np.abs(diff_w))),
        "max_element_error": float(np.max(np.abs(a - b))),
        "negative_eigenvalue_mass": negative_mass,
    }


def nearest_physical_state(mat: Union[np.ndarray, Operator]) -> DensityMatrix:
    """Closest unit-trace PSD matrix in Frobenius norm (diagnostic only).

    Eigenvalues are Euclidean-projected onto the probability simplex;
    eigenvectors are kept.
    """
    m = _as_matrix(mat)
    m = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(m)
    desc = np.sort(w)[::-1]
    csum = np.cumsum(desc)
    k = np.arange(1, w.size + 1)
    ok = desc - (csum - 1.0) / k > 0
    k_star = int(np.max(k[ok]))
    tau = (csum[k_star - 1] - 1.0) / k_star
    projected = np.clip(w - tau, 0.0, None)
    return DensityMatrix((v * projected) @ v.conj().T)
