"""Reconstruction: one table of sampled methods, and the matrices they estimate.

METHODS holds every rule of each sampled family of records.FAMILIES: its
sampler, its estimator, the pass that estimates each matrix element its
records reach, and the parameter all three take. method_params checks that
parameter against the working dimension once, for the CLI and the library
alike, and fixed_n_max gives the dimension a family fixes itself.
estimate_observable and reconstruct_matrix only look the family up. Every
estimate is an ensemble average taken by records.walk; the averaging types
are re-exported from here.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError, UsageError
from .estimators.homodyne import homodyne_estimate, homodyne_kernel_block
from .estimators.kerr import kerr_estimate, kerr_kernel_block
from .estimators.parity import (check_parity_boundary, check_parity_disk, parity_estimate,
                                parity_kernel_block)
from .estimators.spin import pauli_estimate, spin_estimate, spin_kernel_block
from .operators import Operator, fock_matrix_unit
from .records import Accumulator, EstimationResult, RecordBatch, estimate, walk
from .sampler import (sample_displaced_parity, sample_homodyne, sample_kerr_phase,
                      sample_pauli, sample_spin)
from .states import DensityMatrix, as_matrix

__all__ = [
    "EstimationResult",
    "Accumulator",
    "ReconstructedMatrix",
    "Method",
    "METHODS",
    "estimate",
    "method_params",
    "fixed_n_max",
    "estimate_observable",
    "reconstruct_matrix",
    "assemble_matrix",
    "compare_states",
    "nearest_physical_state",
]

# Bytes of one complex (d, d, n) kernel block in reconstruct_matrix: 8192 records at d = 8.
_BLOCK_BYTES = 8 << 20


def _block_elements(batch: RecordBatch, dim: int, block: Callable, diagonal: bool = True,
                    **params) -> Dict[Tuple[int, int], EstimationResult]:
    """One pass over the records: per chunk one kernel block, one push per element.

    block(settings, outcomes, **params) is a family's <family>_kernel_block:
    the C-contiguous (dim, dim, n) kernels of n records, whose element [k, n, i]
    estimates <k|rho|n>; the rows pushed are a reshape of the block, not a copy.
    Without diagonal the elements <k|rho|k> are skipped. The keys are made
    after the pass, so a block too large to build fails before d^2 of them are.
    """
    def columns(settings: np.ndarray, outcomes: np.ndarray) -> List[np.ndarray]:
        rows = block(settings, outcomes, **params).reshape(dim * dim, -1)
        return [row for i, row in enumerate(rows) if diagonal or i % (dim + 1)]

    step = max(1, _BLOCK_BYTES // (16 * dim * dim))
    results = walk(batch, columns, dim * dim if diagonal else dim * (dim - 1), step)
    keys = ((k, n) for k in range(dim) for n in range(dim) if diagonal or k != n)
    return dict(zip(keys, results))


def _parity_elements(batch: RecordBatch, dim: int,
                     cfg) -> Dict[Tuple[int, int], EstimationResult]:
    """The block pass, once the boundary kernel and the records' proposal disk pass their checks."""
    check_parity_boundary(None, cfg)
    check_parity_disk(batch, cfg)
    return _block_elements(batch, dim, parity_kernel_block, cfg=cfg)


def _pauli_elements(batch: RecordBatch, dim: int) -> Dict[Tuple[int, int], EstimationResult]:
    """One stratified estimate per element: its mean is exact on the identity."""
    return {(k, n): pauli_estimate(fock_matrix_unit(n, k, dim), batch)
            for k in range(dim) for n in range(dim)}


class Method(NamedTuple):
    """A sampled family's rules: how to draw, estimate and reconstruct, and the one parameter.

    sample(rho, shots=, rng=, **params), estimate(a, records, **params) and
    elements(records, dim, **params) take the params of method_params;
    elements returns {(k, n): estimate of <k|rho|n>} for every element the
    records reach.
    """

    sample: Callable
    estimate: Callable
    elements: Callable
    # "cfg", "twice_s" (= n_max) or None: a qubit family (fixed_n_max); homodyne also takes squeeze
    param: Optional[str]


METHODS = {
    "homodyne": Method(sample_homodyne, homodyne_estimate,
                       partial(_block_elements, block=homodyne_kernel_block), "cfg"),
    "spin": Method(sample_spin, spin_estimate,
                   partial(_block_elements, block=spin_kernel_block), "twice_s"),
    "pauli": Method(sample_pauli, pauli_estimate, _pauli_elements, None),
    "parity": Method(sample_displaced_parity, parity_estimate, _parity_elements, "cfg"),
    # Kerr records do not determine the diagonal <k|rho|k>
    "kerr": Method(sample_kerr_phase, kerr_estimate,
                   partial(_block_elements, block=kerr_kernel_block, diagonal=False), "cfg"),
}


def fixed_n_max(method: str) -> Optional[int]:
    """The n_max a family fixes: 1 for Pauli; None where the caller's n_max sets it."""
    return None if METHODS[method].param else 1


def method_params(method: str, n_max: int, cfg=None, squeeze=None) -> Dict[str, object]:
    """The keyword parameters of a method at working dimension n_max + 1, checked.

    cfg may be built for a larger dimension; the returned one has dim
    n_max + 1. Spin's 2s is n_max, Pauli's n_max must be fixed_n_max, and
    only homodyne takes squeeze.
    """
    if n_max < 0:
        raise UsageError(f"n_max must be >= 0, got {n_max}")
    if squeeze is not None and method != "homodyne":
        raise UsageError("squeeze applies to the homodyne method only")
    if method not in METHODS:
        raise UsageError(f"unknown method '{method}'; choose from {tuple(METHODS)}")
    params: Dict[str, object] = {} if squeeze is None else {"squeeze": squeeze}
    param = METHODS[method].param
    if param == "cfg":
        if cfg is None or cfg.dim < n_max + 1:
            raise UsageError(f"{method} needs cfg with dim > n_max = {n_max}")
        params["cfg"] = dataclasses.replace(cfg, dim=n_max + 1) if cfg.dim != n_max + 1 else cfg
    elif param == "twice_s":
        params["twice_s"] = n_max
    elif n_max != fixed_n_max(method):
        raise UsageError(f"{method} fixes n_max = {fixed_n_max(method)}, got {n_max}")
    return params


def estimate_observable(records: RecordBatch, method: str, a: Operator, cfg=None,
                        squeeze=None) -> EstimationResult:
    """<A> from records of a sampled method, by the family's estimator at dimension a.dim."""
    params = method_params(method, a.dim - 1, cfg, squeeze)
    return METHODS[method].estimate(a, records, **params)


@dataclasses.dataclass(frozen=True)
class ReconstructedMatrix:
    """Per-element estimates for A = |k><n| plus the Hermitized point value.

    elements[(k, n)] estimates <k|rho|n>; elements the method cannot reach
    (Kerr diagonals) are absent, and element(k, n) gives None for them.
    hermitized is (M + M^dag)/2 with unreachable elements left at zero.
    """

    dim: int
    method: str
    elements: Dict[Tuple[int, int], EstimationResult]
    hermitized: np.ndarray
    diagnostics: Dict[str, object]

    def element(self, k: int, n: int) -> Optional[EstimationResult]:
        return self.elements.get((k, n))


def reconstruct_matrix(records: RecordBatch, method: str, n_max: int,
                       cfg=None, squeeze=None, reference: Optional[DensityMatrix] = None,
                       nearest_physical: bool = False) -> ReconstructedMatrix:
    """Estimate every element <k|rho|n> with k, n <= n_max that the method's records reach.

    n_max is the largest Fock/spin index wanted; the working dimension is
    n_max + 1 and must not exceed what cfg supports; for spin it is 2s+1. Records
    that reach no element there (Kerr at n_max = 0) raise UsageError.
    """
    params = method_params(method, n_max, cfg, squeeze)
    dim = n_max + 1
    records.require(method, 2, dim)
    results = METHODS[method].elements(records, dim, **params)
    if not results:
        raise UsageError(f"{method} records reach no element at n_max = {n_max}")
    return assemble_matrix(method, dim, results, {"method": method, "n_records": len(records)},
                           reference, nearest_physical)


def assemble_matrix(method: str, dim: int, results: Dict[Tuple[int, int], EstimationResult],
                    diagnostics: Dict[str, object], reference=None,
                    nearest_physical: bool = False) -> ReconstructedMatrix:
    """The ReconstructedMatrix of element estimates results[(k, n)] of <k|rho|n>.

    diagnostics opens the result's diagnostics. The trace and its standard
    error follow when the diagonal was estimated; then the comparison with
    reference, and the distance to the nearest physical state if asked.
    """
    raw = np.zeros((dim, dim), dtype=complex)
    for (k, n), res in results.items():
        raw[k, n] = res.mean
    herm = 0.5 * (raw + raw.conj().T)

    diagnostics = dict(diagnostics)
    if (0, 0) in results:
        diagnostics["trace"] = sum(results[(k, k)].mean.real for k in range(dim))
        diagnostics["trace_std_error"] = math.sqrt(
            sum(results[(k, k)].std_error ** 2 for k in range(dim)))
    else:
        diagnostics["diagonal"] = "not estimated"
    if reference is not None:
        diagnostics["comparison"] = compare_states(herm, reference)
    if nearest_physical:
        phys = nearest_physical_state(herm)
        diagnostics["nearest_physical_distance"] = float(
            np.linalg.norm(herm - phys.mat)
        )
    return ReconstructedMatrix(
        dim=dim, method=method, elements=results, hermitized=herm,
        diagnostics=diagnostics,
    )


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def compare_states(rho_est, rho_ref) -> Dict[str, float]:
    """Fidelity, trace distance, and sup-norm error of an estimate vs a reference.

    The estimate may be slightly non-physical; any negative eigenvalue
    mass met inside the fidelity is reported instead of silently clipped.
    """
    a = as_matrix(rho_est)
    b = as_matrix(rho_ref)
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
    m = as_matrix(mat)
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
