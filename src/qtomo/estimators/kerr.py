"""Kerr-phase tomography of number-basis coherences.

A Kerr evolution of strength psi followed by an ideal phase measurement
of outcome phi has joint density p(phi, psi)/(2pi)^2 with

    p(phi, psi) = sum_{ab} rho_ab e^{i psi (b^2 - a^2)} e^{i phi (b - a)}

and averaging the kernel e^{i psi (d^2 + 2nd) + i phi d} against it
returns the coherence <n+d|rho|n>. On uniform grids with at least
2*dim+1 phases and 2*dim^2+1 Kerr strengths every surviving Fourier
frequency is resolved exactly, so the grid average is not approximate.
The diagonal (d = 0) only admits the regularized kernel, whose eps -> 0
behavior is reported, not asserted. kerr_estimate fills each walk chunk in
_SLICE-record slices; every kernel is row-local, so a slice has the bits
of the whole.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatchError, InvalidSpecError, UsageError
from ..operators import Operator
from ..records import RecordBatch, walk
from ..states import DensityMatrix
from .config import EstimatorConfig

__all__ = [
    "kerr_kernel",
    "kerr_kernel_regularized",
    "kerr_phase_distribution",
    "kerr_sideband_coefficients",
    "kerr_exact_element",
    "kerr_estimate",
    "kerr_kernel_block",
    "kerr_epsilon_sweep",
]

_SLICE = 1 << 13  # kerr_estimate records per slice: bounds its working set, not its pushes


def kerr_kernel(n: int, d: int, phi, psi):
    """exp[i psi (d^2 + 2 n d) + i phi d]; off-diagonal only."""
    if d == 0:
        raise InvalidSpecError("d = 0 is the diagonal case; use kerr_kernel_regularized")
    if n < 0 or n + d < 0:
        raise InvalidSpecError("kernel indices n and n+d must be non-negative")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    val = np.exp(1j * (psi * (d * d + 2 * n * d) + phi * d))
    return complex(val) if val.ndim == 0 else val


def kerr_kernel_regularized(n: int, eps: float, phi, psi):
    """exp[i 2 psi n eps + i phi eps]; the eps -> 0 limit is NOT taken here."""
    if eps <= 0:
        raise InvalidSpecError(f"regularizer eps must be > 0, got {eps}")
    if n < 0:
        raise InvalidSpecError("index n must be non-negative")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    val = np.exp(1j * (2.0 * psi * n * eps + phi * eps))
    return complex(val) if val.ndim == 0 else val


def _phase_vectors(psis: np.ndarray, phis: np.ndarray, dim: int) -> np.ndarray:
    """u_a = e^{i(psi a^2 + phi a)} over broadcast psis, phis; p is the bilinear u^dag rho u."""
    a = np.arange(dim)
    return np.exp(1j * (np.multiply.outer(psis, a * a) + np.multiply.outer(phis, a)))


def kerr_phase_distribution(rho: DensityMatrix, psis, phis) -> np.ndarray:
    """p(phi, psi) on the grid psis x phis; real and non-negative."""
    psis = np.atleast_1d(np.asarray(psis, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    u = _phase_vectors(psis[:, None], phis[None, :], rho.dim)
    return np.einsum("qpa,ab,qpb->qp", u.conj(), rho.mat, u, optimize=True).real


def kerr_sideband_coefficients(rho: DensityMatrix, psis) -> np.ndarray:
    """c_d(psi) = sum_{b-a=d} rho_ab e^{i psi (b^2-a^2)} for d = 0..dim-1.

    These are the Fourier coefficients of the conditional phase density
    p(phi | psi) = [1 + 2 sum_{d>=1} Re(c_d e^{i d phi})] / 2pi.
    """
    return _sidebands(rho, psis, range(rho.dim))


def _sidebands(rho: DensityMatrix, psis, ds) -> np.ndarray:
    """The columns c_d(psi) of kerr_sideband_coefficients for d in ds, same bits.

    The Kerr sampler asks for d = 1..dim-1 and skips c_0 = tr rho.
    """
    psis = np.atleast_1d(np.asarray(psis, dtype=float))
    dim = rho.dim
    out = np.zeros((psis.size, len(ds)), dtype=complex)
    sq = np.arange(dim) ** 2
    for col, d in enumerate(ds):
        a = np.arange(dim - d)
        b = a + d
        out[:, col] = np.exp(1j * np.outer(psis, sq[b] - sq[a])) @ rho.mat[a, b]
    return out


def _grid_averages(rho: DensityMatrix, cfg: EstimatorConfig, kernels) -> list:
    """Average of each kernel(phi, psi) against p(phi, psi) on the exact grids.

    The grids hold 2*dim^2+1 Kerr strengths psi and 2*dim+1 phases phi.
    """
    if rho.dim != cfg.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs config dim {cfg.dim}")
    psis, phis = (2.0 * np.pi * np.arange(m) / m for m in (2 * cfg.dim**2 + 1, 2 * cfg.dim + 1))
    p = kerr_phase_distribution(rho, psis, phis)
    return [complex(np.sum(p * kernel(phis[None, :], psis[:, None])) / p.size)
            for kernel in kernels]


def kerr_exact_element(rho: DensityMatrix, n: int, d: int, cfg: EstimatorConfig) -> complex:
    """Exact-grid average recovering <n+d|rho|n>."""
    if n + d >= cfg.dim or n >= cfg.dim:
        raise InvalidSpecError("element indices must lie inside the configured dimension")
    return _grid_averages(rho, cfg, [functools.partial(kerr_kernel, n, d)])[0]


def _observable_offdiag(a: Operator) -> np.ndarray:
    mat = a.mat.copy()
    diag = np.abs(np.diag(mat))
    if np.max(diag) > 1e-12:
        raise UsageError(
            "Kerr-phase records determine off-diagonal elements only; the "
            "observable has diagonal weight"
        )
    np.fill_diagonal(mat, 0.0)
    return mat


def kerr_estimate(a: Operator, records: RecordBatch, cfg: EstimatorConfig):
    """Sample mean of the off-diagonal kernel over (psi, phi) records.

    Records carry the Kerr strength in the setting and the measured phase
    as the outcome; no importance weight is needed because psi is drawn
    uniformly and phi from its exact conditional. Kerr records do not
    determine the diagonal, but they are normalized: the identity is
    averaged as the constant unit kernel, and any other diagonal weight
    is refused.
    """
    records.require("kerr", 2, cfg.dim)
    if a.dim != cfg.dim:
        raise DimensionMismatchError(f"operator dim {a.dim} vs config dim {cfg.dim}")
    if np.array_equal(a.mat, np.eye(a.dim)):
        return walk(records, lambda settings, outcomes: np.ones(len(outcomes)))[0]
    a_mat = _observable_offdiag(a)

    def values(settings: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        out = np.empty(outcomes.size, dtype=complex)
        for lo in range(0, outcomes.size, _SLICE):
            rows = slice(lo, lo + _SLICE)
            u = _phase_vectors(settings[rows, 0], outcomes[rows], cfg.dim)
            # value_i = sum_{r != c} A_rc conj(u_r) u_c; equals the kernel sum over elements
            out[rows] = np.einsum("gr,rc,gc->g", u.conj(), a_mat, u, optimize=True)
        return out

    return walk(records, values)[0]


def kerr_kernel_block(settings: np.ndarray, outcomes: np.ndarray,
                      cfg: EstimatorConfig) -> np.ndarray:
    """Kernels conj(u_n) u_k for settings psi and outcomes phi, as a C-contiguous
    (dim, dim, n) array [k, n, record]; u is copied to (dim, n) so that it is one.

    The records do not determine the diagonal; its entries are 1 and the caller skips them.
    """
    u = _phase_vectors(settings[:, 0], outcomes, cfg.dim).T.copy()
    return u[:, None, :] * u.conj()[None, :, :]


def kerr_epsilon_sweep(rho: DensityMatrix, n: int, eps_values: Sequence[float],
                       cfg: EstimatorConfig):
    """Exact-grid averages of the regularized diagonal kernel, one per eps.

    Returned for extrapolation studies; no limit value is asserted because
    the plain eps -> 0 limit of the average is Tr[rho], not rho_nn.
    """
    eps_values = [float(eps) for eps in eps_values]
    return list(zip(eps_values, _grid_averages(
        rho, cfg, [functools.partial(kerr_kernel_regularized, n, eps) for eps in eps_values])))
