"""Displaced-parity tomography.

Measuring photon-number parity on displaced copies of the state samples
the function G(b) = Tr[rho P D(2b)], P the parity operator, and any
matrix element of rho comes back as a phase-space average:

    rho_elem(row, col) = int d^2b/pi  G(b) * 4 (-1)^row <row|D(2b)|col>

The displacement elements are evaluated from their Laguerre closed form,
so kernels stay faithful at arbitrary |b| regardless of the truncation
used for the state itself.
"""

from __future__ import annotations

import numpy as np

from ..errors import (DimensionMismatchError, GridError, InvalidSpecError,
                      NumericPreconditionError, UsageError)
from ..operators import Operator, displacement, parity
from ..records import RecordBatch, walk
from ..states import DensityMatrix
from . import _cahill
from .config import EstimatorConfig

__all__ = [
    "displaced_parity_kernel",
    "displaced_parity_kernel_matrix_route",
    "parity_kernel_element",
    "parity_kernel_block",
    "check_parity_boundary",
    "check_parity_disk",
    "displaced_parity_expectation",
    "parity_estimate",
    "parity_exact_element",
]

_BIAS_ANGLES = 64
_EXACT_RADIAL = 80  # Gauss-Legendre order of parity_exact_element in the radius
_EXACT_ANGULAR = 80  # uniform angular points of parity_exact_element
# Displacements per disp_stack call in _coeff_stack. disp_stack is a few hundred small numpy
# calls at dim 8; at 1,024 rows the parity sampler's two pool workers spent most of their time
# handing the GIL back and forth (2 workers took 0.9-1.1 s, 1 took 0.5 s, for 262,144 shots).
_CHUNK = 4096


def displaced_parity_kernel(n: int, d: int, alpha) -> complex:
    """<n+d| 4 D^dag(a) P D(a) |n> = <n+d| 4 P D(2a) |n>, the kernel of <n+d|rho|n>."""
    if n < 0 or d < 0:
        raise InvalidSpecError("displaced_parity_kernel needs n >= 0 and d >= 0")
    return parity_kernel_element(n + d, n, alpha)


def displaced_parity_kernel_matrix_route(n: int, d: int, alpha: complex, dim: int) -> complex:
    """<n+d| 4 D^dag(a) P D(a) |n> from dense truncated matrices; oracle route."""
    if n + d >= dim:
        raise DimensionMismatchError("n + d must lie inside the truncation")
    dm = displacement(complex(alpha), dim).mat
    return complex(4.0 * (dm.conj().T @ parity(dim).mat @ dm)[n + d, n])


def parity_kernel_element(row: int, col: int, alpha) -> complex:
    """<row| 4 P D(2a) |col>, valid for any index pair."""
    if row < 0 or col < 0:
        raise InvalidSpecError("indices must be non-negative")
    a = np.asarray(alpha, dtype=complex)
    val = 4.0 * (-1.0) ** row * _cahill.disp_entry(2.0 * a, row, col)
    return complex(val[0]) if a.ndim == 0 else val.reshape(a.shape)


def _parity_signs(dim: int) -> np.ndarray:
    return (-1.0) ** np.arange(dim)


def displaced_parity_expectation(rho: DensityMatrix, betas) -> np.ndarray:
    """G(b) = Tr[rho P D(2b)] for a batch of displacements, in [-1, 1]: the estimator's
    contraction _coeff_stack at A = rho, whose bits do not depend on the BLAS thread count."""
    b = np.atleast_1d(np.asarray(betas, dtype=complex))
    return _coeff_stack(rho.mat, b).real / 4.0


def _coeff_stack(a_mat: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """4 Tr[A P D(2b)] per displacement, _CHUNK displacements at a time.
    NumericPreconditionError where a value is not finite."""
    dim = a_mat.shape[0]
    flat = (a_mat * _parity_signs(dim)[None, :]).T.ravel()  # [r * dim + c]: A[c, r] (-1)^r
    out = np.empty(betas.size, dtype=complex)
    for i in range(0, betas.size, _CHUNK):
        # one inline (g, d^2) copy per chunk; the product has einsum("ij,gji->g")'s bits
        out[i : i + _CHUNK] = 4.0 * (_cahill.disp_stack(2.0 * betas[i : i + _CHUNK], dim)
                                     .transpose(2, 0, 1).copy().reshape(-1, dim * dim) @ flat)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NumericPreconditionError(
            f"the displaced-parity kernel at |b| = {abs(betas[bad[0]]):.3g} is not finite "
            f"at dim {dim}; use a smaller proposal radius")
    return out


def check_parity_boundary(target, cfg: EstimatorConfig) -> None:
    """Raise GridError unless the largest |kernel|/4 on the proposal boundary is at most 1e-3.

    A kernel that is not negligible at |b| = R has a truncated tail.
    target is an Operator, or None for every matrix unit at once (the
    block that reconstruct_matrix averages).
    """
    radius = cfg.parity_radius()
    ring = radius * np.exp(2j * np.pi * np.arange(_BIAS_ANGLES) / _BIAS_ANGLES)
    if target is None:
        vals = np.abs(_cahill.disp_stack(2.0 * ring, cfg.dim))
    else:
        scale = max(1.0, float(np.max(np.abs(target.mat))))
        vals = np.abs(_coeff_stack(target.mat, ring)) / (4.0 * scale)
    peak = float(np.max(vals))
    if not peak <= 1e-3:  # a NaN kernel fails too
        raise GridError(
            f"kernel mass at the proposal boundary |b| = {radius:.3g} exceeds 1e-3; "
            "increase proposal_radius" if peak > 1e-3 else
            f"the kernel at the proposal boundary |b| = {radius:.3g} is not finite; "
            "use a smaller proposal radius"
        )


def check_parity_disk(records: RecordBatch, cfg: EstimatorConfig) -> None:
    """Raise UsageError unless the records' displacements fill the proposal disk.

    A record outside R = cfg.parity_radius() was drawn from a larger disk,
    and N records that all miss the rim |b| >= R (1 - 20/N), which N
    uniform draws do with probability below e^-40, from a smaller one.
    Either way the weight R^2 would bias every estimate.
    """
    radius = cfg.parity_radius()
    moduli = np.hypot(records.settings[:, 0], records.settings[:, 1])
    outside = np.flatnonzero(moduli > radius * (1.0 + 1e-12))
    if outside.size:
        i = int(outside[0])
        raise UsageError(
            f"parity record {i}: |b| = {moduli[i]:.6g} lies outside the proposal disk "
            f"R = {radius:.6g}; estimate with the proposal radius the records were sampled with"
        )
    if moduli.size and np.max(moduli) < radius * (1.0 - 20.0 / moduli.size):
        raise UsageError(
            f"parity records reach only max |b| = {np.max(moduli):.6g} of the proposal disk "
            f"R = {radius:.6g}: they were sampled with a smaller proposal radius")


def parity_kernel_block(settings: np.ndarray, outcomes: np.ndarray,
                        cfg: EstimatorConfig) -> np.ndarray:
    """Weighted kernels R^2 s 4 P D(2b) for settings (Re b, Im b) and parities s, as
    a C-contiguous (dim, dim, n) array [k, n, record].

    The proposal-boundary check is the caller's, once per record set.
    """
    radius = cfg.parity_radius()
    betas = settings[:, 0] + 1j * settings[:, 1]
    block = _cahill.disp_stack(2.0 * betas, cfg.dim)
    block *= (4.0 * radius * radius) * _parity_signs(cfg.dim)[:, None, None]
    block *= outcomes
    return block


def parity_estimate(a: Operator, records: RecordBatch, cfg: EstimatorConfig):
    """Importance-weighted parity average of an operator.

    Records must carry the displacement used (setting coords (Re b, Im b))
    and the measured parity outcome +-1; the uniform-disk proposal of
    radius cfg.parity_radius() contributes the weight R^2 that maps the
    empirical mean back onto the d^2b/pi measure.
    """
    records.require("parity", 2)
    if a.dim != cfg.dim:
        raise DimensionMismatchError(f"operator dim {a.dim} vs config dim {cfg.dim}")
    check_parity_boundary(a, cfg)
    check_parity_disk(records, cfg)
    radius = cfg.parity_radius()
    weight = radius * radius
    return walk(records, lambda settings, outcomes: weight * outcomes * _coeff_stack(
        a.mat, settings[:, 0] + 1j * settings[:, 1]))[0]


def parity_exact_element(rho: DensityMatrix, row: int, col: int,
                         cfg: EstimatorConfig) -> complex:
    """Deterministic polar-quadrature value of the parity-route integral.

    Gauss-Legendre in the radius against the r dr measure and a uniform
    angular grid; converged to ~1e-6 for states confined well inside the
    disk.
    """
    if row >= cfg.dim or col >= cfg.dim or row < 0 or col < 0:
        raise InvalidSpecError("element indices must lie inside the configured dimension")
    radius = cfg.parity_radius()
    nodes, weights = np.polynomial.legendre.leggauss(_EXACT_RADIAL)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights * r  # r dr measure
    theta = 2.0 * np.pi * np.arange(_EXACT_ANGULAR) / _EXACT_ANGULAR
    betas = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    wt = np.repeat(wr, _EXACT_ANGULAR) * (2.0 * np.pi / _EXACT_ANGULAR) / np.pi
    g = displaced_parity_expectation(rho, betas)
    k = parity_kernel_element(row, col, betas)
    return complex(np.sum(wt * g * k))
