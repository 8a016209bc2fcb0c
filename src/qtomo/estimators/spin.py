"""SU(2) tomography: continuous-direction spin kernels and the Pauli shortcut.

The direction-averaged resolution needs, per measured direction n and
outcome m, the kernel value R[A](m, n). In the S.n eigenbasis the inner
phase integral against sin^2(psi/2) leaves only eigenvalue gaps 0, +-1:

    R[A](m, n) = (2s+1) [A'_{jj} - (A'_{j-1,j-1} + A'_{j+1,j+1}) / 2]

with j the index of eigenvalue m (ascending) and out-of-range neighbors
dropped. The numeric psi-quadrature route is kept as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatchError, InvalidSpecError, UsageError
from ..operators import Operator, pauli, spin_frames
from ..records import EstimationResult, RecordBatch, walk
from ..states import DensityMatrix

__all__ = [
    "spin_kernel",
    "spin_kernel_quadrature",
    "spin_estimate",
    "spin_kernel_block",
    "spin_quadrature_expectation",
    "pauli_estimate",
    "sphere_rule",
]


def _outcome_indices(ms: np.ndarray, twice_s: int) -> np.ndarray:
    """Ascending eigenvalue index j = m + s of each outcome; rejects any other m."""
    js = ms + twice_s / 2.0
    ok = np.isfinite(js)
    jr = np.round(np.where(ok, js, 0.0))
    ok &= (np.abs(js - jr) <= 1e-9) & (jr >= 0) & (jr <= twice_s)
    if not np.all(ok):
        bad = ms[~ok][0]
        raise InvalidSpecError(
            f"outcome m = {bad} is not an eigenvalue of S.n for 2s = {twice_s}"
        )
    return jr.astype(int)


def _stencils(js: np.ndarray, twice_s: int) -> np.ndarray:
    """Closed-form weights c per record: 2s+1 at j, -(2s+1)/2 at in-range neighbors."""
    rows = np.arange(js.size)
    pad = np.zeros((js.size, twice_s + 3))
    pad[rows, js + 1] = twice_s + 1
    pad[rows, js] = pad[rows, js + 2] = -0.5 * (twice_s + 1)
    return pad[:, 1:-1]


def spin_kernel(a: Operator, m: float, direction, twice_s: int) -> complex:
    """Closed-form R[A](m, n)."""
    if a.dim != twice_s + 1:
        raise DimensionMismatchError(f"operator dim {a.dim} vs 2s+1 = {twice_s + 1}")
    js = _outcome_indices(np.array([m], dtype=float), twice_s)
    _, (vecs,) = spin_frames(twice_s, [direction])
    diag = np.einsum("aj,ab,bj->j", vecs.conj(), a.mat, vecs, optimize=True)
    return complex(_stencils(js, twice_s)[0] @ diag)


def spin_kernel_quadrature(a: Operator, m: float, direction, twice_s: int,
                           n_psi: int = 2048) -> complex:
    """Oracle route: numeric psi-integral of sin^2(psi/2) Tr[A e^{-i psi (S.n - m)}]."""
    if a.dim != twice_s + 1:
        raise DimensionMismatchError(f"operator dim {a.dim} vs 2s+1 = {twice_s + 1}")
    _outcome_indices(np.array([m], dtype=float), twice_s)  # the integral tolerates any m
    (evals,), (vecs,) = spin_frames(twice_s, [direction])
    diag = np.einsum("aj,ab,bj->j", vecs.conj(), a.mat, vecs, optimize=True)
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
    phases = np.exp(-1j * np.outer(psi, evals - m))  # (n_psi, 2s+1)
    integrand = np.sin(psi / 2.0) ** 2 * (phases @ diag)
    return complex((twice_s + 1) / np.pi * (2.0 * np.pi / n_psi) * np.sum(integrand))


def spin_kernel_block(settings: np.ndarray, outcomes: np.ndarray, twice_s: int) -> np.ndarray:
    """Kernels V diag(c) V^dag for settings n (direction) and outcomes m, as a
    C-contiguous (2s+1, 2s+1, n) array [k, n, record].

    V holds the S.n eigenvectors and c the closed-form stencil at m; the
    matmul runs per record, on the layout its bits depend on, before the copy.
    """
    c = _stencils(_outcome_indices(outcomes, twice_s), twice_s)
    vecs = spin_frames(twice_s, settings)[1]
    return ((vecs * c[:, None, :]) @ vecs.conj().transpose(0, 2, 1)).transpose(1, 2, 0).copy()


def spin_estimate(a: Operator, records: RecordBatch, twice_s: int):
    """Sample mean of the closed-form kernel over (direction, outcome) records."""
    if a.dim != twice_s + 1:
        raise DimensionMismatchError(f"operator dim {a.dim} vs 2s+1 = {twice_s + 1}")
    records.require("spin", 2)

    def values(settings: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        c = _stencils(_outcome_indices(outcomes, twice_s), twice_s)
        vecs = spin_frames(twice_s, settings)[1]
        diag = np.einsum("gaj,ab,gbj->gj", vecs.conj(), a.mat, vecs, optimize=True)
        return np.einsum("gj,gj->g", c, diag)

    return walk(records, values)[0]


def sphere_rule(twice_s: int):
    """Product quadrature over directions, exact for the spin integrand's degree.

    Gauss-Legendre in cos(theta) of order 2s+2 times a uniform azimuthal
    grid of 4s+4 points; weights sum to 1 against the normalized sphere
    measure.
    """
    n_polar = twice_s + 2
    n_azimuth = 2 * twice_s + 4
    u, wu = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    st = np.sqrt(1.0 - u * u)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(u, np.ones_like(phi)).ravel(),
        ],
        axis=1,
    )
    weights = np.outer(wu / 2.0, np.full(n_azimuth, 1.0 / n_azimuth)).ravel()
    return dirs, weights


def spin_quadrature_expectation(a: Operator, rho: DensityMatrix, twice_s: int) -> complex:
    """Exact-integration mode: directions by quadrature, outcomes summed exactly."""
    if a.dim != twice_s + 1 or rho.dim != twice_s + 1:
        raise DimensionMismatchError("operator/state dims must equal 2s+1")
    dirs, weights = sphere_rule(twice_s)
    stencils = _stencils(np.arange(twice_s + 1), twice_s)  # row j: outcome index j
    vecs = spin_frames(twice_s, dirs)[1]
    diag_a = np.einsum("gaj,ab,gbj->gj", vecs.conj(), a.mat, vecs, optimize=True)
    probs = np.einsum("gaj,ab,gbj->gj", vecs.conj(), rho.mat, vecs, optimize=True).real
    return complex(weights @ np.einsum("gj,jk,gk->g", probs, stencils, diag_a))


def pauli_estimate(a: Operator, records: RecordBatch):
    """Qubit shortcut: sum_axis Tr[A sigma_axis] <m>_axis + Tr[A]/2.

    The standard error combines the three per-axis variances with the
    trace coefficients, so identity-like A report zero error exactly.
    Every record lies on one of the three axes, so all of them count, and
    each axis needs at least 2 records for its variance.
    """
    if a.dim != 2:
        raise DimensionMismatchError("pauli_estimate is for 2x2 operators")
    records.require("pauli")
    coeffs = [complex(np.trace(a.mat @ pauli(ax).mat)) for ax in ("x", "y", "z")]
    axes = records.settings[:, 0]
    ms = records.outcomes
    mean = 0.5 * complex(np.trace(a.mat))
    var = 0.0
    for idx in range(3):
        sel = ms[axes == idx]
        if sel.size < 2:
            raise UsageError(f"need at least 2 records along axis {'xyz'[idx]}, got {sel.size}")
        mean += coeffs[idx] * sel.mean()
        var += abs(coeffs[idx]) ** 2 * sel.var(ddof=1) / sel.size
    return EstimationResult(mean=complex(mean), std_error=math.sqrt(var),
                            n_samples=len(records))
