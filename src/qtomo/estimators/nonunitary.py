"""Resolution over nonunitary phase-weighted ladder operators.

The family R_n(phi) shifts by n rungs with a phase that tracks the
higher rung: R_n(phi) = sum_j e^{i phi (j+n)} |j><j+n| for n >= 0, and
R_{-k}(phi) = sum_j e^{i phi j} |j+k><j| for k > 0. Averaging
Tr[A R_n^dag(phi)] Tr[rho R_n(phi)] over phi and summing n returns
Tr[A rho] exactly in the truncated space, provided A does not reach the
truncation edge. The state-side trace doubles as a phase-representation
integral, which is the POVM reading of the scheme. Both phase integrals
use 4*dim uniform phases, which resolve every frequency in the sums.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError, GridError, InvalidSpecError, TruncationError
from ..operators import Operator
from ..states import DensityMatrix

__all__ = [
    "phase_shift_ladder",
    "nonunitary_phase_trace",
    "nonunitary_phase_trace_routes",
    "nonunitary_reconstruct",
]


def _ladder_columns(n: int, dim: int) -> np.ndarray:
    """Columns c of the shift-n entries of R_n(phi); each sits at row c - n, phase e^{i phi c}."""
    return np.arange(max(0, n), dim + min(0, n))


def phase_shift_ladder(n: int, phi: float, dim: int) -> Operator:
    """Matrix of R_n(phi); raises when the shift empties the truncated space."""
    if abs(n) >= dim:
        raise InvalidSpecError(f"shift |n| = {abs(n)} does not fit in dim {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    c = _ladder_columns(n, dim)
    m[c - n, c] = np.exp(1j * phi * c)
    return Operator(m)


def _direct_trace(rho_mat: np.ndarray, q: int, psi: float) -> complex:
    m = _ladder_columns(q, rho_mat.shape[0])
    return complex(np.sum(np.exp(1j * m * psi) * rho_mat[m, m - q]))


def nonunitary_phase_trace_routes(rho: DensityMatrix, q: int, psi: float):
    """(direct matrix trace, phase-representation grid integral) of Tr[rho R_q(psi)].

    The phase route averages e^{i q (phi + psi)} <e^{i phi}| rho |e^{i (phi+psi)}>
    over a uniform grid of 4*dim phases, which resolves every frequency
    the truncated state can produce.
    """
    dim = rho.dim
    if abs(q) >= dim:
        raise InvalidSpecError(f"shift |q| = {abs(q)} does not fit in dim {dim}")
    direct = _direct_trace(rho.mat, q, psi)
    phis = 2.0 * np.pi * np.arange(4 * dim) / (4 * dim)
    idx = np.arange(dim)
    bra = np.exp(1j * np.outer(phis, idx))           # <n|e^{i phi}> columns
    ket = np.exp(1j * np.outer(phis + psi, idx))
    overlap = np.einsum("gm,mn,gn->g", bra.conj(), rho.mat, ket, optimize=True)
    phase_route = complex(np.mean(np.exp(1j * q * (phis + psi)) * overlap))
    return direct, phase_route


def nonunitary_phase_trace(rho: DensityMatrix, q: int, psi: float) -> complex:
    """Tr[rho R_q(psi)], cross-checked against the phase-representation route."""
    direct, phase_route = nonunitary_phase_trace_routes(rho, q, psi)
    if abs(direct - phase_route) > 1e-8:
        raise GridError(
            f"phase-representation route deviates from the direct trace by "
            f"{abs(direct - phase_route):.3e}"
        )
    return direct


def nonunitary_reconstruct(a: Operator, rho: DensityMatrix) -> complex:
    """sum_n int dphi/2pi Tr[A R_n^dag(phi)] Tr[rho R_n(phi)].

    Exact on the truncated space when A stays clear of the edge: the
    highest occupied index plus the widest ladder shift A uses must fit
    inside the dimension, otherwise shifted weight is silently lost and
    the identity breaks, so that case raises instead.
    """
    dim = rho.dim
    if a.dim != dim:
        raise DimensionMismatchError(f"operator dim {a.dim} vs state dim {rho.dim}")
    rows, cols = np.nonzero(a.mat)  # none for the zero operator, whose sum is 0j
    support_max = int(np.max(np.r_[rows, cols], initial=-1))
    bandwidth = int(np.max(np.abs(rows - cols), initial=0))
    if support_max + bandwidth > dim:
        raise TruncationError(
            f"operator reaches index {support_max} with shift {bandwidth}; "
            f"needs support_max + bandwidth <= dim = {dim}"
        )
    g = 4 * dim
    phis = 2.0 * np.pi * np.arange(g) / g
    total = 0j
    for n in range(-(dim - 1), dim):
        c = _ladder_columns(n, dim)
        a_diag = a.mat[c - n, c]
        if not np.any(a_diag):
            continue
        coef_a = np.exp(-1j * np.outer(phis, c)) @ a_diag    # Tr[A R_n^dag(phi)]
        coef_rho = np.exp(1j * np.outer(phis, c)) @ rho.mat[c, c - n]
        total += np.sum(coef_a * coef_rho) / g
    return complex(total)
