"""Displacement-operator resolution checks on a phase-space grid.

The identity A = int d^2a/pi Tr[A F1 D(a) F2] F2^-1 D^dag(a) F1^-1 holds
for any invertible F1, F2. Discretized on a square grid it is only as
good as the grid and the tails of A, so the check draws test operators
with a Gaussian envelope in the Fock index and scores the error under
the same envelope; the raw elementwise error is reported alongside.
Each function takes the grid as grid_points per side on [-alpha_max, alpha_max].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import DimensionMismatchError, InvalidSpecError, RankDeficientError
from ..frames import SettingLabel, SpanningSet
from ..operators import Operator
from . import _cahill

__all__ = [
    "GlauberCheckReport",
    "displacement_grid_set",
    "glauber_reconstruct",
    "generalized_glauber_check",
]

_COND_LIMIT = 1e12
_ENVELOPE_SIGMA = 1.0
_GRID_CHUNK = 4096
_CHECK_TOL = 1e-4  # largest envelope-weighted error that passes the check
_CHECK_OPS = 10  # random test operators per check
_CHECK_SEED = 20210


@dataclass(frozen=True)
class GlauberCheckReport:
    dim: int
    grid_points: int
    alpha_max: float
    tol: float
    weighted_error: float
    raw_error: float
    cond_f1: float
    cond_f2: float
    n_test_ops: int
    passed: bool


def _grid(grid_points: int, alpha_max: float):
    """The grid_points^2 alphas of the square [-alpha_max, alpha_max]^2, and their weight d^2a/pi."""
    if grid_points < 2:
        raise InvalidSpecError(f"grid_points must be >= 2, got {grid_points}")
    if not 0 < alpha_max < np.inf:  # also refuses nan
        raise InvalidSpecError(f"alpha_max must be finite and > 0, got {alpha_max}")
    xs = np.linspace(-alpha_max, alpha_max, grid_points)
    dx = xs[1] - xs[0]
    re, im = np.meshgrid(xs, xs, indexing="ij")
    return (re + 1j * im).ravel(), dx * dx / np.pi


def displacement_grid_set(dim: int, grid_points: int = 41, alpha_max: float = 4.0) -> SpanningSet:
    """Weyl quorum: displacement operators on the square alpha grid, weights d^2a/pi.

    Elements are the exact matrix blocks of the full displacement operator,
    not exponentials of the truncated ladder (those span strictly less).
    """
    alphas, wt = _grid(grid_points, alpha_max)
    labels = [SettingLabel("weyl", (al.real, al.imag)) for al in alphas.tolist()]
    return SpanningSet(_cahill.disp_stack(alphas, dim).transpose(2, 0, 1).copy(),
                       np.full(alphas.size, wt), labels)


def fock_envelope(dim: int, sigma: float = _ENVELOPE_SIGMA) -> np.ndarray:
    """Per-index weights e^{-n^2 / 2 sigma^2} used to draw and score test operators."""
    n = np.arange(dim)
    return np.exp(-(n * n) / (2.0 * sigma * sigma))


def _conditions(f1: Operator, f2: Operator) -> Tuple[float, float]:
    """cond(F1) and cond(F2); RankDeficientError if either is numerically singular."""
    conds = tuple(float(np.linalg.cond(f.mat)) for f in (f1, f2))
    for name, cond in zip(("F1", "F2"), conds):
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise RankDeficientError(f"{name} is numerically singular (cond {cond:.2e})")
    return conds


def glauber_reconstruct(a: Operator, f1: Operator, f2: Operator,
                        grid_points: int = 41, alpha_max: float = 4.0) -> Operator:
    """Grid sum of Tr[A F1 D(a) F2] F2^-1 D^dag(a) F1^-1 d^2a/pi, at the dimension of A.

    Tr[A F1 D(a) F2] = Tr[B D(a)] with B = F2 A F1, so the sum is F2^-1 W F1^-1
    where W = sum Tr[B D(a)] D^dag(a) d^2a/pi is the plain Weyl resolution of B.
    RankDeficientError if F1 or F2 has a condition number above 1e12.
    """
    dim = a.dim
    if f1.dim != dim or f2.dim != dim:
        raise DimensionMismatchError("F1/F2 dims must match the operator dim")
    _conditions(f1, f2)
    b = f2.mat @ a.mat @ f1.mat
    alphas, wt = _grid(grid_points, alpha_max)
    w = np.zeros((dim, dim), dtype=complex)
    for i in range(0, alphas.size, _GRID_CHUNK):
        d_blk = _cahill.disp_stack(alphas[i : i + _GRID_CHUNK], dim)  # [row, col, alpha]
        coef = np.einsum("mn,nmg->g", b, d_blk, optimize=True)
        w += np.einsum("g,mng->nm", wt * coef, d_blk.conj(), optimize=True)
    return Operator(np.linalg.solve(f2.mat, w) @ np.linalg.inv(f1.mat))


def generalized_glauber_check(f1: Operator, f2: Operator, grid_points: int = 41,
                              alpha_max: float = 4.0) -> GlauberCheckReport:
    """Verify the resolution identity on random envelope-suppressed operators of F1's dimension."""
    dim = f1.dim
    if f2.dim != dim:
        raise DimensionMismatchError("F1/F2 dims must match")
    cond_f1, cond_f2 = _conditions(f1, f2)

    w = fock_envelope(dim)
    w2 = np.outer(w, w)
    rng = np.random.default_rng(_CHECK_SEED)
    weighted_err = 0.0
    raw_err = 0.0
    for _ in range(_CHECK_OPS):
        gmat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = Operator(gmat * w2)
        rec = glauber_reconstruct(a, f1, f2, grid_points, alpha_max)
        diff = np.abs(rec.mat - a.mat)
        weighted_err = max(weighted_err, float(np.max(diff * w2) / np.max(np.abs(a.mat) * w2)))
        raw_err = max(raw_err, float(np.max(diff)))
    return GlauberCheckReport(
        dim=dim, grid_points=grid_points, alpha_max=alpha_max, tol=_CHECK_TOL,
        weighted_error=weighted_err, raw_error=raw_err,
        cond_f1=cond_f1, cond_f2=cond_f2, n_test_ops=_CHECK_OPS,
        passed=weighted_err <= _CHECK_TOL,
    )
