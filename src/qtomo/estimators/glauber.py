"""Displacement-operator resolution checks on a phase-space grid.

The identity A = int d^2a/pi Tr[A F1 D(a) F2] F2^-1 D^dag(a) F1^-1 holds
for any invertible F1, F2. Discretized on a square grid it is only as
good as the grid and the tails of A, so the check draws test operators
with a Gaussian envelope in the Fock index and scores the error under
the same envelope; the raw elementwise error is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, RankDeficientError
from ..frames import SettingLabel, SpanningSet
from ..operators import Operator
from . import _cahill
from .config import EstimatorConfig

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


def _grid(cfg: EstimatorConfig):
    g = cfg.alpha_grid_points
    xs = np.linspace(-cfg.alpha_max, cfg.alpha_max, g)
    dx = xs[1] - xs[0]
    re, im = np.meshgrid(xs, xs, indexing="ij")
    alphas = (re + 1j * im).ravel()
    return g, alphas, dx * dx / np.pi


def displacement_grid_set(cfg: EstimatorConfig) -> SpanningSet:
    """Weyl quorum: displacement operators on the square alpha grid, weights d^2a/pi.

    Elements are the exact matrix blocks of the full displacement operator,
    not exponentials of the truncated ladder (those span strictly less).
    """
    _, alphas, wt = _grid(cfg)
    labels = [SettingLabel("weyl", (al.real, al.imag)) for al in alphas.tolist()]
    return SpanningSet(_cahill.disp_stack(alphas, cfg.dim), np.full(alphas.size, wt), labels)


def fock_envelope(dim: int, sigma: float = _ENVELOPE_SIGMA) -> np.ndarray:
    """Per-index weights e^{-n^2 / 2 sigma^2} used to draw and score test operators."""
    n = np.arange(dim)
    return np.exp(-(n * n) / (2.0 * sigma * sigma))


def glauber_reconstruct(a: Operator, f1: Operator, f2: Operator,
                        cfg: EstimatorConfig) -> Operator:
    """Grid sum of Tr[A F1 D(a) F2] F2^-1 D^dag(a) F1^-1 d^2a/pi."""
    dim = cfg.dim
    if a.dim != dim or f1.dim != dim or f2.dim != dim:
        raise DimensionMismatchError("operator dims must match config dim")
    f1i = np.linalg.inv(f1.mat)
    f2i = np.linalg.inv(f2.mat)
    _, alphas, wt = _grid(cfg)
    rec = np.zeros((dim, dim), dtype=complex)
    for i in range(0, alphas.size, _GRID_CHUNK):
        d_blk = _cahill.disp_stack(alphas[i : i + _GRID_CHUNK], dim)
        b_blk = np.einsum("ab,gbc,cd->gad", f1.mat, d_blk, f2.mat, optimize=True)
        c_blk = np.einsum("ab,gcb,cd->gad", f2i, d_blk.conj(), f1i, optimize=True)
        coef = np.einsum("mn,gnm->g", a.mat, b_blk, optimize=True)
        rec += np.einsum("g,gnm->nm", wt * coef, c_blk, optimize=True)
    return Operator(rec)


def generalized_glauber_check(f1: Operator, f2: Operator,
                              cfg: EstimatorConfig) -> GlauberCheckReport:
    """Verify the resolution identity on random envelope-suppressed operators."""
    dim = cfg.dim
    if f1.dim != dim or f2.dim != dim:
        raise DimensionMismatchError("F1/F2 dims must match config dim")
    cond_f1 = float(np.linalg.cond(f1.mat))
    cond_f2 = float(np.linalg.cond(f2.mat))
    if not np.isfinite(cond_f1) or cond_f1 > _COND_LIMIT:
        raise RankDeficientError(f"F1 is numerically singular (cond {cond_f1:.2e})")
    if not np.isfinite(cond_f2) or cond_f2 > _COND_LIMIT:
        raise RankDeficientError(f"F2 is numerically singular (cond {cond_f2:.2e})")

    g, _, _ = _grid(cfg)
    w = fock_envelope(dim)
    w2 = np.outer(w, w)
    rng = np.random.default_rng(_CHECK_SEED)
    weighted_err = 0.0
    raw_err = 0.0
    for _ in range(_CHECK_OPS):
        gmat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = Operator(gmat * w2)
        rec = glauber_reconstruct(a, f1, f2, cfg)
        diff = np.abs(rec.mat - a.mat)
        weighted_err = max(weighted_err, float(np.max(diff * w2) / np.max(np.abs(a.mat) * w2)))
        raw_err = max(raw_err, float(np.max(diff)))
    return GlauberCheckReport(
        dim=dim, grid_points=g, alpha_max=cfg.alpha_max, tol=_CHECK_TOL,
        weighted_error=weighted_err, raw_error=raw_err,
        cond_f1=cond_f1, cond_f2=cond_f2, n_test_ops=_CHECK_OPS,
        passed=weighted_err <= _CHECK_TOL,
    )
