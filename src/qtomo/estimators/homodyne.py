"""Quadrature-distribution tomography via the singular-kernel route.

The kernel K(q - qhat_phi) is computed in the Fock basis through its
frequency integral: exp(-ik qhat_0) equals D(-ik/2) exactly, so the
integrand is available from the Laguerre closed form at any k, and the
phase dependence is conjugation by e^{i phi n}. The regularizer
e^{-reg_eps k^2} makes the integral absolutely convergent; it is
equivalent to smearing q by a centered Gaussian of variance 2 reg_eps,
which leaves <I> and <a> unbiased and shifts <a^dag a> by +4 reg_eps.

Phase conventions, fixed once for samplers and estimators alike:
  |q_phi> = e^{i phi n} |q>,   <n|q_phi> = e^{i n phi} psi_n(q)
  p(q; phi) = sum_nm rho_nm e^{-i(n-m)phi} psi_n(q) psi_m(q)
  K_nm(q, phi) = e^{+i(n-m)phi} F_nm(q)
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

from ..errors import DimensionMismatchError, GridError, NumericPreconditionError
from ..operators import Operator, squeeze as squeeze_operator
from ..records import RecordBatch, walk
from ..states import as_matrix
from . import _cahill
from .config import EstimatorConfig, SqueezeParams

__all__ = [
    "homodyne_kernel_matrix",
    "homodyne_kernel_block",
    "homodyne_estimate",
    "exact_homodyne_average",
    "exact_squeezed_average",
    "oscillator_wavefunctions",
]

_PANELS = 256
_PANEL_ORDER = 16
# Radians of e^{ikq} one k panel may span: 20 keeps the d = 8 table within 1e-10 of k_max = 40
_MAX_PANEL_PHASE = 20.0
_DENSE_Q_POINTS = 4097
_IMAG_TOL = 1e-10


def oscillator_wavefunctions(dim: int, q: np.ndarray) -> np.ndarray:
    """psi_n(q) for n < dim, unit-variance-1/4 convention; shape (dim, len(q)).

    The normalized three-term recurrence keeps every value O(1), so no
    rescaling is needed at the dimensions this library targets.
    """
    q = np.asarray(q, dtype=float)
    psi = np.empty((dim, q.size))
    psi[0] = (2.0 / math.pi) ** 0.25 * np.exp(-q * q)
    if dim > 1:
        psi[1] = 2.0 * q * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = (2.0 * q * psi[n] - math.sqrt(n) * psi[n - 1]) / math.sqrt(n + 1)
    return psi


def _k_rule(k_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Panel Gauss-Legendre rule over [-k_max, k_max], its k < 0 half the exact
    mirror of its k > 0 half; resolves the |k| kink at 0."""
    nodes, weights = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    edges = np.linspace(0.0, k_max, _PANELS // 2 + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    k = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return np.concatenate([-k[::-1], k]), np.concatenate([w[::-1], w])


@functools.lru_cache(maxsize=8)
def _k_tables(dim: int, k_max: float, reg_eps: float):
    """Frequency nodes, damped weights, and D(-ik/2) blocks for the kernel integral."""
    k, w = _k_rule(k_max)
    g = w * (np.abs(k) / 4.0) * np.exp(-reg_eps * k * k)
    half = k.size // 2
    if not (np.array_equal(k[:half], -k[: half - 1 : -1]) and np.array_equal(g, g[::-1])):
        raise NumericPreconditionError("the k rule is not mirror-symmetric bit for bit")
    blocks = _cahill.disp_stack(-0.5j * k, dim)  # (nk, dim, dim)
    return k, g, blocks


def _f_at(qs: np.ndarray, dim: int, k_max: float, reg_eps: float) -> np.ndarray:
    """F[n,m](q) = int dk |k|/4 e^{ikq} e^{-eps k^2} <n|D(-ik/2)|m>; shape (d,d,nq).
    e^{ikq} is cos + i sin for k >= 0; the k < 0 rows are its exact conjugate. GridError
    if a k panel spans over _MAX_PANEL_PHASE at max |q|, never below the dense grid's."""
    q_max = max(float(np.max(np.abs(qs), initial=0.0)), math.sqrt(dim) + 6.0)
    if k_max / (_PANELS // 2) * q_max > _MAX_PANEL_PHASE:
        raise GridError(f"k_max = {k_max:g} is too large: a k panel spans over "
                        f"{_MAX_PANEL_PHASE:g} rad of e^(ikq) at |q| = {q_max:.3g}")
    k, g, blocks = _k_tables(dim, k_max, reg_eps)
    half = k.size // 2
    out = np.empty((dim, dim, qs.size), dtype=complex)
    buf = np.empty(k.size * min(qs.size, 256), dtype=complex)
    for i in range(0, qs.size, 256):
        qc = qs[i : i + 256]
        ph = buf[: k.size * qc.size].reshape(k.size, qc.size)  # (nk, nq)
        kq = np.outer(k[half:], qc)
        np.cos(kq, out=ph.real[half:])
        np.sin(kq, out=ph.imag[half:])
        ph.real[:half] = ph.real[: half - 1 : -1]
        np.negative(ph.imag[: half - 1 : -1], out=ph.imag[:half])
        out[:, :, i : i + 256] = np.einsum("k,knm,kq->nmq", g, blocks, ph, optimize=True)
    return out


@functools.lru_cache(maxsize=4)
def _dense_f_grid(dim: int, k_max: float, reg_eps: float):
    """Dense q-grid F table (d, d, nq) for the spline fast paths."""
    q_max = math.sqrt(dim) + 6.0
    qs = np.linspace(-q_max, q_max, _DENSE_Q_POINTS)
    f = _f_at(qs, dim, k_max, reg_eps)
    return qs, f


def _real_table(f: np.ndarray) -> np.ndarray:
    """F.real, after checking that the imaginary part is summation roundoff.

    F_nm(q) is real analytically: the k and -k blocks are conjugates and
    _f_at builds their phases as exact conjugates, so the einsum rounds alone.
    """
    scale = float(np.max(np.abs(f)))
    imag = float(np.max(np.abs(f.imag)))
    if imag > _IMAG_TOL * scale:
        raise NumericPreconditionError(
            f"pattern-function table has imaginary part {imag:.3e} "
            f"(max |F| = {scale:.3e}), beyond summation roundoff"
        )
    return f.real


@functools.lru_cache(maxsize=4)
def _f_spline(dim: int, k_max: float, reg_eps: float):
    """One cubic spline through all d^2 columns of the real F table."""
    from scipy.interpolate import CubicSpline

    qs, f = _dense_f_grid(dim, k_max, reg_eps)
    return qs, CubicSpline(qs, _real_table(f).reshape(dim * dim, -1).T)


def homodyne_kernel_matrix(q: float, phi: float, cfg: EstimatorConfig) -> Operator:
    """Fock-basis matrix of K(q - qhat_phi)."""
    f = _f_at(np.array([float(q)]), cfg.dim, cfg.k_max, cfg.reg_eps)[:, :, 0]
    n = np.arange(cfg.dim)
    phase = np.exp(1j * phi * (n[:, None] - n[None, :]))
    m = phase * f
    return Operator(0.5 * (m + m.conj().T))  # enforce exact hermiticity of the quadrature


def _band_splines(a_mat: np.ndarray, cfg: EstimatorConfig):
    """Per-offset splines of G_d(q) = sum_{n-m=d} A_mn F_nm(q).

    Tr[A K(q,phi)] then equals sum_d e^{i d phi} G_d(q), one spline
    evaluation per diagonal offset instead of a kernel matrix per record.
    """
    from scipy.interpolate import CubicSpline

    dim = cfg.dim
    qs, f = _dense_f_grid(dim, cfg.k_max, cfg.reg_eps)
    splines = {}
    for d in range(-(dim - 1), dim):
        g = np.zeros(qs.size, dtype=complex)
        hit = False
        for m in range(dim):
            n = m + d
            if 0 <= n < dim and a_mat[m, n] != 0:
                g += a_mat[m, n] * f[n, m]
                hit = True
        if hit:
            splines[d] = CubicSpline(qs, g)
    return qs, splines


def homodyne_kernel_block(settings: np.ndarray, outcomes: np.ndarray, cfg: EstimatorConfig,
                          squeeze: Optional[SqueezeParams] = None) -> np.ndarray:
    """Kernels e^{i(k-n)phi} F_kn(q) for settings phi and outcomes q.

    With squeeze the block is S^dag K S, the kernel that
    homodyne_estimate traces against for squeezed records.
    """
    dim = cfg.dim
    grid, spline = _f_spline(dim, cfg.k_max, cfg.reg_eps)
    qc = np.clip(outcomes, grid[0], grid[-1])  # beyond the grid the kernel is ~0
    u = np.exp(1j * settings[:, 0, None] * np.arange(dim))
    block = u[:, :, None] * u.conj()[:, None, :]
    block *= spline(qc).reshape(-1, dim, dim)
    if squeeze is not None:
        s = squeeze_operator(squeeze.zeta, dim).mat
        block = s.conj().T @ block @ s
    return block


def homodyne_estimate(a: Operator, records: RecordBatch, cfg: EstimatorConfig,
                      squeeze: Optional[SqueezeParams] = None):
    """Sample mean of Tr[A K(q_i - qhat_{phi_i})] with its standard error.

    With squeeze the records must come from the distribution of the
    squeezed quadrature S^dag qhat_phi S; the kernel trace is then taken
    with S A S^dag, which reduces to the plain estimator at zeta = 0.
    """
    if a.dim != cfg.dim:
        raise DimensionMismatchError(f"operator dim {a.dim} vs config dim {cfg.dim}")
    records.require("homodyne", 2, cfg.dim)
    a_mat = a.mat
    if squeeze is not None:
        s = squeeze_operator(squeeze.zeta, cfg.dim).mat
        a_mat = s @ a_mat @ s.conj().T
    grid, splines = _band_splines(a_mat, cfg)

    def values(settings: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        qc = np.clip(outcomes, grid[0], grid[-1])  # beyond the grid the kernel is ~0
        vals = np.zeros(qc.size, dtype=complex)
        for d, sp in splines.items():
            vals += np.exp(1j * d * settings[:, 0]) * sp(qc)
        return vals

    return walk(records, values)[0]


def exact_homodyne_average(a: Operator, rho, cfg: EstimatorConfig) -> complex:
    """Deterministic double integral of the kernel against p(q; phi).

    q by 512-node Gauss-Legendre on the faithful window, phi by uniform
    grid of 4*dim+1 points on [0, pi): after the q integral the phi
    dependence is a trig polynomial with only even frequencies (odd ones
    carry odd q-parity), so any grid above 2*dim points integrates it
    exactly.
    """
    dim = cfg.dim
    rho_m = as_matrix(rho)
    if a.dim != dim or rho_m.shape[0] != dim:
        raise DimensionMismatchError("operator/state/config dims differ")
    q_max = math.sqrt(dim) + 4.0
    nodes, weights = np.polynomial.legendre.leggauss(512)
    qq = nodes * q_max
    qw = weights * q_max
    psi = oscillator_wavefunctions(dim, qq)
    f = _f_at(qq, dim, cfg.k_max, cfg.reg_eps)
    n_phi = 4 * dim + 1
    phis = np.arange(n_phi) * math.pi / n_phi
    idx = np.arange(dim)
    total = 0.0 + 0.0j
    for phi in phis:
        amp = psi * np.exp(1j * idx * phi)[:, None]  # <n|q_phi> = e^{i n phi} psi_n
        p = np.einsum("nq,nm,mq->q", amp.conj(), rho_m, amp, optimize=True).real
        phase = np.exp(1j * phi * (idx[:, None] - idx[None, :]))
        r_vals = np.einsum("mn,nm,nmq->q", a.mat, phase, f, optimize=True)
        total += np.sum(qw * p * r_vals) / n_phi
    return complex(total)


def exact_squeezed_average(a: Operator, rho, sq: SqueezeParams, cfg: EstimatorConfig) -> complex:
    """Exact-average analogue of homodyne_estimate with squeeze."""
    s = squeeze_operator(sq.zeta, cfg.dim).mat
    rho_m = as_matrix(rho)
    a_tilde = Operator(s @ a.mat @ s.conj().T)
    rho_tilde = s @ rho_m @ s.conj().T
    return exact_homodyne_average(a_tilde, rho_tilde, cfg)
