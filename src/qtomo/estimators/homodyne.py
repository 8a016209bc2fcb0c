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

Records read F_nm(q) from a not-a-knot cubic spline through a dense q
grid: qtomo._special.CubicSpline, a numpy copy of scipy.interpolate's
CubicSpline and PPoly evaluation that tests/test_special.py ties to
scipy bit for bit, so only the squeezed routes at zeta != 0 import scipy (for S).
F_nm = F_mn bit for bit, so the reconstruct spline runs through the d(d+1)/2
columns n <= m alone and F_mn reads F_nm's column. The dense table and that
spline's coefficients are kept on disk (qtomo._tablecache): a process that
finds a key there loads it with the same bytes instead of building it, so a
warm reconstruct reads the coefficients and neither builds nor reads F.
The kernel block is built in _SLICE-record slices whose arrays stay in cache;
every kernel is row-local, so a slice has the bits of the whole.
"""

from __future__ import annotations

import functools
import math
import queue
from typing import Optional, Tuple

import numpy as np

from .. import _parallel
from .._special import CubicSpline, PPoly
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
_Q_CHUNK = 256  # fixes each chunk's contraction order, as the table was first built
_Q_PIECE = 128  # columns per pool task: an 8 MB phase buffer per worker at nk = 4096
_IMAG_TOL = 1e-10
_SLICE = 1024  # kernel-block records per slice: at d = 8 its arrays fit in a 2 MB L2


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
    blocks = _cahill.disp_stack(-0.5j * k, dim).transpose(2, 0, 1).copy()  # (nk, dim, dim)
    return k, g, blocks


def _f_at(qs: np.ndarray, dim: int, k_max: float, reg_eps: float) -> np.ndarray:
    """F[n,m](q) = int dk |k|/4 e^{ikq} e^{-eps k^2} <n|D(-ik/2)|m>; shape (d,d,nq).

    e^{ikq} is cos + i sin for k >= 0; the k < 0 rows are its exact conjugate. GridError
    if a k panel spans over _MAX_PANEL_PHASE at max |q|, never below the dense grid's.

    The q values fall into _Q_CHUNK-column chunks, the last one shorter, and a chunk of
    width w contracts with g in the order that einsum("k,knm,kq->nmq", optimize=True)
    picks for it: g into the blocks first when d^2 <= w (one (d^2, nk) matrix per call),
    else g into the phases first. Each chunk runs as pieces of at most _Q_PIECE columns
    on _parallel.chunk_map, every piece in its chunk's order, with OpenBLAS held at one
    thread throughout; a GEMM column does not depend on the other columns, so the table
    has the same bytes at any pool size. The calling thread allocates one phase buffer
    per worker, and the pieces borrow them, so no worker thread allocates the big arrays
    (glibc keeps what a thread frees in that thread's arena).
    """
    q_max = max(float(np.max(np.abs(qs), initial=0.0)), math.sqrt(dim) + 6.0)
    if k_max / (_PANELS // 2) * q_max > _MAX_PANEL_PHASE:
        raise GridError(f"k_max = {k_max:g} is too large: a k panel spans over "
                        f"{_MAX_PANEL_PHASE:g} rad of e^(ikq) at |q| = {q_max:.3g}")
    k, g, blocks = _k_tables(dim, k_max, reg_eps)
    nk, half, d2 = k.size, k.size // 2, dim * dim
    out = np.empty((dim, dim, qs.size), dtype=complex)
    flat = out.reshape(d2, qs.size)
    pieces = []  # (first column, end column, width of its chunk)
    for start in range(0, qs.size, _Q_CHUNK):
        end = min(start + _Q_CHUNK, qs.size)
        pieces += [(lo, min(lo + _Q_PIECE, end), end - start)
                   for lo in range(start, end, _Q_PIECE)]
    b2 = blocks.reshape(nk, d2)
    lhs = (g[:, None] * b2).T if any(d2 <= w for _, _, w in pieces) else None
    width = min(qs.size, _Q_PIECE)
    buffers = queue.SimpleQueue()
    for buf in np.empty((min(_parallel.max_workers(), len(pieces)), nk * width), dtype=complex):
        buffers.put(buf)

    def piece(i: int) -> None:
        lo, hi, w = pieces[i]
        buf = buffers.get()
        try:
            ph = buf[: nk * (hi - lo)].reshape(nk, hi - lo)
            kq = ph.imag[half:]  # np.outer's products, then their sines in place
            np.multiply(k[half:, None], qs[None, lo:hi], out=kq)
            np.cos(kq, out=ph.real[half:])
            np.sin(kq, out=kq)
            ph.real[:half] = ph.real[: half - 1 : -1]
            np.negative(ph.imag[: half - 1 : -1], out=ph.imag[:half])
            if d2 <= w:
                flat[:, lo:hi] = np.dot(lhs, ph)
            else:
                ph *= g[:, None]
                flat[:, lo:hi] = np.dot(ph.T, b2).T
        finally:
            buffers.put(buf)

    with _parallel._one_blas_thread():
        _parallel.chunk_map(piece, len(pieces))
    return out


def _dense_q(dim: int) -> np.ndarray:
    """The dense q grid of the spline fast paths."""
    q_max = math.sqrt(dim) + 6.0
    return np.linspace(-q_max, q_max, _DENSE_Q_POINTS)


@functools.lru_cache(maxsize=4)
def _dense_f_grid(dim: int, k_max: float, reg_eps: float):
    """Dense q-grid F table (d, d, nq) for the spline fast paths, from the table cache."""
    from .. import _tablecache  # its hashlib loads OpenSSL, 3.7 MB that only this route needs

    qs = _dense_q(dim)
    key = ("homodyne-f", int(dim), float(k_max).hex(), float(reg_eps).hex())
    f = _tablecache.cached(key, (dim, dim, qs.size), complex,
                           lambda: _f_at(qs, dim, k_max, reg_eps))
    return qs, f


def _real_table(f: np.ndarray) -> np.ndarray:
    """F.real, after checking that the imaginary part is summation roundoff.

    F_nm(q) is real analytically: the k and -k blocks are conjugates and
    _f_at builds their phases as exact conjugates, so the contraction rounds alone.
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
    """The dense q grid, one cubic spline through the d(d+1)/2 columns F_kn, k <= n, of the
    real F table, and the (d^2,) map from element k d + n to its spline column.

    F_nk equals F_kn bit for bit, which the build checks, and the spline solves and
    evaluates each column on its own, so every element reads the bits that a spline
    through all d^2 columns gives it. The coefficients come from the table cache.
    """
    from .. import _tablecache

    qs = _dense_q(dim)

    def build() -> np.ndarray:
        f = _real_table(_dense_f_grid(dim, k_max, reg_eps)[1])
        if not np.array_equal(f.view(np.int64), f.transpose(1, 0, 2).view(np.int64)):
            raise NumericPreconditionError(
                "pattern-function table is not symmetric bit for bit: F_kn != F_nk")
        return CubicSpline(qs, f[np.triu_indices(dim)].T).c

    key = ("homodyne-spline", int(dim), float(k_max).hex(), float(reg_eps).hex())
    c = _tablecache.cached(key, (4, qs.size - 1, dim * (dim + 1) // 2), float, build)
    upper = np.triu_indices(dim)  # after the table, so that one too large to build fails first
    col = np.empty((dim, dim), dtype=np.intp)
    col[upper] = col.T[upper] = np.arange(upper[0].size)
    return qs, PPoly(qs, c), col.ravel()


def homodyne_kernel_matrix(q: float, phi: float, cfg: EstimatorConfig) -> Operator:
    """Fock-basis matrix of K(q - qhat_phi)."""
    f = _f_at(np.array([float(q)]), cfg.dim, cfg.k_max, cfg.reg_eps)[:, :, 0]
    n = np.arange(cfg.dim)
    phase = np.exp(1j * phi * (n[:, None] - n[None, :]))
    m = phase * f
    return Operator(0.5 * (m + m.conj().T))  # enforce exact hermiticity of the quadrature


def _band_splines(a_mat: np.ndarray, cfg: EstimatorConfig):
    """The offsets d that A touches, and one spline through their bands
    G_d(q) = sum_{n-m=d} A_mn F_nm(q), column by column.

    Tr[A K(q,phi)] then equals sum_d e^{i d phi} G_d(q), one spline
    evaluation per record instead of a kernel matrix per record.
    """
    dim = cfg.dim
    qs, f = _dense_f_grid(dim, cfg.k_max, cfg.reg_eps)
    offsets = [d for d in range(1 - dim, dim) if np.any(np.diagonal(a_mat, d))]
    bands = np.zeros((qs.size, len(offsets)), dtype=complex)
    for j, d in enumerate(offsets):
        for m in range(max(0, -d), min(dim, dim - d)):
            if a_mat[m, m + d] != 0:
                bands[:, j] += a_mat[m, m + d] * f[m + d, m]
    return qs, offsets, CubicSpline(qs, bands)


def homodyne_kernel_block(settings: np.ndarray, outcomes: np.ndarray, cfg: EstimatorConfig,
                          squeeze: Optional[SqueezeParams] = None) -> np.ndarray:
    """Kernels e^{i(k-n)phi} F_kn(q) for settings phi and outcomes q, as a
    C-contiguous (dim, dim, n) array [k, n, record].

    With squeeze the block is S^dag K S, the kernel that homodyne_estimate traces
    against for squeezed records, multiplied as (n, dim, dim): matmul bits follow layout.
    """
    dim = cfg.dim
    _parallel.max_workers()  # refuses a bad QTOMO_THREADS, which a cached table never reads
    grid, spline, col = _f_spline(dim, cfg.k_max, cfg.reg_eps)
    block = np.empty((dim, dim, outcomes.size), dtype=complex)
    for lo in range(0, outcomes.size, _SLICE):
        rows = slice(lo, lo + _SLICE)
        qc = np.clip(outcomes[rows], grid[0], grid[-1])  # beyond the grid the kernel is ~0
        u = np.exp(1j * settings[rows, 0] * np.arange(dim)[:, None])  # (dim, records)
        part = block[:, :, rows]
        np.multiply(u[:, None, :], u.conj()[None, :, :], out=part)
        part *= spline(qc).T[col].reshape(dim, dim, -1)
    if squeeze is not None:
        s = squeeze_operator(squeeze.zeta, dim).mat
        block = (s.conj().T @ block.transpose(2, 0, 1).copy() @ s).transpose(1, 2, 0).copy()
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
    _parallel.max_workers()  # refuses a bad QTOMO_THREADS, which a cached table never reads
    a_mat = a.mat
    if squeeze is not None:
        s = squeeze_operator(squeeze.zeta, cfg.dim).mat
        a_mat = s @ a_mat @ s.conj().T
    grid, offsets, spline = _band_splines(a_mat, cfg)

    def values(settings: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        qc = np.clip(outcomes, grid[0], grid[-1])  # beyond the grid the kernel is ~0
        bands = spline(qc)
        vals = np.zeros(qc.size, dtype=complex)
        for j, d in enumerate(offsets):
            vals += np.exp(1j * d * settings[:, 0]) * bands[:, j]
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
