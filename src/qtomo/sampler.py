"""Measurement simulation for every quorum family.

Each sampler draws settings and outcomes from the exact distributions of
the truncated state and returns them as one RecordBatch. Randomness is
counter-based: shots come in chunks of CHUNK_SHOTS = 65,536, and chunk i
of every stream owns the Philox key (seed, substream << 32 | i). Each
sampler draws its uniforms chunk by chunk, serially, then solves them in
fixed ROW_BLOCK = 8,192-row blocks on the pool, with numpy's BLAS at one
thread per worker while the pool runs. Each worker thread's glibc arena
holds on to the memory of its block's transients, so the block is small.
Every solve is row-local, so a record stream is a pure function of
(seed, substream), whatever the block size or the number of workers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ._parallel import CHUNK_SHOTS, chunk_map
from .errors import DimensionMismatchError, InvalidSpecError, TruncationError, UsageError
from .estimators.config import EstimatorConfig, SqueezeParams
from .estimators.homodyne import oscillator_wavefunctions
from .estimators.kerr import _sidebands
from .estimators.parity import displaced_parity_expectation
from .operators import pauli, spin_frames, squeeze as squeeze_operator
from .records import RecordBatch
from .states import DensityMatrix

__all__ = [
    "RngStream",
    "sample_homodyne",
    "sample_spin",
    "sample_pauli",
    "sample_displaced_parity",
    "sample_kerr_phase",
]

_LEAK_TOL = 1e-6
_CDF_GRID = 8193
ROW_BLOCK = 1 << 13  # rows per solve; the pool's unit of work


@dataclasses.dataclass(frozen=True)
class RngStream:
    """Root of a reproducible family of generators.

    generator(chunk) is identical across platforms and worker counts for
    fixed (seed, substream, chunk).
    """

    seed: int
    substream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise InvalidSpecError("seed must fit in 64 bits")
        if not (0 <= self.substream < 2**32):
            raise InvalidSpecError("substream must fit in 32 bits")

    def generator(self, chunk: int) -> np.random.Generator:
        if not (0 <= chunk < 2**32):
            raise InvalidSpecError("chunk index must fit in 32 bits")
        return np.random.Generator(
            np.random.Philox(key=[self.seed, (self.substream << 32) | chunk])
        )


def _sampled(quorum: str, shots: int, rng: RngStream, uniforms, solve) -> RecordBatch:
    """The records of shots shots, in shot order.

    Chunk i, the CHUNK_SHOTS shots from i * CHUNK_SHOTS on, draws from
    rng.generator(i): one array of uniforms on [low, high) for each (low, high)
    in uniforms, in that order. solve(start, *columns) turns the uniforms of
    the shots start..start + len(column) into their (settings, outcomes)
    arrays; it runs on the pool, ROW_BLOCK rows at a time.
    """
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")

    def draw(i: int) -> list:
        gen, cnt = rng.generator(i), min(CHUNK_SHOTS, shots - i * CHUNK_SHOTS)
        return [gen.uniform(low, high, cnt) for low, high in uniforms]

    columns = [np.concatenate(c) for c in zip(*map(draw, range(-(-shots // CHUNK_SHOTS))))]
    parts = chunk_map(lambda b: solve(b * ROW_BLOCK, *(col[b * ROW_BLOCK:(b + 1) * ROW_BLOCK]
                                                       for col in columns)),
                      -(-shots // ROW_BLOCK))
    del columns  # spent: free the uniforms before the records are joined
    settings, outcomes = zip(*parts)
    return RecordBatch(quorum, np.concatenate(settings), np.concatenate(outcomes))


def _check_leakage(rho: DensityMatrix) -> None:
    diag = np.diag(rho.mat).real
    mass = diag[-1] + (diag[-2] if rho.dim > 1 else 0.0)
    if mass > _LEAK_TOL:
        raise TruncationError(
            f"state mass {mass:.3e} at the truncation edge exceeds {_LEAK_TOL:g}; "
            "increase dim"
        )


# homodyne ----------------------------------------------------------------

def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the rows of y over x, starting at 0.

    The same arithmetic, term for term, as scipy's
    cumulative_trapezoid(y, x, axis=1, initial=0.0), without importing scipy.
    """
    steps = np.cumsum(np.diff(x) * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)
    return np.concatenate((np.zeros((y.shape[0], 1), dtype=steps.dtype), steps), axis=1)


def _quadrature_tables(rho: DensityMatrix):
    """Cumulative band integrals H_d(q) of h_d = sum_{n-m=d} rho_nm psi_n psi_m.

    The conditional CDF is then H_0 + 2 sum_{d>=1} Re[e^{-i d phi} H_d],
    evaluated per record at grid indices during the bisection search.
    """
    dim = rho.dim
    q_max = math.sqrt(max(dim - 1, 1)) + 2.0
    for _ in range(3):
        qs = np.linspace(-q_max, q_max, _CDF_GRID)
        psi = oscillator_wavefunctions(dim, qs)
        bands = np.zeros((dim, _CDF_GRID), dtype=complex)
        for d in range(dim):
            n = np.arange(d, dim)
            bands[d] = np.einsum("nq,n,nq->q", psi[n], rho.mat[n, n - d], psi[n - d])
        cdf = _cumulative_trapezoid(bands, qs)
        if 1.0 - cdf[0, -1].real <= 1e-8:
            return qs, cdf
        q_max += 2.0
    raise TruncationError(
        f"quadrature mass beyond |q| = {q_max:.2f} exceeds 1e-8; state leaks "
        "through the truncation"
    )


def _bisect(lo: np.ndarray, hi: np.ndarray, steps: int, below, midpoint):
    """Halve each row's bracket [lo, hi] steps times, keeping below(lo) and not below(hi).

    midpoint(lo, hi) splits a bracket; below(mid) is any per-row predicate: the
    CDF test CDF(mid) < target of sample_homodyne, or the screened one of
    sample_kerr_phase.
    """
    for _ in range(steps):
        mid = midpoint(lo, hi)
        less = below(mid)
        lo = np.where(less, mid, lo)
        hi = np.where(less, hi, mid)
    return lo, hi


def _midpoint(lo, hi):
    return 0.5 * (lo + hi)


def sample_homodyne(rho: DensityMatrix, shots: int, rng: RngStream,
                    cfg: EstimatorConfig,
                    squeeze: Optional[SqueezeParams] = None) -> RecordBatch:
    """Phase uniform on [0, pi); quadrature from the exact conditional density.

    With squeeze given, outcomes follow the squeezed quadrature operator's
    distribution, i.e. the plain distribution of the Bogoliubov-rotated
    state.
    """
    if cfg.dim != rho.dim:
        raise DimensionMismatchError(f"config dim {cfg.dim} vs state dim {rho.dim}")
    work = rho
    if squeeze is not None:
        s = squeeze_operator(squeeze.zeta, rho.dim).mat
        work = DensityMatrix(s @ rho.mat @ s.conj().T)
    _check_leakage(work)
    qs, cdf = _quadrature_tables(work)
    h0 = cdf[0].real
    hrest = cdf[1:]
    ds = np.arange(1, rho.dim)
    dq = qs[1] - qs[0]

    def solve(start: int, phis: np.ndarray, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cnt = phis.size
        phases = np.exp(-1j * np.outer(phis, ds))

        def value_at(idx):
            return h0[idx] + 2.0 * np.einsum("gd,dg->g", phases, hrest[:, idx]).real

        target = u * value_at(np.full(cnt, _CDF_GRID - 1))
        # 2^14 > 8193: the bracket collapses to one grid cell
        lo, hi = _bisect(np.zeros(cnt, dtype=np.int64), np.full(cnt, _CDF_GRID - 1, dtype=np.int64),
                         14, lambda idx: value_at(idx) < target, lambda lo, hi: (lo + hi) // 2)
        c_lo = value_at(lo)
        c_hi = value_at(hi)
        frac = np.clip((target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0, 1.0)
        q = qs[lo] + frac * dq
        return phis[:, None], q

    return _sampled("homodyne", shots, rng, ((0.0, np.pi), (0.0, 1.0)), solve)


# spin --------------------------------------------------------------------

def sample_spin(rho: DensityMatrix, twice_s: int, shots: int, rng: RngStream) -> RecordBatch:
    """Directions uniform on the sphere; outcomes from the S.n eigenbasis."""
    dim = twice_s + 1
    if rho.dim != dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs 2s+1 = {dim}")

    def solve(start: int, z: np.ndarray, az: np.ndarray,
              u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        st = np.sqrt(1.0 - z * z)
        dirs = np.stack([st * np.cos(az), st * np.sin(az), z], axis=1)
        vecs = spin_frames(twice_s, dirs)[1]
        probs = np.einsum("gaj,ab,gbj->gj", vecs.conj(), rho.mat, vecs,
                          optimize=True).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        j = (u[:, None] < np.cumsum(probs, axis=1)).argmax(axis=1)
        ms = j - twice_s / 2.0
        return dirs, ms

    return _sampled("spin", shots, rng, ((-1.0, 1.0), (0.0, 2.0 * np.pi), (0.0, 1.0)), solve)


def sample_pauli(rho: DensityMatrix, shots: int, rng: RngStream) -> RecordBatch:
    """Round-robin x, y, z axis measurements on a qubit; outcomes +-1/2."""
    if rho.dim != 2:
        raise DimensionMismatchError("pauli sampling is for qubit states")
    means = [float(np.trace(rho.mat @ pauli(ax).mat).real) for ax in ("x", "y", "z")]

    def solve(start: int, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        axes = (start + np.arange(u.size)) % 3
        p_up = 0.5 * (1.0 + np.array(means)[axes])
        ms = np.where(u < p_up, 0.5, -0.5)
        return axes[:, None], ms

    return _sampled("pauli", shots, rng, ((0.0, 1.0),), solve)


# displaced parity ----------------------------------------------------------

def sample_displaced_parity(rho: DensityMatrix, shots: int, rng: RngStream,
                            cfg: EstimatorConfig) -> RecordBatch:
    """Displacements uniform on the proposal disk; parity of the displaced state."""
    if cfg.dim != rho.dim:
        raise DimensionMismatchError(f"config dim {cfg.dim} vs state dim {rho.dim}")
    _check_leakage(rho)
    radius = cfg.parity_radius()

    def solve(start: int, u_r: np.ndarray, u_t: np.ndarray,
              u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        b = radius * np.sqrt(u_r) * np.exp(2j * np.pi * u_t)
        g = displaced_parity_expectation(rho, b)
        p_plus = np.clip(0.5 * (1.0 + g), 0.0, 1.0)
        s = np.where(u < p_plus, 1.0, -1.0)
        return np.stack([b.real, b.imag], axis=1), s

    return _sampled("parity", shots, rng, ((0.0, 1.0),) * 3, solve)


# Kerr phase ----------------------------------------------------------------

_KERR_STEPS = 47  # bisection levels of every outcome


def _kerr_cdf(phi: np.ndarray, ct: np.ndarray, base: np.ndarray) -> np.ndarray:
    """cdf(phi) of each row: the sum over k as written, from the (K, n) coefficients ct."""
    e = 1j * np.arange(1, ct.shape[0] + 1)[:, None] * phi
    np.exp(e, out=e)
    return phi / (2.0 * np.pi) + (np.einsum("dg,dg->g", ct, e) - base).real / np.pi


def _kerr_screen(phi: np.ndarray, ct: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The same sum by Horner's rule in z = e^{i phi}, from the (K, n) coefficients ct."""
    z = np.exp(1j * phi)
    p = np.zeros_like(base)
    for ck in ct[::-1]:
        p += ck
        p *= z
    return phi / (2.0 * np.pi) + (p - base).real / np.pi


def sample_kerr_phase(rho: DensityMatrix, shots: int, rng: RngStream,
                      cfg: EstimatorConfig) -> RecordBatch:
    """Kerr strength uniform on [0, 2pi); phase from its exact conditional.

    The conditional CDF of row g is the closed trigonometric sum

        F(phi) = phi / 2pi + Re(sum_k c_k e^{i k phi} - sum_k c_k) / pi,

    with c_k = c_k(psi_g) / (i k) from the sideband coefficients (k = 1..K,
    K = dim - 1). The outcome is the midpoint of a 47-step bisection of
    [0, 2pi] that keeps cdf(lo) < u and not cdf(hi) < u, where cdf() is
    _kerr_cdf, F in floats. That is the refinement limit of any inverse-CDF
    grid. Each step decides by screen() (_kerr_screen), F by Horner's rule in
    z = e^{i phi}: one complex exponential per row, not K. Only the rows
    with |screen - u| <= delta = 8 dim eps (1 + S), S = sum_k |c_k|, take the
    exact cdf(). Every decision is then cdf(mid) < u, so the bits are those
    of the plain bisection of cdf().

    Why. Let G be F in exact arithmetic from the float c_k and the float
    base that both evaluations subtract, and u_r = eps / 2.
    - cdf() errs from G by at most u_r ((2.7 K + 3.9) S + 3): the angle
      fl(phi k) by 2pi K u_r, the exponential by 2 u_r, the product with c_k
      by 3 u_r, the K-term sum by (K - 1) u_r, and the tail (base, fl(pi),
      phi / fl(2pi), the last addition) by a few u_r more.
    - screen() errs from G by at most u_r ((5.3 K + 3.9) S + 3): z's error of
      2 u_r (the same assumption on the exponential) moves the sum by at most
      2 K u_r S, Horner's K complex multiply-adds by 3.3 K u_r S, and the
      tail is cdf()'s.
    - So |screen - cdf| <= u_r ((8 K + 7.8) S + 6) <= 8 dim u_r (1 + S) = delta / 2,
      and |screen - u| > delta puts cdf() on the same side of u as screen().
      The factor 2 also covers the rounding of delta and of screen - u.
    """
    if cfg.dim != rho.dim:
        raise DimensionMismatchError(f"config dim {cfg.dim} vs state dim {rho.dim}")
    dim = rho.dim
    ds = np.arange(1, dim)
    eps = np.finfo(float).eps

    def solve(start: int, ps: np.ndarray, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        cnt = ps.size
        c = _sidebands(rho, ps, ds) / (1j * ds)[None, :]
        base = np.sum(c, axis=1)  # subtracted so that CDF(0) = 0
        delta = 8 * dim * eps * (1.0 + np.sum(np.abs(c), axis=1))
        ct = np.ascontiguousarray(c.T)  # Horner and cdf() read one contiguous row per k
        del c

        def below(mid):
            screen = _kerr_screen(mid, ct, base)
            less = screen < u
            # one exact call: in steps 44-47 nearly every row is within delta of u (about 34,
            # 59, 91 and 100 % of a block's rows at coherent beta = 0.6, dim 8)
            near = np.flatnonzero(np.abs(screen - u) <= delta)
            less[near] = _kerr_cdf(mid[near], ct[:, near], base[near]) < u[near]
            return less

        lo, hi = _bisect(np.zeros(cnt), np.full(cnt, 2.0 * np.pi), _KERR_STEPS, below, _midpoint)
        return ps[:, None], _midpoint(lo, hi)

    return _sampled("kerr", shots, rng, ((0.0, 2.0 * np.pi), (0.0, 1.0)), solve)
