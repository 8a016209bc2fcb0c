"""Measurement simulation for every quorum family.

Each sampler draws settings and outcomes from the exact distributions of
the truncated state and returns them as one RecordBatch. Randomness is
counter-based: a record stream is a pure function of (seed, substream)
regardless of how many workers executed the chunks, because chunk i of
every stream owns the Philox key (seed, substream << 32 | i).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ._parallel import CHUNK_SHOTS, chunk_map
from .errors import InvalidSpecError, TruncationError, UsageError
from .estimators.config import EstimatorConfig, SqueezeParams
from .estimators.homodyne import oscillator_wavefunctions
from .estimators.kerr import kerr_sideband_coefficients
from .estimators.parity import displaced_parity_expectation
from .estimators.spin import _eigvecs
from .operators import squeeze as squeeze_operator
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


def _sampled(quorum: str, shots: int, rng: RngStream, draw) -> RecordBatch:
    """Records of every chunk of CHUNK_SHOTS shots, concatenated in chunk order.

    draw(gen, start, cnt) returns the (settings, outcomes) arrays of shots
    start..start+cnt; chunk i draws from rng.generator(i).
    """
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    parts = chunk_map(lambda i: draw(rng.generator(i), i * CHUNK_SHOTS,
                                     min(CHUNK_SHOTS, shots - i * CHUNK_SHOTS)),
                      -(-shots // CHUNK_SHOTS))
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


def _homodyne_cdf_at(idx, h0: np.ndarray, hrest: np.ndarray, phases: np.ndarray):
    vals = h0[idx] + 2.0 * np.einsum("gd,dg->g", phases, hrest[:, idx]).real
    return vals


def _bisect(lo: np.ndarray, hi: np.ndarray, steps: int, below, midpoint):
    """Halve each row's bracket [lo, hi] steps times, keeping below(lo) and not below(hi).

    midpoint(lo, hi) splits a bracket; below(mid) is the per-row test CDF(mid) < target.
    """
    for _ in range(steps):
        mid = midpoint(lo, hi)
        less = below(mid)
        lo = np.where(less, mid, lo)
        hi = np.where(less, hi, mid)
    return lo, hi


def sample_homodyne(rho: DensityMatrix, shots: int, rng: RngStream,
                    cfg: EstimatorConfig,
                    squeeze: Optional[SqueezeParams] = None) -> RecordBatch:
    """Phase uniform on [0, pi); quadrature from the exact conditional density.

    With squeeze given, outcomes follow the squeezed quadrature operator's
    distribution, i.e. the plain distribution of the Bogoliubov-rotated
    state.
    """
    if cfg.dim != rho.dim:
        raise UsageError(f"config dim {cfg.dim} vs state dim {rho.dim}")
    work = rho
    if squeeze is not None and complex(squeeze.zeta) != 0:
        s = squeeze_operator(squeeze.zeta, rho.dim).mat
        work = DensityMatrix(s @ rho.mat @ s.conj().T)
    _check_leakage(work)
    qs, cdf = _quadrature_tables(work)
    h0 = cdf[0].real
    hrest = cdf[1:]
    ds = np.arange(1, rho.dim)
    dq = qs[1] - qs[0]

    def draw(gen: np.random.Generator, start: int, cnt: int) -> Tuple[np.ndarray, np.ndarray]:
        phis = gen.uniform(0.0, np.pi, cnt)
        u = gen.uniform(0.0, 1.0, cnt)
        phases = np.exp(-1j * np.outer(phis, ds))
        total = _homodyne_cdf_at(np.full(cnt, _CDF_GRID - 1), h0, hrest, phases)
        target = u * total

        def value_at(idx):
            return _homodyne_cdf_at(idx, h0, hrest, phases)

        # 2^14 > 8193: the bracket collapses to one grid cell
        lo, hi = _bisect(np.zeros(cnt, dtype=np.int64), np.full(cnt, _CDF_GRID - 1, dtype=np.int64),
                         14, lambda idx: value_at(idx) < target, lambda lo, hi: (lo + hi) // 2)
        c_lo = value_at(lo)
        c_hi = value_at(hi)
        frac = np.clip((target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0, 1.0)
        q = qs[lo] + frac * dq
        return phis[:, None], q

    return _sampled("homodyne", shots, rng, draw)


# spin --------------------------------------------------------------------

def sample_spin(rho: DensityMatrix, twice_s: int, shots: int, rng: RngStream) -> RecordBatch:
    """Directions uniform on the sphere; outcomes from the S.n eigenbasis."""
    dim = twice_s + 1
    if rho.dim != dim:
        raise UsageError(f"state dim {rho.dim} vs 2s+1 = {dim}")

    def draw(gen: np.random.Generator, start: int, cnt: int) -> Tuple[np.ndarray, np.ndarray]:
        z = gen.uniform(-1.0, 1.0, cnt)
        az = gen.uniform(0.0, 2.0 * np.pi, cnt)
        st = np.sqrt(1.0 - z * z)
        dirs = np.stack([st * np.cos(az), st * np.sin(az), z], axis=1)
        vecs = _eigvecs(dirs, twice_s)
        probs = np.einsum("gaj,ab,gbj->gj", vecs.conj(), rho.mat, vecs,
                          optimize=True).real
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        u = gen.uniform(0.0, 1.0, cnt)
        j = (u[:, None] < np.cumsum(probs, axis=1)).argmax(axis=1)
        ms = j - twice_s / 2.0
        return dirs, ms

    return _sampled("spin", shots, rng, draw)


def sample_pauli(rho: DensityMatrix, shots: int, rng: RngStream) -> RecordBatch:
    """Round-robin x, y, z axis measurements on a qubit; outcomes +-1/2."""
    if rho.dim != 2:
        raise UsageError("pauli sampling is for qubit states")
    from .operators import pauli

    means = [float(np.trace(rho.mat @ pauli(ax).mat).real) for ax in ("x", "y", "z")]

    def draw(gen: np.random.Generator, start: int, cnt: int) -> Tuple[np.ndarray, np.ndarray]:
        axes = (start + np.arange(cnt)) % 3
        p_up = 0.5 * (1.0 + np.array(means)[axes])
        u = gen.uniform(0.0, 1.0, cnt)
        ms = np.where(u < p_up, 0.5, -0.5)
        return axes[:, None], ms

    return _sampled("pauli", shots, rng, draw)


# displaced parity ----------------------------------------------------------

def sample_displaced_parity(rho: DensityMatrix, shots: int, rng: RngStream,
                            cfg: EstimatorConfig) -> RecordBatch:
    """Displacements uniform on the proposal disk; parity of the displaced state."""
    if cfg.dim != rho.dim:
        raise UsageError(f"config dim {cfg.dim} vs state dim {rho.dim}")
    _check_leakage(rho)
    radius = cfg.parity_radius()

    def draw(gen: np.random.Generator, start: int, cnt: int) -> Tuple[np.ndarray, np.ndarray]:
        u_r = gen.uniform(0.0, 1.0, cnt)
        u_t = gen.uniform(0.0, 1.0, cnt)
        b = radius * np.sqrt(u_r) * np.exp(2j * np.pi * u_t)
        g = displaced_parity_expectation(rho, b)
        p_plus = np.clip(0.5 * (1.0 + g), 0.0, 1.0)
        u = gen.uniform(0.0, 1.0, cnt)
        s = np.where(u < p_plus, 1.0, -1.0)
        return np.stack([b.real, b.imag], axis=1), s

    return _sampled("parity", shots, rng, draw)


# Kerr phase ----------------------------------------------------------------

def sample_kerr_phase(rho: DensityMatrix, shots: int, rng: RngStream,
                      cfg: EstimatorConfig) -> RecordBatch:
    """Kerr strength uniform on [0, 2pi); phase from its exact conditional.

    The conditional CDF is the closed trigonometric sum over the sideband
    coefficients c_d(psi), inverted by bisection to float precision; this
    is the refinement limit of any inverse-CDF grid.
    """
    if cfg.dim != rho.dim:
        raise UsageError(f"config dim {cfg.dim} vs state dim {rho.dim}")
    ds = np.arange(1, rho.dim)

    def draw(gen: np.random.Generator, start: int, cnt: int) -> Tuple[np.ndarray, np.ndarray]:
        ps = gen.uniform(0.0, 2.0 * np.pi, cnt)
        u = gen.uniform(0.0, 1.0, cnt)
        c = kerr_sideband_coefficients(rho, ps)[:, 1:] / (1j * ds)[None, :]
        base = np.sum(c, axis=1)  # subtracted so that CDF(0) = 0

        def cdf(phi):
            e = np.exp(1j * phi[:, None] * ds[None, :])
            return phi / (2.0 * np.pi) + (np.einsum("gd,gd->g", c, e) - base).real / np.pi

        lo, hi = _bisect(np.zeros(cnt), np.full(cnt, 2.0 * np.pi), 47,
                         lambda phi: cdf(phi) < u, lambda lo, hi: 0.5 * (lo + hi))
        phi = 0.5 * (lo + hi)
        return ps[:, None], phi

    return _sampled("kerr", shots, rng, draw)
