"""Density matrices and the standard state zoo.

A DensityMatrix is an Operator whose constructor also checks that it is
Hermitian, of unit trace and positive semidefinite.

Truncation policy: a state builder must either stay faithful inside the
requested dimension or raise TruncationError. Coherent states require
|beta|^2 + 4|beta| <= n_max (mean photon number plus four standard
deviations inside the cutoff); squeezed vacuum and thermal states bound
their tail mass directly.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidSpecError, TruncationError
from .operators import Operator, SqueezeParams, spin_component

__all__ = ["DensityMatrix", "StateSpec", "as_matrix", "make_state"]


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix(Operator):
    """A physical state: an Operator that is Hermitian, unit trace, positive semidefinite."""

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.mat
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > 1e-12:
            raise InvalidSpecError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise InvalidSpecError(f"density matrix trace {tr} != 1")
        evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if evals.min() < -1e-10:
            raise InvalidSpecError(f"density matrix not PSD (min eigenvalue {evals.min():.3e})")

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(dim={self.dim})"


def as_matrix(x) -> np.ndarray:
    """The matrix of an Operator (a DensityMatrix is one); any other input as a complex array."""
    if isinstance(x, Operator):
        return x.mat
    return np.asarray(x, dtype=complex)


@dataclasses.dataclass(frozen=True)
class StateSpec:
    """Declarative recipe for a test/benchmark state."""

    kind: str
    dim: int
    n: int = 0
    beta: complex = 0j
    zeta: complex = 0j
    mean_n: float = 0.0
    seed: int = 0
    twice_s: int = 0
    direction: Optional[Tuple[float, float, float]] = None


def _pure(vec: np.ndarray) -> DensityMatrix:
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def _coherent_amplitudes(beta: complex, dim: int) -> np.ndarray:
    from scipy.special import gammaln

    # amplitudes e^{-|b|^2/2} b^n / sqrt(n!) in log space to dodge overflow
    n = np.arange(dim)
    if beta == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    logmag = -abs(beta) ** 2 / 2 + n * math.log(abs(beta)) - 0.5 * gammaln(n + 1)
    phase = np.exp(1j * n * np.angle(beta))
    return np.exp(logmag) * phase


def make_state(spec: StateSpec) -> DensityMatrix:
    """Realize a StateSpec, raising TruncationError outside the faithful regime."""
    d = spec.dim
    if d < 1:
        raise InvalidSpecError(f"dim must be >= 1, got {d}")
    kind = spec.kind
    for name in ("beta", "zeta", "mean_n"):
        if not cmath.isfinite(complex(getattr(spec, name))):
            raise InvalidSpecError(f"{name} must be finite, got {getattr(spec, name)}")

    if kind == "fock":
        if not (0 <= spec.n < d):
            raise InvalidSpecError(f"fock level {spec.n} outside [0,{d})")
        v = np.zeros(d, dtype=complex)
        v[spec.n] = 1.0
        return _pure(v)

    if kind == "coherent":
        b = complex(spec.beta)
        n_max = d - 1
        if abs(b) ** 2 + 4 * abs(b) > n_max:
            raise TruncationError(
                f"coherent amplitude {abs(b):.4g} needs |b|^2 + 4|b| <= {n_max}"
            )
        amps = _coherent_amplitudes(b, d)
        rho = np.outer(amps, amps.conj())
        rho /= np.trace(rho).real
        return DensityMatrix(rho)

    if kind == "squeezed_vacuum":
        from scipy.special import gammaln

        # amplitudes of S(zeta)|0> with Bogoliubov mu = cosh|z|, nu = e^{2i arg z} sinh|z|:
        # only even levels populated, c_{2k} = (-nu/2mu)^k sqrt((2k)!)/k! / sqrt(mu)
        z = complex(spec.zeta)
        sq = SqueezeParams(z)
        mu, nu = sq.mu, sq.nu
        k = np.arange((d + 1) // 2)
        logmag = k * math.log(abs(nu) / (2 * mu) + 1e-300) + 0.5 * gammaln(2 * k + 1) - gammaln(k + 1)
        phase = np.exp(1j * k * (np.angle(-nu) if nu != 0 else 0.0))
        c_even = np.exp(logmag - 0.5 * math.log(mu)) * phase
        v = np.zeros(d, dtype=complex)
        v[2 * k] = c_even
        norm2 = float(np.vdot(v, v).real)
        # the untruncated norm is exactly 1; demand at most 1e-6 lost mass
        if 1.0 - norm2 > 1e-6:
            raise TruncationError(
                f"squeezed vacuum zeta={z} leaks {1.0 - norm2:.3e} past dim={d}"
            )
        return _pure(v)

    if kind == "thermal":
        nb = float(spec.mean_n)
        if nb < 0:
            raise InvalidSpecError("thermal mean_n must be >= 0")
        if nb == 0:
            return make_state(StateSpec(kind="fock", dim=d, n=0))
        x = nb / (nb + 1.0)
        tail = x**d  # geometric tail mass past the cutoff
        if tail > 1e-6:
            raise TruncationError(f"thermal mean_n={nb} leaves tail mass {tail:.3e} past dim={d}")
        p = (1 - x) * x ** np.arange(d)
        p /= p.sum()
        return DensityMatrix(np.diag(p.astype(complex)))

    if kind == "random_mixed":
        if spec.seed < 0:
            raise InvalidSpecError(f"random_mixed seed must be >= 0, got {spec.seed}")
        rng = np.random.default_rng(spec.seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        return DensityMatrix(rho)

    if kind == "spin_pure":
        if spec.twice_s + 1 != d:
            raise InvalidSpecError(f"spin_pure needs dim = 2s+1, got dim={d} for 2s={spec.twice_s}")
        if spec.direction is None:
            raise InvalidSpecError("spin_pure requires a direction")
        sn = spin_component(spec.twice_s, spec.direction)
        w, v = np.linalg.eigh(sn.mat)
        return _pure(v[:, -1])  # highest-weight state along the axis

    raise InvalidSpecError(f"unknown state kind {kind!r}")

