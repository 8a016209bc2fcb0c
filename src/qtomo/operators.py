"""Dense operator algebra on truncated Hilbert spaces.

Everything downstream (frames, estimator kernels, samplers) works with
plain dim x dim complex matrices wrapped in the Operator type. Builders
for the standard quantum-optics and spin operators live here; the
exponential-family ones (displacement, squeeze) exponentiate
the truncated generator, so they are exactly unitary on the truncated
space but only approximate the infinite-dimensional operator when the
relevant excitation numbers stay well below dim.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Tuple

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError

__all__ = [
    "Operator",
    "hs_inner",
    "hs_norm",
    "identity",
    "annihilation",
    "number",
    "parity",
    "quadrature",
    "displacement",
    "squeeze",
    "SqueezeParams",
    "fock_matrix_unit",
    "spin_matrices",
    "spin_frames",
    "pauli",
]


@dataclasses.dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix; the universal operator container."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidSpecError(f"operator must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InvalidSpecError("operator dimension must be >= 1")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise InvalidSpecError("operator entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Operator(dim={self.dim})"


def _check_dims(a: Operator, b: Operator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def hs_inner(a: Operator, b: Operator) -> complex:
    """Hilbert-Schmidt inner product Tr[A^dag B], conjugate-linear in A."""
    _check_dims(a, b)
    # vdot conjugates its first argument; row-major flattening matches Tr[A^dag B]
    return complex(np.vdot(a.mat, b.mat))


def hs_norm(a: Operator) -> float:
    """Frobenius norm, sqrt of hs_inner(a, a)."""
    return float(np.linalg.norm(a.mat))


# ---------------------------------------------------------------------------
# builders


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def annihilation(dim: int) -> Operator:
    m = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        m[n - 1, n] = math.sqrt(n)
    return Operator(m)


def number(dim: int) -> Operator:
    return Operator(np.diag(np.arange(dim, dtype=float)).astype(complex))


def parity(dim: int) -> Operator:
    signs = np.array([(-1.0) ** n for n in range(dim)], dtype=complex)
    return Operator(np.diag(signs))


def quadrature(phi: float, dim: int) -> Operator:
    """Rotated quadrature (a e^{-i phi} + a^dag e^{i phi}) / 2."""
    a = annihilation(dim).mat
    m = 0.5 * (a * np.exp(-1j * phi) + a.conj().T * np.exp(1j * phi))
    return Operator(m)


def displacement(alpha: complex, dim: int) -> Operator:
    """exp(alpha a^dag - conj(alpha) a) on the truncated space.

    Exactly unitary for any alpha, but faithful to the infinite-dimensional
    displacement only while |alpha|^2 stays well below dim.
    """
    from scipy.linalg import expm

    a = annihilation(dim).mat
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return Operator(expm(gen))


def squeeze(zeta: complex, dim: int) -> Operator:
    """exp((xi a^dag^2 - conj(xi) a^2) / 2), xi = |zeta| e^{2i arg zeta}, on the truncated space.

    Its Bogoliubov action is S^dag a S = mu a + nu a^dag with
    mu = cosh|zeta| and nu = e^{2i arg zeta} sinh|zeta|, as in SqueezeParams.
    zeta = 0 gives the identity, without loading scipy.
    """
    z = complex(zeta)
    if z == 0:
        return identity(dim)
    from scipy.linalg import expm

    xi = abs(z) * np.exp(2j * np.angle(z))
    a = annihilation(dim).mat
    ad = a.conj().T
    return Operator(expm(0.5 * (xi * (ad @ ad) - np.conj(xi) * (a @ a))))


# the largest |zeta| whose mu^2 = cosh^2|zeta| fits a double
_MAX_ABS_ZETA = 0.5 * math.log(sys.float_info.max)


@dataclasses.dataclass(frozen=True)
class SqueezeParams:
    """Bogoliubov data of a squeezing strength zeta.

    mu = cosh|zeta| and nu = e^{2i arg zeta} sinh|zeta|, so that the
    squeezed quadrature operator is (mu e^{i phi} + nu e^{-i phi}) a^dag/2
    plus the conjugate term, and mu^2 - |nu|^2 = 1 identically.
    """

    zeta: complex

    @property
    def mu(self) -> float:
        return math.cosh(abs(self.zeta))

    @property
    def nu(self) -> complex:
        z = complex(self.zeta)
        return np.exp(2j * np.angle(z)) * math.sinh(abs(z))

    def __post_init__(self) -> None:
        if not abs(complex(self.zeta)) <= _MAX_ABS_ZETA:  # also refuses nan and inf
            raise InvalidSpecError(
                f"squeeze zeta must be finite with |zeta| <= {_MAX_ABS_ZETA:.4g}, "
                f"got {self.zeta}")
        # relative to mu^2: the roundoff of cosh^2 - sinh^2 grows with it
        dev = abs(self.mu**2 - abs(self.nu) ** 2 - 1.0)
        if dev > 1e-12 * self.mu**2:
            raise InvalidSpecError(f"squeeze parametrization broke mu^2-|nu|^2=1 by {dev:.3e}")


def fock_matrix_unit(row: int, col: int, dim: int) -> Operator:
    """|row><col| in the Fock basis."""
    if not (0 <= row < dim and 0 <= col < dim):
        raise InvalidSpecError(f"matrix unit indices ({row},{col}) outside [0,{dim})")
    m = np.zeros((dim, dim), dtype=complex)
    m[row, col] = 1.0
    return Operator(m)


# ---------------------------------------------------------------------------
# spin


def _check_twice_s(twice_s: int) -> None:
    if twice_s < 1 or int(twice_s) != twice_s:
        raise InvalidSpecError(f"2s must be a positive integer, got {twice_s}")


def spin_matrices(twice_s: int) -> Tuple[Operator, Operator, Operator]:
    """(Sx, Sy, Sz) for spin s = twice_s / 2, basis ordered m = s, s-1, ..., -s."""
    _check_twice_s(twice_s)
    s = twice_s / 2.0
    d = twice_s + 1
    mvals = s - np.arange(d)
    sz = np.diag(mvals).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    # S+ |s,m> = sqrt(s(s+1) - m(m+1)) |s,m+1>; row index of m is s - m
    for i in range(1, d):
        m = mvals[i]
        sp[i - 1, i] = math.sqrt(s * (s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return Operator(sx), Operator(sy), Operator(sz)


def _spin_dots(twice_s: int, directions) -> np.ndarray:
    """S . n for each row n of an (N, 3) array of unit vectors; (N, 2s+1, 2s+1)."""
    try:
        dirs = np.asarray(directions, dtype=float)
    except ValueError:
        raise InvalidSpecError("spin directions must be an (N, 3) array of numbers") from None
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise InvalidSpecError(f"spin directions must be an (N, 3) array, got shape {dirs.shape}")
    norms = np.linalg.norm(dirs, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))  # also refuses nan
    if bad.size:
        raise InvalidSpecError(f"spin direction {dirs[bad[0]].tolist()} is not of unit length "
                               f"(norm {norms[bad[0]]:.17g}); directions must be unit vectors")
    sx, sy, sz = (s.mat for s in spin_matrices(twice_s))
    return dirs[:, 0, None, None] * sx + dirs[:, 1, None, None] * sy + dirs[:, 2, None, None] * sz


def spin_frames(twice_s: int, directions) -> Tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of S . n for each row n of an (N, 3) array of unit vectors.

    Ascending eigenvalues m = -s..s (N, 2s+1) and eigenvector columns (N, 2s+1, 2s+1).
    """
    return np.linalg.eigh(_spin_dots(twice_s, directions))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> Operator:
    try:
        return Operator(_PAULI[axis])
    except KeyError:
        raise InvalidSpecError(f"pauli axis must be x, y, or z, got {axis!r}") from None

