"""numpy copies of the scipy routines on the state, sample and reconstruct routes.

gammaln, eval_genlaguerre (with its binom) and the not-a-knot CubicSpline
with its PPoly evaluation each follow scipy 1.17.1's code term for term over
the inputs this library passes them, so every bit is scipy's without importing
it. These bits rest on the host's arithmetic as scipy's do: glibc log, a dgtsv
built without FMA contraction. tests/test_special.py compares each copy with
scipy by tobytes() over those inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericPreconditionError

__all__ = ["gammaln", "genlaguerre_ladder", "PPoly", "CubicSpline"]

# cephes lgam: log sqrt(2 pi) and the Stirling-series coefficients for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
             -2.77777777730099687205E-3, 8.33333333333331927722E-2)


def _lgam(x: float) -> float:
    """cephes lgam at a positive integer x < 1e8."""
    if x < 13.0:
        z, u, p = 1.0, x, 0.0
        while u >= 3.0:  # z = (x-1)(x-2)...2, as the descending product
            p -= 1.0
            u = x + p
            z *= u
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _STIRLING[0]
    for a in _STIRLING[1:]:  # polevl
        poly = poly * p + a
    return q + poly / x


def gammaln(n):
    """scipy.special.gammaln at positive integers n (a scalar or an array of them)."""
    vals = np.array([_lgam(float(v)) for v in np.ravel(n)])
    return vals.reshape(np.shape(n)) if np.ndim(n) else vals[0]


def _binom(n: float, k: float) -> float:
    """scipy.special.binom at integers n >= k >= 0: the product loop below min(k, n-k) = 20,
    scipy itself beyond it."""
    kx = n - k if k > n / 2 and n > 0 else k
    if kx >= 20:
        from scipy.special import binom

        return float(binom(n, k))
    num = den = 1.0
    for i in range(1, 1 + int(kx)):
        num *= i + n - kx
        den *= i
        if abs(num) > 1E50:
            num /= den
            den = 1.0
    return num / den


def genlaguerre_ladder(n_max: int, alpha: int, x: np.ndarray) -> list:
    """[scipy.special.eval_genlaguerre(n, alpha, x) for n in range(n_max + 1)] at integer
    alpha >= 0. Each is scipy's integer-order recurrence eval_genlaguerre_l term for
    term; the recurrence for n is the first n - 1 steps of the one for n_max."""
    alpha = float(alpha)
    ladder = [np.ones_like(x), -x + alpha + 1][: n_max + 1]
    neg_x = -x
    d = neg_x / (alpha + 1)
    p = d + 1
    for kk in range(n_max - 1):
        k = kk + 1.0
        d = neg_x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
        ladder.append(_binom(kk + 2 + alpha, kk + 2) * p)
    nan = np.isnan(x)
    if nan.any():  # scipy's own NaN, not the one the arithmetic carries
        for lag in ladder:
            lag[nan] = np.nan
    return ladder


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> None:
    """Solve the tridiagonal system into the real (n, m) array b as reference LAPACK
    dgtsv does. Its row interchange is refused, not taken: NumericPreconditionError."""
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    n = len(d)
    rows = list(b)
    for i in range(n - 1):
        if not (abs(d[i]) >= abs(dl[i]) and d[i] != 0.0):
            raise NumericPreconditionError(
                f"spline system row {i} has |d| = {abs(d[i]):.3e}, |dl| = {abs(dl[i]):.3e}: "
                "dgtsv would take a row interchange there, or stop")
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        rows[i + 1] -= fact * rows[i]
    if d[n - 1] == 0.0:
        raise NumericPreconditionError("spline system is singular")
    rows[n - 1] /= d[n - 1]
    rows[n - 2][:] = (rows[n - 2] - du[n - 2] * rows[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):  # dgtsv zeroed dl[i] here; its product still counts
        rows[i][:] = (rows[i] - du[i] * rows[i + 1] - 0.0 * rows[i + 2]) / d[i]


# Values per evaluation slab, so that its few slab-sized arrays stay in cache.
_SLAB = 1 << 13


class PPoly:
    """scipy.interpolate.PPoly's evaluation of a piecewise cubic: breakpoints x, strictly
    increasing, and coefficients c in scipy's layout (4, len(x) - 1) + trailing shape,
    real or complex; evaluated only inside [x[0], x[-1]].

    PPoly(x, c) takes c as it is, so a spline whose coefficients were kept (the
    c of a CubicSpline, say) evaluates with the same bits as the spline itself.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        c = np.ascontiguousarray(c)
        self.x = x
        self._y = np.empty((0,) + c.shape[2:], dtype=c.dtype)  # the values' dtype and shape
        self._c = c.reshape(4, x.size - 1, -1).view(float)  # real columns: a complex one is two

    @property
    def c(self) -> np.ndarray:
        """The coefficients in scipy's layout, (4, len(x) - 1) + the values' trailing shape."""
        return self._c.view(self._y.dtype).reshape((4, self.x.size - 1) + self._y.shape[1:])

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """PPoly's evaluation: the interval by bisection, then the power sum
        c3 + c2 s + c1 s^2 + c0 s^3 (not Horner), _SLAB values at a time."""
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        i = np.clip(np.searchsorted(self.x, flat, side="right") - 1, 0, self.x.size - 2)
        s = flat - self.x[i]
        m = self._c.shape[2]
        out = np.empty((flat.size, m))
        step = max(1, _SLAB // max(1, m))
        for lo in range(0, flat.size, step):
            iv = i[lo : lo + step]
            o = out[lo : lo + step]
            # s repeated to o's shape, so that every ufunc below runs one flat loop
            s_lo = np.repeat(s[lo : lo + step], m).reshape(iv.size, m)
            z = s_lo.copy()  # s, then s^2, then s^3
            np.add(0.0, self._c[3].take(iv, axis=0), out=o)
            for k in (2, 1, 0):
                ck = self._c[k].take(iv, axis=0)
                ck *= z
                o += ck
                z *= s_lo
        return out.view(self._y.dtype).reshape(xs.shape + self._y.shape[1:])


class CubicSpline(PPoly):
    """scipy.interpolate.CubicSpline(x, y) with not-a-knot ends, for strictly increasing
    x of at least 4 points and finite real or complex y; a PPoly, evaluated as one.

    A complex y is solved and evaluated as two real columns, its real and imaginary parts:
    scipy's complex arithmetic there multiplies and divides by reals alone. Every column
    is solved and evaluated on its own, so a column's bits do not depend on the others.
    The solve runs once: PPoly(spline.x, spline.c) is the same spline, bit for bit,
    so its coefficients can be kept and the spline rebuilt from them without solving.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
        if not np.all(np.isfinite(y)):
            raise NumericPreconditionError("spline values must be finite")
        n = x.size
        dx = np.diff(x)
        dxr = dx.reshape([dx.shape[0]] + [1] * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        # scipy's banded system: diagonal, upper and lower diagonals, right-hand side
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
        lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
        b = np.empty((n,) + y.shape[1:], dtype=y.dtype)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2*d) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = ((dxr[-1]**2*slope[-2] + (2*d + dxr[-1])*dxr[-2]*slope[-1]) / d)
        s = np.ascontiguousarray(b.reshape(n, -1))
        _gtsv(lower, diag, upper, s.view(float))
        s = s.reshape(b.shape)
        # CubicHermiteSpline's coefficients
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        super().__init__(x, np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])))
