"""Exact Fock-basis displacement matrix elements.

The Laguerre closed form stays accurate for arbitrarily large |alpha|,
unlike exponentiating the truncated generator, which sheds probability
once |alpha|^2 approaches the cutoff. Every estimator kernel that feeds
an average therefore uses these elements; the generator exponential
lives in operators.displacement for callers that need exact unitarity
on the truncated space instead.

<r|D(a)|c> = sqrt(c!/r!) a^(r-c)      e^(-|a|^2/2) L_c^(r-c)(|a|^2),  r >= c
<r|D(a)|c> = sqrt(r!/c!) (-conj(a))^(c-r) e^(-|a|^2/2) L_r^(c-r)(|a|^2),  r < c
"""

from __future__ import annotations

import numpy as np

__all__ = ["disp_element", "disp_stack"]


def disp_element(row: int, col: int, alpha) -> np.ndarray | complex:
    """<row|D(alpha)|col>; alpha may be a scalar or an array."""
    from scipy.special import eval_genlaguerre, gammaln

    a = np.asarray(alpha, dtype=complex)
    x = np.abs(a) ** 2
    lo, hi = min(row, col), max(row, col)
    d = hi - lo
    pref = float(np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1))))
    lag = eval_genlaguerre(lo, d, x)
    fac = a**d if row >= col else (-np.conj(a)) ** d
    out = pref * fac * np.exp(-x / 2) * lag
    if np.isscalar(alpha) or np.ndim(alpha) == 0:
        return complex(out)
    return out


def disp_stack(alphas: np.ndarray, dim: int) -> np.ndarray:
    """(len(alphas), dim, dim) stack of displacement blocks."""
    from scipy.special import eval_genlaguerre, gammaln

    a = np.asarray(alphas, dtype=complex).ravel()
    x = np.abs(a) ** 2
    ex = np.exp(-x / 2)
    out = np.empty((a.size, dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            lo, hi = min(r, c), max(r, c)
            d = hi - lo
            pref = float(np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1))))
            lag = eval_genlaguerre(lo, d, x)
            fac = a**d if r >= c else (-np.conj(a)) ** d
            out[:, r, c] = pref * fac * ex * lag
    return out
