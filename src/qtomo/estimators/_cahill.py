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

__all__ = ["disp_stack"]


def disp_stack(alphas: np.ndarray, dim: int) -> np.ndarray:
    """(len(alphas), dim, dim) stack of displacement blocks, two elements per Laguerre:
    <lo+d|D(a)|lo> takes fac = a**d and <lo|D(a)|lo+d> takes fac = (-conj(a))**d."""
    from scipy.special import eval_genlaguerre, gammaln

    a = np.asarray(alphas, dtype=complex).ravel()
    x = np.abs(a) ** 2
    ex = np.exp(-x / 2)
    out = np.empty((a.size, dim, dim), dtype=complex)
    for d in range(dim):
        facs = [a**d] if d == 0 else [a**d, (-np.conj(a)) ** d]
        for lo in range(dim - d):
            pref = float(np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + d + 1))))
            lag = eval_genlaguerre(lo, d, x)
            vals = [pref * fac * ex * lag for fac in facs]
            out[:, lo + d, lo] = vals[0]
            out[:, lo, lo + d] = vals[-1]
    return out
