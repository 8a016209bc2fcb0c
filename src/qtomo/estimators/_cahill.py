"""Exact Fock-basis displacement matrix elements.

The Laguerre closed form stays accurate for arbitrarily large |alpha|,
unlike exponentiating the truncated generator, which sheds probability
once |alpha|^2 approaches the cutoff. Every estimator kernel that feeds
an average therefore uses these elements; the generator exponential
lives in operators.displacement for callers that need exact unitarity
on the truncated space instead.

<r|D(a)|c> = sqrt(c!/r!) a^(r-c)      e^(-|a|^2/2) L_c^(r-c)(|a|^2),  r >= c
<r|D(a)|c> = sqrt(r!/c!) (-conj(a))^(c-r) e^(-|a|^2/2) L_r^(c-r)(|a|^2),  r < c

The log-factorials and Laguerre values are qtomo._special's copies of
scipy.special.gammaln and eval_genlaguerre, bit for bit (tests/test_special.py),
so no displacement table imports scipy below dim 41. One Laguerre recurrence
per offset d gives every L_lo^d(|a|^2) of the table.
"""

from __future__ import annotations

import numpy as np

from .._special import gammaln, genlaguerre_ladder

__all__ = ["disp_stack", "disp_entry"]


def _entries(lo: int, d: int, lag: np.ndarray, ex: np.ndarray, facs) -> list:
    """pref * fac * ex * lag for each fac: <lo+d|D(a)|lo> at fac = a**d, <lo|D(a)|lo+d>
    at fac = (-conj(a))**d, with lag = L_lo^d(|a|^2) and ex = e^(-|a|^2/2)."""
    pref = float(np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + d + 1))))
    return [pref * fac * ex * lag for fac in facs]


# An overflowing Laguerre or fac that meets an underflowing ex makes a NaN element, quietly:
# every caller that averages one refuses it.
@np.errstate(all="ignore")
def disp_stack(alphas: np.ndarray, dim: int) -> np.ndarray:
    """(dim, dim, len(alphas)) table [row, col, alpha] of <row|D(a)|col>, two rows per Laguerre."""
    a = np.asarray(alphas, dtype=complex).ravel()
    x = np.abs(a) ** 2
    ex = np.exp(-x / 2)
    out = np.empty((dim, dim, a.size), dtype=complex)
    for d in range(dim):
        facs = [a**d] if d == 0 else [a**d, (-np.conj(a)) ** d]
        for lo, lag in enumerate(genlaguerre_ladder(dim - 1 - d, d, x)):
            vals = _entries(lo, d, lag, ex, facs)
            out[lo + d, lo] = vals[0]
            out[lo, lo + d] = vals[-1]
    return out


@np.errstate(all="ignore")
def disp_entry(alphas: np.ndarray, row: int, col: int) -> np.ndarray:
    """<row|D(a)|col> for each alpha: the bits of disp_stack(alphas, dim)[row, col]."""
    a = np.asarray(alphas, dtype=complex).ravel()
    x = np.abs(a) ** 2
    d, lo = abs(row - col), min(row, col)
    fac = a**d if row >= col else (-np.conj(a)) ** d
    return _entries(lo, d, genlaguerre_ladder(lo, d, x)[lo], np.exp(-x / 2), [fac])[0]
