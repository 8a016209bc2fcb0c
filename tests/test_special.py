"""qtomo._special against scipy, bit for bit, over the inputs qtomo passes it.

The copies follow scipy's code term for term. Their bits rest on the host's
arithmetic as scipy's do (glibc log, a dgtsv built without FMA contraction),
so a host where a copy drifts from scipy fails here, not only in the pinned
digests downstream.
"""

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import CubicSpline as ScipySpline

from qtomo import _special
from qtomo._special import CubicSpline, PPoly, gammaln, genlaguerre_ladder
from qtomo.errors import NumericPreconditionError
from qtomo.estimators import _cahill, homodyne
from qtomo.estimators.config import EstimatorConfig


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gammaln_at_every_integer_to_2999():
    n = np.arange(1, 3000)
    assert same_bits(gammaln(n), special.gammaln(n))
    assert all(same_bits(gammaln(int(v)), special.gammaln(int(v))) for v in n[:40])


def test_binom_product_loop():
    for n in range(40):
        for a in range(40):
            if min(n, a) < 20:
                got = np.float64(_special._binom(float(n + a), float(n)))
                assert same_bits(got, special.binom(n + a, n)), (n, a)


@pytest.fixture(scope="module")
def laguerre_points():
    """Every |a|^2 of the d = 8 homodyne disp_stack and of the parity boundary ring,
    draws from the d = 8 parity proposal disk, and a tail out to overflow."""
    cfg = EstimatorConfig(dim=8)
    k, _ = homodyne._k_rule(cfg.k_max)
    radius = cfg.parity_radius()
    rng = np.random.default_rng(20000606)
    disk = radius * np.sqrt(rng.uniform(size=60_000)) * np.exp(2j * np.pi * rng.uniform(size=60_000))
    ring = radius * np.exp(2j * np.pi * np.arange(64) / 64)
    alphas = np.concatenate([-0.5j * k, 2.0 * disk, 2.0 * ring])
    tail = [0.0, 1e-300, 1e3, 1e6, 1e200, np.inf, np.nan]
    return np.concatenate([np.abs(alphas) ** 2, rng.exponential(4.0, 40_000), tail])


@pytest.mark.parametrize("alpha", range(40))
def test_laguerre_ladder(laguerre_points, alpha):
    # every L_n^alpha with n + alpha < 40: each one disp_stack evaluates up to dim 40
    x = laguerre_points
    with np.errstate(all="ignore"):  # the tail overflows in both
        ladder = genlaguerre_ladder(39 - alpha, alpha, x)
        assert len(ladder) == 40 - alpha
        for n, lag in enumerate(ladder):
            assert same_bits(lag, special.eval_genlaguerre(n, alpha, x)), n


def test_disp_stack_beyond_dim_40_is_the_scipy_route():
    # dim 41 reaches binom(40, 20), past the product loop: scipy's binom answers there
    dim = 41
    rng = np.random.default_rng(41)
    a = rng.normal(size=64) + 1j * rng.normal(size=64)
    x = np.abs(a) ** 2
    ex = np.exp(-x / 2)
    want = np.empty((a.size, dim, dim), dtype=complex)
    for d in range(dim):
        facs = [a**d, (-np.conj(a)) ** d]
        for lo in range(dim - d):
            pref = float(np.exp(0.5 * (special.gammaln(lo + 1) - special.gammaln(lo + d + 1))))
            lag = special.eval_genlaguerre(lo, d, x)
            want[:, lo, lo + d] = pref * facs[1] * ex * lag
            want[:, lo + d, lo] = pref * facs[0] * ex * lag
    assert same_bits(_cahill.disp_stack(a, dim), want.transpose(1, 2, 0))


def eval_points(qs: np.ndarray, seed: int) -> np.ndarray:
    """Every grid point, both ends, midpoints, and outcomes clipped to the grid."""
    outcomes = np.random.default_rng(seed).normal(0.0, 0.6 * qs[-1], 20_000)
    mid = 0.5 * (qs[1:] + qs[:-1])
    return np.concatenate([qs, [qs[0], qs[-1]], mid, np.clip(outcomes, qs[0], qs[-1])])


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12])
def test_spline_through_the_real_pattern_table(dim):
    # ours runs through the d(d+1)/2 columns F_kn, k <= n, and F_nk reads F_kn's column:
    # the bits of scipy's spline through those columns, and through all d^2 of them
    cfg = EstimatorConfig(dim=dim)
    qs, f = homodyne._dense_f_grid(dim, cfg.k_max, cfg.reg_eps)
    _, ours, col = homodyne._f_spline(dim, cfg.k_max, cfg.reg_eps)
    real = homodyne._real_table(f)
    assert same_bits(ours.c, ScipySpline(qs, real[np.triu_indices(dim)].T).c)
    xs = eval_points(qs, dim)
    assert same_bits(ours(xs)[:, col], ScipySpline(qs, real.reshape(dim * dim, -1).T)(xs))


def test_random_complex_splines_column_by_column():
    qs = homodyne._dense_f_grid(8, 40.0, 1e-3)[0]
    rng = np.random.default_rng(18)
    bands = rng.normal(size=(qs.size, 40)) + 1j * rng.normal(size=(qs.size, 40))
    ours = CubicSpline(qs, bands)
    xs = eval_points(qs, 18)
    values = ours(xs)
    assert same_bits(PPoly(qs, ours.c)(xs), values)  # the spline again from its coefficients
    for j in range(bands.shape[1]):
        theirs = ScipySpline(qs, bands[:, j])
        assert same_bits(ours.c[..., j], theirs.c), j
        assert same_bits(values[:, j], theirs(xs)), j


@pytest.mark.parametrize("operator", ["random", "real-symmetric", "number", "matrix-unit", "zero"])
def test_band_splines_are_scipys_per_offset_splines(operator):
    # the bands homodyne_estimate splines, each against scipy's spline through it alone;
    # a real A leaves every band's imaginary part a signed zero, and A = 0 has no band
    dim = 8
    cfg = EstimatorConfig(dim=dim)
    m = np.random.default_rng(8).normal(size=(2, dim, dim))
    a_mat = {
        "random": m[0] + 1j * m[1],
        "real-symmetric": (m[0] + m[0].T).astype(complex),
        "number": np.diag(np.arange(dim)).astype(complex),
        "matrix-unit": np.eye(dim, k=1, dtype=complex),
        "zero": np.zeros((dim, dim), dtype=complex),
    }[operator]
    qs, f = homodyne._dense_f_grid(dim, cfg.k_max, cfg.reg_eps)
    _, offsets, ours = homodyne._band_splines(a_mat, cfg)
    xs = eval_points(qs, 8)
    values = ours(xs)
    assert values.shape == (xs.size, len(offsets))
    for j, d in enumerate(offsets):
        g = np.zeros(qs.size, dtype=complex)
        for m in range(dim):
            if 0 <= m + d < dim and a_mat[m, m + d] != 0:
                g += a_mat[m, m + d] * f[m + d, m]
        theirs = ScipySpline(qs, g)
        assert same_bits(ours.c[..., j], theirs.c), d
        assert same_bits(values[:, j], theirs(xs)), d


def test_spline_refuses_a_row_interchange():
    # row 1 of this not-a-knot system has |d| = 2 < |dl| = 8: dgtsv would swap rows
    with pytest.raises(NumericPreconditionError, match="row interchange"):
        CubicSpline(np.array([0.0, 1.0, 2.0, 10.0, 11.0]), np.arange(5.0))
