"""Phase-space resolution identity with invertible deformations."""

import numpy as np
import pytest

from qtomo.errors import InvalidSpecError, RankDeficientError
from qtomo.estimators import (
    EstimatorConfig,
    displacement_grid_set,
    generalized_glauber_check,
    glauber_reconstruct,
    parity_exact_element,
)
from qtomo.operators import Operator, identity, parity, squeeze
from qtomo.states import StateSpec, make_state


def test_plain_glauber_identity():
    rep = generalized_glauber_check(identity(6), identity(6))
    assert rep.grid_points == 41
    assert rep.alpha_max == 4.0
    assert rep.weighted_error <= 1e-4
    assert rep.passed


def test_parity_deformation_matches_displaced_parity_route():
    dim = 8
    # the parity deformation pushes integrand mass outward, so the square
    # grid needs a wider window than the plain Glauber default
    rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
    rec = glauber_reconstruct(Operator(rho.mat), identity(dim), parity(dim),
                              grid_points=121, alpha_max=5.0)
    for row, col in [(0, 0), (0, 1), (1, 2), (2, 2), (0, 3)]:
        via_parity = parity_exact_element(rho, row, col, EstimatorConfig(dim=dim))
        assert abs(rec.mat[row, col] - via_parity) <= 1e-6


def test_squeezed_deformation_passes():
    dim = 6
    s = squeeze(0.1, dim)
    rep = generalized_glauber_check(s, s)
    assert rep.weighted_error <= 1e-4
    assert rep.passed
    assert rep.cond_f1 > 1.0  # genuinely non-unitary condition number on the cut space


def test_singular_deformation_rejected():
    dim = 6
    f = np.eye(dim, dtype=complex)
    f[-1, -1] = 0.0
    with pytest.raises(RankDeficientError):
        generalized_glauber_check(Operator(f), identity(dim))


@pytest.mark.parametrize("last", [0.0, 1e-300])
@pytest.mark.parametrize("side", ["F1", "F2"])
def test_reconstruct_refuses_a_singular_deformation(side, last):
    dim = 3
    f = np.eye(dim, dtype=complex)
    f[-1, -1] = last
    fs = (Operator(f), identity(dim)) if side == "F1" else (identity(dim), Operator(f))
    with pytest.raises(RankDeficientError, match=f"{side} is numerically singular"):
        glauber_reconstruct(identity(dim), *fs)


def test_report_carries_raw_error():
    rep = generalized_glauber_check(identity(4), identity(4))
    assert rep.raw_error >= rep.weighted_error
    assert np.isfinite(rep.raw_error)


@pytest.mark.parametrize("grid", [
    {"grid_points": 1},
    {"alpha_max": 0.0},
    {"alpha_max": np.nan},
    {"alpha_max": np.inf},
    {"alpha_max": -np.inf},
], ids=["grid_points=1", "alpha_max=0", "alpha_max=nan", "alpha_max=inf", "alpha_max=-inf"])
def test_grid_is_checked(grid):
    # each Glauber function refuses the grid before it builds an element
    name = next(iter(grid))
    for call in (lambda: displacement_grid_set(2, **grid),
                 lambda: glauber_reconstruct(identity(2), identity(2), identity(2), **grid),
                 lambda: generalized_glauber_check(identity(2), identity(2), **grid)):
        with pytest.raises(InvalidSpecError, match=name):
            call()
