"""Phase-space resolution identity with invertible deformations."""

import numpy as np
import pytest

from qtomo.errors import RankDeficientError
from qtomo.estimators import (
    EstimatorConfig,
    generalized_glauber_check,
    glauber_reconstruct,
    parity_exact_element,
)
from qtomo.operators import Operator, identity, parity, squeeze
from qtomo.states import StateSpec, make_state


def test_plain_glauber_identity():
    cfg = EstimatorConfig(dim=6)
    rep = generalized_glauber_check(identity(6), identity(6), cfg)
    assert rep.grid_points == 41
    assert rep.alpha_max == 4.0
    assert rep.weighted_error <= 1e-4
    assert rep.passed


def test_parity_deformation_matches_displaced_parity_route():
    dim = 8
    # the parity deformation pushes integrand mass outward, so the square
    # grid needs a wider window than the plain Glauber default
    cfg = EstimatorConfig(dim=dim, alpha_grid_points=121, alpha_max=5.0)
    rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
    rec = glauber_reconstruct(Operator(rho.mat), identity(dim), parity(dim), cfg)
    for row, col in [(0, 0), (0, 1), (1, 2), (2, 2), (0, 3)]:
        via_parity = parity_exact_element(rho, row, col, EstimatorConfig(dim=dim))
        assert abs(rec.mat[row, col] - via_parity) <= 1e-6


def test_squeezed_deformation_passes():
    dim = 6
    cfg = EstimatorConfig(dim=dim)
    s = squeeze(0.1, dim)
    rep = generalized_glauber_check(s, s, cfg)
    assert rep.weighted_error <= 1e-4
    assert rep.passed
    assert rep.cond_f1 > 1.0  # genuinely non-unitary condition number on the cut space


def test_singular_deformation_rejected():
    dim = 6
    f = np.eye(dim, dtype=complex)
    f[-1, -1] = 0.0
    cfg = EstimatorConfig(dim=dim)
    with pytest.raises(RankDeficientError):
        generalized_glauber_check(Operator(f), identity(dim), cfg)


def test_report_carries_raw_error():
    cfg = EstimatorConfig(dim=4)
    rep = generalized_glauber_check(identity(4), identity(4), cfg)
    assert rep.raw_error >= rep.weighted_error
    assert np.isfinite(rep.raw_error)
