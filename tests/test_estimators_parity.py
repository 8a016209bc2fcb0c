"""Displaced-parity kernels and estimates, closed form against matrix products."""

import numpy as np
import pytest

from qtomo.errors import GridError, UsageError
from qtomo.estimators import (
    EstimatorConfig,
    displaced_parity_kernel,
    displaced_parity_kernel_matrix_route,
    parity_estimate,
    parity_exact_element,
)
from qtomo.operators import fock_matrix_unit, identity
from qtomo.recon import reconstruct_matrix
from qtomo.records import RecordBatch
from qtomo.sampler import RngStream, sample_displaced_parity
from qtomo.states import StateSpec, make_state

ORACLE_DIM = 24  # truncation at which the matrix route is faithful for n+d <= 6


class TestKernel:
    def test_origin_values(self):
        assert displaced_parity_kernel(0, 0, 0.0) == pytest.approx(4.0)
        assert displaced_parity_kernel(1, 0, 0.0) == pytest.approx(-4.0)

    def test_single_sideband_closed_form(self):
        # 4 (-1)^1 e^{-2*0.25} (2*0.5) L_0^1(1) with L_0^1 = 1
        val = displaced_parity_kernel(0, 1, 0.5)
        assert val == pytest.approx(-4.0 * np.exp(-0.5), abs=1e-12)
        other = displaced_parity_kernel_matrix_route(0, 1, 0.5, ORACLE_DIM)
        assert abs(val - other) <= 1e-8

    def test_cross_route_grid(self):
        rng = np.random.default_rng(41)
        alphas = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        alphas = alphas[np.abs(alphas) <= 1.0]
        alphas = np.concatenate([alphas, [0.3, 1.0, -0.7j, 0.5 + 0.5j]])
        for n in range(7):
            for d in range(7 - n):
                for al in alphas:
                    closed = displaced_parity_kernel(n, d, al)
                    matrix = displaced_parity_kernel_matrix_route(n, d, al, ORACLE_DIM)
                    assert abs(closed - matrix) <= 1e-8


class TestEstimate:
    def test_vacuum_diagonal(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        records = sample_displaced_parity(rho, 50_000, RngStream(201), cfg)
        res = parity_estimate(fock_matrix_unit(0, 0, dim), records, cfg)
        assert abs(res.mean - 1.0) <= 5 * res.std_error

    def test_coherent_sideband(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
        records = sample_displaced_parity(rho, 200_000, RngStream(202), cfg)
        res = parity_estimate(fock_matrix_unit(0, 1, dim), records, cfg)
        target = 0.5 * np.exp(-0.25)
        assert abs(res.mean - target) <= 5 * res.std_error

    def test_identity_normalization(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
        records = sample_displaced_parity(rho, 50_000, RngStream(203), cfg)
        res = parity_estimate(identity(dim), records, cfg)
        assert abs(res.mean - 1.0) <= 5 * res.std_error

    def test_tight_proposal_rejected(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim, proposal_radius=0.8)
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        records = sample_displaced_parity(rho, 1000, RngStream(204), cfg)
        with pytest.raises(GridError):
            parity_estimate(fock_matrix_unit(0, 0, dim), records, cfg)

    def test_records_outside_the_disk_refused(self):
        # the weight R^2 is wrong for a displacement drawn from a larger disk
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        radius = cfg.parity_radius()
        on_edge = RecordBatch("parity", [[radius, 0.0], [0.0, 0.5]], [1.0, -1.0])
        parity_estimate(identity(dim), on_edge, cfg)
        reconstruct_matrix(on_edge, "parity", dim - 1, cfg=cfg)
        beyond = RecordBatch("parity", [[0.0, 0.5], [0.0, 1.001 * radius]], [1.0, -1.0])
        with pytest.raises(UsageError, match="parity record 1: .* R = 4.64575"):
            parity_estimate(identity(dim), beyond, cfg)
        with pytest.raises(UsageError, match="parity record 1: .* R = 4.64575"):
            reconstruct_matrix(beyond, "parity", dim - 1, cfg=cfg)


class TestExactElement:
    def test_coherent_low_corner(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
        for row in range(4):
            for col in range(4):
                val = parity_exact_element(rho, row, col, cfg)
                assert abs(val - rho.mat[row, col]) <= 1e-6
