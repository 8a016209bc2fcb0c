"""Displaced-parity kernels and estimates, closed form against matrix products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo.errors import GridError, UsageError
from qtomo.estimators import (
    EstimatorConfig,
    displaced_parity_kernel,
    displaced_parity_kernel_matrix_route,
    parity_estimate,
    parity_exact_element,
)
from qtomo.estimators.parity import parity_kernel_block
from qtomo.operators import displacement, fock_matrix_unit, identity, parity
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


    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(re=st.floats(-1.0, 1.0), im=st.floats(-1.0, 1.0), dim=st.integers(1, 6),
           s=st.sampled_from([-1.0, 1.0]))
    def test_block_matches_the_matrix_route(self, re, im, dim, s):
        # the block is R^2 s 4 P D(2b) = R^2 s 4 D(b)^dag P D(b); at |b|^2 <= 2 the
        # truncated exponential at 40 levels is an independent route to it
        cfg = EstimatorConfig(dim=dim)
        block = parity_kernel_block(np.array([[re, im]]), np.array([s]), cfg)[..., 0]
        dm = displacement(complex(re, im), 40).mat
        oracle = (4.0 * dm.conj().T @ parity(40).mat @ dm)[:dim, :dim]
        assert np.max(np.abs(block / (cfg.parity_radius() ** 2 * s) - oracle)) <= 1e-12


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

    def test_records_from_a_smaller_disk_refused(self):
        # drawn on the default disk at d = 4 (R = 3.73), weighted as if drawn at d = 8 (R = 4.65)
        rho = make_state(StateSpec(kind="fock", dim=4, n=0))
        records = sample_displaced_parity(rho, 500, RngStream(seed=7), EstimatorConfig(dim=4))
        reconstruct_matrix(records, "parity", 3, cfg=EstimatorConfig(dim=4))
        cfg = EstimatorConfig(dim=8)
        message = r"max \|b\| = 3\.7\d* of the proposal disk R = 4\.64575.* smaller proposal"
        with pytest.raises(UsageError, match=message):
            parity_estimate(identity(8), records, cfg)
        with pytest.raises(UsageError, match=message):
            reconstruct_matrix(records, "parity", 7, cfg=cfg)

    def test_rim_check_needs_more_than_twenty_records(self):
        # the rim is R (1 - 20/N): at N = 20 it is the centre, so no record can miss it
        cfg = EstimatorConfig(dim=8)
        near = RecordBatch("parity", [[0.1, 0.0]] * 20, [1.0, -1.0] * 10)
        parity_estimate(identity(8), near, cfg)
        one_more = RecordBatch("parity", [[0.1, 0.0]] * 21, [1.0, -1.0] * 10 + [1.0])
        with pytest.raises(UsageError, match="smaller proposal radius"):
            parity_estimate(identity(8), one_more, cfg)


class TestExactElement:
    def test_coherent_low_corner(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
        for row in range(4):
            for col in range(4):
                val = parity_exact_element(rho, row, col, cfg)
                assert abs(val - rho.mat[row, col]) <= 1e-6
