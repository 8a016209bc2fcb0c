"""Kerr-phase kernels: exact-grid recovery and the double-delta identity."""

import cmath

import numpy as np
import pytest

from qtomo.errors import InvalidSpecError, UsageError
from qtomo.estimators import (
    EstimatorConfig,
    kerr_epsilon_sweep,
    kerr_estimate,
    kerr_exact_element,
    kerr_kernel,
    kerr_kernel_regularized,
)
from qtomo.operators import Operator, fock_matrix_unit, identity, number
from qtomo.sampler import RngStream, sample_kerr_phase
from qtomo.states import StateSpec, make_state

N_DELTA = 6  # index bound for the bi-orthogonality sweep


def coherent(beta, dim):
    return make_state(StateSpec(kind="coherent", dim=dim, beta=beta))


class TestKernel:
    def test_zero_phases(self):
        assert kerr_kernel(0, 1, 0.0, 0.0) == pytest.approx(1.0)

    def test_literal_formula(self):
        n, d, phi, psi = 1, 2, np.pi, np.pi / 8
        want = cmath.exp(1j * (psi * (d * d + 2 * n * d) + phi * d))
        assert kerr_kernel(n, d, phi, psi) == pytest.approx(want, abs=1e-15)

    def test_diagonal_rejected(self):
        with pytest.raises(InvalidSpecError):
            kerr_kernel(2, 0, 0.0, 0.0)

    def test_regularized_zero_phases(self):
        assert kerr_kernel_regularized(3, 0.1, 0.0, 0.0) == pytest.approx(1.0)

    def test_regularizer_must_be_positive(self):
        with pytest.raises(InvalidSpecError):
            kerr_kernel_regularized(3, 0.0, 0.0, 0.0)


class TestDoubleDelta:
    def test_grid_biorthogonality(self):
        # (1/PQ) sum_{phi,psi} k(n1,d1) conj(k(n2,d2)) is one exactly when
        # both the index difference and the squared-index difference match:
        # d1 = d2 and (n1+d1)^2 - n1^2 = (n2+d2)^2 - n2^2. The phi sum pins
        # the former, the psi sum the latter; with d >= 1 that pins n1 = n2.
        p_pts = 2 * N_DELTA + 1
        q_pts = 2 * N_DELTA * N_DELTA + 1
        phis = 2.0 * np.pi * np.arange(p_pts) / p_pts
        psis = 2.0 * np.pi * np.arange(q_pts) / q_pts
        pairs = [(n, d) for d in range(1, N_DELTA) for n in range(N_DELTA - d)]
        kerns = {
            (n, d): kerr_kernel(n, d, phis[None, :], psis[:, None])
            for n, d in pairs
        }
        for n1, d1 in pairs:
            for n2, d2 in pairs:
                s = np.sum(kerns[(n1, d1)] * kerns[(n2, d2)].conj()) / (p_pts * q_pts)
                want = 1.0 if (n1, d1) == (n2, d2) else 0.0
                assert abs(s - want) <= 1e-12


class TestExactElement:
    def test_coherent_offdiagonals(self):
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        rho = coherent(0.6, dim)
        for d in range(1, dim):
            for n in range(dim - d):
                val = kerr_exact_element(rho, n, d, cfg)
                assert abs(val - rho.mat[n + d, n]) <= 1e-10

    def test_complex_amplitude_orientation(self):
        # complex beta distinguishes <n+d|rho|n> from its conjugate partner
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        rho = coherent(0.4 + 0.3j, dim)
        val = kerr_exact_element(rho, 1, 2, cfg)
        assert abs(val - rho.mat[3, 1]) <= 1e-10
        assert abs(val - rho.mat[1, 3]) > 1e-3


class TestEstimate:
    def test_sampled_coherent_element(self):
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        rho = coherent(0.6, dim)
        records = sample_kerr_phase(rho, 100_000, RngStream(401), cfg)
        res = kerr_estimate(fock_matrix_unit(0, 1, dim), records, cfg)
        assert abs(res.mean - rho.mat[1, 0]) <= 5 * res.std_error

    def test_diagonal_observable_rejected(self):
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        rho = coherent(0.6, dim)
        records = sample_kerr_phase(rho, 100, RngStream(402), cfg)
        with pytest.raises(UsageError):
            kerr_estimate(number(dim), records, cfg)

    def test_identity_is_the_constant_unit_kernel(self):
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        records = sample_kerr_phase(coherent(0.6, dim), 100, RngStream(403), cfg)
        res = kerr_estimate(identity(dim), records, cfg)
        assert (res.mean, res.std_error, res.n_samples) == (1.0, 0.0, 100)
        with pytest.raises(UsageError):
            kerr_estimate(Operator(2.0 * identity(dim).mat), records, cfg)


class TestEpsilonSweep:
    def test_report_shape_no_value_asserted(self):
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="fock", dim=dim, n=2))
        sweep = kerr_epsilon_sweep(rho, 2, [0.1, 0.05, 0.025], cfg)
        assert [e for e, _ in sweep] == [0.1, 0.05, 0.025]
        for _, val in sweep:
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) <= 1.0 + 1e-12  # averages of unit-modulus kernels
