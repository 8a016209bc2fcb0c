"""Finite-spin kernels: closed form, numeric oracle, sampling, Pauli shortcut."""

import numpy as np
import pytest

from qtomo.errors import InvalidSpecError, UsageError
from qtomo.estimators import (
    pauli_estimate,
    spin_estimate,
    spin_kernel,
    spin_kernel_quadrature,
    spin_quadrature_expectation,
)
from qtomo.operators import Operator, identity, pauli, spin_matrices
from qtomo.recon import reconstruct_matrix
from qtomo.records import RecordBatch
from qtomo.sampler import RngStream, sample_pauli, sample_spin
from qtomo.states import DensityMatrix, StateSpec, make_state

Z_AXIS = (0.0, 0.0, 1.0)


def psi_integral_oracle(a_mat, m, direction, twice_s, n_psi=2048):
    # literal trapezoid of (2s+1)/pi int dpsi sin^2(psi/2) Tr[A e^{-i psi (S.n - m)}]
    sx, sy, sz = spin_matrices(twice_s)
    sn = direction[0] * sx.mat + direction[1] * sy.mat + direction[2] * sz.mat
    evals, vecs = np.linalg.eigh(sn)
    diag = np.einsum("aj,ab,bj->j", vecs.conj(), a_mat, vecs)
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
    total = 0.0 + 0.0j
    for p, w in zip(psi, np.full(n_psi, 2.0 * np.pi / n_psi)):
        total += w * np.sin(p / 2.0) ** 2 * np.sum(diag * np.exp(-1j * p * (evals - m)))
    return (twice_s + 1) / np.pi * total


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


class TestKernel:
    def test_sigma_z_values(self):
        assert spin_kernel(pauli("z"), 0.5, Z_AXIS, 1) == pytest.approx(3.0, abs=1e-12)
        assert spin_kernel(pauli("z"), -0.5, Z_AXIS, 1) == pytest.approx(-3.0, abs=1e-12)

    def test_identity_against_oracle(self):
        for twice_s in (1, 2, 3):
            for m in (-twice_s / 2.0, twice_s / 2.0):
                want = psi_integral_oracle(np.eye(twice_s + 1, dtype=complex), m,
                                           np.array(Z_AXIS), twice_s)
                got = spin_kernel(identity(twice_s + 1), m, Z_AXIS, twice_s)
                assert abs(got - want) <= 1e-9

    def test_sigma_x_along_z_vanishes(self):
        for m in (0.5, -0.5):
            assert abs(spin_kernel(pauli("x"), m, Z_AXIS, 1)) <= 1e-12

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            twice_s = int(rng.integers(1, 4))  # s up to 3/2
            dim = twice_s + 1
            a = Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            j = int(rng.integers(0, dim))
            m = j - twice_s / 2.0
            closed = spin_kernel(a, m, v, twice_s)
            quad = spin_kernel_quadrature(a, m, v, twice_s)
            oracle = psi_integral_oracle(a.mat, m, v, twice_s)
            assert abs(closed - quad) <= 1e-9
            assert abs(closed - oracle) <= 1e-9

    def test_invalid_eigenvalue_rejected(self):
        for m in (0.3, float("nan")):
            with pytest.raises(InvalidSpecError):
                spin_kernel(pauli("z"), m, Z_AXIS, 1)


class TestSpinEstimate:
    def test_up_state_sigma_z(self):
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=Z_AXIS))
        records = sample_spin(rho, 1, 100_000, RngStream(301))
        res = spin_estimate(pauli("z"), records, 1)
        assert abs(res.mean - 1.0) <= 5 * res.std_error

    def test_identity_quadrature_mode(self):
        rng = np.random.default_rng(43)
        for twice_s in (1, 2, 3):
            rho = random_density(rng, twice_s + 1)
            val = spin_quadrature_expectation(identity(twice_s + 1), rho, twice_s)
            assert abs(val - 1.0) <= 1e-9

    def test_spin_one_sz(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        _, _, sz = spin_matrices(2)
        target = np.trace(sz.mat @ rho.mat).real
        records = sample_spin(rho, 2, 100_000, RngStream(302))
        res = spin_estimate(sz, records, 2)
        assert abs(res.mean - target) <= 5 * res.std_error

    def test_quadrature_mode_random_states(self):
        rng = np.random.default_rng(44)
        for twice_s in (1, 2):
            dim = twice_s + 1
            rho = random_density(rng, dim)
            a = Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            target = np.trace(a.mat @ rho.mat)
            got = spin_quadrature_expectation(a, rho, twice_s)
            assert abs(got - target) <= 1e-9

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (0.0, 0.0, -2.0), (0.6, 0.0, 0.8001)])
    def test_non_unit_record_direction_rejected(self, direction):
        # unchecked, (0, 0, 0) gives <I> = 1 +- 0 and (0, 0, -2) at m = +1/2 gives <0|rho|0> = -1
        records = RecordBatch("spin", [Z_AXIS, direction], [0.5, 0.5])
        with pytest.raises(InvalidSpecError, match="must be unit vectors"):
            spin_estimate(identity(2), records, 1)
        with pytest.raises(InvalidSpecError, match="must be unit vectors"):
            reconstruct_matrix(records, "spin", 1)

    def test_nan_direction_rejected(self):
        with pytest.raises(InvalidSpecError, match="unit length"):
            spin_kernel(identity(2), 0.5, (float("nan"), 0.0, 1.0), 1)

    def test_empty_records_rejected(self):
        with pytest.raises(UsageError):
            spin_estimate(pauli("z"), RecordBatch("spin", np.empty((0, 3)), []), 1)


class TestPauliEstimate:
    def test_up_state_sigma_z(self):
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=Z_AXIS))
        records = sample_pauli(rho, 30_000, RngStream(303))
        res = pauli_estimate(pauli("z"), records)
        assert abs(res.mean - 1.0) <= 5 * res.std_error

    def test_identity_is_exact(self):
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=Z_AXIS))
        records = sample_pauli(rho, 300, RngStream(304))
        res = pauli_estimate(identity(2), records)
        assert res.mean == pytest.approx(1.0, abs=0.0)
        assert res.std_error == 0.0

    def test_maximally_mixed_sigma_x(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
        records = sample_pauli(rho, 30_000, RngStream(305))
        res = pauli_estimate(pauli("x"), records)
        assert abs(res.mean) <= 5 * res.std_error

    def test_complex_operator_is_pinned(self):
        # every coefficient Tr[A sigma] has nonzero real and imaginary
        # parts, and |c|^2 from abs() and np.abs() differ in the last bit
        # for all three, so the pinned std_error fixes how the moduli are taken
        a = Operator(np.array([[-1.15 + 1.61j, 0.17 + 1.53j], [-1.33 - 1.46j, 0.46 + 0.5j]]))
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0.6, 0.0, 0.8)))
        res = pauli_estimate(a, sample_pauli(rho, 3001, RngStream(309)))
        assert res.mean == -1.3200524975024976 + 1.508513426573427j
        assert res.std_error == 0.05779734512758877
        assert res.n_samples == 3001

    @pytest.mark.parametrize("kept", [0, 1])
    def test_missing_axis_rejected(self, kept):
        # an axis with fewer than 2 records has no variance, so no standard error
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=Z_AXIS))
        records = sample_pauli(rho, 3000, RngStream(306))
        keep = records.settings[:, 0] != 0.0
        keep[np.flatnonzero(~keep)[:kept]] = True
        records = RecordBatch("pauli", records.settings[keep], records.outcomes[keep])
        with pytest.raises(UsageError, match="axis x"):
            pauli_estimate(pauli("z"), records)
