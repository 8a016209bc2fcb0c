"""Averaging engine and full-matrix reconstruction against exact targets."""

import numpy as np
import pytest

from qtomo.errors import DimensionMismatchError, UsageError
from qtomo.estimators import EstimatorConfig, SqueezeParams, kerr_estimate, spin_estimate
from qtomo.operators import Operator, fock_matrix_unit, identity, number
from qtomo.recon import (
    Accumulator,
    EstimationResult,
    compare_states,
    estimate,
    estimate_observable,
    nearest_physical_state,
    reconstruct_matrix,
)
from qtomo.records import RecordBatch
from qtomo.sampler import (
    RngStream,
    sample_displaced_parity,
    sample_homodyne,
    sample_kerr_phase,
    sample_pauli,
    sample_spin,
)
from qtomo.states import DensityMatrix, StateSpec, make_state


def assert_element_close(res: EstimationResult, target: complex):
    assert abs(res.mean - target) <= 5.0 * res.std_error + 1e-12


class TestEstimate:
    def test_constant_kernel(self):
        r = estimate(np.ones(3))
        assert r.mean == 1.0
        assert r.std_error == 0.0
        assert r.n_samples == 3

    def test_two_point_values(self):
        r = estimate(np.array([0.0, 2.0]))
        assert r.mean == 1.0
        assert r.std_error == 1.0  # sample var 2, SE = sqrt(2/2)

    def test_needs_two_records(self):
        with pytest.raises(UsageError):
            estimate(np.array([1.0]))

    def test_vacuum_quadrature_mean(self):
        dim = 8
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        records = sample_homodyne(rho, 100_000, RngStream(601), EstimatorConfig(dim=dim))
        r = estimate(records.outcomes)
        assert abs(r.mean) <= 5.0 * r.std_error
        assert r.n_samples == 100_000


class TestAccumulator:
    def test_matches_whole_array_moments(self):
        rng = np.random.default_rng(61)
        vals = rng.normal(size=4001) + 1j * rng.normal(size=4001)
        acc = Accumulator()
        acc.push(vals)
        r = acc.result()
        assert abs(r.mean - vals.mean()) <= 1e-12
        var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
        assert abs(r.std_error - np.sqrt(var / vals.size)) <= 1e-12

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(62)
        vals = rng.normal(size=3000) * (1.0 + 0.5j)
        whole = Accumulator()
        whole.push(vals)
        parts = Accumulator()
        for lo, hi in ((0, 700), (700, 701), (701, 3000)):
            p = Accumulator()
            p.push(vals[lo:hi])
            parts.merge(p)
        assert parts.n == whole.n
        assert abs(parts.mean - whole.mean) <= 1e-12
        assert abs(parts.m2 - whole.m2) <= 1e-9 * whole.m2

    def test_merge_with_empty_is_identity(self):
        acc = Accumulator()
        acc.push(np.array([1.0, 2.0, 3.0]))
        n, mean, m2 = acc.n, acc.mean, acc.m2
        acc.merge(Accumulator())
        assert (acc.n, acc.mean, acc.m2) == (n, mean, m2)

    def test_result_needs_two(self):
        acc = Accumulator()
        acc.push(np.array([1.0]))
        with pytest.raises(UsageError):
            acc.result()


class TestReconstructSpin:
    def test_qubit_up_state(self):
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
        records = sample_spin(rho, 1, 100_000, RngStream(611))
        rec = reconstruct_matrix(records, "spin", n_max=1)
        assert rec.dim == 2 and rec.method == "spin"
        for k in range(2):
            for n in range(2):
                assert_element_close(rec.element(k, n), rho.mat[k, n])
        tr = rec.diagnostics["trace"]
        assert abs(tr - 1.0) <= 5.0 * rec.diagnostics["trace_std_error"] + 1e-12
        assert np.allclose(rec.hermitized, rec.hermitized.conj().T)


class TestReconstructPauli:
    def test_tilted_qubit(self):
        d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=tuple(d)))
        records = sample_pauli(rho, 90_000, RngStream(613))
        rec = reconstruct_matrix(records, "pauli", n_max=1)
        for k in range(2):
            for n in range(2):
                assert_element_close(rec.element(k, n), rho.mat[k, n])

    def test_wrong_n_max(self):
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
        records = sample_pauli(rho, 100, RngStream(614))
        with pytest.raises(UsageError):
            reconstruct_matrix(records, "pauli", n_max=2)


class TestReconstructParity:
    def test_coherent_state(self):
        dim = 8
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
        records = sample_displaced_parity(rho, 400_000, RngStream(615), cfg)
        rec = reconstruct_matrix(records, "parity", n_max=dim - 1, cfg=cfg)
        for k in range(dim):
            for n in range(dim):
                assert_element_close(rec.element(k, n), rho.mat[k, n])
        assert abs(rec.diagnostics["trace"] - 1.0) <= \
            5.0 * rec.diagnostics["trace_std_error"] + 1e-12

    def test_needs_cfg(self):
        dim = 8
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        records = sample_displaced_parity(rho, 100, RngStream(616), EstimatorConfig(dim=dim))
        with pytest.raises(UsageError):
            reconstruct_matrix(records, "parity", n_max=dim - 1)


class TestReconstructHomodyne:
    def test_vacuum(self):
        # kernel truncation leaves a deterministic bias well under 2e-3,
        # so the element tolerance carries that floor on top of 5 SE
        dim = 4
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        records = sample_homodyne(rho, 40_000, RngStream(620), cfg)
        rec = reconstruct_matrix(records, "homodyne", n_max=dim - 1, cfg=cfg)
        for k in range(dim):
            for n in range(dim):
                res = rec.element(k, n)
                target = rho.mat[k, n]
                assert abs(res.mean - target) <= 5.0 * res.std_error + 2e-3


class TestReconstructKerr:
    def test_off_diagonals_and_diagonal_hole(self):
        dim = 6
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.6))
        records = sample_kerr_phase(rho, 20_000, RngStream(617), cfg)
        rec = reconstruct_matrix(records, "kerr", n_max=dim - 1, cfg=cfg)
        assert rec.diagnostics["diagonal"] == "not estimated"
        for k in range(dim):
            assert rec.element(k, k) is None
            assert rec.hermitized[k, k] == 0.0
        for k in range(dim):
            for n in range(dim):
                if k != n:
                    assert_element_close(rec.element(k, n), rho.mat[k, n])

    def test_quorum_mismatch(self):
        dim = 6
        rho = make_state(StateSpec(kind="fock", dim=dim, n=1))
        records = sample_kerr_phase(rho, 100, RngStream(618), EstimatorConfig(dim=dim))
        with pytest.raises(UsageError):
            reconstruct_matrix(records, "parity", n_max=dim - 1, cfg=EstimatorConfig(dim=dim))

    def test_n_max_0_reaches_no_element(self):
        cfg = EstimatorConfig(dim=4)
        rho = make_state(StateSpec(kind="coherent", dim=4, beta=0.5))
        records = sample_kerr_phase(rho, 100, RngStream(619), cfg)
        with pytest.raises(UsageError, match="no element"):
            reconstruct_matrix(records, "kerr", n_max=0, cfg=cfg)


class TestReconstructValidation:
    def test_unknown_method(self):
        with pytest.raises(UsageError):
            reconstruct_matrix(RecordBatch("pauli", [[0.0], [1.0]], [0.5, -0.5]), "voodoo",
                               n_max=1)

    def test_empty_records(self):
        with pytest.raises(UsageError):
            reconstruct_matrix(RecordBatch("spin", np.empty((0, 3)), []), "spin", n_max=1)

    def test_reference_and_projection_diagnostics(self):
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
        records = sample_spin(rho, 1, 20_000, RngStream(619))
        rec = reconstruct_matrix(records, "spin", n_max=1, reference=rho, nearest_physical=True)
        comp = rec.diagnostics["comparison"]
        assert comp["fidelity"] > 0.99
        assert comp["trace_distance"] < 0.05
        assert rec.diagnostics["nearest_physical_distance"] >= 0.0


class TestCompareStates:
    def test_identical_states(self):
        rho = make_state(StateSpec(kind="coherent", dim=6, beta=0.4))
        c = compare_states(rho, rho)
        # sqrt of near-zero eigenvalues amplifies float noise to ~1e-8
        assert abs(c["fidelity"] - 1.0) <= 1e-7
        assert c["trace_distance"] <= 1e-10
        assert c["max_element_error"] == 0.0

    def test_orthogonal_pure_states(self):
        a = np.zeros((3, 3), dtype=complex)
        b = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        b[1, 1] = 1.0
        c = compare_states(a, b)
        assert abs(c["fidelity"]) <= 1e-12
        assert abs(c["trace_distance"] - 1.0) <= 1e-12

    def test_commuting_mixtures(self):
        a = np.diag([0.75, 0.25]).astype(complex)
        b = np.diag([0.25, 0.75]).astype(complex)
        c = compare_states(a, b)
        # classical fidelity (sum sqrt(p q))^2 = (2 sqrt(3)/4)^2 = 3/4
        assert abs(c["fidelity"] - 0.75) <= 1e-12
        assert abs(c["trace_distance"] - 0.5) <= 1e-12
        assert abs(c["max_element_error"] - 0.5) <= 1e-12

    def test_negative_mass_reported(self):
        a = np.diag([1.2, -0.2]).astype(complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        c = compare_states(a, b)
        assert c["negative_eigenvalue_mass"] >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare_states(np.eye(2), np.eye(3) / 3.0)


class TestNearestPhysicalState:
    def test_fixed_point(self):
        rho = make_state(StateSpec(kind="coherent", dim=5, beta=0.3))
        out = nearest_physical_state(rho.mat)
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-12

    def test_negative_eigenvalue_clipped(self):
        out = nearest_physical_state(np.diag([1.2, -0.2]).astype(complex))
        assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_projection_properties_and_optimality(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = 0.5 * (g + g.conj().T) / 4.0
            proj = nearest_physical_state(m)
            w = np.linalg.eigvalsh(proj.mat)
            assert abs(np.trace(proj.mat).real - 1.0) <= 1e-10
            assert w.min() >= -1e-12
            d_proj = np.linalg.norm(m - proj.mat)
            for _ in range(5):
                h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                sigma = h @ h.conj().T
                sigma /= np.trace(sigma).real
                assert d_proj <= np.linalg.norm(m - sigma) + 1e-12

    def test_accepts_operator(self):
        out = nearest_physical_state(Operator(np.eye(3, dtype=complex)))
        assert np.allclose(out.mat, np.eye(3) / 3.0, atol=1e-12)

    def test_squeeze_refused_outside_homodyne(self):
        dim = 4
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        records = sample_displaced_parity(rho, 100, RngStream(620), cfg)
        with pytest.raises(UsageError, match="squeeze"):
            reconstruct_matrix(records, "parity", n_max=dim - 1, cfg=cfg,
                               squeeze=SqueezeParams(0.1))


class TestEstimateObservable:
    def test_same_result_as_the_family_estimator(self):
        rho = make_state(StateSpec(kind="random_mixed", dim=3, seed=4))
        records = sample_spin(rho, 2, 5_000, RngStream(621))
        a = fock_matrix_unit(0, 2, 3)
        assert estimate_observable(records, "spin", a) == spin_estimate(a, records, 2)

    def test_kerr_identity_is_the_constant_kernel(self):
        dim = 4
        cfg = EstimatorConfig(dim=8)  # a larger cfg is cut to the operator's dimension
        rho = make_state(StateSpec(kind="fock", dim=dim, n=1))
        records = sample_kerr_phase(rho, 1_000, RngStream(622), EstimatorConfig(dim=dim))
        res = estimate_observable(records, "kerr", identity(dim), cfg=cfg)
        assert (res.mean, res.std_error, res.n_samples) == (1.0, 0.0, 1_000)
        off = fock_matrix_unit(0, 1, dim)
        assert estimate_observable(records, "kerr", off, cfg=cfg) == kerr_estimate(
            off, records, EstimatorConfig(dim=dim))
        with pytest.raises(UsageError):
            estimate_observable(records, "kerr", number(dim), cfg=cfg)
