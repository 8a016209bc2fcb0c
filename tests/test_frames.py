"""Spanning sets, duals, and the two quorum conditions."""

import numpy as np
import pytest

from qtomo.dualbasis import pseudoinverse_dual
from qtomo.errors import DimensionMismatchError, InvalidSpecError
from qtomo.estimators import EstimatorConfig
from qtomo.estimators.glauber import displacement_grid_set
from qtomo.frames import (
    DualSet,
    SettingLabel,
    SpanningSet,
    check_biorthogonality,
    check_trace_condition,
    default_kernel_matrix,
    irreducibility_rank,
    null_operator_test,
    superop_matrix_elements,
    superop_reassemble,
)
from qtomo.operators import Operator, fock_matrix_unit, identity, pauli


def normalized_pauli_set():
    """Orthonormal self-dual basis {sx, sy, sz, I} / sqrt(2), unit weights."""
    ops = [pauli("x"), pauli("y"), pauli("z"), identity(2)]
    return SpanningSet([op.mat / np.sqrt(2) for op in ops], np.ones(4), labels("pauli", 4))


def labels(quorum, count):
    return [SettingLabel(quorum, (float(i),)) for i in range(count)]


def as_dual(s):
    return DualSet(s.ops, s.weights, s.labels)


def single_observable_projectors(dim=3):
    ops = [fock_matrix_unit(i, i, dim).mat for i in range(dim)]
    return SpanningSet(ops, np.ones(dim), labels("proj", dim))


def random_basis(rng, dim, quorum="rnd"):
    ops = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
           for _ in range(dim * dim)]
    return SpanningSet(ops, np.ones(dim * dim), labels(quorum, dim * dim))


class TestSpanningSetChecks:
    def test_wrong_shape_rejected(self):
        for ops in (np.zeros((4, 2, 3)), np.zeros((2, 2)), np.zeros((0, 2, 2))):
            with pytest.raises(InvalidSpecError):
                SpanningSet(ops, np.ones(len(ops)), labels("q", len(ops)))

    def test_label_count_must_match(self):
        s = normalized_pauli_set()
        with pytest.raises(DimensionMismatchError):
            SpanningSet(s.ops, s.weights, s.labels[:3])

    def test_non_finite_entry_rejected(self):
        ops = normalized_pauli_set().ops.copy()
        ops[2, 0, 1] = complex(0.0, np.inf)
        with pytest.raises(InvalidSpecError):
            SpanningSet(ops, np.ones(4), labels("pauli", 4))

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
    def test_weight_must_be_finite_and_positive(self, weight):
        weights = np.ones(4)
        weights[2] = weight
        with pytest.raises(InvalidSpecError, match=r"coords=\(2\.0,\)"):
            SpanningSet(normalized_pauli_set().ops, weights, labels("pauli", 4))

    def test_arrays_are_read_only_copies(self):
        ops = normalized_pauli_set().ops.copy()
        s = SpanningSet(ops, np.ones(4), labels("pauli", 4))
        ops[0] = 0.0
        assert np.all(s.ops[0] == normalized_pauli_set().ops[0])
        assert not s.ops.flags.writeable and not s.weights.flags.writeable
        assert np.shares_memory(s.stack(), s.ops)


class TestBiorthogonality:
    def test_pauli_self_dual(self):
        s = normalized_pauli_set()
        report = check_biorthogonality(s, as_dual(s))
        assert report.max_violation <= 1e-14
        assert report.passed

    def test_missing_element_fails(self):
        s = normalized_pauli_set()
        short = SpanningSet(s.ops[:3], s.weights[:3], s.labels[:3])
        report = check_biorthogonality(short, as_dual(short))
        assert not report.passed

    def test_weyl_grid_with_pseudoinverse_dual(self):
        cfg = EstimatorConfig(dim=4, alpha_grid_points=21, alpha_max=2.0)
        s = displacement_grid_set(cfg)
        assert len(s) == 21 * 21
        dual = pseudoinverse_dual(s)
        report = check_biorthogonality(s, dual, tol=1e-8)
        assert report.passed

    def test_resolution_equivalence(self):
        # passing the superoperator check is the same statement as
        # reconstructing arbitrary operators from dual coefficients
        rng = np.random.default_rng(21)
        s = random_basis(rng, 3)
        dual = pseudoinverse_dual(s)
        assert check_biorthogonality(s, dual, tol=1e-9).passed
        w = s.weights
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            coef = [wx * np.vdot(b, a) for wx, b in zip(w, dual.ops)]
            rec = sum(c * op for c, op in zip(coef, s.ops))
            assert np.max(np.abs(rec - a)) <= 1e-9 * max(1.0, np.max(np.abs(a)))

    def test_frame_change_preserves_verdict(self):
        # invertible change of frame with the contragredient on the dual
        rng = np.random.default_rng(22)
        s = normalized_pauli_set()
        b = as_dual(s)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tinv = np.linalg.inv(t)
        c_stack = s.stack()
        b_stack = b.stack()
        new_c = t @ c_stack
        new_b = tinv.conj().T @ b_stack
        s2 = SpanningSet(new_c.reshape(4, 2, 2), s.weights, s.labels)
        b2 = DualSet(new_b.reshape(4, 2, 2), b.weights, b.labels)
        assert check_biorthogonality(s2, b2, tol=1e-9).passed


class TestTraceCondition:
    def test_orthonormal_pauli_passes(self):
        s = normalized_pauli_set()
        report = check_trace_condition(s, as_dual(s))
        assert report.passed
        assert report.verdict == "pass"

    def test_counterexample_flagged_reducible(self):
        # eigenprojectors of one observable satisfy the trace equality with
        # the default kernel yet cannot span the off-diagonal operators
        s = single_observable_projectors(3)
        report = check_trace_condition(s, as_dual(s))
        assert not report.passed
        assert report.verdict == "trace condition holds but set reducible"
        assert report.max_violation <= 1e-12

    def test_transformed_pauli_with_pinv_dual(self):
        rng = np.random.default_rng(23)
        base = normalized_pauli_set()
        t = rng.standard_normal((4, 4))
        while abs(np.linalg.det(t)) < 1e-3:
            t = rng.standard_normal((4, 4))
        mixed = t @ base.stack()
        s = SpanningSet(mixed.reshape(4, 2, 2), base.weights, base.labels)
        dual = pseudoinverse_dual(s)
        gram = dual.stack().conj() @ s.stack().T
        report = check_trace_condition(s, dual, kernel=gram)
        assert report.passed

    def test_kernel_shape_checked(self):
        s = normalized_pauli_set()
        with pytest.raises(DimensionMismatchError):
            check_trace_condition(s, as_dual(s), kernel=np.eye(3))


class TestIrreducibility:
    def test_pauli_rank_four(self):
        rep = irreducibility_rank(normalized_pauli_set())
        assert rep.rank == 4
        assert rep.irreducible

    def test_projectors_reducible(self):
        rep = irreducibility_rank(single_observable_projectors(3))
        assert rep.rank == 3
        assert not rep.irreducible

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(24)
        s = random_basis(rng, 3)
        scales = rng.uniform(0.1, 10.0, len(s)) * np.exp(2j * np.pi * rng.uniform(size=len(s)))
        scaled = SpanningSet(scales[:, None, None] * s.ops, s.weights, s.labels)
        assert irreducibility_rank(scaled).rank == irreducibility_rank(s).rank


class TestNullOperatorTest:
    def test_zero_operator(self):
        s = normalized_pauli_set()
        assert null_operator_test(s, Operator(np.zeros((2, 2), dtype=complex)))

    def test_non_orthogonal_passes_vacuously(self):
        s = normalized_pauli_set()
        assert null_operator_test(s, pauli("z"))

    def test_reducible_set_refuted(self):
        s = single_observable_projectors(3)
        assert not null_operator_test(s, fock_matrix_unit(0, 1, 3))


class TestSuperoperator:
    def test_identity_map_coefficients(self):
        s = normalized_pauli_set()
        b = as_dual(s)
        coef = superop_matrix_elements(np.eye(4, dtype=complex), s, b)
        gram = b.stack().conj() @ s.stack().T
        assert np.max(np.abs(coef - gram)) <= 1e-12

    def test_sigma_x_conjugation_diagonal(self):
        s = normalized_pauli_set()
        b = as_dual(s)
        sx = pauli("x").mat
        lmat = np.kron(sx, sx.conj())  # row-major vectorization of A -> sx A sx
        coef = superop_matrix_elements(lmat, s, b)
        assert np.allclose(np.diag(coef), [1.0, -1.0, -1.0, 1.0], atol=1e-12)
        off = coef - np.diag(np.diag(coef))
        assert np.max(np.abs(off)) <= 1e-12

    def test_random_superop_round_trip(self):
        rng = np.random.default_rng(25)
        s = normalized_pauli_set()
        b = as_dual(s)
        lmat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        coef = superop_matrix_elements(lmat, s, b)
        back = superop_reassemble(coef, s, b)
        assert np.max(np.abs(back - lmat)) <= 1e-8


def test_default_kernel_matches_weights():
    s = normalized_pauli_set()
    assert np.allclose(default_kernel_matrix(s), np.eye(4), atol=1e-14)
