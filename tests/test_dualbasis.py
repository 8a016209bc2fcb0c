"""Dual-set constructors: orthogonalization route vs frame-operator route."""

import numpy as np
import pytest

from qtomo.dualbasis import (
    gram_schmidt_dual,
    pseudoinverse_dual,
    spiral_directions,
    weigert_spin_quorum,
)
from qtomo.errors import InvalidSpecError, RankDeficientError
from qtomo.frames import (
    SettingLabel,
    SpanningSet,
    check_biorthogonality,
    irreducibility_rank,
)
from qtomo.operators import Operator, hs_inner, identity, pauli

N_RECON_OPS = 20
RECON_TOL = 1e-9


def make_set(mats, weights=None, quorum="test"):
    weights = weights if weights is not None else [1.0] * len(mats)
    return SpanningSet(mats, weights, [SettingLabel(quorum, (float(i),)) for i in range(len(mats))])


def pauli_basis_mats():
    return [pauli("x").mat / np.sqrt(2), pauli("y").mat / np.sqrt(2),
            pauli("z").mat / np.sqrt(2), identity(2).mat / np.sqrt(2)]


def skewed_basis_mats():
    i2 = identity(2).mat
    return [i2 / np.sqrt(2), (i2 + pauli("x").mat) / np.sqrt(2),
            pauli("y").mat / np.sqrt(2), pauli("z").mat / np.sqrt(2)]


def random_basis(rng, dim, weights=None):
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(dim * dim)]
    return make_set(mats, weights=weights)


def assert_reconstructs(s, dual, rng, tol=RECON_TOL):
    # Eq. of merit: A = sum_x w_x <B_x, A> C_x for arbitrary A
    w = s.weights
    for _ in range(N_RECON_OPS):
        a = rng.standard_normal((s.dim, s.dim)) + 1j * rng.standard_normal((s.dim, s.dim))
        rec = sum(
            wx * hs_inner(Operator(b), Operator(a)) * c
            for wx, b, c in zip(w, dual.ops, s.ops)
        )
        assert np.max(np.abs(rec - a)) <= tol * max(1.0, np.max(np.abs(a)))


class TestGramSchmidt:
    def test_orthonormal_input_is_self_dual(self):
        s = make_set(pauli_basis_mats())
        dual, trace = gram_schmidt_dual(s)
        for b, c in zip(dual.ops, s.ops):
            assert np.max(np.abs(b - c)) <= 1e-14
        assert np.allclose(trace.normalizers, 1.0, atol=1e-14)

    def test_skewed_basis_matches_pseudoinverse(self):
        s = make_set(skewed_basis_mats())
        dual_gs, _ = gram_schmidt_dual(s)
        dual_pi = pseudoinverse_dual(s)
        diff = np.max(np.abs(dual_gs.stack() - dual_pi.stack()))
        assert diff <= 1e-10
        assert check_biorthogonality(s, dual_gs, tol=1e-10).passed

    def test_repeated_element_rejected(self):
        mats = pauli_basis_mats()
        mats[2] = mats[0]
        with pytest.raises(RankDeficientError):
            gram_schmidt_dual(make_set(mats))

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidSpecError):
            gram_schmidt_dual(make_set(pauli_basis_mats()[:3]))

    def test_trace_is_orthonormal(self):
        rng = np.random.default_rng(31)
        s = random_basis(rng, 3)
        _, trace = gram_schmidt_dual(s)
        y = trace.orthonormal.reshape(9, -1)
        gram = y.conj() @ y.T
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_first_normalizer_is_first_norm(self):
        rng = np.random.default_rng(32)
        s = random_basis(rng, 2)
        _, trace = gram_schmidt_dual(s)
        c0 = Operator(s.ops[0])
        assert trace.normalizers[0] == pytest.approx(np.sqrt(hs_inner(c0, c0).real), abs=1e-12)


class TestPseudoinverse:
    def test_overcomplete_duplicate_with_split_weights(self):
        mats = pauli_basis_mats()
        mats.append(mats[0])
        s = make_set(mats, weights=[0.5, 1.0, 1.0, 1.0, 0.5])
        dual = pseudoinverse_dual(s)
        assert check_biorthogonality(s, dual, tol=1e-10).passed

    def test_reducible_input_rejected(self):
        mats = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        with pytest.raises(RankDeficientError):
            pseudoinverse_dual(make_set(mats))


class TestWeigertQuorum:
    def test_generic_directions_irreducible(self):
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        s = weigert_spin_quorum(1, dirs)
        rep = irreducibility_rank(s)
        assert rep.rank == 4
        assert rep.irreducible

    def test_degenerate_directions_reducible(self):
        s = weigert_spin_quorum(1, [(0.0, 0.0, 1.0)] * 4)
        assert irreducibility_rank(s).rank == 1

    def test_spin_one_spiral(self):
        s = weigert_spin_quorum(2, spiral_directions(9))
        assert irreducibility_rank(s).rank == 9

    def test_direction_count_enforced(self):
        with pytest.raises(InvalidSpecError):
            weigert_spin_quorum(2, spiral_directions(8))


class TestReconstructionIdentity:
    def test_random_bases_both_routes(self):
        rng = np.random.default_rng(33)
        for dim in (2, 3):
            s = random_basis(rng, dim)
            dual_gs, _ = gram_schmidt_dual(s)
            dual_pi = pseudoinverse_dual(s)
            assert np.max(np.abs(dual_gs.stack() - dual_pi.stack())) <= 1e-9
            assert_reconstructs(s, dual_gs, rng)
            assert_reconstructs(s, dual_pi, rng)

    def test_nonuniform_weights(self):
        rng = np.random.default_rng(34)
        weights = rng.uniform(0.2, 3.0, 9)
        s = random_basis(rng, 3, weights=weights)
        dual, _ = gram_schmidt_dual(s)
        assert check_biorthogonality(s, dual, tol=1e-9).passed
        assert_reconstructs(s, dual, rng)

    def test_permutation_changes_trace_not_identity(self):
        rng = np.random.default_rng(35)
        s = random_basis(rng, 2)
        perm = [2, 0, 3, 1]
        s_perm = SpanningSet(s.ops[perm], s.weights[perm], [s.labels[i] for i in perm])
        _, tr_a = gram_schmidt_dual(s)
        dual_b, tr_b = gram_schmidt_dual(s_perm)
        assert not np.allclose(tr_a.normalizers, tr_b.normalizers)
        assert_reconstructs(s_perm, dual_b, rng)
