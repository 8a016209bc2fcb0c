"""Operator algebra: inner product, builders, conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo.errors import DimensionMismatchError, InvalidSpecError
from qtomo.estimators._cahill import disp_stack
from qtomo.operators import (
    Operator,
    SqueezeParams,
    annihilation,
    displacement,
    fock_matrix_unit,
    hs_inner,
    identity,
    number,
    parity,
    pauli,
    quadrature,
    spin_component,
    spin_matrices,
    squeeze,
)

EXACT = 1e-12
N_RANDOM = 30


def random_op(rng, dim):
    return Operator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


class TestHsInner:
    def test_identity_pairs(self):
        for d in (2, 3, 4, 5):
            assert hs_inner(identity(d), identity(d)) == pytest.approx(d, abs=EXACT)

    def test_pauli_orthogonality(self):
        assert abs(hs_inner(pauli("x"), pauli("y"))) <= EXACT

    def test_annihilation_self_overlap_dim4(self):
        # sum_{n=0}^{2} (n+1) over the three nonzero entries of a at dim 4
        assert hs_inner(annihilation(4), annihilation(4)) == pytest.approx(6.0, abs=EXACT)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(101)
        for _ in range(N_RANDOM):
            a = random_op(rng, 4)
            b = random_op(rng, 4)
            assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)), abs=1e-10)

    def test_self_inner_real_nonnegative(self):
        rng = np.random.default_rng(102)
        for _ in range(N_RANDOM):
            a = random_op(rng, 5)
            v = hs_inner(a, a)
            assert abs(v.imag) <= 1e-10
            assert v.real >= 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(identity(2), identity(3))


def test_trace_cyclicity():
    rng = np.random.default_rng(103)
    for _ in range(N_RANDOM):
        a = random_op(rng, 8).mat
        b = random_op(rng, 8).mat
        assert np.trace(a @ b) == pytest.approx(np.trace(b @ a), abs=1e-10)


class TestBuilders:
    def test_annihilation_entries(self):
        a = annihilation(3).mat
        expect = np.zeros((3, 3), dtype=complex)
        expect[0, 1] = 1.0
        expect[1, 2] = np.sqrt(2.0)
        assert np.allclose(a, expect, atol=EXACT)

    def test_parity_alternating(self):
        assert np.allclose(parity(3).mat, np.diag([1.0, -1.0, 1.0]), atol=EXACT)

    def test_displacement_zero_is_identity(self):
        assert np.allclose(displacement(0.0, 8).mat, np.eye(8), atol=EXACT)

    def test_number_diagonal(self):
        assert np.allclose(number(4).mat, np.diag([0.0, 1.0, 2.0, 3.0]), atol=EXACT)

    def test_matrix_unit(self):
        m = fock_matrix_unit(1, 3, 5).mat
        assert m[1, 3] == 1.0
        assert np.count_nonzero(m) == 1
        with pytest.raises(InvalidSpecError):
            fock_matrix_unit(5, 0, 5)


class TestDisplacement:
    def test_unitary_in_faithful_regime(self):
        # |alpha|^2 <= dim/8 keeps the truncated exponential unitary-accurate
        for dim, alpha in ((16, 1.0), (16, 1.0 + 1.0j), (32, 2.0), (8, 0.9j)):
            d = displacement(alpha, dim).mat
            assert np.max(np.abs(d @ d.conj().T - np.eye(dim))) <= 1e-8

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(re=st.floats(-1.0, 1.0), im=st.floats(-1.0, 1.0), dim=st.integers(1, 6))
    def test_laguerre_stack_matches_truncated_exponential(self, re, im, dim):
        # at |alpha|^2 <= 2, far inside a 40-level cutoff, the truncated
        # generator exponential is an independent route to the closed form
        alpha = complex(re, im)
        oracle = displacement(alpha, 40).mat[:dim, :dim]
        assert np.max(np.abs(disp_stack(np.array([alpha]), dim)[0] - oracle)) <= 1e-12

    def test_overlap_grid(self):
        # self-overlap is exactly the dimension; cross-overlaps fall off
        # with separation along a ray
        dim = 16
        alphas = np.linspace(-0.6, 0.6, 5)
        mats = {a: displacement(a, dim).mat for a in alphas}
        for a in alphas:
            tr = np.trace(mats[a] @ mats[a].conj().T)
            assert tr == pytest.approx(dim, abs=1e-9)
        gaps = {}
        for a in alphas:
            for b in alphas:
                sep = round(abs(a - b), 9)
                if sep == 0:
                    continue
                val = abs(np.trace(mats[a] @ mats[b].conj().T))
                gaps.setdefault(sep, []).append(val)
        seps = sorted(gaps)
        maxima = [max(gaps[s]) for s in seps]
        # the Laguerre tail oscillates, so only the envelope statement is
        # honest: cross terms sit far below the diagonal and the farthest
        # separation is weaker than the nearest
        assert all(m < dim / 2 for m in maxima)
        assert maxima[-1] < maxima[0]


def test_quadrature_vacuum_variance():
    # <0| q_phi^2 |0> = 1/4 for every phase under the half convention
    dim = 12
    for phi in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        q = quadrature(phi, dim).mat
        assert (q @ q)[0, 0].real == pytest.approx(0.25, abs=1e-10)
        assert abs((q @ q)[0, 0].imag) <= 1e-12


class TestSpin:
    def test_commutator(self):
        for twice_s in (1, 2, 3):
            sx, sy, sz = spin_matrices(twice_s)
            comm = sx.mat @ sy.mat - sy.mat @ sx.mat
            assert np.allclose(comm, 1j * sz.mat, atol=1e-12)

    def test_sz_spectrum(self):
        _, _, sz = spin_matrices(3)
        assert np.allclose(np.diag(sz.mat).real, [1.5, 0.5, -0.5, -1.5], atol=EXACT)

    def test_component_requires_unit_vector(self):
        with pytest.raises(InvalidSpecError):
            spin_component(2, (1.0, 1.0, 0.0))

    def test_component_matches_combination(self):
        n = np.array([1.0, 2.0, 2.0]) / 3.0
        sx, sy, sz = spin_matrices(2)
        combo = n[0] * sx.mat + n[1] * sy.mat + n[2] * sz.mat
        assert np.allclose(spin_component(2, n).mat, combo, atol=EXACT)


def test_squeeze_zero_is_identity():
    assert np.allclose(squeeze(0.0, 10).mat, np.eye(10), atol=EXACT)


def test_squeeze_unitary():
    s = squeeze(0.4 + 0.1j, 24).mat
    assert np.max(np.abs(s @ s.conj().T - np.eye(24))) <= 1e-10


@pytest.mark.parametrize("zeta", [0.3, -0.2j, 0.25 - 0.15j, 0.4 * np.exp(2.5j)])
def test_squeeze_bogoliubov_action_matches_squeeze_params(zeta):
    # S^dag a S = mu a + nu a^dag, away from the truncation edge
    dim, low = 60, 8
    s = squeeze(zeta, dim).mat
    a = annihilation(dim).mat
    sq = SqueezeParams(zeta)
    lhs = s.conj().T @ a @ s
    rhs = sq.mu * a + sq.nu * a.conj().T
    assert np.max(np.abs(lhs - rhs)[:low, :low]) <= 1e-12
