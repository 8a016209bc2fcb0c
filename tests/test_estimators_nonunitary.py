"""Phase-weighted ladder resolution: trace routes and operator recovery."""

import numpy as np
import pytest

from qtomo.errors import TruncationError
from qtomo.estimators import (
    nonunitary_phase_trace,
    nonunitary_phase_trace_routes,
    nonunitary_reconstruct,
    phase_shift_ladder,
)
from qtomo.operators import Operator, fock_matrix_unit, identity, number
from qtomo.states import DensityMatrix, StateSpec, make_state


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


class TestLadderFamily:
    def test_shapes_and_phases(self):
        r = phase_shift_ladder(1, 0.7, 4).mat
        # entry (j, j+1) carries the phase of the upper rung
        for j in range(3):
            assert r[j, j + 1] == pytest.approx(np.exp(1j * 0.7 * (j + 1)))
        assert np.count_nonzero(r) == 3

    def test_negative_shift_is_adjoint_family(self):
        # phases sit on the upper rung for n >= 0 and the lower rung for
        # n < 0, so the adjoint picks up a scalar: R_k(psi)^dag = e^{-i k psi} R_{-k}(-psi)
        k, psi = 2, 0.3
        up = phase_shift_ladder(k, psi, 6).mat
        down = phase_shift_ladder(-k, -psi, 6).mat
        assert np.max(np.abs(up.conj().T - np.exp(-1j * k * psi) * down)) <= 1e-14

    def test_grid_orthogonality(self):
        # (1/G) sum_phi Tr[R_k^dag(phi) R_n(phi)] vanishes for k != n and
        # counts the surviving rungs for k = n
        dim = 12
        g = 4 * dim
        phis = 2.0 * np.pi * np.arange(g) / g
        for k in range(-5, 6):
            for n in range(-5, 6):
                acc = 0j
                for phi in phis:
                    rk = phase_shift_ladder(k, phi, dim).mat
                    rn = phase_shift_ladder(n, phi, dim).mat
                    acc += np.trace(rk.conj().T @ rn) / g
                want = dim - abs(n) if k == n else 0.0
                assert abs(acc - want) <= 1e-10


class TestPhaseTrace:
    def test_unit_trace(self):
        rho = make_state(StateSpec(kind="coherent", dim=8, beta=0.5))
        assert nonunitary_phase_trace(rho, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_fock_has_no_coherences(self):
        rho = make_state(StateSpec(kind="fock", dim=8, n=1))
        for psi in (0.0, 0.9, 2.5):
            assert abs(nonunitary_phase_trace(rho, 1, psi)) <= 1e-12

    def test_equal_superposition(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert nonunitary_phase_trace(rho, 1, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_routes_agree_on_random_states(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            rho = random_density(rng, 8)
            q = int(rng.integers(-5, 6))
            psi = float(rng.uniform(0.0, 2.0 * np.pi))
            direct, phase = nonunitary_phase_trace_routes(rho, q, psi)
            assert abs(direct - phase) <= 1e-8


class TestReconstruct:
    def test_identity(self):
        rng = np.random.default_rng(46)
        rho = random_density(rng, 8)
        assert nonunitary_reconstruct(identity(8), rho) == pytest.approx(1.0, abs=1e-8)

    def test_single_coherence(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 8)
        a = fock_matrix_unit(2, 3, 8)  # |2><3|
        want = np.trace(a.mat @ rho.mat)
        assert abs(nonunitary_reconstruct(a, rho) - want) <= 1e-8

    def test_number_on_second_fock(self):
        rho = make_state(StateSpec(kind="fock", dim=8, n=2))
        # a^dag a touches index dim-1 on the diagonal; bandwidth 0 keeps it legal
        assert nonunitary_reconstruct(number(8), rho) == pytest.approx(2.0, abs=1e-8)

    def test_support_violation(self):
        rho = make_state(StateSpec(kind="fock", dim=8, n=0))
        a = fock_matrix_unit(7, 5, 8)  # support 7, shift 2: shifted weight would be lost
        with pytest.raises(TruncationError):
            nonunitary_reconstruct(a, rho)

    def test_zero_operator(self):
        rho = make_state(StateSpec(kind="fock", dim=4, n=1))
        assert nonunitary_reconstruct(Operator(np.zeros((4, 4))), rho) == 0j

    def test_random_banded_operators(self):
        rng = np.random.default_rng(47)
        dim = 8
        for _ in range(10):
            rho = random_density(rng, dim)
            a = np.zeros((dim, dim), dtype=complex)
            for r in range(6):
                for c in range(6):
                    if abs(r - c) <= 2:
                        a[r, c] = rng.standard_normal() + 1j * rng.standard_normal()
            want = np.trace(a @ rho.mat)
            got = nonunitary_reconstruct(Operator(a), rho)
            assert abs(got - want) <= 1e-8
