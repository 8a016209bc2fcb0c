"""State zoo: invariants, truncation policy, and known matrix elements."""

import numpy as np
import pytest

from qtomo.errors import InvalidSpecError, TruncationError
from qtomo.operators import Operator
from qtomo.states import DensityMatrix, StateSpec, make_state


def assert_physical(rho):
    m = rho.mat
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_fock_projector():
    rho = make_state(StateSpec(kind="fock", dim=4, n=1))
    assert np.allclose(rho.mat, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-14)


def test_fock_out_of_range():
    with pytest.raises(InvalidSpecError):
        make_state(StateSpec(kind="fock", dim=4, n=4))


def test_coherent_zero_is_vacuum():
    rho = make_state(StateSpec(kind="coherent", dim=6, beta=0.0))
    assert rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-14)


def test_coherent_elements():
    # rho_nm = e^{-|b|^2} b^n conj(b)^m / sqrt(n! m!), renormalized
    beta = 0.4 + 0.3j
    dim = 14
    rho = make_state(StateSpec(kind="coherent", dim=dim, beta=beta))
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, dim))))
    amps = np.exp(-abs(beta) ** 2 / 2) * beta ** np.arange(dim) / np.sqrt(fact)
    expect = np.outer(amps, amps.conj())
    expect /= np.trace(expect).real
    assert np.max(np.abs(rho.mat - expect)) <= 1e-12
    assert_physical(rho)


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec(kind="coherent", dim=8, beta=4.0))


def test_squeezed_vacuum_moments():
    # <a^2> = -mu nu, <n> = |nu|^2 for squeezed vacuum
    zeta = 0.3
    dim = 32
    rho = make_state(StateSpec(kind="squeezed_vacuum", dim=dim, zeta=zeta))
    assert_physical(rho)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    mu, nu = np.cosh(zeta), np.sinh(zeta)
    got_n = np.trace(rho.mat @ (a.conj().T @ a)).real
    got_a2 = np.trace(rho.mat @ (a @ a))
    assert got_n == pytest.approx(nu**2, abs=1e-10)
    assert got_a2 == pytest.approx(-mu * nu, abs=1e-10)


def test_squeezed_vacuum_truncation_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec(kind="squeezed_vacuum", dim=4, zeta=1.5))


def test_thermal_geometric_populations():
    nb = 0.5
    dim = 40
    rho = make_state(StateSpec(kind="thermal", dim=dim, mean_n=nb))
    p = np.diag(rho.mat).real
    x = nb / (nb + 1)
    expect = (1 - x) * x ** np.arange(dim)
    expect /= expect.sum()
    assert np.max(np.abs(p - expect)) <= 1e-12
    got_n = float(np.arange(dim) @ p)
    assert got_n == pytest.approx(nb, abs=1e-6)


def test_thermal_truncation_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec(kind="thermal", dim=6, mean_n=5.0))


def test_random_mixed_invariants_and_determinism():
    rho1 = make_state(StateSpec(kind="random_mixed", dim=3, seed=7))
    rho2 = make_state(StateSpec(kind="random_mixed", dim=3, seed=7))
    rho3 = make_state(StateSpec(kind="random_mixed", dim=3, seed=8))
    assert_physical(rho1)
    assert np.array_equal(rho1.mat, rho2.mat)
    assert not np.allclose(rho1.mat, rho3.mat)


def test_spin_pure_top_eigenstate():
    rho = make_state(StateSpec(kind="spin_pure", dim=3, twice_s=2,
                               direction=(0.0, 0.0, 1.0)))
    from qtomo.operators import spin_matrices

    _, _, sz = spin_matrices(2)
    val = np.trace(rho.mat @ sz.mat).real
    assert val == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    with pytest.raises(InvalidSpecError):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(InvalidSpecError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))


def test_density_matrix_accepts_plain_array():
    rho = DensityMatrix(np.eye(3, dtype=complex) / 3)
    assert rho.dim == 3


@pytest.mark.parametrize("spec", [StateSpec(kind="coherent", dim=6, beta=0.4),
                                  StateSpec(kind="random_mixed", dim=3, seed=2)])
def test_density_matrix_is_an_operator(spec):
    rho = make_state(spec)
    assert isinstance(rho, Operator)
    assert not rho.mat.flags.writeable
    with pytest.raises(InvalidSpecError):  # an Operator's checks run first
        DensityMatrix(np.full((2, 2), np.nan))
