"""Every sampled family's standard error, calibrated against an independent oracle.

For each family of recon.METHODS, records of a fixed list of seeds give
z = |estimate - oracle| / std_error. If the standard error is the right
size, the mean of z^2 over the 32 seeds is about chi^2_32 / 32; the
bounds are its 0.05 % and 99.95 % quantiles. A standard error that is too
large lets the 5-se gates of the other suites pass vacuously, and one that
is too small makes them fail at random. The seeds, the shot count and the
bounds were fixed before the test was first run.

A hypothesis property then draws random states, on levels 0-2 padded to
dim 8 for the oscillator families and at 2s + 1 in {2, 3, 4} for spin,
and requires each family's estimate within 5 standard errors of its
oracle. Its shot count, example count and bound were fixed the same way.
"""

from __future__ import annotations

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from qtomo.estimators import (
    EstimatorConfig,
    exact_homodyne_average,
    kerr_exact_element,
    parity_exact_element,
    spin_quadrature_expectation,
)
from qtomo.operators import fock_matrix_unit, number, pauli
from qtomo.recon import METHODS, estimate_observable, method_params
from qtomo.sampler import RngStream
from qtomo.states import DensityMatrix, StateSpec, make_state

SEEDS = [70000 + k for k in range(32)]
SHOTS = 2_000
MEAN_Z2_BOUNDS = (0.37, 2.03)

_CFG = EstimatorConfig(dim=8)
_COHERENT = StateSpec(kind="coherent", dim=8, beta=0.5)


def _random_mixed(dim):
    return lambda k: StateSpec(kind="random_mixed", dim=dim, seed=k)


# Each family: the state of seed index k, the observable A, the oracle <A>(A, rho),
# and the keywords of estimate_observable.
CASES = {
    "homodyne": (lambda k: _COHERENT, number(8),
                 lambda a, rho: exact_homodyne_average(a, rho, _CFG), {"cfg": _CFG}),
    "parity": (lambda k: _COHERENT, fock_matrix_unit(0, 1, 8),
               lambda a, rho: parity_exact_element(rho, 1, 0, _CFG), {"cfg": _CFG}),
    "kerr": (lambda k: _COHERENT, fock_matrix_unit(0, 1, 8),
             lambda a, rho: kerr_exact_element(rho, 0, 1, _CFG), {"cfg": _CFG}),
    "spin": (_random_mixed(4), number(4),
             lambda a, rho: spin_quadrature_expectation(a, rho, a.dim - 1), {}),
    "pauli": (_random_mixed(2), pauli("x"),
              lambda a, rho: complex(np.trace(a.mat @ rho.mat)), {}),
}


def test_cases_cover_every_method():
    assert set(CASES) == set(METHODS)


@pytest.mark.parametrize("method", list(CASES))
def test_mean_z_squared_is_chi_squared(method):
    spec_of, a, oracle, kwargs = CASES[method]
    params = method_params(method, a.dim - 1, **kwargs)
    exact = {}  # one state and oracle per distinct state spec
    z2 = []
    for k, seed in enumerate(SEEDS):
        spec = spec_of(k)
        if spec not in exact:
            rho = make_state(spec)
            exact[spec] = (rho, oracle(a, rho))
        rho, value = exact[spec]
        records = METHODS[method].sample(rho, shots=SHOTS, rng=RngStream(seed), **params)
        res = estimate_observable(records, method, a, **kwargs)
        z2.append(abs(res.mean - value) ** 2 / res.std_error ** 2)
    lo, hi = MEAN_Z2_BOUNDS
    assert lo <= np.mean(z2) <= hi, np.mean(z2)


# Each family's random states: (levels drawn, working dimension); spin draws its dimension
RANDOM_LEVELS = {"homodyne": (3, 8), "parity": (3, 8), "kerr": (3, 8), "pauli": (2, 2)}


def test_random_levels_cover_every_method():
    assert set(RANDOM_LEVELS) | {"spin"} == set(METHODS)


@pytest.mark.parametrize("method", list(CASES))
@hypothesis.settings(max_examples=8, deadline=None, derandomize=True)
@hypothesis.given(state_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
                  spin_dim=st.sampled_from([2, 3, 4]))
def test_random_state_estimate_is_within_5_se(method, state_seed, seed, spin_dim):
    _, a, oracle, kwargs = CASES[method]
    levels, dim = RANDOM_LEVELS.get(method, (spin_dim, spin_dim))
    if method == "spin":
        a = number(dim)
    rng = np.random.default_rng(state_seed)
    rank = int(rng.integers(1, levels + 1))
    g = rng.standard_normal((levels, rank)) + 1j * rng.standard_normal((levels, rank))
    m = np.zeros((dim, dim), dtype=complex)
    m[:levels, :levels] = g @ g.conj().T
    rho = DensityMatrix(m / np.trace(m).real)
    params = method_params(method, a.dim - 1, **kwargs)
    records = METHODS[method].sample(rho, shots=SHOTS, rng=RngStream(seed), **params)
    res = estimate_observable(records, method, a, **kwargs)
    assert abs(res.mean - oracle(a, rho)) <= 5 * res.std_error
