"""One-pass reconstruction: kernel blocks against the per-element estimators."""

import numpy as np
import pytest

from qtomo import recon
from qtomo.errors import GridError, InvalidSpecError, NumericPreconditionError
from qtomo.estimators import (
    EstimatorConfig,
    SqueezeParams,
    homodyne_estimate,
    homodyne_kernel_matrix,
    kerr_estimate,
    parity_estimate,
    spin_estimate,
)
from qtomo._special import CubicSpline
from qtomo.estimators import homodyne
from qtomo.estimators.homodyne import _real_table, homodyne_kernel_block
from qtomo.estimators.kerr import kerr_kernel_block
from qtomo.estimators.parity import parity_kernel_block
from qtomo.estimators.spin import spin_kernel_block
from qtomo.operators import fock_matrix_unit, identity, squeeze
from qtomo.recon import reconstruct_matrix
from qtomo.records import RecordBatch
from qtomo.sampler import (
    RngStream,
    sample_displaced_parity,
    sample_homodyne,
    sample_kerr_phase,
    sample_spin,
)
from qtomo.states import StateSpec, make_state

SHOTS = 3000


def _coherent(dim, beta=0.2):
    return make_state(StateSpec(kind="coherent", dim=dim, beta=beta))


def _homodyne_case():
    dim = 6
    cfg = EstimatorConfig(dim=dim)
    recs = sample_homodyne(_coherent(dim), SHOTS, RngStream(801), cfg)
    return recs, dim, dict(cfg=cfg), lambda a: homodyne_estimate(a, recs, cfg)


def _squeezed_case():
    dim = 8
    cfg = EstimatorConfig(dim=dim)
    sq = SqueezeParams(0.05 + 0.05j)
    vac = make_state(StateSpec(kind="fock", dim=dim, n=0))
    recs = sample_homodyne(vac, SHOTS, RngStream(802), cfg, squeeze=sq)
    return (recs, dim, dict(cfg=cfg, squeeze=sq),
            lambda a: homodyne_estimate(a, recs, cfg, squeeze=sq))


def _parity_case():
    dim = 6
    cfg = EstimatorConfig(dim=dim)
    recs = sample_displaced_parity(_coherent(dim), SHOTS, RngStream(803), cfg)
    return recs, dim, dict(cfg=cfg), lambda a: parity_estimate(a, recs, cfg)


def _kerr_case():
    dim = 6
    cfg = EstimatorConfig(dim=dim)
    recs = sample_kerr_phase(_coherent(dim), SHOTS, RngStream(804), cfg)
    return recs, dim, dict(cfg=cfg), lambda a: kerr_estimate(a, recs, cfg)


def _spin_case():
    twice_s = 2
    rho = make_state(StateSpec(kind="random_mixed", dim=twice_s + 1, seed=5))
    recs = sample_spin(rho, twice_s, SHOTS, RngStream(805))
    return (recs, twice_s + 1, {},
            lambda a: spin_estimate(a, recs, twice_s))


CASES = {
    "homodyne": ("homodyne", _homodyne_case),
    "squeezed": ("homodyne", _squeezed_case),
    "parity": ("parity", _parity_case),
    "kerr": ("kerr", _kerr_case),
    "spin": ("spin", _spin_case),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_pass_matches_per_element_estimates(case, monkeypatch):
    method, build = CASES[case]
    recs, dim, kwargs, per_element = build()
    # a small block budget so the records span several chunks
    monkeypatch.setattr(recon, "_BLOCK_BYTES", 16 * dim * dim * 700)
    rec = reconstruct_matrix(recs, method, dim - 1, **kwargs)
    for k in range(dim):
        for n in range(dim):
            got = rec.element(k, n)
            if method == "kerr" and k == n:
                assert got is None
                continue
            want = per_element(fock_matrix_unit(n, k, dim))
            assert abs(got.mean - want.mean) <= 1e-12
            assert abs(got.std_error - want.std_error) <= 1e-10 * want.std_error
            assert got.n_samples == want.n_samples == SHOTS


BLOCKS = {"homodyne": homodyne_kernel_block, "parity": parity_kernel_block,
          "kerr": kerr_kernel_block, "spin": spin_kernel_block}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_blocks_are_element_major(case, monkeypatch):
    # each block is a C-contiguous (d, d, n) array, so the reconstruct pass pushes every
    # element's row straight out of the block, with no copy and no strided read
    method, build = CASES[case]
    recs, dim, kwargs, _ = build()
    made, pushed = [], []

    def block(settings, outcomes, **params):
        made.append(BLOCKS[method](settings, outcomes, **params))
        return made[-1]

    def walk(batch, values, columns, step):
        pushed.extend(values(batch.settings[:step], batch.outcomes[:step]))
        return [None] * columns

    monkeypatch.setattr(recon, "walk", walk)
    recon._block_elements(recs, dim, block, **recon.method_params(method, dim - 1, **kwargs))
    (kb,) = made
    assert kb.shape == (dim, dim, len(recs)) and kb.flags.c_contiguous
    assert len(pushed) == dim * dim
    assert all(row.flags.c_contiguous and np.shares_memory(row, kb) for row in pushed)


@pytest.mark.parametrize("dim", [4, 8])
def test_homodyne_spline_block_matches_direct_kernel(dim):
    cfg = EstimatorConfig(dim=dim)
    gen = np.random.default_rng(dim)
    phis = gen.uniform(0.0, np.pi, 6)
    qs = gen.uniform(-3.0, 3.0, 6)
    block = homodyne_kernel_block(phis[:, None], qs, cfg)
    for i in range(qs.size):
        direct = homodyne_kernel_matrix(qs[i], phis[i], cfg).mat
        assert np.max(np.abs(block[..., i] - direct)) <= 2e-6


@pytest.mark.parametrize("dim", [1, 2, 8, 12])
def test_homodyne_block_has_the_bits_of_the_unsliced_formula(dim):
    # the block is built in slices of records from a spline through F's upper triangle;
    # it must keep the bits of the whole-chunk formula through all d^2 columns of F
    cfg = EstimatorConfig(dim=dim)
    qs, f = homodyne._dense_f_grid(dim, cfg.k_max, cfg.reg_eps)
    spline = CubicSpline(qs, _real_table(f).reshape(dim * dim, -1).T)
    sq = SqueezeParams(0.05 + 0.05j)
    s = squeeze(sq.zeta, dim).mat
    gen = np.random.default_rng(dim)
    for n in (1, 2, 1023, 1024, 1025, 8192, 8193):
        phis = gen.uniform(0.0, np.pi, (n, 1))
        q = gen.uniform(1.2 * qs[0], 1.2 * qs[-1], n)  # some beyond the grid, clipped
        u = np.exp(1j * phis[:, 0] * np.arange(dim)[:, None])
        want = u[:, None, :] * u.conj()[None, :, :]
        want *= spline(np.clip(q, qs[0], qs[-1])).T.reshape(dim, dim, -1)
        got = homodyne_kernel_block(phis, q, cfg)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), n
        want = (s.conj().T @ want.transpose(2, 0, 1).copy() @ s).transpose(1, 2, 0).copy()
        assert homodyne_kernel_block(phis, q, cfg, squeeze=sq).tobytes() == want.tobytes(), n


def test_complex_pattern_table_is_refused():
    f = np.ones((2, 2, 5), dtype=complex)
    assert np.array_equal(_real_table(f + 1e-14j), f.real)
    with pytest.raises(NumericPreconditionError):
        _real_table(f + 1e-6j)


def test_parity_reconstruct_checks_the_proposal_boundary():
    dim = 8
    cfg = EstimatorConfig(dim=dim, proposal_radius=1.5)
    recs = sample_displaced_parity(_coherent(dim, 0.5), 2000, RngStream(806), cfg)
    with pytest.raises(GridError):
        reconstruct_matrix(recs, "parity", dim - 1, cfg=cfg)


def _spin_half_records(bad_m):
    return RecordBatch("spin", np.tile([0.0, 0.0, 1.0], (4, 1)), [0.5, -0.5, 0.5, bad_m])


@pytest.mark.parametrize("bad_m", [-2.0, 0.25, float("nan"), float("inf")])
def test_spin_reconstruct_rejects_non_eigenvalue_outcomes(bad_m):
    with pytest.raises(InvalidSpecError):
        reconstruct_matrix(_spin_half_records(bad_m), "spin", 1)


def test_spin_estimate_rejects_nan_outcome():
    with pytest.raises(InvalidSpecError):
        spin_estimate(identity(2), _spin_half_records(float("nan")), 1)
