"""Quadrature-kernel estimators against exact averages and sampled records."""

import hashlib

import numpy as np
import pytest

from qtomo.estimators import (
    EstimatorConfig,
    SqueezeParams,
    exact_homodyne_average,
    exact_squeezed_average,
    homodyne_estimate,
    homodyne_kernel_matrix,
    oscillator_wavefunctions,
)
from qtomo.estimators import homodyne
from qtomo.errors import GridError, InvalidSpecError, NumericPreconditionError, UsageError
from qtomo.operators import Operator, annihilation, fock_matrix_unit, identity, number
from qtomo.records import RecordBatch
from qtomo.sampler import RngStream, sample_homodyne
from qtomo.states import StateSpec, make_state


def cfg_for(dim, **kw):
    return EstimatorConfig(dim=dim, **kw)


def coherent(beta, dim):
    return make_state(StateSpec(kind="coherent", dim=dim, beta=beta))


def fock(n, dim):
    return make_state(StateSpec(kind="fock", dim=dim, n=n))


class TestKernelMatrix:
    def test_hermitian(self):
        cfg = cfg_for(8)
        for q, phi in [(0.0, 0.0), (1.3, 0.7), (-2.1, 2.9)]:
            k = homodyne_kernel_matrix(q, phi, cfg).mat
            assert np.max(np.abs(k - k.conj().T)) <= 1e-10

    def test_vacuum_annihilation_vanishes(self):
        cfg = cfg_for(8)
        val = exact_homodyne_average(annihilation(8), fock(0, 8), cfg)
        assert abs(val) <= 1e-6

    def test_coherent_annihilation_recovers_beta(self):
        cfg = cfg_for(12)
        val = exact_homodyne_average(annihilation(12), coherent(0.3, 12), cfg)
        assert abs(val - 0.3) <= 1e-3

    def test_complex_amplitude_both_quadratures(self):
        # phase content is the discriminator between e^{+i d phi} and
        # e^{-i d phi} kernel conventions; a real beta cannot tell them apart
        beta = 0.3 + 0.2j
        cfg = cfg_for(12)
        val = exact_homodyne_average(annihilation(12), coherent(beta, 12), cfg)
        assert abs(val - beta) <= 1e-3

    def test_annihilation_kernel_is_first_moment(self):
        # averaged against p(q; phi) at fixed phi, Tr[a K] acts as 2 q e^{i phi}
        dim = 10
        cfg = cfg_for(dim)
        rho = coherent(0.3 + 0.2j, dim).mat
        a = annihilation(dim)
        nodes, weights = np.polynomial.legendre.leggauss(160)
        q_max = np.sqrt(dim) + 4.0
        qq, qw = nodes * q_max, weights * q_max
        psi = oscillator_wavefunctions(dim, qq)
        idx = np.arange(dim)
        for phi in (0.0, 0.9, 2.2):
            amp = psi * np.exp(1j * idx * phi)[:, None]
            p = np.einsum("nq,nm,mq->q", amp.conj(), rho, amp).real
            kern = np.array([np.trace(a.mat @ homodyne_kernel_matrix(q, phi, cfg).mat)
                             for q in qq])
            lhs = np.sum(qw * p * kern)
            rhs = 2.0 * np.exp(1j * phi) * np.sum(qw * p * qq)
            assert abs(lhs - rhs) <= 1e-3


class TestPatternTable:
    # SHA-256 of the tables a d = 8 homodyne reconstruct builds at the
    # default k_max and reg_eps: all 17 q-chunks of the dense grid, the
    # last one a single column, and disp_stack at 4096 alphas
    DENSE_F_SHA256 = "dbcb98a4022061b3ad8c1a8069fc270f1f6fedce8e828412ee0b0a9a4c09b78a"
    BLOCKS_SHA256 = "3fa4199db502e0557572fb85046c80120eef65259527171dbbaac3fcc56e9343"

    def test_dense_table_bytes_are_pinned(self):
        f = homodyne._dense_f_grid(8, 40.0, 1e-3)[1]
        assert hashlib.sha256(f.tobytes()).hexdigest() == self.DENSE_F_SHA256

    def test_displacement_blocks_bytes_are_pinned(self):
        blocks = homodyne._k_tables(8, 40.0, 1e-3)[2]
        assert hashlib.sha256(blocks.tobytes()).hexdigest() == self.BLOCKS_SHA256

    @pytest.mark.parametrize("nudged", ["node", "weight"])
    def test_asymmetric_k_rule_refused(self, monkeypatch, nudged):
        # the k < 0 phases are the mirror of the k >= 0 ones, so a rule
        # that is not mirror-symmetric would give a silently wrong F
        rule = homodyne._k_rule

        def lopsided(k_max):
            k, w = rule(k_max)
            (k if nudged == "node" else w)[0] *= 1.0 + 1e-15
            return k, w

        monkeypatch.setattr(homodyne, "_k_rule", lopsided)
        with pytest.raises(NumericPreconditionError, match="mirror-symmetric"):
            homodyne._f_at(np.array([0.3]), 2, 7.25, 0.0625)

    def test_inexact_k_max_is_accepted(self):
        # multiples of 10.3 round, so panel edges taken from one linspace
        # over [-k_max, k_max] are mirror-symmetric only up to roundoff
        beta = 0.3 + 0.2j
        val = exact_homodyne_average(annihilation(8), coherent(beta, 8), cfg_for(8, k_max=10.3))
        assert abs(val - beta) <= 1e-6

    def test_k_max_is_bounded_by_the_panel_phase(self):
        # one of the 128 panels spans k_max / 128 (sqrt(8) + 6) rad of e^{ikq} at the
        # table's edge: 13.8 rad at k_max = 200, 20.7 rad at k_max = 300
        q_max = np.sqrt(8) + 6.0
        qs = np.linspace(-q_max, q_max, 257)
        ref = homodyne._f_at(qs, 8, 40.0, 1e-3)
        diff = homodyne._f_at(qs, 8, 200.0, 1e-3) - ref
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(ref))
        with pytest.raises(GridError, match="k_max = 300"):
            homodyne._f_at(qs, 8, 300.0, 1e-3)


class TestHomodyneEstimate:
    def test_identity_normalization(self):
        # per-outcome Tr[K] is not constant once the Fock space is cut, so
        # the normalization contract lives on the averaged estimator
        cfg = cfg_for(12)
        val = exact_homodyne_average(identity(12), fock(0, 12), cfg)
        assert abs(val - 1.0) <= 1e-6
        records = sample_homodyne(fock(0, 12), 20_000, RngStream(101), cfg)
        res = homodyne_estimate(identity(12), records, cfg)
        assert abs(res.mean - 1.0) <= 5 * res.std_error

    def test_number_on_first_fock(self):
        dim = 12
        cfg = cfg_for(dim)
        records = sample_homodyne(fock(1, dim), 100_000, RngStream(102), cfg)
        res = homodyne_estimate(number(dim), records, cfg)
        assert res.std_error > 0
        assert abs(res.mean - 1.0) <= 5 * res.std_error

    def test_offdiagonal_element_of_coherent(self):
        dim = 12
        cfg = cfg_for(dim)
        rho = coherent(0.5, dim)
        a = fock_matrix_unit(0, 1, dim)  # |0><1|
        target = np.trace(a.mat @ rho.mat)
        assert abs(target - 0.5 * np.exp(-0.25)) <= 1e-10
        records = sample_homodyne(rho, 100_000, RngStream(103), cfg)
        res = homodyne_estimate(a, records, cfg)
        assert abs(res.mean - target) <= 5 * res.std_error

    def test_empty_records_rejected(self):
        cfg = cfg_for(8)
        with pytest.raises(UsageError):
            homodyne_estimate(identity(8), RecordBatch("homodyne", np.empty((0, 1)), []), cfg)


class TestSqueezedEstimate:
    def test_zero_squeeze_reduces_exactly(self):
        dim = 10
        cfg = cfg_for(dim)
        records = sample_homodyne(coherent(0.4, dim), 2000, RngStream(104), cfg)
        plain = homodyne_estimate(number(dim), records, cfg)
        sq = homodyne_estimate(number(dim), records, cfg, squeeze=SqueezeParams(0.0))
        assert sq.mean == pytest.approx(plain.mean, abs=1e-12)
        assert sq.std_error == pytest.approx(plain.std_error, abs=1e-12)

    def test_identity_normalization_any_squeeze(self):
        dim = 16
        cfg = cfg_for(dim)
        for zeta in (0.2, 0.15j, 0.1 + 0.1j):
            val = exact_squeezed_average(identity(dim), fock(0, dim),
                                         SqueezeParams(zeta), cfg)
            assert abs(val - 1.0) <= 1e-6

    def test_number_on_vacuum_squeezed_samples(self):
        dim = 16
        cfg = cfg_for(dim)
        sq = SqueezeParams(0.2)
        records = sample_homodyne(fock(0, dim), 100_000, RngStream(105), cfg, squeeze=sq)
        res = homodyne_estimate(number(dim), records, cfg, squeeze=sq)
        assert abs(res.mean) <= 5 * res.std_error + 4 * cfg.reg_eps


def test_squeeze_params_hyperbolic_identity():
    for zeta in (0.0, 0.3, 0.2 - 0.5j, 1.0j):
        sq = SqueezeParams(zeta)
        assert abs(sq.mu**2 - abs(sq.nu) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize("field", ["k_max", "reg_eps", "proposal_radius"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(InvalidSpecError, match=field):
        EstimatorConfig(dim=4, **{field: value})


def test_config_rejects_zero_proposal_radius():
    # the default disk is asked for with None; 0 is no radius at all
    with pytest.raises(InvalidSpecError, match="proposal_radius"):
        EstimatorConfig(dim=4, proposal_radius=0.0)
