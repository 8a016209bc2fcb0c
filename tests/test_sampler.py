"""Record generators checked against their exact target distributions."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from qtomo.errors import TruncationError, UsageError
from qtomo.estimators import EstimatorConfig
from qtomo.sampler import (
    RngStream,
    _cumulative_trapezoid,
    sample_displaced_parity,
    sample_homodyne,
    sample_kerr_phase,
    sample_spin,
)
from qtomo.states import DensityMatrix, StateSpec, make_state

P_FLOOR = 0.001  # goodness-of-fit threshold shared by all distribution tests


def outcomes(records):
    return records.outcomes


def settings(records, k=0):
    return records.settings[:, k]


class TestHomodyne:
    def test_vacuum_variance(self):
        dim = 8
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        q = outcomes(sample_homodyne(rho, 100_000, RngStream(501), EstimatorConfig(dim=dim)))
        s2 = q.var(ddof=1)
        se = s2 * np.sqrt(2.0 / (q.size - 1))  # Gaussian variance-of-variance
        assert abs(s2 - 0.25) <= 5 * se

    def test_first_fock_node_at_origin(self):
        dim = 8
        rho = make_state(StateSpec(kind="fock", dim=dim, n=1))
        q = outcomes(sample_homodyne(rho, 100_000, RngStream(502), EstimatorConfig(dim=dim)))
        width = 0.1
        density = np.count_nonzero(np.abs(q) < width / 2) / (q.size * width)
        assert density < 0.02

    def test_coherent_pinned_phase_mean(self):
        # E[q | phi] = beta cos(phi) and phi is uniform on [0, pi), so
        # 2 q cos(phi) is unbiased for beta = 0.5
        dim = 10
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
        records = sample_homodyne(rho, 100_000, RngStream(503), EstimatorConfig(dim=dim))
        vals = 2.0 * outcomes(records) * np.cos(settings(records))
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) <= 5 * se

    def test_phase_range(self):
        dim = 6
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        phis = settings(sample_homodyne(rho, 5000, RngStream(504), EstimatorConfig(dim=dim)))
        assert phis.min() >= 0.0 and phis.max() < np.pi

    def test_leaking_state_rejected(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        with pytest.raises(TruncationError):
            sample_homodyne(rho, 100, RngStream(505), EstimatorConfig(dim=4))

    def test_determinism(self):
        dim = 8
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.3))
        a = sample_homodyne(rho, 3000, RngStream(506), EstimatorConfig(dim=dim))
        b = sample_homodyne(rho, 3000, RngStream(506), EstimatorConfig(dim=dim))
        assert a == b

    @pytest.mark.parametrize("dim", [2, 5, 8, 12, 16])
    def test_cdf_integral_matches_scipy_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        qs = np.linspace(-6.0, 6.0, 8193)
        bands = rng.normal(size=(dim, qs.size)) + 1j * rng.normal(size=(dim, qs.size))
        want = cumulative_trapezoid(bands, qs, axis=1, initial=0.0)
        assert np.array_equal(_cumulative_trapezoid(bands, qs), want)

    def test_worker_count_invariance(self, monkeypatch):
        # chunking is keyed by shot index, so the thread cap cannot leak
        # into the stream; 2 chunks force the pool path
        dim = 8
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.3))
        shots = (1 << 16) + 17
        cfg = EstimatorConfig(dim=dim)
        monkeypatch.setenv("QTOMO_THREADS", "1")
        a = sample_homodyne(rho, shots, RngStream(507), cfg)
        monkeypatch.setenv("QTOMO_THREADS", "4")
        b = sample_homodyne(rho, shots, RngStream(507), cfg)
        assert a == b


class TestSpin:
    def test_maximally_mixed_uniform_outcomes(self):
        twice_s = 3
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        ms = outcomes(sample_spin(rho, twice_s, 100_000, RngStream(511)))
        counts = [np.count_nonzero(ms == m) for m in (-1.5, -0.5, 0.5, 1.5)]
        assert sum(counts) == ms.size
        assert stats.chisquare(counts).pvalue > P_FLOOR

    def test_forced_axis_eigenstate(self):
        # for spin 1/2 up along z, E[m | n] = n_z / 2 at every drawn direction
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
        records = sample_spin(rho, 1, 100_000, RngStream(512))
        vals = 2.0 * outcomes(records) - settings(records, 2)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) <= 5 * se

    def test_cosine_moment(self):
        # E[m | n] = <S.n>, and E[n_z n_i] = delta_zi / 3 over the uniform
        # sphere, so 3 m n_z is unbiased for <S_z> = 1/2 in the up state
        rho = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
        records = sample_spin(rho, 1, 100_000, RngStream(513))
        vals = 3.0 * outcomes(records) * settings(records, 2)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) <= 5 * se


def parity_residual(spec, seed, g):
    """Parities s minus their conditional mean g(b) = Tr[rho P D(2b)] at each drawn b."""
    rho = make_state(spec)
    recs = sample_displaced_parity(rho, 100_000, RngStream(seed), EstimatorConfig(dim=spec.dim))
    b = settings(recs, 0) + 1j * settings(recs, 1)
    return outcomes(recs) - g(b)


class TestParity:
    # closed forms of G(b) = Tr[rho P D(2b)]; the residual has mean 0 at any b
    def test_vacuum_at_origin(self):
        r = parity_residual(StateSpec(kind="fock", dim=8, n=0), 521,
                            lambda b: np.exp(-2.0 * np.abs(b) ** 2))
        assert abs(r.mean()) <= 5 * r.std(ddof=1) / np.sqrt(r.size)

    def test_first_fock_at_origin(self):
        r = parity_residual(StateSpec(kind="fock", dim=8, n=1), 522,
                            lambda b: -np.exp(-2.0 * np.abs(b) ** 2) * (1.0 - 4.0 * np.abs(b) ** 2))
        assert abs(r.mean()) <= 5 * r.std(ddof=1) / np.sqrt(r.size)

    def test_coherent_parity_mean(self):
        # the dim-8 truncation differs from the untruncated form by < 2e-5
        r = parity_residual(StateSpec(kind="coherent", dim=8, beta=0.5), 523,
                            lambda b: np.exp(-2.0 * np.abs(b + 0.5) ** 2))
        assert abs(r.mean()) <= 5 * r.std(ddof=1) / np.sqrt(r.size)


class TestKerrPhase:
    def test_fock_phase_invariance(self):
        dim = 6
        rho = make_state(StateSpec(kind="fock", dim=dim, n=2))
        recs = sample_kerr_phase(rho, 100_000, RngStream(531), EstimatorConfig(dim=dim))
        phi = outcomes(recs)
        assert stats.kstest(phi / (2.0 * np.pi), "uniform").pvalue > P_FLOOR

    def test_two_level_superposition_density(self):
        dim = 6
        v = np.zeros(dim, dtype=complex)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        shots = 100_000
        recs = sample_kerr_phase(rho, shots, RngStream(532), EstimatorConfig(dim=dim))
        x = np.mod(outcomes(recs) + settings(recs), 2.0 * np.pi)
        bins = np.linspace(0.0, 2.0 * np.pi, 33)
        observed, _ = np.histogram(x, bins=bins)
        centers = 0.5 * (bins[1:] + bins[:-1])
        # p(phi | psi) = (1 + cos(phi + psi)) / 2pi for the equal two-level
        # superposition, so x = phi + psi mod 2pi has density (1 + cos x) / 2pi
        density = (1.0 + np.cos(centers)) / (2.0 * np.pi)
        expected = shots * density * np.diff(bins)
        expected *= observed.sum() / expected.sum()
        assert stats.chisquare(observed, expected).pvalue > P_FLOOR

    def test_conditional_density_normalized(self):
        from qtomo.estimators import kerr_sideband_coefficients

        dim = 6
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.6))
        g = 4 * dim
        phi = 2.0 * np.pi * np.arange(g) / g
        for psi in (0.0, 1.1, 4.4):
            c = kerr_sideband_coefficients(rho, psi)[0]
            p = (1.0 + 2.0 * np.sum(
                (c[1:, None] * np.exp(1j * np.outer(np.arange(1, dim), phi))).real, axis=0
            )) / (2.0 * np.pi)
            total = np.sum(p) * (2.0 * np.pi / g)  # exact for a trig polynomial
            assert abs(total - 1.0) <= 1e-10
            assert abs(c[0] - 1.0) <= 1e-12

    def test_shot_validation(self):
        dim = 6
        rho = make_state(StateSpec(kind="fock", dim=dim, n=0))
        with pytest.raises(UsageError):
            sample_kerr_phase(rho, 0, RngStream(533), EstimatorConfig(dim=dim))
