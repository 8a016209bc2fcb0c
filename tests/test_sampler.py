"""Record generators checked against their exact target distributions."""

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from qtomo import sampler
from qtomo._parallel import CHUNK_SHOTS
from qtomo.errors import DimensionMismatchError, TruncationError, UsageError
from qtomo.estimators import EstimatorConfig, kerr_sideband_coefficients
from qtomo.sampler import (
    RngStream,
    _cumulative_trapezoid,
    sample_displaced_parity,
    sample_homodyne,
    sample_kerr_phase,
    sample_pauli,
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


def kerr_bisection_oracle(rho, shots, seed, chunk=CHUNK_SHOTS):
    """Outcomes of the plain 47-step bisection of each row's exact conditional CDF."""
    ds = np.arange(1, rho.dim)
    out = []
    for i in range(-(-shots // chunk)):
        gen = RngStream(seed).generator(i)
        ps = gen.uniform(0.0, 2.0 * np.pi, min(chunk, shots - i * chunk))
        u = gen.uniform(0.0, 1.0, ps.size)
        c = kerr_sideband_coefficients(rho, ps)[:, 1:] / (1j * ds)
        base = np.sum(c, axis=1)
        lo, hi = np.zeros(ps.size), np.full(ps.size, 2.0 * np.pi)
        for _ in range(47):
            mid = 0.5 * (lo + hi)
            e = np.exp(1j * mid[:, None] * ds)
            less = mid / (2.0 * np.pi) + (np.einsum("gd,gd->g", c, e) - base).real / np.pi < u
            lo, hi = np.where(less, mid, lo), np.where(less, hi, mid)
        out.append(0.5 * (lo + hi))
    return np.concatenate(out)


def two_level(dim, i, j):
    """The equal superposition of |i> and |j>; its phase density touches zero."""
    v = np.zeros(dim, dtype=complex)
    v[i] = v[j] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(v, v.conj()))


KERR_ORACLE_STATES = {
    "coherent-d8": lambda: make_state(StateSpec(kind="coherent", dim=8, beta=0.6)),
    "fock2-d6": lambda: make_state(StateSpec(kind="fock", dim=6, n=2)),
    "0+1-d6": lambda: two_level(6, 0, 1),
    "0+7-d8": lambda: two_level(8, 0, 7),
    "d1": lambda: DensityMatrix(np.ones((1, 1), dtype=complex)),
    **{f"mixed-d{d}-s{s}":
       (lambda d=d, s=s: make_state(StateSpec(kind="random_mixed", dim=d, seed=s)))
       for d in (2, 8) for s in range(4)},
}
SMALL_CHUNK = 4096


def kerr_phases(rho, shots, seed):
    return outcomes(sample_kerr_phase(rho, shots, RngStream(seed), EstimatorConfig(dim=rho.dim)))


class TestKerrPhase:
    @pytest.mark.parametrize("name", sorted(KERR_ORACLE_STATES))
    def test_matches_the_bisection_oracle(self, name, monkeypatch):
        # a full chunk and a short one, at a chunk size that keeps the oracle quick;
        # test_records pins the CSV digest at the real chunk size
        monkeypatch.setattr(sampler, "CHUNK_SHOTS", SMALL_CHUNK)
        rho = KERR_ORACLE_STATES[name]()
        shots = SMALL_CHUNK + 1000
        assert np.array_equal(kerr_phases(rho, shots, 541),
                              kerr_bisection_oracle(rho, shots, 541, SMALL_CHUNK))

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(dim=st.integers(1, 16), rank=st.integers(1, 16),
                      seed=st.integers(0, 2**32 - 1))
    def test_screen_is_within_half_the_margin_of_the_cdf(self, dim, rank, seed):
        # the screen may decide a row only where it cannot disagree with cdf()
        rng = np.random.default_rng(seed)
        shape = (dim, min(rank, dim))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        psi, phi = rng.uniform(0.0, 2.0 * np.pi, (2, 1000))
        c = kerr_sideband_coefficients(rho, psi)[:, 1:] / (1j * np.arange(1, dim))
        base = np.sum(c, axis=1)
        delta = 8 * dim * np.finfo(float).eps * (1.0 + np.sum(np.abs(c), axis=1))
        ct = np.ascontiguousarray(c.T)
        screen = sampler._kerr_screen(phi, ct, base)
        assert np.all(np.abs(screen - sampler._kerr_cdf(phi, ct, base)) <= delta / 2)

    def test_screen_settles_most_decisions(self, monkeypatch):
        # rows that reach the exact cdf(), summed over the 47 steps: about 3.2 per row here
        rows = []
        real = sampler._kerr_cdf

        def counting(phi, ct, base):
            rows.append(phi.size)
            return real(phi, ct, base)

        monkeypatch.setattr(sampler, "_kerr_cdf", counting)
        kerr_phases(KERR_ORACLE_STATES["coherent-d8"](), 20_000, 544)
        assert sum(rows) < 6 * 20_000

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(dim=st.integers(1, 8), rank=st.integers(1, 8),
                      state_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
                      shots=st.integers(1, 4096))
    def test_random_states_match_the_bisection_oracle(self, dim, rank, state_seed, seed, shots):
        rng = np.random.default_rng(state_seed)
        shape = (dim, min(rank, dim))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        assert np.array_equal(kerr_phases(rho, shots, seed),
                              kerr_bisection_oracle(rho, shots, seed))

    def test_fock_phase_invariance(self):
        dim = 6
        rho = make_state(StateSpec(kind="fock", dim=dim, n=2))
        recs = sample_kerr_phase(rho, 100_000, RngStream(531), EstimatorConfig(dim=dim))
        phi = outcomes(recs)
        assert stats.kstest(phi / (2.0 * np.pi), "uniform").pvalue > P_FLOOR

    def test_two_level_superposition_density(self):
        dim = 6
        rho = two_level(dim, 0, 1)
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


MISMATCHED = {
    "homodyne": (lambda rho: sample_homodyne(rho, 10, RngStream(1), EstimatorConfig(dim=5)),
                 "config dim 5 vs state dim 6"),
    "parity": (lambda rho: sample_displaced_parity(rho, 10, RngStream(1), EstimatorConfig(dim=7)),
               "config dim 7 vs state dim 6"),
    "kerr": (lambda rho: sample_kerr_phase(rho, 10, RngStream(1), EstimatorConfig(dim=5)),
             "config dim 5 vs state dim 6"),
    "spin": (lambda rho: sample_spin(rho, 3, 10, RngStream(1)), r"state dim 6 vs 2s\+1 = 4"),
    "pauli": (lambda rho: sample_pauli(rho, 10, RngStream(1)),
              "pauli sampling is for qubit states"),
}


@pytest.mark.parametrize("family", sorted(MISMATCHED))
def test_dimension_mismatch_is_refused(family):
    # the estimators' error for the same mistake, still a UsageError (CLI exit 2)
    run, message = MISMATCHED[family]
    with pytest.raises(DimensionMismatchError, match=f"^{message}$") as err:
        run(make_state(StateSpec(kind="fock", dim=6, n=2)))
    assert isinstance(err.value, UsageError)
