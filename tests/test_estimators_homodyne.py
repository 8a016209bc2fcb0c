"""Quadrature-kernel estimators against exact averages and sampled records."""

import hashlib
import sys
import threading

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
from qtomo import _tablecache
from qtomo._parallel import _blas_threads_api, _one_blas_thread
from qtomo.cli import main
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


def f_at_oracle(qs, dim, k_max, reg_eps):
    """F table of one three-operand einsum per 256-column chunk, serial."""
    k, g, blocks = homodyne._k_tables(dim, k_max, reg_eps)
    half = k.size // 2
    out = np.empty((dim, dim, qs.size), dtype=complex)
    for i in range(0, qs.size, 256):
        qc = qs[i : i + 256]
        ph = np.empty((k.size, qc.size), dtype=complex)
        kq = np.outer(k[half:], qc)
        np.cos(kq, out=ph.real[half:])
        np.sin(kq, out=ph.imag[half:])
        ph.real[:half] = ph.real[: half - 1 : -1]
        np.negative(ph.imag[: half - 1 : -1], out=ph.imag[:half])
        out[:, :, i : i + 256] = np.einsum("k,knm,kq->nmq", g, blocks, ph, optimize=True)
    return out


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

    @pytest.mark.skipif(_blas_threads_api() is None,
                        reason="numpy's OpenBLAS thread count not found")
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 12, 16, 17, 20])
    def test_pieces_match_the_einsum_oracle(self, dim):
        # d^2 on both sides of the 256-column chunks and of the shorter last chunks
        q_max = np.sqrt(dim) + 6.0
        sizes = [1, 21, 255, 257, 513] + ([4097] if dim in (8, 17) else [])
        with _one_blas_thread():
            for size in sizes:
                qs = np.linspace(-q_max, q_max, size)
                ours = homodyne._f_at(qs, dim, 40.0, 1e-3)
                assert ours.tobytes() == f_at_oracle(qs, dim, 40.0, 1e-3).tobytes(), size

    @pytest.mark.parametrize("dim", range(1, 21))
    def test_real_table_is_symmetric_bit_for_bit(self, tmp_path, monkeypatch, forget_tables, dim):
        # the reconstruct spline runs through the columns F_kn, k <= n, alone, and F_nk reads
        # F_kn's; _f_spline's build checks the symmetry, here with no table kept on disk
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        forget_tables()
        try:
            f = homodyne._real_table(homodyne._dense_f_grid(dim, 40.0, 1e-3)[1])
            assert f.tobytes() == f.transpose(1, 0, 2).tobytes()
            homodyne._f_spline(dim, 40.0, 1e-3)
        finally:
            forget_tables()

    def test_asymmetric_real_table_is_refused(self, table_cache, monkeypatch):
        grid = homodyne._dense_f_grid

        def lopsided(*key):
            qs, f = grid(*key)
            f = f.copy()
            f.real[0, 1, 1000] = np.nextafter(f.real[0, 1, 1000], np.inf)
            return qs, f

        monkeypatch.setattr(homodyne, "_dense_f_grid", lopsided)
        with pytest.raises(NumericPreconditionError, match="not symmetric bit for bit"):
            homodyne._f_spline(3, 40.0, 1e-3)
        assert [p.name for p in table_cache.iterdir() if "spline" in p.name] == []

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


def count_builds(monkeypatch):
    """The tables _f_at builds from now on, as (dim, k_max, reg_eps)."""
    builds = []
    f_at = homodyne._f_at

    def counted(qs, *key):
        builds.append(key)
        return f_at(qs, *key)

    monkeypatch.setattr(homodyne, "_f_at", counted)
    return builds


DAMAGE = ["truncated", "checksum", "magic", "shape", "data"]


def damage_file(path, damage, shape):
    """Cut the end off the table file at path, or flip one bit of it: in its checksum, the
    .npy magic, the shape (the first bytes that read shape) or the data; its old bytes."""
    whole = path.read_bytes()
    data = bytearray(whole)
    if damage == "truncated":
        del data[len(data) - 1000 :]
    else:
        at = {"checksum": 0, "magic": 33, "shape": data.index(shape),
              "data": len(data) // 2}[damage]
        data[at] ^= 1
    path.write_bytes(bytes(data))
    return whole


class TestTableCache:
    def test_warm_load_gives_the_pinned_bytes(self, table_cache, forget_tables, monkeypatch):
        cold = homodyne._dense_f_grid(8, 40.0, 1e-3)[1]
        assert len(list(table_cache.iterdir())) == 1
        forget_tables()
        builds = count_builds(monkeypatch)
        warm = homodyne._dense_f_grid(8, 40.0, 1e-3)[1]
        assert builds == [] and homodyne._k_tables.cache_info().currsize == 0
        assert warm.tobytes() == cold.tobytes()
        assert hashlib.sha256(warm.tobytes()).hexdigest() == TestPatternTable.DENSE_F_SHA256

    def test_outputs_are_the_same_cold_warm_and_unwritable(self, tmp_path, monkeypatch, capsys,
                                                           forget_tables):
        records = str(tmp_path / "records.csv")
        assert main(["sample", "--method", "homodyne", "--dim", "4", "--shots", "3000",
                     "--seed", "5", "--out", records]) == 0

        def outputs(cache_home):
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
            forget_tables()
            files = []
            for extra in ([], ["--observable", "number"]):
                out = tmp_path / "out.json"
                code = main(["reconstruct", "--method", "homodyne", "--records", records,
                             "--n-max", "3", *extra, "--out", str(out)])
                assert code == 0 and capsys.readouterr().err == ""
                files.append(out.read_bytes())
            return files

        cold = outputs(tmp_path / "xdg")
        builds = count_builds(monkeypatch)
        warm = outputs(tmp_path / "xdg")
        assert builds == []
        # the cache directory would sit under a file, so it cannot be made
        (tmp_path / "file").write_text("")
        unwritable = outputs(tmp_path / "file")
        assert builds == [(4, 40.0, 1e-3)]
        assert cold == warm == unwritable

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_file_is_rebuilt(self, table_cache, forget_tables, monkeypatch, damage):
        table = homodyne._dense_f_grid(3, 40.0, 1e-3)[1].tobytes()
        (path,) = table_cache.iterdir()
        whole = damage_file(path, damage, b"4097")
        forget_tables()
        builds = count_builds(monkeypatch)
        assert homodyne._dense_f_grid(3, 40.0, 1e-3)[1].tobytes() == table
        assert builds == [(3, 40.0, 1e-3)]
        assert path.read_bytes() == whole

    def test_warm_spline_reads_only_its_coefficients(self, table_cache, forget_tables,
                                                     monkeypatch):
        qs, cold, col = homodyne._f_spline(8, 40.0, 1e-3)
        names = sorted(path.name.split("-")[1] for path in table_cache.iterdir())
        assert names == ["f", "spline"]
        forget_tables()
        builds = count_builds(monkeypatch)
        _, warm, warm_col = homodyne._f_spline(8, 40.0, 1e-3)
        assert builds == [] and homodyne._dense_f_grid.cache_info().currsize == 0  # F unread
        assert warm.c.tobytes() == cold.c.tobytes() and warm.c.shape == (4, 4096, 36)
        assert warm_col.tobytes() == col.tobytes()
        xs = np.linspace(qs[0], qs[-1], 10_001)
        assert warm(xs).tobytes() == cold(xs).tobytes()

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_spline_file_is_rebuilt(self, table_cache, forget_tables, monkeypatch,
                                            damage):
        coefficients = homodyne._f_spline(3, 40.0, 1e-3)[1].c.tobytes()
        (path,) = table_cache.glob("homodyne-spline-*")
        whole = damage_file(path, damage, b"4096")
        forget_tables()
        builds = count_builds(monkeypatch)
        assert homodyne._f_spline(3, 40.0, 1e-3)[1].c.tobytes() == coefficients
        assert builds == []  # the F table came from its own file
        assert homodyne._dense_f_grid.cache_info().currsize == 1
        assert path.read_bytes() == whole

    def test_another_reg_eps_is_a_spline_miss(self, table_cache, forget_tables, monkeypatch):
        homodyne._f_spline(3, 40.0, 1e-3)
        forget_tables()
        builds = count_builds(monkeypatch)
        reg_eps = float(np.nextafter(1e-3, 1.0))
        homodyne._f_spline(3, 40.0, reg_eps)
        assert builds == [(3, 40.0, reg_eps)]
        assert len(list(table_cache.glob("homodyne-spline-*"))) == 2

    @pytest.mark.parametrize("change", ["reg_eps", "fingerprint"])
    def test_another_key_is_a_miss(self, table_cache, forget_tables, monkeypatch, change):
        homodyne._dense_f_grid(3, 40.0, 1e-3)
        forget_tables()
        builds = count_builds(monkeypatch)
        reg_eps = 1e-3
        if change == "reg_eps":
            reg_eps = float(np.nextafter(1e-3, 1.0))
        else:
            monkeypatch.setattr(_tablecache, "fingerprint", lambda: "another build")
        homodyne._dense_f_grid(3, 40.0, reg_eps)
        assert builds == [(3, 40.0, reg_eps)]
        assert len(list(table_cache.iterdir())) == 2

    @pytest.mark.parametrize("xdg", ["/var/cache/me", "", "cache"])
    def test_directory_is_xdg_or_the_home_default(self, tmp_path, monkeypatch, xdg):
        # an empty or relative XDG_CACHE_HOME is ignored, as the XDG base directory spec says
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        base = xdg if xdg.startswith("/") else str(tmp_path / ".cache")
        assert str(_tablecache.directory()) == base + "/qtomo"

    def test_concurrent_builders_leave_one_valid_file(self, table_cache):
        # both threads miss, build and write at once, switching threads often
        rng = np.random.default_rng(24)
        table = rng.normal(size=(8, 8, 4097)) + 1j * rng.normal(size=(8, 8, 4097))
        barrier = threading.Barrier(2, timeout=60)
        got, errors = [], []

        def build():
            barrier.wait()
            return table.copy()

        def builder():
            try:
                got.append(_tablecache.cached(("race", 8), table.shape, complex, build))
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=builder) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert [g.tobytes() for g in got] == [table.tobytes()] * 2
        (path,) = table_cache.iterdir()  # no temporary file left behind
        assert _tablecache._load(path, table.shape, np.dtype(complex)).tobytes() == table.tobytes()


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
