"""Acceptance gate: one test per release criterion, one verdict line each.

Every tolerance below is a contract, not a measurement of this build;
loosening any of them is a release decision, not a test fix.
"""

import time

import numpy as np

from qtomo.dualbasis import gram_schmidt_dual, pseudoinverse_dual
from qtomo.estimators import EstimatorConfig, SqueezeParams
from qtomo.estimators.homodyne import (
    exact_homodyne_average,
    exact_squeezed_average,
    homodyne_estimate,
)
from qtomo.estimators.kerr import (
    kerr_epsilon_sweep,
    kerr_estimate,
    kerr_exact_element,
    kerr_kernel,
)
from qtomo.estimators.nonunitary import (
    nonunitary_phase_trace_routes,
    nonunitary_reconstruct,
    phase_shift_ladder,
)
from qtomo.estimators.parity import displaced_parity_kernel, parity_exact_element
from qtomo.estimators.spin import (
    pauli_estimate,
    spin_estimate,
    spin_kernel,
    spin_kernel_quadrature,
    spin_quadrature_expectation,
)
from qtomo.frames import (
    DualSet,
    SettingLabel,
    SpanningSet,
    check_biorthogonality,
    check_trace_condition,
    irreducibility_rank,
    superop_matrix_elements,
    superop_reassemble,
)
from qtomo.operators import (
    Operator,
    annihilation,
    displacement,
    fock_matrix_unit,
    identity,
    number,
    parity,
    pauli,
)
from qtomo.recon import reconstruct_matrix
from qtomo.sampler import (
    RngStream,
    sample_displaced_parity,
    sample_homodyne,
    sample_kerr_phase,
    sample_pauli,
    sample_spin,
)
from qtomo.serialize import records_to_csv
from qtomo.states import DensityMatrix, StateSpec, make_state


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, f"{line}  {detail}".rstrip()


def random_basis(rng, dim):
    mats = rng.normal(size=(dim * dim, dim, dim)) + 1j * rng.normal(size=(dim * dim, dim, dim))
    return SpanningSet(mats, np.ones(len(mats)),
                       [SettingLabel("rand", (float(i),)) for i in range(len(mats))])


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def reconstruct_with_dual(frame, dual, a_mat):
    coefs = dual.stack().conj() @ a_mat.ravel()
    return (frame.weights[:, None] * coefs[:, None] * frame.stack()).sum(axis=0).reshape(a_mat.shape)


def test_criterion_01_dual_basis_correctness():
    rng = np.random.default_rng(9001)
    start = time.perf_counter()
    worst_bi = 0.0
    worst_match = 0.0
    for i in range(50):
        dim = (2, 3, 4)[i % 3]
        frame = random_basis(rng, dim)
        gs, _ = gram_schmidt_dual(frame)
        pinv = pseudoinverse_dual(frame)
        worst_bi = max(worst_bi, check_biorthogonality(frame, gs).max_violation)
        worst_match = max(worst_match, float(np.max(np.abs(gs.ops - pinv.ops))))
    elapsed = time.perf_counter() - start
    ok = worst_bi <= 1e-10 and worst_match <= 1e-9 and elapsed < 10.0
    _report(1, "dual-basis correctness", ok,
            f"bi-orthogonality {worst_bi:.2e}, route match {worst_match:.2e}, {elapsed:.1f} s")


def test_criterion_02_resolution_identity():
    rng = np.random.default_rng(9002)
    worst = 0.0
    for dim in (2, 3, 4):
        frame = random_basis(rng, dim)
        dual, _ = gram_schmidt_dual(frame)
        for _ in range(20):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rec = reconstruct_with_dual(frame, dual, a)
            worst = max(worst, float(np.linalg.norm(rec - a) / np.linalg.norm(a)))
    _report(2, "resolution identity", worst <= 1e-9, f"relative error {worst:.2e}")


def test_criterion_03_counterexample_behavior():
    projectors = [fock_matrix_unit(i, i, 3).mat for i in range(3)]
    labels = [SettingLabel("proj", (float(i),)) for i in range(3)]
    frame = SpanningSet(projectors, np.ones(3), labels)
    dual = DualSet(projectors, np.ones(3), labels)
    trace_report = check_trace_condition(frame, dual)
    rank = irreducibility_rank(frame)
    a = fock_matrix_unit(0, 1, 3)
    rec = reconstruct_with_dual(frame, dual, a.mat)
    residual = float(np.linalg.norm(rec - a.mat) / np.linalg.norm(a.mat))
    ok = trace_report.max_violation <= 1e-10 and not rank.irreducible and residual > 0.99
    _report(3, "counterexample behavior", ok,
            f"trace dev {trace_report.max_violation:.2e}, rank {rank.rank}, residual {residual:.3f}")


def test_criterion_04_spin_tomography_exactness():
    rng = np.random.default_rng(9004)
    worst_td = 0.0
    for twice_s in (1, 2, 3):
        dim = twice_s + 1
        for _ in range(20):
            rho = random_density(rng, dim)
            m = np.empty((dim, dim), dtype=complex)
            for k in range(dim):
                for n in range(dim):
                    m[k, n] = spin_quadrature_expectation(
                        fock_matrix_unit(n, k, dim), rho, twice_s)
            td = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(
                0.5 * (m + m.conj().T) - rho.mat))))
            worst_td = max(worst_td, td)

    worst_kernel = 0.0
    for _ in range(50):
        twice_s = int(rng.integers(1, 4))
        dim = twice_s + 1
        a = Operator(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = float(rng.integers(0, dim)) - twice_s / 2.0
        v = rng.normal(size=3)
        direction = tuple(v / np.linalg.norm(v))
        closed = spin_kernel(a, m, direction, twice_s)
        quad = spin_kernel_quadrature(a, m, direction, twice_s, n_psi=2048)
        worst_kernel = max(worst_kernel, abs(closed - quad))

    ok = worst_td <= 1e-8 and worst_kernel <= 1e-9
    _report(4, "spin tomography exactness", ok,
            f"trace distance {worst_td:.2e}, kernel deviation {worst_kernel:.2e}")


def test_criterion_05_pauli_formula():
    ok = True
    detail = ""
    for k in range(10):
        rho = make_state(StateSpec(kind="random_mixed", dim=2, seed=k))
        records = sample_pauli(rho, 300_000, RngStream(9100 + k))
        for ax in ("x", "y", "z"):
            res = pauli_estimate(pauli(ax), records)
            truth = float(np.trace(pauli(ax).mat @ rho.mat).real)
            if abs(res.mean - truth) > 5.0 * res.std_error:
                ok = False
                detail = f"state {k} axis {ax}: {res.mean:.4f} vs {truth:.4f}"
        ident = pauli_estimate(identity(2), records)
        if ident.mean != 1.0 or ident.std_error != 0.0:
            ok = False
            detail = f"identity estimate {ident.mean}, se {ident.std_error}"
    _report(5, "pauli formula", ok, detail)


def test_criterion_06_displaced_parity_kernel():
    oracle_dim = 24
    rng = np.random.default_rng(9006)
    worst_route = 0.0
    par = parity(oracle_dim).mat
    for _ in range(12):
        alpha = complex(*(np.sqrt(rng.uniform()) * np.array([
            np.cos(th := rng.uniform(0, 2 * np.pi)), np.sin(th)])))
        dm = displacement(alpha, oracle_dim).mat
        matrix_route = 4.0 * (dm.conj().T @ par @ dm)
        for n in range(7):
            for d in range(7 - n):
                closed = displaced_parity_kernel(n, d, alpha)
                worst_route = max(worst_route, abs(closed - matrix_route[n + d, n]))

    dim = 8
    cfg = EstimatorConfig(dim=dim)
    rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
    worst_exact = 0.0
    for k in range(7):
        for n in range(7):
            got = parity_exact_element(rho, k, n, cfg)
            worst_exact = max(worst_exact, abs(got - rho.mat[k, n]))

    records = sample_displaced_parity(rho, 400_000, RngStream(9102), cfg)
    rec = reconstruct_matrix(records, "parity", n_max=dim - 1, cfg=cfg)
    sampled_ok = all(
        abs(rec.element(k, n).mean - rho.mat[k, n]) <= 5.0 * rec.element(k, n).std_error
        for k in range(dim) for n in range(dim)
    )

    ok = worst_route <= 1e-8 and worst_exact <= 1e-3 and sampled_ok
    _report(6, "displaced-parity kernel", ok,
            f"route {worst_route:.2e}, exact {worst_exact:.2e}, sampled ok {sampled_ok}")


def test_criterion_07_homodyne():
    dim = 12
    cfg = EstimatorConfig(dim=dim, reg_eps=1e-4)
    rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.5))
    norm_dev = abs(exact_homodyne_average(identity(dim), rho, cfg) - 1.0)
    a_dev = abs(exact_homodyne_average(annihilation(dim), rho, cfg) - 0.5)
    n_dev = abs(exact_homodyne_average(number(dim), rho, cfg) - 0.25)

    records = sample_homodyne(rho, 1_000_000, RngStream(9103), cfg)
    res_a = homodyne_estimate(annihilation(dim), records, cfg)
    res_n = homodyne_estimate(number(dim), records, cfg)
    mc_ok = (abs(res_a.mean - 0.5) <= 5.0 * res_a.std_error
             and abs(res_n.mean - 0.25) <= 5.0 * res_n.std_error + 4.0 * cfg.reg_eps)

    sq = SqueezeParams(0.2)
    vac = make_state(StateSpec(kind="fock", dim=dim, n=0))
    sq_norm = abs(exact_squeezed_average(identity(dim), vac, sq, cfg) - 1.0)
    sq_vac = abs(exact_squeezed_average(number(dim), vac, sq, cfg))

    ok = (norm_dev <= 1e-6 and a_dev <= 1e-3 and n_dev <= 1e-3 and mc_ok
          and sq_norm <= 1e-6 and sq_vac <= 1e-3)
    _report(7, "homodyne", ok,
            f"norm {norm_dev:.2e}, a {a_dev:.2e}, n {n_dev:.2e}, mc {mc_ok}, "
            f"squeezed norm {sq_norm:.2e}, squeezed vacuum {sq_vac:.2e}")


def test_criterion_08_kerr_biorthogonality():
    dim = 6
    p_grid = 2 * dim + 1
    q_grid = 2 * dim * dim + 1
    phi = 2.0 * np.pi * np.arange(p_grid) / p_grid
    psi = 2.0 * np.pi * np.arange(q_grid) / q_grid
    pairs = [(n, d) for d in range(1, dim) for n in range(dim - d)]
    worst_delta = 0.0
    tables = {pair: kerr_kernel(pair[0], pair[1], phi[None, :], psi[:, None])
              for pair in pairs}
    for p1 in pairs:
        for p2 in pairs:
            s = np.mean(tables[p1] * np.conj(tables[p2]))
            want = 1.0 if p1 == p2 else 0.0
            worst_delta = max(worst_delta, abs(s - want))

    cfg = EstimatorConfig(dim=dim)
    rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.6))
    worst_exact = 0.0
    for n, d in pairs:
        got = kerr_exact_element(rho, n, d, cfg)
        worst_exact = max(worst_exact, abs(got - rho.mat[n + d, n]))

    records = sample_kerr_phase(rho, 100_000, RngStream(9104), cfg)
    rec = reconstruct_matrix(records, "kerr", n_max=dim - 1, cfg=cfg)
    sampled_ok = all(
        abs(rec.element(k, n).mean - rho.mat[k, n]) <= 5.0 * rec.element(k, n).std_error
        for k in range(dim) for n in range(dim) if k != n
    )

    sweep = kerr_epsilon_sweep(rho, 2, (0.1, 0.05, 0.025), cfg)
    sweep_ok = (len(sweep) == 3
                and all(np.isfinite(v.real) and np.isfinite(v.imag) for _, v in sweep))

    ok = worst_delta <= 1e-12 and worst_exact <= 1e-10 and sampled_ok and sweep_ok
    _report(8, "kerr bi-orthogonality", ok,
            f"delta {worst_delta:.2e}, exact {worst_exact:.2e}, sampled ok {sampled_ok}, "
            f"sweep ok {sweep_ok}")


def test_criterion_09_nonunitary_resolution():
    dim = 12
    grid = 4 * dim
    phis = 2.0 * np.pi * np.arange(grid) / grid
    worst_orth = 0.0
    ladders = {k: [phase_shift_ladder(k, p, dim).mat for p in phis]
               for k in range(-5, 6)}
    for k in range(-5, 6):
        for n in range(-5, 6):
            acc = sum(np.trace(rk.conj().T @ rn)
                      for rk, rn in zip(ladders[k], ladders[n])) / grid
            want = (dim - abs(n)) if k == n else 0.0
            worst_orth = max(worst_orth, abs(acc - want))

    rng = np.random.default_rng(9009)
    worst_route = 0.0
    for _ in range(20):
        rho = random_density(rng, 8)
        q = int(rng.integers(-5, 6))
        psi = float(rng.uniform(0, 2 * np.pi))
        direct, phase_route = nonunitary_phase_trace_routes(rho, q, psi)
        worst_route = max(worst_route, abs(direct - phase_route))

    # support_max + bandwidth <= dim gates the identity; a 6x6 block needs dim >= 10
    worst_rec = 0.0
    for _ in range(20):
        rho = random_density(rng, 12)
        a = np.zeros((12, 12), dtype=complex)
        a[:6, :6] = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        got = nonunitary_reconstruct(Operator(a), rho)
        want = complex(np.trace(a @ rho.mat))
        worst_rec = max(worst_rec, abs(got - want))

    ok = worst_orth <= 1e-10 and worst_route <= 1e-8 and worst_rec <= 1e-8
    _report(9, "nonunitary resolution", ok,
            f"orthogonality {worst_orth:.2e}, routes {worst_route:.2e}, "
            f"reconstruction {worst_rec:.2e}")


def test_criterion_10_statistical_scaling(tmp_path):
    base = 20_000
    vac8 = make_state(StateSpec(kind="fock", dim=8, n=0))
    up = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
    mixed = make_state(StateSpec(kind="random_mixed", dim=2, seed=3))
    coh6 = make_state(StateSpec(kind="coherent", dim=6, beta=0.6))
    cfg8 = EstimatorConfig(dim=8)
    cfg6 = EstimatorConfig(dim=6)

    cases = {
        "homodyne": (vac8,
                     lambda rho, n, rs: sample_homodyne(rho, n, rs, cfg8),
                     lambda recs: homodyne_estimate(identity(8), recs, cfg8)),
        "spin": (up,
                 lambda rho, n, rs: sample_spin(rho, 1, n, rs),
                 lambda recs: spin_estimate(pauli("z"), recs, 1)),
        "pauli": (mixed,
                  lambda rho, n, rs: sample_pauli(rho, n, rs),
                  lambda recs: pauli_estimate(pauli("x"), recs)),
        "parity": (vac8,
                   lambda rho, n, rs: sample_displaced_parity(rho, n, rs, cfg8),
                   lambda recs: kerr_and_parity_est(recs, cfg8)),
        "kerr": (coh6,
                 lambda rho, n, rs: sample_kerr_phase(rho, n, rs, cfg6),
                 lambda recs: kerr_estimate(Operator(fock_matrix_unit(0, 1, 6).mat),
                                            recs, cfg6)),
    }

    from qtomo.estimators.parity import parity_estimate

    def kerr_and_parity_est(recs, cfg):
        return parity_estimate(fock_matrix_unit(0, 0, 8), recs, cfg)

    cases["parity"] = (vac8,
                       lambda rho, n, rs: sample_displaced_parity(rho, n, rs, cfg8),
                       lambda recs: parity_estimate(fock_matrix_unit(0, 0, 8), recs, cfg8))

    ok = True
    detail = ""
    for i, (method, (rho, draw, est)) in enumerate(cases.items()):
        se1 = est(draw(rho, base, RngStream(9200 + i, substream=0))).std_error
        se2 = est(draw(rho, 2 * base, RngStream(9200 + i, substream=1))).std_error
        ratio = se2 / se1
        if not (0.6 <= ratio <= 0.85):
            ok = False
            detail += f"{method} ratio {ratio:.3f}; "

        a = tmp_path / f"{method}_a.csv"
        b = tmp_path / f"{method}_b.csv"
        records_to_csv(a, draw(rho, 1000, RngStream(9300 + i)))
        records_to_csv(b, draw(rho, 1000, RngStream(9300 + i)))
        if a.read_bytes() != b.read_bytes():
            ok = False
            detail += f"{method} records not reproducible; "
    _report(10, "statistical scaling", ok, detail)


def gell_mann_type_basis():
    mats = [np.eye(3, dtype=complex) / np.sqrt(3.0)]
    for i in range(3):
        for j in range(i + 1, 3):
            sym = np.zeros((3, 3), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((3, 3), dtype=complex)
            asym[i, j] = -1j / np.sqrt(2.0)
            asym[j, i] = 1j / np.sqrt(2.0)
            mats.append(asym)
    mats.append(np.diag([1.0, -1.0, 0.0]).astype(complex) / np.sqrt(2.0))
    mats.append(np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(6.0))
    return SpanningSet(mats, np.ones(len(mats)),
                       [SettingLabel("gm", (float(i),)) for i in range(len(mats))])


def test_criterion_11_superoperator_round_trip():
    rng = np.random.default_rng(9011)
    frame = gell_mann_type_basis()
    dual = DualSet(frame.ops, frame.weights, frame.labels)  # orthonormal, so self-dual
    lmat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    coef = superop_matrix_elements(lmat, frame, dual)
    back = superop_reassemble(coef, frame, dual)
    err = float(np.max(np.abs(back - lmat)))
    _report(11, "superoperator round trip", err <= 1e-8, f"reassembly error {err:.2e}")
