"""One traced pass of a workload through qtomo's public library functions.

Run in a fresh process (so kernel tables start cold and peak RSS starts
from the import):

    python3 perfbench/traced_pass.py WORKLOAD SEED WORKDIR OUT_JSON

with the checkout's src/ on PYTHONPATH. It makes the same steps as the
CLI pipeline, records a span around each call, checks the results with
the same gate as the CLI run, and writes spans, values and problems to
OUT_JSON at the end. The gate checks and the release of the per-shot
record lists get spans of their own, so that the spans account for the
whole process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

from tracing import Tracer
from workloads import DISP_ALPHA_SEED, DISP_ALPHAS, WORKLOADS, Workload


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _spec_from_args(wl: Workload):
    from qtomo import StateSpec

    args = dict(zip(wl.state_args[::2], wl.state_args[1::2]))
    kind, dim = args["--kind"], int(args["--dim"])
    if kind == "coherent":
        return StateSpec(kind=kind, dim=dim, beta=complex(args["--param"]))
    if kind == "random_mixed":
        return StateSpec(kind=kind, dim=dim, seed=int(args["--seed"]))
    raise ValueError(f"no library recipe for state kind {kind!r}")


class _Checks:
    """Counts checked operations and collects what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)


def run(wl: Workload, seed: int, workdir: Path) -> dict:
    tr = Tracer(wl.name)
    with tr.span("import"):  # every layer the pass calls, as the CLI imports them
        import qtomo.cli  # noqa: F401
        from qtomo import recon

    # Count Accumulator.push calls, and give each its own span.
    plain_push = recon.Accumulator.push

    def traced_push(self, values):
        with tr.span("recon.accumulator_push"):
            return plain_push(self, values)

    recon.Accumulator.push = traced_push
    try:
        return _steps(wl, seed, workdir, tr)
    finally:
        recon.Accumulator.push = plain_push


def _steps(wl: Workload, seed: int, workdir: Path, tr: Tracer) -> dict:
    import numpy as np

    import checks
    import envinfo
    from qtomo import EstimatorConfig, RngStream, compare_states, make_state, reconstruct_matrix
    from qtomo import sampler
    from qtomo._parallel import CHUNK_SHOTS, max_workers
    from qtomo.estimators import (displaced_parity_expectation, homodyne_estimate,
                                  kerr_estimate, parity_estimate, pauli_estimate)
    from qtomo.operators import fock_matrix_unit, number
    from qtomo.serialize import records_from_csv, records_to_csv

    samplers = {
        "homodyne": lambda rho, rng, cfg: sampler.sample_homodyne(rho, wl.shots, rng, cfg),
        "parity": lambda rho, rng, cfg: sampler.sample_displaced_parity(rho, wl.shots, rng, cfg),
        "pauli": lambda rho, rng, cfg: sampler.sample_pauli(rho, wl.shots, rng),
        "kerr": lambda rho, rng, cfg: sampler.sample_kerr_phase(rho, wl.shots, rng, cfg),
    }
    estimators = {
        "homodyne": homodyne_estimate,
        "parity": parity_estimate,
        "pauli": lambda a, recs, cfg: pauli_estimate(a, recs),
        "kerr": kerr_estimate,
    }
    sample = samplers[wl.method]
    estimate = estimators[wl.method]
    check = _Checks()

    rss_before = _maxrss_bytes()
    with tr.span("states.make_state"):
        rho = make_state(_spec_from_args(wl))
    cfg_sample = EstimatorConfig(dim=rho.dim)
    with tr.span(f"sampler.sample_{wl.method}"):
        records = sample(rho, RngStream(seed=seed), cfg_sample)
    rss_after = _maxrss_bytes()

    csv_path = workdir / "traced.csv"
    with tr.span("serialize.records_to_csv"):
        records_to_csv(csv_path, records)
    with tr.span("check.records"):
        check(len(records) == wl.shots, f"sampler returned {len(records)} records")
        csv_problems = checks.check_csv(csv_path, wl, seed)
        check(not csv_problems, "; ".join(csv_problems))
        csv_bytes = csv_path.stat().st_size
    with tr.span("release_records"):
        del records
    with tr.span("serialize.records_from_csv"):
        records = records_from_csv(csv_path)
    check(len(records) == wl.shots, f"read back {len(records)} records")

    dim = wl.dim
    cfg = EstimatorConfig(dim=dim) if wl.method != "pauli" else None
    if wl.observable == "number":
        a = number(dim)
    else:
        k, n = (int(x) for x in wl.observable.split(":", 1)[1].split(","))
        a = fock_matrix_unit(n, k, dim)  # as the CLI builds matrix_unit:K,N
    with tr.span("estimators.estimate_cold"):
        cold = estimate(a, records, cfg)
    with tr.span("estimators.estimate_warm"):
        warm = estimate(a, records, cfg)
    with tr.span("check.estimate"):
        expected = checks.expected_observable(wl, rho.mat)
        for res in (cold, warm):
            z = checks.z_score(res.mean, res.std_error, expected)
            check(z <= checks.Z_LIMIT and res.n_samples == wl.shots, f"estimate {z:.2f} se off")

    n_max = wl.n_max if wl.n_max is not None else 1
    with tr.span("recon.reconstruct_matrix"):
        rec = reconstruct_matrix(records, wl.method, n_max, cfg=cfg)
    with tr.span("recon.compare_states"):
        comparison = compare_states(rec.hermitized, rho)
    with tr.span("check.reconstruction"):
        max_z = max(checks.z_score(el.mean, el.std_error, rho.mat[k, n])
                    for k in range(rec.dim) for n in range(rec.dim)
                    if (el := rec.element(k, n)) is not None)
        check(max_z <= checks.Z_LIMIT, f"reconstruction max |z| {max_z:.2f}")

    os.environ["QTOMO_THREADS"] = "1"  # max_workers() reads it on every call
    try:
        with tr.span(f"sampler.sample_{wl.method}_threads1"):
            serial = sample(rho, RngStream(seed=seed), cfg_sample)
    finally:
        os.environ.pop("QTOMO_THREADS")
    with tr.span("check.threads_identical"):
        check(serial == records, "QTOMO_THREADS=1 records differ from the default-thread records")
    with tr.span("release_records"):
        del serial, records

    disp_s = 0.0
    if wl.method in ("homodyne", "parity"):
        gen = np.random.default_rng(DISP_ALPHA_SEED)
        radius = cfg_sample.parity_radius()
        alphas = radius * np.sqrt(gen.uniform(size=DISP_ALPHAS)) * np.exp(
            2j * np.pi * gen.uniform(size=DISP_ALPHAS))
        with tr.span("estimators.displaced_parity_expectation") as sp:
            g = displaced_parity_expectation(rho, alphas)
        disp_s = sp.duration
        check(bool(np.all(np.abs(g) <= 1.0 + 1e-9)), "displaced parity outside [-1, 1]")

    chunks = -(-wl.shots // CHUNK_SHOTS)
    return {
        "spans": tr.to_json(),
        "attempted": check.attempted,
        "failed": len(check.problems),
        "problems": check.problems,
        "values": {
            "bytes_per_record": (rss_after - rss_before) / wl.shots,
            "csv_bytes": csv_bytes,
            "max_z": max_z,
            "trace_distance": comparison["trace_distance"],
            "workers": min(max_workers(), chunks),
            "chunks": chunks,
            "blas_threads": envinfo.blas_threads(),
            "disp_alphas_per_s": DISP_ALPHAS / disp_s if disp_s else 0.0,
        },
    }


def main(argv) -> int:
    name, seed, workdir, out = argv
    result = run(WORKLOADS[name], int(seed), Path(workdir))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
