"""The benchmark's own tests, at tiny shot counts.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import statistics

import numpy as np
import pytest

import checks
import run as bench
import traced_pass
import tracing
from workloads import PINNED_SEED, WORKLOADS

from qtomo import RngStream, StateSpec, make_state, reconstruct_matrix
from qtomo.sampler import sample_pauli
from qtomo.serialize import records_to_csv, save_reconstruction

PAULI = WORKLOADS["pauli-qubit"]
TINY_PAULI = dataclasses.replace(PAULI, name="pauli-tiny", shots=3000)


def _pauli_rho():
    return make_state(StateSpec(kind="random_mixed", dim=2, seed=3))


def _tiny_csv(path, seed):
    records_to_csv(path, sample_pauli(_pauli_rho(), TINY_PAULI.shots, RngStream(seed=seed)))


# statistics ----------------------------------------------------------------

def test_median_and_quartiles_follow_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q = statistics.quantiles(values, n=4)
    assert checks.median(values) == statistics.median(values)
    assert checks.quartiles(values) == (q[0], q[2])
    assert checks.spread(values) == pytest.approx((q[2] - q[0]) / statistics.median(values))


def test_quartiles_of_one_value_collapse():
    assert checks.quartiles([2.5]) == (2.5, 2.5)
    assert checks.spread([2.5]) == 0.0


def test_failed_frac():
    assert checks.failed_frac(0, 8) == 0.0
    assert checks.failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        checks.failed_frac(0, 0)


# correctness gate ------------------------------------------------------------

def test_gate_flags_a_corrupted_csv_at_the_pinned_seed(tmp_path):
    path = tmp_path / "records.csv"
    _tiny_csv(path, PINNED_SEED)
    wl = dataclasses.replace(TINY_PAULI, csv_sha256=checks.sha256_file(path))
    assert checks.check_csv(path, wl, PINNED_SEED) == []

    data = bytearray(path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    assert checks.check_csv(path, wl, PINNED_SEED)


def test_gate_checks_csv_shape_at_other_seeds(tmp_path):
    path = tmp_path / "records.csv"
    _tiny_csv(path, PINNED_SEED + 1)
    assert checks.check_csv(path, TINY_PAULI, PINNED_SEED + 1) == []
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))
    assert checks.check_csv(path, TINY_PAULI, PINNED_SEED + 1)


def test_gate_flags_a_wrong_reference_state(tmp_path):
    rho = _pauli_rho()
    records = sample_pauli(rho, TINY_PAULI.shots, RngStream(seed=PINNED_SEED))
    save_reconstruction(tmp_path / "m.json", reconstruct_matrix(records, "pauli", 1))
    doc = json.loads((tmp_path / "m.json").read_text())

    max_z, problems = checks.check_reconstruction(doc, rho.mat, TINY_PAULI.shots)
    assert problems == [] and max_z <= checks.Z_LIMIT

    wrong = np.diag([0.0, 1.0]).astype(complex)
    if abs(rho.mat[1, 1] - 1.0) < 0.2:
        wrong = np.diag([1.0, 0.0]).astype(complex)
    _, problems = checks.check_reconstruction(doc, wrong, TINY_PAULI.shots)
    assert problems


def test_estimate_check_includes_the_homodyne_number_bias():
    rho = np.diag([0.5, 0.5]).astype(complex)
    hom = dataclasses.replace(WORKLOADS["homodyne-d8"], n_max=1)
    expected = checks.expected_observable(hom, rho)
    assert expected == pytest.approx(0.5 + 4e-3)
    doc = {"mean": [0.5 + 4e-3, 0.0], "std_error": 1e-4, "n_samples": 10}
    assert checks.check_estimate(doc, expected, 10)[1] == []
    assert checks.check_estimate(doc, 0.5 + 0j, 10)[1]  # the bias is 40 se here


def test_matrix_unit_reference_is_the_element_k_n():
    rho = np.arange(64, dtype=complex).reshape(8, 8)
    assert checks.expected_observable(WORKLOADS["kerr-d8"], rho) == rho[0, 1]


# tracing -------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_spans_nest_under_the_open_span():
    clock = FakeClock()
    tr = tracing.Tracer("w", clock=clock)
    with tr.span("outer"):
        clock.t = 1.0
        with tr.span("inner"):
            clock.t = 3.0
        with tr.span("inner"):
            clock.t = 4.0
        clock.t = 5.0
    with tr.span("next"):
        clock.t = 6.0
    spans = tracing.spans_from_json(tr.to_json())
    outer, inner1, inner2, nxt = spans
    assert (outer.parent, inner1.parent, inner2.parent, nxt.parent) == (None, 0, 0, None)
    assert all(s.workload == "w" for s in spans)
    assert tracing.check_nesting(spans) == []
    assert tracing.count(spans, "inner", parent="outer") == 2
    assert tracing.total(spans, "inner") == pytest.approx(3.0)

    inner1.end = 5.5  # outlives its parent
    assert tracing.check_nesting(spans)


def test_coverage_is_top_level_span_time_over_wall():
    clock = FakeClock()
    tr = tracing.Tracer("w", clock=clock)
    with tr.span("a"):
        clock.t = 2.0
        with tr.span("child"):  # nested time is not counted twice
            clock.t = 3.0
    clock.t = 4.0  # a gap no span covers
    with tr.span("b"):
        clock.t = 9.0
    spans = tracing.spans_from_json(tr.to_json())
    assert tracing.coverage(spans, wall=10.0) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        tracing.coverage(spans, wall=0.0)


# pipeline and traced pass at tiny shot counts ----------------------------------

def test_cli_pipeline_counts_a_wrong_digest_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    monkeypatch.setattr(bench, "REPEAT_MIN_S", 0.0)  # each command once
    good = tmp_path / "good.csv"
    _tiny_csv(good, PINNED_SEED)  # the CLI writes the same bytes as the library
    wl = dataclasses.replace(TINY_PAULI, csv_sha256=checks.sha256_file(good))

    rn = bench.Runner(tmp_path)
    metrics, raw = bench.run_pipeline(wl, PINNED_SEED, 0.0, rn)
    assert (rn.attempted, rn.failed) == (4, 0), rn.problems
    assert set(metrics) == set(bench.END_TO_END)
    assert all(value > 0 for value, _ in metrics.values())
    assert set(raw) == set(bench.END_TO_END) - {"records_per_s", "peak_rss_mb"}

    rn = bench.Runner(tmp_path)
    bench.run_pipeline(dataclasses.replace(wl, csv_sha256="0" * 64), PINNED_SEED, 0.0, rn)
    assert (rn.attempted, rn.failed) == (4, 1)
    assert rn.problems[0].startswith("qtomo sample")


def test_traced_pass_reports_every_layer(tmp_path):
    wl = dataclasses.replace(WORKLOADS["parity-d8"], name="parity-tiny", shots=2000)
    data = traced_pass.run(wl, PINNED_SEED + 1, tmp_path)
    assert data["problems"] == [] and data["failed"] == 0
    spans = tracing.spans_from_json(data["spans"])
    assert tracing.check_nesting(spans) == []
    wall = spans[-1].end - spans[0].start
    metrics = bench.pass_metrics(wl, data, wall)
    assert set(metrics) == set(bench.PER_LAYER) - {"cli.import_s"}
    assert metrics["recon.accumulator_pushes"] == 64  # d^2 elements, one chunk each
    assert metrics["parallel.chunks"] == 1
    assert 0.95 <= metrics["trace.coverage"] <= 1.0
