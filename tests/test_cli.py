"""End-to-end command flows: files in, files out, frozen exit codes."""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

import qtomo
from qtomo._parallel import CHUNK_SHOTS, max_workers
from qtomo.cli import _ROUTE_FLAGS, build_parser, main
from qtomo.dualbasis import pseudoinverse_dual, spiral_directions, weigert_spin_quorum
from qtomo.errors import UsageError
from qtomo.frames import DualSet, SettingLabel, SpanningSet
from qtomo.operators import fock_matrix_unit, pauli
from qtomo.recon import METHODS
from qtomo.serialize import load_quorum, load_state, records_from_csv, save_quorum
from qtomo.states import StateSpec, make_state


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no '{key}' line in output:\n{out}")


def read_result(path):
    doc = json.loads(path.read_text())
    return complex(doc["mean"][0], doc["mean"][1]), doc["std_error"]


def write_pauli_quorum(path):
    ops = [pauli(ax).mat / np.sqrt(2.0) for ax in ("x", "y", "z")]
    ops.append(np.eye(2, dtype=complex) / np.sqrt(2.0))
    save_quorum(path, SpanningSet(ops, np.ones(4),
                                  [SettingLabel("pauli", (float(i),)) for i in range(4)]))


class TestState:
    def test_coherent_half(self, capsys, tmp_path):
        out_path = tmp_path / "state.json"
        code, out, _ = run(capsys, ["state", "--kind", "coherent", "--param", "0.5",
                                    "--dim", "16", "--out", str(out_path)])
        assert code == 0
        assert abs(float(stdout_value(out, "rho_00")) - np.exp(-0.25)) <= 1e-9
        rho = load_state(out_path)
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12

    def test_fock_projector(self, capsys, tmp_path):
        out_path = tmp_path / "fock2.json"
        code, out, _ = run(capsys, ["state", "--kind", "fock", "--param", "2",
                                    "--dim", "8", "--out", str(out_path)])
        assert code == 0
        assert float(stdout_value(out, "purity")) == 1.0
        rho = load_state(out_path)
        want = np.zeros((8, 8), dtype=complex)
        want[2, 2] = 1.0
        assert np.array_equal(rho.mat, want)

    def test_truncation_regime_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, ["state", "--kind", "coherent", "--param", "4",
                                    "--dim", "8", "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "error" in err

    def test_bad_param(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["state", "--kind", "fock", "--param", "two",
                                  "--dim", "4", "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestSample:
    def test_spin_determinism(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, ["sample", "--method", "spin", "--s", "0.5",
                                      "--shots", "1000", "--seed", "42",
                                      "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_shots(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["sample", "--method", "homodyne", "--shots", "0",
                                  "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_kerr_fock_phase_uniform(self, capsys, tmp_path):
        state = tmp_path / "fock1.json"
        assert run(capsys, ["state", "--kind", "fock", "--param", "1", "--dim", "8",
                            "--out", str(state)])[0] == 0
        records = tmp_path / "kerr.csv"
        code, _, _ = run(capsys, ["sample", "--method", "kerr", "--state", str(state),
                                  "--shots", "10000", "--seed", "1",
                                  "--out", str(records)])
        assert code == 0
        phi = records_from_csv(records).outcomes
        assert stats.kstest(phi / (2.0 * np.pi), "uniform").pvalue > 0.001

    def test_leakage_surfaced(self, capsys, tmp_path):
        state = tmp_path / "hot.json"
        assert run(capsys, ["state", "--kind", "thermal", "--param", "0.5",
                            "--dim", "32", "--out", str(state)])[0] == 0
        # fine to build at dim 32, but homodyne sampling insists on low
        # edge mass and a thermal tail decays only geometrically
        rho = load_state(state)
        edge = rho.mat[-1, -1].real + rho.mat[-2, -2].real
        if edge > 1e-6:
            code, _, _ = run(capsys, ["sample", "--method", "homodyne",
                                      "--state", str(state), "--shots", "10",
                                      "--seed", "1", "--out", str(tmp_path / "x.csv")])
            assert code == 3


class TestReconstruct:
    def test_spin_pipeline_sigma_z(self, capsys, tmp_path):
        state = tmp_path / "up.json"
        assert run(capsys, ["state", "--kind", "spin_pure", "--s", "0.5",
                            "--direction", "0,0,1", "--out", str(state)])[0] == 0
        records = tmp_path / "spin.csv"
        assert run(capsys, ["sample", "--method", "spin", "--s", "0.5",
                            "--state", str(state), "--shots", "100000",
                            "--seed", "7", "--out", str(records)])[0] == 0
        result = tmp_path / "recon.json"
        code, _, _ = run(capsys, ["reconstruct", "--method", "spin", "--s", "0.5",
                                  "--records", str(records), "--out", str(result)])
        assert code == 0
        doc = json.loads(result.read_text())
        z = pauli("z").mat
        est = se2 = 0.0
        for e in doc["elements"]:
            if e["k"] == e["n"]:
                w = z[e["k"], e["k"]].real
                est += w * e["mean"][0]
                se2 += e["std_error"] ** 2
        assert abs(est - 1.0) <= 5.0 * np.sqrt(se2)

    @pytest.mark.parametrize("method", ["homodyne", "spin", "pauli", "parity", "kerr"])
    def test_identity_normalization(self, capsys, tmp_path, method):
        records = tmp_path / "records.csv"
        argv = ["sample", "--method", method, "--shots", "20000", "--seed", "11",
                "--out", str(records)]
        if method == "spin":
            argv += ["--s", "0.5"]
        assert run(capsys, argv)[0] == 0

        result = tmp_path / "result.json"
        argv = ["reconstruct", "--method", method, "--records", str(records),
                "--observable", "identity", "--out", str(result)]
        if method == "spin":
            argv += ["--s", "0.5"]
        elif method != "pauli":
            argv += ["--n-max", "7"]
        assert run(capsys, argv)[0] == 0
        mean, se = read_result(result)
        assert abs(mean - 1.0) <= 5.0 * se + 1e-9

    def test_parity_records_outside_proposal_disk(self, capsys, tmp_path):
        # drawn on a disk of radius 6; the default at n_max = 7 is 2 + sqrt(7) = 4.65
        records = tmp_path / "parity.csv"
        assert run(capsys, ["sample", "--method", "parity", "--proposal-radius", "6",
                            "--shots", "200", "--seed", "3", "--out", str(records)])[0] == 0
        for extra in ([], ["--observable", "identity"]):
            argv = ["reconstruct", "--method", "parity", "--records", str(records),
                    "--n-max", "7", "--out", str(tmp_path / "x.json"), *extra]
            code, _, err = run(capsys, argv)
            assert code == 2 and "outside the proposal disk R = 4.64575" in err, err
            assert run(capsys, argv + ["--proposal-radius", "6"])[0] == 0

    def test_parity_records_from_a_smaller_disk(self, capsys, tmp_path):
        # drawn at d = 4 (R = 3.73); the default at n_max = 7 is R = 4.65
        records = tmp_path / "parity.csv"
        assert run(capsys, ["sample", "--method", "parity", "--dim", "4", "--shots", "500",
                            "--seed", "3", "--out", str(records)])[0] == 0
        for extra in ([], ["--observable", "identity"]):
            argv = ["reconstruct", "--method", "parity", "--records", str(records),
                    "--out", str(tmp_path / "x.json"), *extra]
            code, _, err = run(capsys, argv + ["--n-max", "7"])
            assert code == 2 and "smaller proposal radius" in err and "R = 4.64575" in err, err
            assert run(capsys, argv + ["--n-max", "3"])[0] == 0

    def test_quorum_mismatch(self, capsys, tmp_path):
        records = tmp_path / "spin.csv"
        assert run(capsys, ["sample", "--method", "spin", "--s", "0.5",
                            "--shots", "100", "--seed", "3",
                            "--out", str(records)])[0] == 0
        code, _, _ = run(capsys, ["reconstruct", "--method", "parity",
                                  "--records", str(records), "--n-max", "3",
                                  "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_missing_records_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["reconstruct", "--method", "parity",
                                  "--records", str(tmp_path / "nope.csv"),
                                  "--n-max", "3", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_non_numeric_csv_field_is_a_usage_error(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("quorum,s1,s2,s3,o1\nhomodyne,0.5,,,1.25\nhomodyne,0.5,,,x\n")
        code, _, err = run(capsys, ["reconstruct", "--method", "homodyne",
                                    "--records", str(records), "--n-max", "3",
                                    "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "line 3" in err and "Traceback" not in err

    def test_undecodable_csv_is_a_usage_error(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_bytes(b"quorum,s1,s2,s3,o1\nhomodyne,0.5,,,1.25\nhomodyne,0.5,,,\xff\n")
        code, _, err = run(capsys, ["reconstruct", "--method", "homodyne",
                                    "--records", str(records), "--n-max", "3",
                                    "--out", str(tmp_path / "x.json")])
        assert code == 2 and "Traceback" not in err

    def test_json_errors_on_stderr(self, capsys, tmp_path):
        code, _, err = run(capsys, ["reconstruct", "--method", "parity",
                                    "--json-errors", "--n-max", "3",
                                    "--out", str(tmp_path / "x.json")])
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["error"] == "UsageError" and doc["message"]


# Each bad input: its argv ({tmp} is the test directory) and a word its error names.
BAD_INPUTS = {
    "records-path-is-a-directory": (
        ["reconstruct", "--method", "homodyne", "--records", "{tmp}", "--n-max", "3"],
        "Is a directory"),
    "state-entries-not-numbers": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/words.json",
         "--observable", "identity"], "pair of finite numbers"),
    "state-entries-not-pairs": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/short.json",
         "--observable", "identity"], "pair of finite numbers"),
    "state-dim-true": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/dim-true.json",
         "--observable", "identity"], "integer dim"),
    "state-entry-beyond-double": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/huge.json",
         "--observable", "identity"], "pair of finite numbers"),
    "reference-not-utf8": (
        ["reconstruct", "--method", "pauli", "--records", "{tmp}/pauli.csv",
         "--reference", "{tmp}/undecodable.json"], "UTF-8"),
    "pauli-one-record-per-axis": (
        ["reconstruct", "--method", "pauli", "--records", "{tmp}/pauli.csv"], "axis x"),
    "kerr-n-max-0": (
        ["reconstruct", "--method", "kerr", "--records", "{tmp}/kerr.csv", "--n-max", "0"],
        "no element"),
    "nonunitary-n-max-minus-2": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/vacuum.json",
         "--n-max", "-2"], "n_max"),
    "nonunitary-n-max-minus-1": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/vacuum.json",
         "--n-max", "-1"], "n_max"),
    "k-max-inf": (
        ["reconstruct", "--method", "homodyne", "--records", "{tmp}/homodyne.csv",
         "--n-max", "3", "--k-max", "inf"], "k_max"),
    "proposal-radius-nan": (
        ["sample", "--method", "parity", "--shots", "10", "--seed", "1",
         "--proposal-radius", "nan"], "proposal_radius"),
    "proposal-radius-0": (
        ["sample", "--method", "parity", "--shots", "10", "--seed", "1",
         "--proposal-radius", "0"], "proposal_radius"),
    "sample-dim-0": (
        ["sample", "--method", "homodyne", "--dim", "0", "--shots", "10", "--seed", "1"],
        "dim"),
    "spin-pure-dim-0": (
        ["state", "--kind", "spin_pure", "--s", "1", "--direction", "0,0,1", "--dim", "0"],
        "dim"),
    "squeezed-vacuum-cosh-overflows": (
        ["state", "--kind", "squeezed_vacuum", "--dim", "8", "--param", "1000"], "zeta"),
    "homodyne-squeeze-cosh-overflows": (
        ["sample", "--method", "homodyne", "--shots", "10", "--seed", "1",
         "--squeeze", "1000"], "zeta"),
    "coherent-nan": (
        ["state", "--kind", "coherent", "--dim", "8", "--param", "nan"], "beta"),
    "squeezed-vacuum-nan": (
        ["state", "--kind", "squeezed_vacuum", "--dim", "8", "--param", "nan"], "zeta"),
    "thermal-nan": (
        ["state", "--kind", "thermal", "--dim", "8", "--param", "nan"], "mean_n"),
    "nonunitary-reference-of-another-dim": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/vacuum.json",
         "--n-max", "0", "--reference", "{tmp}/qubit.json"], "shape (1, 1) vs (2, 2)"),
    "kernels-points-minus-1": (
        ["kernels", "eval", "--family", "parity", "--points", "-1"], "--points"),
    "kernels-psi-nan": (
        ["kernels", "eval", "--family", "kerr", "--n", "0", "--d", "1", "--psi", "nan"],
        "--psi"),
    "kernels-eps-nan": (
        ["kernels", "eval", "--family", "kerr", "--n", "0", "--d", "0", "--eps", "nan"],
        "--eps"),
    "kernels-grid-max-nan": (
        ["kernels", "eval", "--family", "parity", "--grid-max", "nan"], "--grid-max"),
    "kernels-grid-max-0": (
        ["kernels", "eval", "--family", "parity", "--grid-max", "0"], "--grid-max"),
    "kernels-grid-max-negative": (
        ["kernels", "eval", "--family", "homodyne", "--observable", "number", "--dim", "4",
         "--grid-max", "-1"], "--grid-max"),
    "kernels-phi-nan": (
        ["kernels", "eval", "--family", "homodyne", "--observable", "number", "--dim", "4",
         "--phi", "nan"], "--phi"),
    **{f"{command}-s-{s}": (argv + ["--s", s], "spin s")
       for s in ("nan", "inf", "abc")
       for command, argv in (
           ("state", ["state", "--kind", "spin_pure", "--direction", "0,0,1"]),
           ("sample", ["sample", "--method", "spin", "--shots", "10", "--seed", "1"]),
           ("reconstruct", ["reconstruct", "--method", "spin", "--records",
                            "{tmp}/homodyne.csv"]),
           ("kernels", ["kernels", "eval", "--family", "spin", "--observable", "identity"]))},
    "random-mixed-seed-minus-1": (
        ["state", "--kind", "random_mixed", "--dim", "3", "--seed", "-1"], "seed"),
    "kernels-spin-direction-nan": (
        ["kernels", "eval", "--family", "spin", "--s", "0.5", "--observable", "identity",
         "--direction", "nan,0,0"], "direction"),
    "spin-pure-direction-nan": (
        ["state", "--kind", "spin_pure", "--s", "0.5", "--direction", "nan,0,1"], "direction"),
    "quadrature-nan": (
        ["reconstruct", "--method", "homodyne", "--records", "{tmp}/homodyne.csv",
         "--n-max", "3", "--observable", "quadrature:nan"], "quadrature:nan"),
    "quadrature-inf": (
        ["reconstruct", "--method", "homodyne", "--records", "{tmp}/homodyne.csv",
         "--n-max", "3", "--observable", "quadrature:inf"], "quadrature:inf"),
    "spin-record-direction-not-unit": (
        ["reconstruct", "--method", "spin", "--s", "0.5", "--records", "{tmp}/spin-zero.csv"],
        "unit vectors"),
    "random-mixed-param": (
        ["state", "--kind", "random_mixed", "--dim", "3", "--param", "5"], "--param"),
    "fock-seed": (["state", "--kind", "fock", "--dim", "3", "--seed", "3"], "--seed"),
    "fock-spin-flags": (
        ["state", "--kind", "fock", "--dim", "3", "--s", "1", "--direction", "0,0,1"], "--s"),
    "coherent-direction": (
        ["state", "--kind", "coherent", "--dim", "3", "--direction", "0,0,1"], "--direction"),
    "spin-pure-param": (
        ["state", "--kind", "spin_pure", "--s", "1", "--direction", "0,0,1", "--param", "2"],
        "--param"),
    "spin-pure-seed": (
        ["state", "--kind", "spin_pure", "--s", "1", "--direction", "0,0,1", "--seed", "2"],
        "--seed"),
    "spin-s-disagrees-with-state": (
        ["sample", "--method", "spin", "--s", "1", "--state", "{tmp}/qubit.json",
         "--shots", "10", "--seed", "1"], "--s"),
    "coherent-param-not-complex": (
        ["state", "--kind", "coherent", "--dim", "8", "--param", "1+"], "'1+'"),
    "squeeze-not-complex": (
        ["sample", "--method", "homodyne", "--shots", "10", "--seed", "1", "--squeeze", "abc"],
        "'abc'"),
    "kernels-phi-abc": (
        ["kernels", "eval", "--family", "homodyne", "--observable", "number", "--dim", "4",
         "--phi", "abc"], "--phi"),
    "kernels-points-abc": (["kernels", "eval", "--family", "parity", "--points", "abc"],
                           "--points"),
    "spin-pure-direction-two-numbers": (
        ["state", "--kind", "spin_pure", "--s", "1", "--direction", "1,0"], "three"),
    "spin-pure-direction-words": (
        ["state", "--kind", "spin_pure", "--s", "1", "--direction", "a,b,c"], "'a,b,c'"),
    **{f"observable-{name}": (
        ["reconstruct", "--method", "homodyne", "--records", "{tmp}/homodyne.csv",
         "--n-max", "3", "--observable", observable], word)
       for name, observable, word in (("quadrature-abc", "quadrature:abc", "quadrature:abc"),
                                      ("matrix-unit-words", "matrix_unit:a,b", "matrix_unit:a,b"),
                                      ("matrix-unit-outside", "matrix_unit:9,0", "[0,4)"),
                                      ("bogus", "bogus", "'bogus'"))},
    "nonunitary-neither-n-max-nor-observable": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/vacuum.json"], "--n-max"),
    # phi (d - 1) and psi (d - 1)^2 overflow to inf: refused before any kernel is built
    "homodyne-phase-overflows": (
        ["reconstruct", "--method", "homodyne", "--records", "{tmp}/homodyne-phi.csv",
         "--n-max", "3"], "homodyne record 1"),
    **{f"kerr-{column}-overflows{name}": (
        ["reconstruct", "--method", "kerr", "--records", f"{{tmp}}/kerr-{column}.csv",
         "--n-max", "7", *extra], "kerr record 1")
       for column in ("psi", "phi")
       for name, extra in (("", []), ("-observable", ["--observable", "matrix_unit:0,1"]))},
    # a full matrix needs a standard error, so 2 records, as every --observable does
    **{f"{method}-one-record": (
        ["reconstruct", "--method", method, "--records", f"{{tmp}}/one-{method}.csv", *extra],
        f"need at least 2 {method} records, got 1")
       for method, extra in (("homodyne", ["--n-max", "3"]), ("kerr", ["--n-max", "3"]),
                             ("parity", ["--n-max", "3"]), ("spin", ["--s", "0.5"]),
                             ("pauli", []))},
    # the homodyne pattern table builds on the pool (run with BAD_THREADS below), and
    # the reconstructs run again once a good count has left the table on disk
    **{f"homodyne-{command}-threads-abc": (argv, "QTOMO_THREADS") for command, argv in (
        ("reconstruct", ["reconstruct", "--method", "homodyne", "--records",
                         "{tmp}/homodyne.csv", "--n-max", "3"]),
        ("observable", ["reconstruct", "--method", "homodyne", "--records",
                        "{tmp}/homodyne.csv", "--n-max", "3", "--observable", "number"]),
        ("kernels", ["kernels", "eval", "--family", "homodyne", "--observable", "number",
                     "--dim", "4"]))},
}
# the QTOMO_THREADS that a BAD_INPUTS case runs under, where it is not the caller's
BAD_THREADS = {case: "abc" for case in BAD_INPUTS if case.endswith("-threads-abc")}

# Each malformed quorum document: its role, dim and elements, and a word its error names.
# Element 0 is well formed; the bad field sits in element 1.
_GOOD_ELEMENT = {"label": {"quorum": "q", "coords": [0.0]}, "weight": 1.0, "dim": 1,
                 "entries": [[1.0, 0.0]]}
BAD_QUORUMS = {
    "element-not-object": ("spanning", 1, [5], "element 1"),
    "label-not-object": ("spanning", 1, [{**_GOOD_ELEMENT, "label": "q"}], "element 1"),
    "label-quorum-not-string": (
        "spanning", 1, [{**_GOOD_ELEMENT, "label": {"quorum": 5, "coords": []}}], "element 1"),
    "coords-not-list": (
        "spanning", 1, [{**_GOOD_ELEMENT, "label": {"quorum": "q", "coords": 5}}], "element 1"),
    "coords-not-numbers": (
        "spanning", 1, [{**_GOOD_ELEMENT, "label": {"quorum": "q", "coords": ["a"]}}],
        "element 1"),
    "weight-string": ("spanning", 1, [{**_GOOD_ELEMENT, "weight": "x"}], "element 1"),
    "weight-null": ("spanning", 1, [{**_GOOD_ELEMENT, "weight": None}], "element 1"),
    "weight-bool": ("spanning", 1, [{**_GOOD_ELEMENT, "weight": True}], "element 1"),
    "weight-0": ("spanning", 1, [{**_GOOD_ELEMENT, "weight": 0.0}], "element 1"),
    # json.dumps writes inf as Infinity; the test writes it as the literal 1e400
    "weight-beyond-double": (
        "spanning", 1, [{**_GOOD_ELEMENT, "weight": float("inf")}], "element 1"),
    "role-bogus": ("bogus", 1, [_GOOD_ELEMENT], "role"),
    "dim-not-integer": ("spanning", "1", [_GOOD_ELEMENT], "dim"),
    "element-dims-differ": (
        "spanning", 1,
        [{**_GOOD_ELEMENT, "dim": 2, "entries": [[0.5, 0.0], [0, 0], [0, 0], [0.5, 0.0]]}],
        "has dim"),
    "document-dim-differs": ("spanning", 2, [_GOOD_ELEMENT], "has dim"),
    "element-dim-true": ("spanning", 1, [{**_GOOD_ELEMENT, "dim": True}], "element 1"),
}
BAD_INPUTS.update({f"quorum-{case}": (["quorum", "verify", "--quorum", f"{{tmp}}/{case}.json"],
                                      word)
                   for case, (_, _, _, word) in BAD_QUORUMS.items()})


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, table_cache,
                                               forget_tables, case):
    if case in BAD_THREADS:
        monkeypatch.setenv("QTOMO_THREADS", BAD_THREADS[case])
    def state(dim, entries):
        return json.dumps({"version": 1, "kind": "state", "dim": dim, "entries": entries})

    (tmp_path / "words.json").write_text(state(1, [["a", "b"]]))
    (tmp_path / "short.json").write_text(state(2, [[1], [0], [0], [0]]))
    (tmp_path / "huge.json").write_text(state(1, [[10**400, 0]]))
    (tmp_path / "dim-true.json").write_text(state(True, [[1.0, 0.0]]))
    (tmp_path / "vacuum.json").write_text(state(1, [[1.0, 0.0]]))
    (tmp_path / "qubit.json").write_text(state(2, [[1.0, 0.0], [0, 0], [0, 0], [0, 0]]))
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe")
    (tmp_path / "pauli.csv").write_text(
        "quorum,s1,s2,s3,o1\npauli,0,,,0.5\npauli,1,,,-0.5\npauli,2,,,0.5\n")
    (tmp_path / "homodyne.csv").write_text(
        "quorum,s1,s2,s3,o1\nhomodyne,0.5,,,1.25\nhomodyne,0.1,,,-0.3\n")
    (tmp_path / "kerr.csv").write_text("quorum,s1,s2,s3,o1\nkerr,0.5,,,1.25\nkerr,2.5,,,4\n")
    (tmp_path / "homodyne-phi.csv").write_text(
        "quorum,s1,s2,s3,o1\nhomodyne,0.5,,,1.25\nhomodyne,1e308,,,-0.3\n")
    (tmp_path / "kerr-psi.csv").write_text("quorum,s1,s2,s3,o1\nkerr,0.5,,,1.25\nkerr,1e307,,,4\n")
    (tmp_path / "kerr-phi.csv").write_text("quorum,s1,s2,s3,o1\nkerr,0.5,,,1.25\nkerr,2.5,,,1e308\n")
    (tmp_path / "spin-zero.csv").write_text(
        "quorum,s1,s2,s3,o1\nspin,0,0,1,0.5\nspin,0,0,0,0.5\n")
    for method, row in (("homodyne", "0.5,,,1.25"), ("kerr", "0.5,,,1.25"),
                        ("parity", "0.1,0.2,,1"), ("spin", "0,0,1,0.5"), ("pauli", "0,,,0.5")):
        (tmp_path / f"one-{method}.csv").write_text(f"quorum,s1,s2,s3,o1\n{method},{row}\n")
    for name, (role, dim, elements, _) in BAD_QUORUMS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "version": 1, "kind": "quorum", "role": role, "dim": dim,
            "elements": [_GOOD_ELEMENT, *elements]}).replace("Infinity", "1e400"))
    argv, word = BAD_INPUTS[case]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[:2] != ["quorum", "verify"]:  # verify writes nothing and refuses --out
        argv += ["--out", str(tmp_path / "out")]
    for warm in (False, True) if case in BAD_THREADS and argv[0] == "reconstruct" else (False,):
        if warm:  # a run under a good count leaves the pattern table on disk
            monkeypatch.delenv("QTOMO_THREADS")
            assert run(capsys, argv)[0] == 0 and list(table_cache.iterdir())
            forget_tables()
            monkeypatch.setenv("QTOMO_THREADS", BAD_THREADS[case])
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and word in err, err



# Bad inputs that exit 3, not 2 as BAD_INPUTS' do: parity proposal radii whose kernel
# overflows into NaN where e^(-|2b|^2/2) underflows. The sampler's G(b), the boundary
# check and the observable's coefficients refuse it. Their argv ({tmp} is the test
# directory) and a word the error names.
NON_FINITE_PARITY = {
    "sample": (["sample", "--method", "parity", "--dim", "3", "--shots", "2000", "--seed", "1",
                "--proposal-radius", "1e100"], "not finite"),
    "reconstruct-matrix": (["reconstruct", "--method", "parity", "--records", "{tmp}/parity.csv",
                            "--n-max", "2", "--proposal-radius", "1e100"], "not finite"),
    "reconstruct-number": (["reconstruct", "--method", "parity", "--records", "{tmp}/parity.csv",
                            "--n-max", "2", "--proposal-radius", "1e100",
                            "--observable", "number"], "not finite"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_PARITY))
def test_non_finite_parity_kernel_exits_3(capsys, tmp_path, case):
    # in-process, so a numpy RuntimeWarning would fail the test as an error
    (tmp_path / "parity.csv").write_text(
        "quorum,s1,s2,s3,o1\nparity,0.1,0.2,,1\nparity,-0.3,0.1,,-1\n")
    argv, word = NON_FINITE_PARITY[case]
    out = tmp_path / "out"
    code, _, err = run(capsys, [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)])
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1 and word in err, err
    assert not out.exists()


# The route contract, written out here rather than read from the CLI. A route is a
# command's --kind, --method or --family. First, a valid value of each flag that some
# route of the command does not read ({tmp} is the directory of the route_files fixture).
ROUTE_FLAG_VALUES = {
    "state": {"--dim": "3", "--param": "1", "--seed": "2", "--s": "1", "--direction": "0,0,1"},
    "sample": {"--dim": "5", "--s": "0.5", "--squeeze": "0.1", "--proposal-radius": "6"},
    "reconstruct": {"--records": "{tmp}/pauli.csv", "--state": "{tmp}/qubit.json",
                    "--n-max": "1", "--s": "0.5", "--k-max": "3", "--reg-eps": "0.01", "--squeeze": "0.1",
                    "--proposal-radius": "6"},
    "kernels": {"--observable": "number", "--dim": "4", "--n": "1", "--d": "1",
                "--phi": "0.5", "--psi": "0.5", "--eps": "0.1", "--s": "1",
                "--direction": "1,0,0", "--k-max": "3", "--reg-eps": "0.01",
                "--grid-max": "2", "--points": "5"},
}
# Each route: a valid command line, and which of those flags it reads ("!" = needs).
_SAMPLE = ["--shots", "5", "--seed", "1"]
ROUTE_CONTRACT = {
    **{("state", kind): (["--kind", kind, "--dim", "3"], "!--dim --param")
       for kind in ("fock", "coherent", "squeezed_vacuum", "thermal")},
    ("state", "random_mixed"): (["--kind", "random_mixed", "--dim", "3"], "!--dim --seed"),
    ("state", "spin_pure"): (["--kind", "spin_pure", "--s", "1", "--direction", "0,0,1"],
                             "!--s !--direction"),
    ("sample", "homodyne"): (["--method", "homodyne", *_SAMPLE], "--dim --squeeze"),
    ("sample", "parity"): (["--method", "parity", *_SAMPLE], "--dim --proposal-radius"),
    ("sample", "kerr"): (["--method", "kerr", *_SAMPLE], "--dim"),
    ("sample", "spin"): (["--method", "spin", "--s", "0.5", *_SAMPLE], "!--s"),
    ("sample", "pauli"): (["--method", "pauli", *_SAMPLE], ""),
    **{("reconstruct", method): (
        ["--method", method, "--records", f"{{tmp}}/{method}.csv", "--n-max", "3"],
        "!--records !--n-max " + reads)
       for method, reads in (("homodyne", "--k-max --reg-eps --squeeze"),
                             ("parity", "--proposal-radius"), ("kerr", ""))},
    ("reconstruct", "spin"): (["--method", "spin", "--records", "{tmp}/spin.csv", "--s", "0.5"],
                              "!--records !--s"),
    ("reconstruct", "pauli"): (["--method", "pauli", "--records", "{tmp}/pauli.csv"],
                               "!--records"),
    ("reconstruct", "nonunitary"): (
        ["--method", "nonunitary", "--state", "{tmp}/qubit.json", "--n-max", "1"],
        "!--state --n-max"),
    ("kernels", "homodyne"): (
        ["eval", "--family", "homodyne", "--observable", "number", "--dim", "4", "--points", "5"],
        "!--observable !--dim --phi --k-max --reg-eps --grid-max --points"),
    ("kernels", "parity"): (["eval", "--family", "parity", "--points", "5"],
                            "--n --d --grid-max --points"),
    ("kernels", "kerr"): (["eval", "--family", "kerr", "--points", "5"],
                          "--n --d --psi --eps --points"),
    ("kernels", "spin"): (["eval", "--family", "spin", "--s", "0.5", "--observable", "identity"],
                          "!--s !--observable --direction"),
    ("kernels", "nonunitary"): (
        ["eval", "--family", "nonunitary", "--observable", "number", "--dim", "4",
         "--points", "5"],
        "!--observable !--dim --n --points"),
}
UNREAD_FLAGS = {
    f"{command}-{route}-{flag[2:]}": ([command, *argv, flag, value], flag)
    for (command, route), (argv, reads) in ROUTE_CONTRACT.items()
    for flag, value in ROUTE_FLAG_VALUES[command].items()
    if flag not in reads.replace("!", "").split()
}
# The flags whose use depends on another flag.
_PAULI_ESTIMATE = ["reconstruct", "--method", "pauli", "--records", "{tmp}/pauli.csv",
                   "--observable", "identity"]
UNREAD_FLAGS.update({
    "reconstruct-pauli+observable-reference": (
        [*_PAULI_ESTIMATE, "--reference", "{tmp}/qubit.json"], "--reference"),
    "reconstruct-pauli+observable-nearest-physical": (
        [*_PAULI_ESTIMATE, "--nearest-physical"], "--nearest-physical"),
    "kernels-kerr+d1-eps": (
        ["kernels", "eval", "--family", "kerr", "--d", "1", "--eps", "0.1"], "--eps"),
    "sample-homodyne+state-dim": (
        ["sample", "--method", "homodyne", "--state", "{tmp}/vacuum4.json", *_SAMPLE,
         "--dim", "5"], "--dim"),
    "reconstruct-nonunitary+observable-n-max": (
        ["reconstruct", "--method", "nonunitary", "--state", "{tmp}/qubit.json",
         "--observable", "identity", "--n-max", "1"], "--n-max"),
    # quorum verify writes no file, so the --out that every case is run with is refused
    "quorum-verify-out": (["quorum", "verify", "--quorum", "{tmp}/pauli-quorum.json"], "--out"),
})


def _without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


MISSING_FLAGS = {
    f"{command}-{route}-{flag[3:]}": ([command, *_without(argv, flag[1:])], flag[1:])
    for (command, route), (argv, reads) in ROUTE_CONTRACT.items()
    for flag in reads.split() if flag.startswith("!")
}
MISSING_FLAGS["kernels-kerr+d0-eps"] = (["kernels", "eval", "--family", "kerr", "--d", "0"],
                                        "--eps")


@pytest.fixture(scope="module")
def route_files(tmp_path_factory):
    """A qubit state, a dim-4 vacuum, a Pauli quorum, and a small record CSV per sampled method."""
    tmp = tmp_path_factory.mktemp("routes")
    assert main(["state", "--kind", "random_mixed", "--dim", "2", "--seed", "1",
                 "--out", str(tmp / "qubit.json")]) == 0
    assert main(["state", "--kind", "fock", "--dim", "4", "--out", str(tmp / "vacuum4.json")]) == 0
    write_pauli_quorum(tmp / "pauli-quorum.json")
    for method, extra in (("homodyne", ["--dim", "4"]), ("parity", ["--dim", "4"]),
                          ("kerr", ["--dim", "4"]), ("spin", ["--s", "0.5"]), ("pauli", [])):
        assert main(["sample", "--method", method, *extra, "--shots", "50", "--seed", "1",
                     "--out", str(tmp / f"{method}.csv")]) == 0
    return tmp


def assert_refused_naming(capsys, argv, flag, route_files, out):
    code, _, err = run(capsys, [a.format(tmp=route_files) for a in argv] + ["--out", str(out)])
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    # the flag itself, not a longer flag that starts with it
    assert re.search(re.escape(flag) + r"(?![\w-])", err), err


def test_route_contract_base_lines_run(capsys, tmp_path, route_files):
    for (command, _), (argv, _) in ROUTE_CONTRACT.items():
        argv = [command, *(a.format(tmp=route_files) for a in argv),
                "--out", str(tmp_path / "out")]
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("case", list(UNREAD_FLAGS))
def test_unread_flag_is_refused(capsys, tmp_path, route_files, case):
    assert_refused_naming(capsys, *UNREAD_FLAGS[case], route_files, tmp_path / "out")


@pytest.mark.parametrize("case", list(MISSING_FLAGS))
def test_missing_flag_is_named(capsys, tmp_path, route_files, case):
    assert_refused_naming(capsys, *MISSING_FLAGS[case], route_files, tmp_path / "out")


PARSE_ERRORS = {
    "missing-seed": (["sample", "--method", "kerr", "--shots", "5"], "--seed"),
    "bad-choice": (["sample", "--method", "bogus", "--shots", "5", "--seed", "1"], "bogus"),
    "unknown-flag": (["sample", "--method", "kerr", "--shots", "5", "--seed", "1",
                      "--bogus", "3"], "--bogus"),
}


# A k_max whose k panels span more than 20 rad at the table's largest |q| (here 8)
K_MAX_ARGV = {
    "reconstruct": ["reconstruct", "--method", "homodyne", "--records", "{tmp}/homodyne.csv",
                    "--n-max", "3"],
    "kernels": ["kernels", "eval", "--family", "homodyne", "--observable", "number", "--dim", "4"],
}


@pytest.mark.parametrize("k_max", ["700", "1e200"])
@pytest.mark.parametrize("command", list(K_MAX_ARGV))
def test_unresolved_k_max_exits_3(capsys, tmp_path, route_files, command, k_max):
    # in-process, so a numpy RuntimeWarning would fail the test as an error
    argv = [a.format(tmp=route_files) for a in K_MAX_ARGV[command]]
    code, _, err = run(capsys, argv + ["--k-max", k_max, "--out", str(tmp_path / "out")])
    assert code == 3 and err.count("\n") == 1, err
    assert f"k_max = {float(k_max):g}" in err, err


# kernels eval arguments whose table holds a non-finite value, and the grid point named
NON_FINITE_KERNELS = {
    "kerr-offset": (["--family", "kerr", "--n", "0", "--d", "200", "--psi", "1e308"],
                    "phi = 0 "),
    "kerr-diagonal": (["--family", "kerr", "--n", "0", "--d", "0", "--eps", "1e308",
                       "--psi", "1e308"], "phi = 0 "),
    "parity-offset": (["--family", "parity", "--n", "0", "--d", "200", "--grid-max", "1e10"],
                      "alpha = 100000000 "),
    "parity-level": (["--family", "parity", "--n", "300", "--d", "0", "--grid-max", "30"],
                     "alpha = 19.800000000000001 "),
}


@pytest.mark.parametrize("case", list(NON_FINITE_KERNELS))
def test_non_finite_kernel_table_exits_3(capsys, tmp_path, case):
    # in-process, so a numpy RuntimeWarning would fail the test as an error
    args, where = NON_FINITE_KERNELS[case]
    out = tmp_path / "kernel.csv"
    code, _, err = run(capsys, ["kernels", "eval", *args, "--out", str(out)])
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, err
    assert where in err and "not finite" in err, err
    assert not out.exists()


def test_overflowing_parity_grid_is_quiet(capsys, tmp_path):
    out = tmp_path / "kernel.csv"
    code, _, err = run(capsys, ["kernels", "eval", "--family", "parity", "--grid-max", "1e200",
                                "--out", str(out)])
    assert code == 0 and err == "", err
    assert out.read_text().splitlines()[1:3] == ["0,4,0", "1e+198,0,0"]


# Inputs too large for a double or for an array: refused with one line on the exit-3 path
# before a file is written. numpy refuses each shape before it allocates anything.
# Their argv, the error's type and a word it names.
TOO_LARGE = {
    "coherent-1e308": (["state", "--kind", "coherent", "--dim", "8", "--param", "1e308"],
                       "TruncationError", "coherent amplitude"),
    "coherent-1e200j": (["state", "--kind", "coherent", "--dim", "8", "--param", "1e200j"],
                        "TruncationError", "coherent amplitude"),
    "random-mixed-dim-1e11": (["state", "--kind", "random_mixed", "--dim", "100000000000"],
                              "NumericPreconditionError", "out of memory: array is too big"),
    "spin-s-1e9": (["sample", "--method", "spin", "--s", "1e9", "--shots", "10", "--seed", "1"],
                   "NumericPreconditionError", "out of memory: array is too big"),
    "fock-dim-2**64": (["state", "--kind", "fock", "--dim", str(2**64)],
                       "NumericPreconditionError", "out of memory: Maximum allowed dimension"),
}


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("case", list(TOO_LARGE))
def test_too_large_input_exits_3(capsys, tmp_path, case, json_errors):
    argv, error, word = TOO_LARGE[case]
    out = tmp_path / "out"
    code, _, err = run(capsys, argv + ["--out", str(out)] + ["--json-errors"] * json_errors)
    assert code == 3 and err.count("\n") == 1 and not out.exists(), err
    if json_errors:
        payload = json.loads(err)
        assert payload["error"] == error and word in payload["message"], err
    else:
        assert err.startswith("error: ") and word in err, err


@pytest.mark.parametrize("json_errors", [False, True])
def test_out_of_memory_exits_3(capsys, tmp_path, monkeypatch, json_errors):
    # a stand-in for numpy's allocation failure: no test allocates for real
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type complex128")

    monkeypatch.setattr("qtomo.cli.make_state", out_of_memory)
    out = tmp_path / "state.json"
    code, _, err = run(capsys, ["state", "--kind", "random_mixed", "--dim", "100000",
                                "--out", str(out)] + ["--json-errors"] * json_errors)
    assert code == 3 and err.count("\n") == 1 and not out.exists(), err
    if json_errors:
        payload = json.loads(err)
        assert payload["error"] == "NumericPreconditionError"
        err = payload["message"]
    assert "out of memory: Unable to allocate 74.5 GiB" in err, err


# The CLI in a child whose address space is capped at 1 GiB, so that code which fills memory
# before it fails cannot take the machine's. Last it prints its own peak RSS in kB, VmHWM:
# ru_maxrss would count the pages of the test process that started it.
CAPPED_CLI = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import qtomo.cli
try:
    code = qtomo.cli.main(sys.argv[1:])
finally:
    with open("/proc/self/status") as status:
        print(*[line.split()[1] for line in status if line.startswith("VmHWM:")])
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_huge_n_max_fails_before_it_fills_memory(tmp_path):
    # at --n-max 3000 the homodyne pattern table would take 550 GiB, so that allocation must
    # be the first to fail: not after 9 million element keys and accumulators
    records = tmp_path / "records.csv"
    records.write_text("quorum,s1,s2,s3,o1\nhomodyne,0.4,,,0.38\nhomodyne,2.15,,,-0.76\n"
                       "homodyne,2.0,,,-0.12\n")
    src = str(pathlib.Path(qtomo.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "out.json"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CAPPED_CLI, "reconstruct", "--method", "homodyne",
                           "--records", str(records), "--n-max", "3000", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3 and not out.exists(), proc.stderr
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert elapsed < 5.0
    assert int(proc.stdout.split()[-1]) < 100 * 1024, proc.stdout  # kB


def test_route_names_are_listed_once():
    assert set(_ROUTE_FLAGS["sample"]) == set(METHODS)
    assert set(_ROUTE_FLAGS["reconstruct"]) == set(METHODS) | {"nonunitary"}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    route_args = {"state": "kind", "sample": "method", "reconstruct": "method",
                  "kernels": "family", "quorum": "action"}
    for command, dest in route_args.items():
        (arg,) = [a for a in sub.choices[command]._actions if a.dest == dest]
        assert list(arg.choices) == list(_ROUTE_FLAGS[command]), command


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_thread_count_is_refused(capsys, tmp_path, monkeypatch, value):
    monkeypatch.setenv("QTOMO_THREADS", value)
    with pytest.raises(UsageError, match="QTOMO_THREADS"):
        max_workers()
    code, _, err = run(capsys, ["sample", "--method", "pauli", "--shots", "5", "--seed", "1",
                                "--out", str(tmp_path / "x.csv")])
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "QTOMO_THREADS" in err


def test_thread_count_caps_the_pool(monkeypatch):
    # One usable CPU of four: the default pool counts the CPUs the process may run on.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("QTOMO_THREADS", raising=False)
    assert max_workers() == 1
    monkeypatch.setenv("QTOMO_THREADS", "")
    assert max_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert max_workers() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert max_workers() == 4
    monkeypatch.setenv("QTOMO_THREADS", "3")
    assert max_workers() == 3


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize("case", list(PARSE_ERRORS))
def test_parse_errors_take_the_error_path(capsys, tmp_path, case, json_errors):
    argv, word = PARSE_ERRORS[case]
    argv = argv[:1] + ["--json-errors"] * json_errors + argv[1:] + ["--out", str(tmp_path / "x")]
    code, _, err = run(capsys, argv)
    assert code == 2 and err.count("\n") == 1, err
    if json_errors:
        doc = json.loads(err)
        assert doc["error"] == "UsageError" and word in doc["message"], err
    else:
        assert err.startswith("error: ") and word in err, err


# Golden outputs: the SHA-256 of every reconstruct route's JSONs at a pinned seed.
# Each route is (state flags, flags shared by sample and reconstruct,
# reconstruct-only flags, observables).
# The digests are the oracle for refactors: they must not move.
GOLDEN_ROUTES = {
    "homodyne": (["--kind", "coherent", "--param", "0.3", "--dim", "8"],
                 ["--method", "homodyne"], ["--n-max", "7"], ["number"]),
    "homodyne-squeezed": (["--kind", "coherent", "--param", "0.3", "--dim", "8"],
                          ["--method", "homodyne", "--squeeze", "0.05+0.05j"],
                          ["--n-max", "7"], ["number"]),
    "parity": (["--kind", "coherent", "--param", "0.3", "--dim", "8"],
               ["--method", "parity"], ["--n-max", "7"], ["matrix_unit:0,1"]),
    "spin": (["--kind", "random_mixed", "--dim", "3", "--seed", "5"],
             ["--method", "spin", "--s", "1"], [], ["number"]),
    "pauli": (["--kind", "random_mixed", "--dim", "2", "--seed", "6"],
              ["--method", "pauli"], [], ["quadrature:0.3"]),
    "kerr": (["--kind", "coherent", "--param", "0.3", "--dim", "8"],
             ["--method", "kerr"], ["--n-max", "7"], ["matrix_unit:0,1", "identity"]),
    "nonunitary": (["--kind", "coherent", "--param", "0.3", "--dim", "4"],
                   ["--method", "nonunitary"], [], ["number"]),
}
GOLDEN_DIGESTS = {
    "homodyne": {
        "number":
            "ea543cdd84c81d6b41fd9d46462f706d772791f56bcdccf91fdeb875702c7826",
        "matrix":
            "3ed70a5600243a2faa4c18b6dac1a04cf77da43886bea6c87e1abfe1c18203d5",
    },
    "homodyne-squeezed": {
        "number":
            "5a9b0ccfbd4fe99b0899e0c27135a63ca3aba6382ef323eaa6ec5fbec2fa2f75",
        "matrix":
            "9c323f26ef00e994b230c307d0c028dd6bd6f34b083c37a59a554b4c60bb02b9",
    },
    "parity": {
        "matrix_unit:0,1":
            "e2a129ba05013d4e38ee05e418fe30adce2d1743318f1886c4a52e02e4c7680f",
        "matrix":
            "58d88c7789475e0d36658f491e1bd96b8b92d33c573e87cc3906dff3efe09e92",
    },
    "spin": {
        "number":
            "749326211709dbbeed19f75bd3de9bd9ffff26aec91f7900d6edcd8b787a361b",
        "matrix":
            "96418c8b667d3766005972e84dee71e93ee95919755a0644bb0aaab30d722324",
    },
    "pauli": {
        "quadrature:0.3":
            "68087b904ea163f07535c24deadd882d025635606e6788d4a0abfa302bafdf12",
        "matrix":
            "fb06e563850eba671c2324cb433f7f012fc1d5ae487c4d3476893d69601403f9",
    },
    "kerr": {
        "matrix_unit:0,1":
            "93cdd97caae656fafd0a1698daf4bdc67fc657529c8234d32fee940fe461bebb",
        "identity":
            "86a455a338fd0a730b0d84e5c9c6af74742818d6f4603a16ebe1dc63dc24d139",
        "matrix":
            "e3b5ea9b4b8f91de4ce3eed0205d78bd15b90c1be40fe7a44f42abb06d599ad3",
    },
    "nonunitary": {
        "number":
            "b78fc1e6189c2142c473d0a316fd4ddee9420360d7f6e307822bf5fa5aab2128",
        "matrix":
            "fb48c2fb1aedecf95c591827d023c062af4c4b4913f7777cf94212054a9571fc",
    },
}
GOLDEN_SHOTS = CHUNK_SHOTS + 17  # every estimate crosses a chunk boundary


def _golden_outputs(capsys, tmp_path, route):
    """{observable or "matrix": SHA-256 of the reconstruct JSON} for one route."""
    state_flags, method_flags, recon_flags, observables = GOLDEN_ROUTES[route]
    state = tmp_path / "state.json"
    assert run(capsys, ["state", *state_flags, "--out", str(state)])[0] == 0
    if route == "nonunitary":
        source = ["--state", str(state)]
    else:
        records = tmp_path / "records.csv"
        assert run(capsys, ["sample", *method_flags, "--state", str(state),
                            "--shots", str(GOLDEN_SHOTS), "--seed", "11",
                            "--out", str(records)])[0] == 0
        source = ["--records", str(records)]
    digests = {}
    for observable in observables + ["matrix"]:
        out = tmp_path / "result.json"
        argv = ["reconstruct", *method_flags, *source, *recon_flags, "--out", str(out)]
        if observable != "matrix":
            argv += ["--observable", observable]
        elif route == "nonunitary":
            # the exact route reads --n-max for a full matrix only; it reaches
            # n_max <= dim/2, so no block has the state's dimension to compare with
            argv += ["--n-max", "1"]
        else:
            argv += ["--reference", str(state)]
        code, _, err = run(capsys, argv)
        assert code == 0, err
        digests[observable] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("route", list(GOLDEN_ROUTES))
def test_golden_reconstruct_outputs(capsys, tmp_path, route):
    assert _golden_outputs(capsys, tmp_path, route) == GOLDEN_DIGESTS[route]


def test_cli_surface():
    # every option a subcommand offers; a flag no code path reads must not come back
    common = {"-h", "--help", "--json-errors"}
    expected = {
        "state": {"--kind", "--dim", "--param", "--seed", "--s", "--direction", "--out"},
        "sample": {"--proposal-radius", "--method", "--state", "--dim", "--s", "--shots",
                   "--seed", "--substream", "--squeeze", "--out"},
        "reconstruct": {"--k-max", "--reg-eps", "--proposal-radius", "--method", "--records",
                        "--state", "--n-max", "--s", "--observable", "--squeeze",
                        "--reference", "--nearest-physical", "--out"},
        "quorum": {"--quorum", "--out"},
        "kernels": {"--k-max", "--reg-eps", "--family", "--observable", "--dim", "--n", "--d",
                    "--phi", "--psi", "--eps", "--s", "--direction", "--grid-max", "--points",
                    "--out"},
    }
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {name: {opt for action in p._actions for opt in action.option_strings}
               for name, p in sub.choices.items()}
    assert offered == {name: opts | common for name, opts in expected.items()}


# Every state, sample and reconstruct route of the benchmark workloads (coherent states,
# homodyne, parity, Kerr and Pauli), homodyne at --squeeze 0 and the quorum commands
# need numpy alone: the log-gamma, Laguerre and spline routines they use are
# qtomo._special's copies of scipy's, and scipy is imported only by
# operators.displacement, by squeeze at zeta != 0 and by disp_stack beyond dim 40.
# This module imports scipy itself, so the check runs in a fresh interpreter.
NUMPY_ONLY_COMMANDS = """
import sys

import qtomo.cli

tmp = sys.argv[1]
for argv in (
    ["state", "--kind", "random_mixed", "--dim", "2", "--seed", "3", "--out", f"{tmp}/rho.json"],
    ["sample", "--method", "pauli", "--state", f"{tmp}/rho.json", "--shots", "50",
     "--seed", "1", "--out", f"{tmp}/pauli.csv"],
    ["reconstruct", "--method", "pauli", "--records", f"{tmp}/pauli.csv",
     "--reference", f"{tmp}/rho.json", "--out", f"{tmp}/pauli.json"],
    ["state", "--kind", "coherent", "--dim", "3", "--param", "0.1", "--out", f"{tmp}/coh.json"],
    ["state", "--kind", "squeezed_vacuum", "--dim", "6", "--param", "0.1",
     "--out", f"{tmp}/squeezed.json"],
    ["sample", "--method", "kerr", "--dim", "3", "--shots", "20", "--seed", "1",
     "--out", f"{tmp}/kerr.csv"],
    ["reconstruct", "--method", "kerr", "--records", f"{tmp}/kerr.csv", "--n-max", "2",
     "--out", f"{tmp}/kerr.json"],
    ["sample", "--method", "homodyne", "--dim", "3", "--shots", "20", "--seed", "1",
     "--out", f"{tmp}/homodyne.csv"],
    ["reconstruct", "--method", "homodyne", "--records", f"{tmp}/homodyne.csv", "--n-max", "2",
     "--reference", f"{tmp}/coh.json", "--out", f"{tmp}/homodyne.json"],
    ["reconstruct", "--method", "homodyne", "--records", f"{tmp}/homodyne.csv", "--n-max", "2",
     "--observable", "number", "--out", f"{tmp}/number.json"],
    ["sample", "--method", "homodyne", "--dim", "3", "--shots", "20", "--seed", "1",
     "--squeeze", "0", "--out", f"{tmp}/homodyne-squeeze-0.csv"],
    ["reconstruct", "--method", "homodyne", "--records", f"{tmp}/homodyne.csv", "--n-max", "2",
     "--squeeze", "0", "--out", f"{tmp}/homodyne-squeeze-0.json"],
    ["reconstruct", "--method", "homodyne", "--records", f"{tmp}/homodyne.csv", "--n-max", "2",
     "--squeeze", "0", "--observable", "number", "--out", f"{tmp}/number-squeeze-0.json"],
    ["sample", "--method", "parity", "--dim", "3", "--shots", "20", "--seed", "1",
     "--out", f"{tmp}/parity.csv"],
    ["reconstruct", "--method", "parity", "--records", f"{tmp}/parity.csv", "--n-max", "2",
     "--out", f"{tmp}/parity.json"],
    ["quorum", "verify", "--quorum", f"{tmp}/pauli-quorum.json"],
    ["quorum", "dual", "--quorum", f"{tmp}/pauli-quorum.json", "--out", f"{tmp}/dual.json"],
):
    assert qtomo.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    write_pauli_quorum(tmp_path / "pauli-quorum.json")
    src = str(pathlib.Path(qtomo.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_COMMANDS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_zero_squeeze_is_plain_homodyne(capsys, tmp_path):
    # --squeeze 0 takes the squeezed route with S = identity: the bytes of no --squeeze
    rho = str(tmp_path / "rho.json")
    assert run(capsys, ["state", "--kind", "coherent", "--param", "0.3", "--dim", "8",
                        "--out", rho])[0] == 0

    def outputs(name, squeeze):
        out = tmp_path / name
        out.mkdir()
        records = str(out / "records.csv")
        for argv in (["sample", "--method", "homodyne", "--state", rho, "--shots", "2000",
                      "--seed", "3", "--out", records],
                     ["reconstruct", "--method", "homodyne", "--records", records,
                      "--n-max", "7", "--out", str(out / "matrix.json")],
                     ["reconstruct", "--method", "homodyne", "--records", records,
                      "--n-max", "7", "--observable", "number", "--out", str(out / "number.json")]):
            assert run(capsys, argv + squeeze)[0] == 0, argv
        return [(out / f).read_bytes() for f in ("records.csv", "matrix.json", "number.json")]

    assert outputs("plain", []) == outputs("squeeze-0", ["--squeeze", "0"])


class TestReconstructNonunitary:
    def test_exact_matrix(self, capsys, tmp_path):
        state = tmp_path / "coh.json"
        assert run(capsys, ["state", "--kind", "coherent", "--param", "0.4",
                            "--dim", "8", "--out", str(state)])[0] == 0
        result = tmp_path / "recon.json"
        code, out, _ = run(capsys, ["reconstruct", "--method", "nonunitary",
                                    "--state", str(state), "--n-max", "3",
                                    "--out", str(result)])
        assert code == 0
        rho = load_state(state)
        doc = json.loads(result.read_text())
        assert doc["method"] == "nonunitary"
        assert doc["diagnostics"]["exact"] is True
        for e in doc["elements"]:
            got = complex(e["mean"][0], e["mean"][1])
            assert abs(got - rho.mat[e["k"], e["n"]]) <= 1e-8

    def test_exact_observable(self, capsys, tmp_path):
        state = tmp_path / "fock2.json"
        assert run(capsys, ["state", "--kind", "fock", "--param", "2", "--dim", "8",
                            "--out", str(state)])[0] == 0
        result = tmp_path / "number.json"
        code, _, _ = run(capsys, ["reconstruct", "--method", "nonunitary",
                                  "--state", str(state), "--observable", "number",
                                  "--out", str(result)])
        assert code == 0
        mean, se = read_result(result)
        assert abs(mean - 2.0) <= 1e-8 and se == 0.0

    def test_reference_and_nearest_physical(self, capsys, tmp_path):
        # n_max = 1 is the whole of a qubit state, so it compares with itself
        state = tmp_path / "mixed.json"
        assert run(capsys, ["state", "--kind", "random_mixed", "--seed", "6",
                            "--dim", "2", "--out", str(state)])[0] == 0
        result = tmp_path / "recon.json"
        code, out, err = run(capsys, ["reconstruct", "--method", "nonunitary",
                                      "--state", str(state), "--n-max", "1",
                                      "--reference", str(state), "--nearest-physical",
                                      "--out", str(result)])
        assert code == 0, err
        diag = json.loads(result.read_text())["diagnostics"]
        assert abs(diag["comparison"]["fidelity"] - 1.0) <= 1e-9
        assert diag["comparison"]["trace_distance"] <= 1e-9
        assert diag["nearest_physical_distance"] <= 1e-9
        assert stdout_value(out, "fidelity")

    def test_records_flag_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["reconstruct", "--method", "nonunitary",
                                  "--records", "whatever.csv", "--n-max", "1",
                                  "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestQuorum:
    def test_pauli_verify(self, capsys, tmp_path):
        q = tmp_path / "pauli.json"
        write_pauli_quorum(q)
        code, out, _ = run(capsys, ["quorum", "verify", "--quorum", str(q)])
        assert code == 0
        assert "rank = 4 / 4: irreducible" in out
        assert stdout_value(out, "verdict") == "pass"

    def test_single_observable_reducible(self, capsys, tmp_path):
        ops = [fock_matrix_unit(i, i, 3).mat for i in range(3)]
        q = tmp_path / "proj.json"
        save_quorum(q, SpanningSet(ops, np.ones(3),
                                   [SettingLabel("proj", (float(i),)) for i in range(3)]))
        code, out, _ = run(capsys, ["quorum", "verify", "--quorum", str(q)])
        assert code == 0
        assert stdout_value(out, "verdict") == "reducible"

    def test_weigert_dual_written(self, capsys, tmp_path):
        frame = weigert_spin_quorum(2, spiral_directions(9))
        q = tmp_path / "weigert.json"
        save_quorum(q, frame)
        dual_path = tmp_path / "dual.json"
        code, out, _ = run(capsys, ["quorum", "dual", "--quorum", str(q),
                                    "--out", str(dual_path)])
        assert code == 0
        assert "irreducible" in out
        dual = load_quorum(dual_path)
        assert isinstance(dual, DualSet) and len(dual) == 9

    def test_overcomplete_dual_is_canonical(self, capsys, tmp_path):
        q = tmp_path / "pauli.json"
        write_pauli_quorum(q)
        frame = load_quorum(q)
        order = [0, 1, 2, 3, 0]
        over = SpanningSet(frame.ops[order], [0.5, 1.0, 1.0, 1.0, 0.5],
                           [frame.labels[i] for i in order])
        save_quorum(q, over)
        dual_path = tmp_path / "dual.json"
        code, _, err = run(capsys, ["quorum", "dual", "--quorum", str(q),
                                    "--out", str(dual_path)])
        assert code == 0, err
        assert np.allclose(load_quorum(dual_path).stack(), pseudoinverse_dual(over).stack(),
                           atol=1e-12)

    # The SHA-256 of the dual that `quorum dual` writes, one set per route: a weighted
    # random basis (Gram-Schmidt), an overcomplete set (pseudoinverse) and a Weigert
    # spin quorum. They are the oracle for refactors of the frame code: they must not move.
    PINNED_DUALS = {
        "weighted-basis-d3":
            "2351208d89ce1c1c163f9ebdb0b169ac393116bcd8a18636a89fd229f53e4361",
        "overcomplete-12-d3":
            "0ff105c1ce28a8b89f7f6883d3edd95ad4f6e51b73df6490e5a5f501ad280478",
        "weigert-s1":
            "bd9a7b65fac615b0545408b71f7f17c1a030020280cdc2a9b418e054d52da786",
    }

    @staticmethod
    def write_quorum(path, name):
        if name == "weigert-s1":
            save_quorum(path, weigert_spin_quorum(2, spiral_directions(9)))
            return
        rng = np.random.default_rng(4100)
        count = 9 if name == "weighted-basis-d3" else 12
        mats = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
        weights = rng.uniform(0.2, 3.0, count)
        path.write_text(json.dumps({
            "version": 1, "kind": "quorum", "role": "spanning", "dim": 3,
            "elements": [{"label": {"quorum": "rand", "coords": [float(i)]},
                          "weight": float(w), "dim": 3,
                          "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}
                         for i, (m, w) in enumerate(zip(mats, weights))]}))

    @pytest.mark.parametrize("name", list(PINNED_DUALS))
    def test_quorum_dual_bytes_are_pinned(self, capsys, tmp_path, name):
        q = tmp_path / "quorum.json"
        self.write_quorum(q, name)
        dual_path = tmp_path / "dual.json"
        code, _, err = run(capsys, ["quorum", "dual", "--quorum", str(q),
                                    "--out", str(dual_path)])
        assert code == 0, err
        assert hashlib.sha256(dual_path.read_bytes()).hexdigest() == self.PINNED_DUALS[name]


class TestKernels:
    def csv_rows(self, path):
        import csv as _csv

        with open(path, newline="") as fh:
            rows = list(_csv.reader(fh))
        return rows[0], np.array([[float(c) for c in r] for r in rows[1:]])

    def test_homodyne_table(self, capsys, tmp_path):
        from qtomo.estimators import EstimatorConfig
        from qtomo.estimators.homodyne import homodyne_kernel_matrix
        from qtomo.operators import number

        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "homodyne",
                                  "--observable", "number", "--dim", "6",
                                  "--points", "11", "--out", str(out)])
        assert code == 0
        header, data = self.csv_rows(out)
        assert header == ["q", "re", "im"] and data.shape == (11, 3)
        cfg = EstimatorConfig(dim=6)
        q = data[4, 0]
        want = np.trace(number(6).mat @ homodyne_kernel_matrix(q, 0.0, cfg).mat)
        assert abs(complex(data[4, 1], data[4, 2]) - want) <= 1e-12

    def test_parity_table(self, capsys, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "parity",
                                  "--n", "0", "--d", "0", "--grid-max", "2",
                                  "--points", "5", "--out", str(out)])
        assert code == 0
        _, data = self.csv_rows(out)
        assert data[0, 0] == 0.0 and abs(data[0, 1] - 4.0) <= 1e-12

    def test_kerr_diagonal_needs_eps(self, capsys, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "kerr",
                                  "--n", "0", "--d", "0", "--out", str(out)])
        assert code == 2
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "kerr",
                                  "--n", "0", "--d", "0", "--eps", "0.1",
                                  "--points", "16", "--out", str(out)])
        assert code == 0
        _, data = self.csv_rows(out)
        assert np.all(np.isfinite(data))

    def test_kerr_offdiagonal_phase(self, capsys, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "kerr",
                                  "--n", "0", "--d", "1", "--points", "8",
                                  "--out", str(out)])
        assert code == 0
        _, data = self.csv_rows(out)
        assert abs(complex(data[0, 1], data[0, 2]) - 1.0) <= 1e-12

    def test_spin_identity_kernel(self, capsys, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "spin",
                                  "--s", "0.5", "--observable", "identity",
                                  "--out", str(out)])
        assert code == 0
        _, data = self.csv_rows(out)
        assert data.shape[0] == 2
        assert np.allclose(data[:, 0], [-0.5, 0.5])
        assert np.allclose(data[:, 1], [1.0, 1.0], atol=1e-12)

    # One table per family at flags that set every grid and phase option;
    # the SHA-256 pins the bytes of the kernel-table format.
    PINNED_TABLES = {
        "homodyne": (["--observable", "number", "--dim", "4", "--points", "21"],
                     "ff6fe214edf4901696e4131cb50b4ddf1d1699b96c4c2f9dae5288953c54c43f"),
        "parity": (["--n", "1", "--d", "2", "--grid-max", "1.5", "--points", "17"],
                   "1bd05c88c7ffe7eb8dc1f175eef100c8a4338c62f45377de380eab5f5278c3aa"),
        "kerr": (["--n", "1", "--d", "0", "--eps", "0.1", "--psi", "0.25", "--points", "16"],
                 "40c743a718548352e7ebaf03c4ad01583a6b7a73b295d69d5ca880ebd2d8edba"),
        "spin": (["--s", "1", "--observable", "number", "--direction", "0.6,0,0.8"],
                 "52afe2ae4b89ad5de1e3ba3746652ac0b2593ef81948457d27d58d509b0bd26c"),
        "nonunitary": (["--observable", "matrix_unit:2,1", "--dim", "4", "--n", "1",
                        "--points", "12"],
                       "930a0a1cc2759cb577177b92cf51fbd371842b3215863a9d9286f65b7c537eb0"),
    }

    @pytest.mark.parametrize("family", list(PINNED_TABLES))
    def test_table_bytes_are_pinned(self, capsys, tmp_path, family):
        flags, digest = self.PINNED_TABLES[family]
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", family, *flags,
                                  "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_nonunitary_ladder_phase(self, capsys, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, ["kernels", "eval", "--family", "nonunitary",
                                  "--observable", "matrix_unit:1,0", "--dim", "6",
                                  "--n", "1", "--points", "8", "--out", str(out)])
        assert code == 0
        _, data = self.csv_rows(out)
        # Tr[|0><1| R_1(phi)^dag] = conj(first upper-diagonal entry) = e^{-i phi}
        assert abs(complex(data[0, 1], data[0, 2]) - 1.0) <= 1e-12
        assert abs(complex(data[2, 1], data[2, 2]) - np.exp(-1j * np.pi / 2.0)) <= 1e-12
