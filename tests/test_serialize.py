"""File format round trips, validation, and byte determinism."""

import json

import numpy as np
import pytest

from qtomo.errors import InvalidSpecError
from qtomo.estimators import EstimatorConfig
from qtomo.frames import DualSet, SettingLabel, SpanningSet
from qtomo.operators import pauli
from qtomo.recon import reconstruct_matrix
from qtomo.records import RecordBatch
from qtomo.sampler import (
    RngStream,
    sample_displaced_parity,
    sample_kerr_phase,
    sample_spin,
)
from qtomo.serialize import (
    load_quorum,
    load_state,
    records_from_csv,
    records_to_csv,
    save_estimation,
    save_quorum,
    save_reconstruction,
    save_state,
)
from qtomo.states import StateSpec, make_state


def pauli_quorum():
    ops = [pauli(ax).mat / np.sqrt(2.0) for ax in ("x", "y", "z")]
    ops.append(np.eye(2, dtype=complex) / np.sqrt(2.0))
    return SpanningSet(ops, [0.5, 0.5, 0.5, 1.0],
                       [SettingLabel("pauli", (float(i),)) for i in range(4)])


class TestStateAndOperator:
    def test_state_round_trip(self, tmp_path):
        rho = make_state(StateSpec(kind="coherent", dim=6, beta=0.4 + 0.2j))
        p = tmp_path / "state.json"
        save_state(p, rho)
        out = load_state(p)
        assert out.dim == 6
        assert np.array_equal(out.mat, rho.mat)

    def test_kind_mismatch(self, tmp_path):
        p = tmp_path / "quorum.json"
        save_quorum(p, pauli_quorum())
        with pytest.raises(InvalidSpecError, match="not a state document"):
            load_state(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"version": 2, "kind": "state", "dim": 1,
                                 "entries": [[1.0, 0.0]]}))
        with pytest.raises(InvalidSpecError):
            load_state(p)

    def test_entry_count_mismatch(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"version": 1, "kind": "state", "dim": 2,
                                 "entries": [[1.0, 0.0]] * 3}))
        with pytest.raises(InvalidSpecError):
            load_state(p)

    def test_non_object_document(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(InvalidSpecError):
            load_state(p)

    def test_byte_identical_rewrites(self, tmp_path):
        rho = make_state(StateSpec(kind="coherent", dim=5, beta=0.3))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_state(a, rho)
        save_state(b, rho)
        assert a.read_bytes() == b.read_bytes()


class TestQuorum:
    def test_spanning_round_trip(self, tmp_path):
        frame = pauli_quorum()
        p = tmp_path / "quorum.json"
        save_quorum(p, frame)
        out = load_quorum(p)
        assert isinstance(out, SpanningSet) and not isinstance(out, DualSet)
        assert out.dim == 2 and len(out) == 4
        assert out.labels == frame.labels
        assert np.array_equal(out.weights, frame.weights)
        assert np.array_equal(out.ops, frame.ops)

    def test_dual_role_preserved(self, tmp_path):
        frame = pauli_quorum()
        dual = DualSet(frame.ops, frame.weights, frame.labels)
        p = tmp_path / "dual.json"
        save_quorum(p, dual)
        assert isinstance(load_quorum(p), DualSet)

    def test_empty_elements_rejected(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"version": 1, "kind": "quorum", "role": "spanning",
                                 "dim": 2, "elements": []}))
        with pytest.raises(InvalidSpecError):
            load_quorum(p)

    def test_wrong_kind(self, tmp_path):
        rho = make_state(StateSpec(kind="fock", dim=2, n=0))
        p = tmp_path / "state.json"
        save_state(p, rho)
        with pytest.raises(InvalidSpecError):
            load_quorum(p)


class TestRecordsCsv:
    def sample_records(self):
        """One batch per family with two (parity), one (Kerr) and three (spin) settings."""
        dim = 8
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.4))
        cfg = EstimatorConfig(dim=dim)
        up = make_state(StateSpec(kind="spin_pure", dim=2, twice_s=1, direction=(0, 0, 1)))
        return [sample_displaced_parity(rho, 50, RngStream(701), cfg),
                sample_kerr_phase(rho, 50, RngStream(702), cfg),
                sample_spin(up, 1, 50, RngStream(703))]

    def test_round_trip_exact(self, tmp_path):
        for recs in self.sample_records():
            p = tmp_path / f"{recs.quorum}.csv"
            records_to_csv(p, recs)
            out = records_from_csv(p)
            assert out == recs  # 17 significant digits round-trips doubles exactly

    def test_byte_identical_rewrites(self, tmp_path):
        for recs in self.sample_records():
            a = tmp_path / "a.csv"
            b = tmp_path / "b.csv"
            records_to_csv(a, recs)
            records_to_csv(b, recs)
            assert a.read_bytes() == b.read_bytes()

    def test_header_validation(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("quorum,s1,s2,o1\nparity,0,0,1\n")
        with pytest.raises(InvalidSpecError):
            records_from_csv(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("quorum,s1,s2,s3,o1\nparity,0.0,0.0\n")
        with pytest.raises(InvalidSpecError):
            records_from_csv(p)

    def test_non_numeric_field_names_file_and_line(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("quorum,s1,s2,s3,o1\nparity,0.0,0.0,,1\nparity,0.5,abc,,-1\n")
        with pytest.raises(InvalidSpecError, match=r"records\.csv: line 3"):
            records_from_csv(p)

    def test_quoted_fields_parse(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text('quorum,s1,s2,s3,o1\n"parity","0.5",0.25,,"-1"\nparity,0,0,,1\n')
        recs = records_from_csv(p)
        assert recs == RecordBatch("parity", [[0.5, 0.25], [0.0, 0.0]], [-1.0, 1.0])

    @pytest.mark.parametrize("row,message", [
        ("parity,0.5,abc,,-1", r"line 5: non-numeric field 'abc' in column s2"),
        ("parity,0.5,0", r"line 5: malformed row of 3 field\(s\), not 5"),
        ("parity,0.5,0,,,1", r"line 5: malformed row of 6 field\(s\), not 5"),
        ("homodyne,0.5,,,1", r"line 5: quorum 'homodyne' in a file of 'parity'"),
        ("\u03c9,0.5,0,,1", r"line 5: unreadable field '\u03c9' in column quorum"),
    ])
    def test_error_line_counts_skipped_empty_lines(self, tmp_path, row, message):
        p = tmp_path / "records.csv"
        p.write_text(f"quorum,s1,s2,s3,o1\nparity,0,0,,1\n\nparity,0,0,,1\n{row}\n",
                     encoding="utf-8")
        with pytest.raises(InvalidSpecError, match=r"records\.csv: " + message):
            records_from_csv(p)

    def test_valid_file_is_parsed_once(self, tmp_path, monkeypatch):
        recs = self.sample_records()[0]
        p = tmp_path / "records.csv"
        records_to_csv(p, recs)
        calls = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            calls.append(kwargs.get("usecols"))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        assert records_from_csv(p) == recs
        assert calls == [None]

    def test_second_quorum_is_told_before_its_malformed_row(self, tmp_path):
        # the row does not parse as a homodyne record, and its quorum is the fault to tell
        p = tmp_path / "records.csv"
        p.write_text("quorum,s1,s2,s3,o1\nhomodyne,0.5,,,1\n\npauli,x,,,0.5\n")
        with pytest.raises(InvalidSpecError,
                           match=r"records\.csv: line 4: quorum 'pauli' in a file of 'homodyne'"):
            records_from_csv(p)

    @pytest.mark.parametrize("first", ["\u03c9", "toolongname", ""])
    def test_first_name_that_is_not_a_family_is_told_at_its_line(self, tmp_path, first):
        p = tmp_path / "records.csv"
        p.write_text(f"quorum,s1,s2,s3,o1\n\n{first},0.5,0,,1\nparity,0,0,,1\n",
                     encoding="utf-8")
        with pytest.raises(InvalidSpecError, match=r"records\.csv: line 3: "):
            records_from_csv(p)

    def test_invalid_utf8_rejected(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_bytes(b"quorum,s1,s2,s3,o1\nparity,0,0,,1\nparity,0,0,,\xff\n")
        with pytest.raises(InvalidSpecError, match=r"records\.csv: .*utf-8"):
            records_from_csv(p)

    def test_oversized_setting_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            records_to_csv(tmp_path / "bad.csv",
                           RecordBatch("spin", [[1.0, 2.0, 3.0, 4.0]], [0.0]))

    def test_empty_setting_slots_stay_empty(self, tmp_path):
        recs = RecordBatch("homodyne", [[0.5]], [1.25])
        p = tmp_path / "records.csv"
        records_to_csv(p, recs)
        lines = p.read_text().splitlines()
        assert lines[0] == "quorum,s1,s2,s3,o1"
        assert lines[1] == "homodyne,0.5,,,1.25"


class TestResultDocuments:
    def test_reconstruction_document(self, tmp_path):
        dim = 4
        cfg = EstimatorConfig(dim=dim)
        rho = make_state(StateSpec(kind="coherent", dim=dim, beta=0.3))
        records = sample_kerr_phase(rho, 500, RngStream(704), cfg)
        rec = reconstruct_matrix(records, "kerr", n_max=dim - 1, cfg=cfg)
        p = tmp_path / "recon.json"
        save_reconstruction(p, rec)
        doc = json.loads(p.read_text())
        assert doc["version"] == 1 and doc["kind"] == "reconstruction"
        assert doc["dim"] == dim and doc["method"] == "kerr"
        # diagonal elements are unreachable for this method and are omitted
        assert len(doc["elements"]) == dim * dim - dim
        ks = {(e["k"], e["n"]) for e in doc["elements"]}
        assert all(k != n for k, n in ks)
        assert doc["diagnostics"]["diagonal"] == "not estimated"

    def test_estimation_document(self, tmp_path):
        from qtomo.recon import estimate

        res = estimate(np.array([0.0, 2.0]))
        p = tmp_path / "est.json"
        save_estimation(p, "q", res, extra={"note": 7})
        doc = json.loads(p.read_text())
        assert doc["kind"] == "estimation" and doc["observable"] == "q"
        assert doc["mean"] == [1.0, 0.0]
        assert doc["std_error"] == 1.0 and doc["n_samples"] == 2
        assert doc["diagnostics"] == {"note": 7}
