"""RecordBatch: validation, the frozen CSV bytes, and thread-count invariance."""

import functools
import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtomo import sampler
from qtomo.cli import main
from qtomo.errors import InvalidSpecError
from qtomo.estimators import (
    EstimatorConfig,
    homodyne_estimate,
    parity_estimate,
    pauli_estimate,
)
from qtomo.operators import identity, pauli
from qtomo.recon import reconstruct_matrix
from qtomo.records import FAMILIES, RecordBatch
from qtomo._parallel import CHUNK_SHOTS
from qtomo.sampler import (
    RngStream,
    sample_displaced_parity,
    sample_homodyne,
    sample_kerr_phase,
    sample_pauli,
    sample_spin,
)
from qtomo.serialize import records_from_csv, records_to_csv
from qtomo.states import StateSpec, make_state

# Two chunks, the second one short.
SHOTS = CHUNK_SHOTS + 17

# SHA-256 of each family's CSV at RngStream(20000606, substream=1), taken from
# the per-row csv.writer that the block writer replaced.
GOLDEN_CSV = {
    "homodyne": "870c79fe759e60da47ea8375ea08987600a56d2d18129bdfc3ab5e97e06409c7",
    "parity": "3c4112cd9e8b0e242af3130a265fcf9c109d1915654d1ff690e3cee2571c2bf7",
    "spin": "cda46fe91c723375939fba669894a9c1677abf2de7465f07dd8f3ba2f6c5c1bd",
    "pauli": "7c025ed2bdecdc3180e855de65e32e8981e428feeda798a88f3497272b53443f",
    "kerr": "d8105bba53c728da82e5c84b99625b2473e2eb73f8501c1ab053b53f6766f1b7",
}


def _sample(family: str) -> RecordBatch:
    rng = RngStream(seed=20000606, substream=1)
    cfg = EstimatorConfig(dim=8)
    coherent = make_state(StateSpec(kind="coherent", dim=8, beta=0.5))
    if family == "homodyne":
        return sample_homodyne(coherent, SHOTS, rng, cfg)
    if family == "parity":
        return sample_displaced_parity(coherent, SHOTS, rng, cfg)
    if family == "kerr":
        return sample_kerr_phase(coherent, SHOTS, rng, cfg)
    if family == "spin":
        return sample_spin(make_state(StateSpec(kind="random_mixed", dim=3, seed=5)), 2,
                           SHOTS, rng)
    return sample_pauli(make_state(StateSpec(kind="random_mixed", dim=2, seed=3)), SHOTS, rng)


_default_threads_sample = functools.lru_cache(maxsize=None)(_sample)


@pytest.mark.parametrize("family", sorted(GOLDEN_CSV))
def test_csv_bytes_are_pinned(family, tmp_path):
    path = tmp_path / "records.csv"
    records_to_csv(path, _default_threads_sample(family))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[family]


@pytest.mark.parametrize("family", sorted(GOLDEN_CSV))
def test_one_thread_gives_the_same_batch(family, monkeypatch):
    default = _default_threads_sample(family)
    monkeypatch.setenv("QTOMO_THREADS", "1")
    serial = _sample(family)
    assert len(serial) == SHOTS
    assert serial == default


@pytest.mark.parametrize("family", sorted(GOLDEN_CSV))
def test_solves_are_row_local(family, monkeypatch):
    # an odd block size cuts the rows where no default block does: a solve that
    # depends on its block moves a bit here
    default = _default_threads_sample(family)
    monkeypatch.setattr(sampler, "ROW_BLOCK", 4099)
    assert _sample(family) == default


# hypothesis strategies -------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308])
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _column(allowed):
    return st.one_of(FINITE, EDGES) if allowed is None else st.sampled_from(allowed)


@st.composite
def valid_parts(draw):
    quorum = draw(st.sampled_from(sorted(FAMILIES)))
    family = FAMILIES[quorum]
    n = draw(st.integers(1, 12))
    settings_ = draw(arrays(np.float64, (n, family.arity), elements=_column(family.settings)))
    outcomes = draw(arrays(np.float64, n, elements=_column(family.outcomes)))
    return quorum, settings_, outcomes


@st.composite
def malformed_parts(draw):
    quorum, settings_, outcomes = draw(valid_parts())
    family = FAMILIES[quorum]
    n = len(outcomes)
    faults = ["arity", "length", "setting not finite", "outcome not finite"]
    if family.outcomes is not None:
        faults.append("outcome outside the set")
    if family.settings is not None:
        faults.append("setting outside the set")
    fault = draw(st.sampled_from(faults))
    settings_, outcomes = settings_.copy(), outcomes.copy()
    if fault == "arity":
        k = draw(st.integers(0, 4).filter(lambda k: k != family.arity))
        settings_ = np.zeros((n, k))
    elif fault == "length":
        outcomes = np.append(outcomes, outcomes[:1])
    elif fault == "setting not finite":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, family.arity - 1))
        settings_[i, j] = draw(NON_FINITE)
    elif fault == "outcome not finite":
        outcomes[draw(st.integers(0, n - 1))] = draw(NON_FINITE)
    elif fault == "outcome outside the set":
        outcomes[draw(st.integers(0, n - 1))] = draw(
            FINITE.filter(lambda v: v not in family.outcomes))
    else:
        settings_[draw(st.integers(0, n - 1)), 0] = draw(
            FINITE.filter(lambda v: v not in family.settings))
    return quorum, settings_, outcomes


@settings(max_examples=150, deadline=None)
@given(valid_parts())
def test_csv_round_trip_is_bit_exact(parts):
    batch = RecordBatch(*parts)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        records_to_csv(path, batch)
        assert records_from_csv(path) == batch


@settings(max_examples=150, deadline=None)
@given(malformed_parts())
def test_malformed_batch_is_refused(parts):
    with pytest.raises(InvalidSpecError):
        RecordBatch(*parts)


def test_batch_is_read_only_and_compares_bits():
    settings_ = np.array([[0.0], [1.0]])
    batch = RecordBatch("homodyne", settings_, [0.5, -0.0])
    settings_[0, 0] = 9.0  # the batch holds its own copy
    assert batch.settings[0, 0] == 0.0
    with pytest.raises(ValueError):
        batch.outcomes[0] = 1.0
    assert batch == RecordBatch("homodyne", [[0.0], [1.0]], [0.5, -0.0])
    assert batch != RecordBatch("homodyne", [[0.0], [1.0]], [0.5, 0.0])
    assert batch != RecordBatch("kerr", [[0.0], [1.0]], [0.5, -0.0])


# inputs that used to pass silently ----------------------------------------------

GOOD_ROWS = {
    "parity": ([[0.1, 0.2], [0.3, -0.1], [0.2, 0.2]], [1.0, -1.0, 1.0]),
    "homodyne": ([[0.5], [1.0], [2.0]], [0.1, -0.3, 0.7]),
    "pauli": ([[0.0], [1.0], [2.0]], [0.5, -0.5, 0.5]),
}
# (quorum, settings of the bad record, its outcome)
BAD_RECORDS = [
    ("parity", [0.1, 0.1], 5.0),  # gave a reconstructed trace of 84
    ("parity", [0.1, 0.1], float("nan")),
    ("homodyne", [0.5], float("nan")),  # passed np.clip and made every element NaN
    ("pauli", [7.0], 0.5),  # was counted in n_samples but left out of the mean
    ("pauli", [0.0], 3.0),
]
CFG4 = EstimatorConfig(dim=4)
ESTIMATORS = {
    "parity": lambda b: parity_estimate(identity(4), b, CFG4),
    "homodyne": lambda b: homodyne_estimate(identity(4), b, CFG4),
    "pauli": lambda b: pauli_estimate(identity(2), b),
}


def _bad_batch(quorum, row, outcome):
    settings_, outcomes = GOOD_ROWS[quorum]
    return RecordBatch(quorum, settings_ + [row], outcomes + [outcome])


def _bad_csv(path, quorum, row, outcome):
    settings_, outcomes = GOOD_ROWS[quorum]
    lines = ["quorum,s1,s2,s3,o1"]
    for s, o in zip(settings_ + [row], outcomes + [outcome]):
        slots = [repr(x) for x in s] + [""] * (3 - len(s))
        lines.append(",".join([quorum] + slots + [repr(o)]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("quorum,row,outcome", BAD_RECORDS)
def test_bad_record_refused_by_reconstruct_matrix(quorum, row, outcome):
    n_max, cfg = (1, None) if quorum == "pauli" else (3, CFG4)
    with pytest.raises(InvalidSpecError):
        reconstruct_matrix(_bad_batch(quorum, row, outcome), quorum, n_max, cfg=cfg)


@pytest.mark.parametrize("quorum,row,outcome", BAD_RECORDS)
def test_bad_record_refused_by_estimator(quorum, row, outcome):
    with pytest.raises(InvalidSpecError):
        ESTIMATORS[quorum](_bad_batch(quorum, row, outcome))


@pytest.mark.parametrize("quorum,row,outcome", BAD_RECORDS)
def test_bad_record_refused_by_csv_reader(quorum, row, outcome, tmp_path):
    path = _bad_csv(tmp_path / "records.csv", quorum, row, outcome)
    with pytest.raises(InvalidSpecError, match=r"records\.csv: "):
        records_from_csv(path)


@pytest.mark.parametrize("quorum,row,outcome", BAD_RECORDS)
def test_bad_record_csv_is_a_usage_error(quorum, row, outcome, tmp_path, capsys):
    path = _bad_csv(tmp_path / "records.csv", quorum, row, outcome)
    # pauli fixes n_max = 1 and refuses --n-max
    flags = [] if quorum == "pauli" else ["--n-max", "3"]
    code = main(["reconstruct", "--method", quorum, "--records", str(path), *flags,
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "records.csv" in err
    assert "Traceback" not in err


def test_pauli_n_samples_counts_the_averaged_records():
    rho = make_state(StateSpec(kind="random_mixed", dim=2, seed=3))
    records = sample_pauli(rho, 301, RngStream(307))
    for ax in ("x", "y", "z"):
        assert pauli_estimate(pauli(ax), records).n_samples == len(records) == 301


# one quorum per file ----------------------------------------------------------

@pytest.mark.parametrize("rows", [
    ["homodyne,0.5,,,1.0", "kerr,0.5,,,1.0"],  # same arity
    ["spin,0,0,1,0.5", "homodyne,0.5,,,1.0"],  # different arity
])
def test_mixed_quorum_csv_is_refused(rows, tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text("quorum,s1,s2,s3,o1\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvalidSpecError, match="line 3: quorum"):
        records_from_csv(path)
    method = rows[0].split(",")[0]
    # spin fixes n_max = 2s and refuses --n-max
    flags = ["--s", "0.5"] if method == "spin" else ["--n-max", "1"]
    code = main(["reconstruct", "--method", method, "--records", str(path), *flags,
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "line 3: quorum" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "quorum,s1,s2,s3,o1\n",  # no records
    "quorum,s1,s2,s3,o1\ntoy,,,,1.0\n",  # unknown family
    "quorum,s1,s2,s3,o1\nhomodyne,0.5,0.1,,1.0\n",  # a setting the family does not have
])
def test_csv_without_one_known_quorum_is_refused(text, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(text)
    with pytest.raises(InvalidSpecError):
        records_from_csv(path)
