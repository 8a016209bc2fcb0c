"""File formats: operator/state JSON, quorum JSON, record CSV, result JSON.

Every JSON document carries a version field; loaders reject unknown
versions and malformed shapes instead of guessing. Writers are
deterministic byte-for-byte for identical inputs: fixed key order, fixed
float formatting, fixed newlines.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import warnings
from typing import Union

import numpy as np

from .errors import InvalidSpecError
from .frames import DualSet, SettingLabel, SpanningSet
from .operators import Operator
from .recon import EstimationResult, ReconstructedMatrix
from .records import FAMILIES, RecordBatch
from .states import DensityMatrix

__all__ = [
    "save_state",
    "load_state",
    "save_operator",
    "load_operator",
    "save_quorum",
    "load_quorum",
    "records_to_csv",
    "records_from_csv",
    "save_reconstruction",
    "save_estimation",
]

FORMAT_VERSION = 1
_CSV_HEADER = ["quorum", "s1", "s2", "s3", "o1"]
_MAX_SETTING = 3
_CSV_BLOCK = 4096  # rows per %-format call


def _entries(mat: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in mat.ravel()]


def _matrix_from(payload: dict) -> np.ndarray:
    dim = payload.get("dim")
    entries = payload.get("entries")
    if type(dim) is not int or dim < 1 or not isinstance(entries, list):  # refuses bools
        raise InvalidSpecError("matrix document needs integer dim and an entries list")
    if len(entries) != dim * dim:
        raise InvalidSpecError(
            f"entries count {len(entries)} does not match dim^2 = {dim * dim}"
        )
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(_finite_number, entry))):
            raise InvalidSpecError(f"matrix entry {entry!r} is not a pair of finite numbers")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def _finite_number(x) -> bool:
    """A JSON number that is a finite double; abs() <= max also refuses NaN and huge ints."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidSpecError(f"{path}: not a UTF-8 JSON document ({exc})") from None
    if not isinstance(payload, dict):
        raise InvalidSpecError(f"{path}: expected a JSON object")
    if payload.get("version") != FORMAT_VERSION:
        raise InvalidSpecError(f"{path}: unsupported version {payload.get('version')!r}")
    return payload


def _dump_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def save_state(path, rho: DensityMatrix) -> None:
    _dump_json(path, {
        "version": FORMAT_VERSION, "kind": "state", "dim": rho.dim,
        "entries": _entries(rho.mat),
    })


def load_state(path) -> DensityMatrix:
    payload = _load_json(path)
    if payload.get("kind") != "state":
        raise InvalidSpecError(f"{path}: not a state document")
    return DensityMatrix(_matrix_from(payload))


def save_operator(path, op: Operator) -> None:
    _dump_json(path, {
        "version": FORMAT_VERSION, "kind": "operator", "dim": op.dim,
        "entries": _entries(op.mat),
    })


def load_operator(path) -> Operator:
    payload = _load_json(path)
    if payload.get("kind") != "operator":
        raise InvalidSpecError(f"{path}: not an operator document")
    return Operator(_matrix_from(payload))


def save_quorum(path, frame: SpanningSet) -> None:
    elements = [{
        "label": {"quorum": label.quorum, "coords": list(label.coords)},
        "weight": float(weight),
        "dim": frame.dim,
        "entries": _entries(op),
    } for op, weight, label in zip(frame.ops, frame.weights, frame.labels)]
    _dump_json(path, {
        "version": FORMAT_VERSION,
        "kind": "quorum",
        "role": "dual" if isinstance(frame, DualSet) else "spanning",
        "dim": frame.dim,
        "elements": elements,
    })


def _quorum_element(entry, dim: int):
    """(matrix, weight, label) of one quorum element whose fields were checked."""
    if not isinstance(entry, dict):
        raise InvalidSpecError("not an object")
    label = entry.get("label", {})
    if not isinstance(label, dict):
        raise InvalidSpecError("label is not an object")
    quorum, coords = label.get("quorum", ""), label.get("coords", [])
    if not (isinstance(quorum, str) and isinstance(coords, list)
            and all(map(_finite_number, coords))):
        raise InvalidSpecError("label needs a string quorum and a list of finite numbers as coords")
    weight = entry.get("weight", 1.0)
    if not (_finite_number(weight) and weight > 0):
        raise InvalidSpecError(f"weight must be a finite number > 0, got {weight!r}")
    if entry.get("dim") != dim:
        raise InvalidSpecError(f"has dim {entry.get('dim')!r}, the document has dim {dim}")
    return _matrix_from(entry), weight, SettingLabel(quorum, coords)


def load_quorum(path) -> SpanningSet:
    payload = _load_json(path)
    if payload.get("kind") != "quorum":
        raise InvalidSpecError(f"{path}: not a quorum document")
    role, dim, raw = payload.get("role"), payload.get("dim"), payload.get("elements")
    if role not in ("spanning", "dual"):
        raise InvalidSpecError(f"{path}: quorum role must be spanning or dual, got {role!r}")
    if type(dim) is not int or dim < 1:
        raise InvalidSpecError(f"{path}: quorum dim must be an integer >= 1, got {dim!r}")
    if not isinstance(raw, list) or not raw:
        raise InvalidSpecError(f"{path}: quorum document needs a non-empty elements list")
    elements = []
    for i, entry in enumerate(raw):
        try:
            elements.append(_quorum_element(entry, dim))
        except InvalidSpecError as exc:
            raise InvalidSpecError(f"{path}: element {i}: {exc}") from None
    ops, weights, labels = zip(*elements)
    return (DualSet if role == "dual" else SpanningSet)(np.array(ops), weights, labels)


def records_to_csv(path, batch: RecordBatch) -> None:
    """One record per row; unused setting slots stay empty; 17 significant digits.

    Rows are %-formatted a block at a time; "%.17g" % x gives the same
    characters as format(x, ".17g").
    """
    arity = batch.settings.shape[1]
    row = batch.quorum + ",%.17g" * arity + "," * (_MAX_SETTING - arity) + ",%.17g\n"
    table = np.column_stack([batch.settings, batch.outcomes])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        for lo in range(0, len(table), _CSV_BLOCK):
            block = table[lo : lo + _CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def records_from_csv(path) -> RecordBatch:
    """The records of a CSV that holds one quorum, parsed by numpy's C reader.

    The first row names the quorum. Every error names the file, and the
    line where it can be told.
    """
    with open(path, "rb") as fh:  # decoding only the header line; numpy decodes the rest
        header = fh.readline().decode("utf-8", "replace").rstrip("\r\n").split(",")
    if header != _CSV_HEADER:
        raise InvalidSpecError(f"{path}: unexpected CSV header {header}")

    def read(**kwargs) -> np.ndarray:
        try:
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1, comments=None,
                              quotechar='"', encoding="utf-8", **kwargs)
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: {_parse_error(path, exc)}") from None

    # One byte more than the longest family name, so a longer name cannot compare equal.
    name_dtype = f"S{max(map(len, FAMILIES)) + 1}"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns on a file without rows
        quorums = read(dtype=name_dtype, usecols=0)
    if len(quorums) == 0:
        raise InvalidSpecError(f"{path}: no records")
    quorum = quorums[0].decode()
    if quorum not in FAMILIES:
        raise InvalidSpecError(f"{path}: line {_line(path, 0)}: unknown quorum {quorum!r}; "
                               f"known families: {', '.join(FAMILIES)}")
    other = np.flatnonzero(quorums != quorums[0])
    if len(other):
        raise InvalidSpecError(f"{path}: line {_line(path, other[0])}: quorum "
                               f"{quorums[other[0]].decode()!r} in a file of {quorum!r} records")
    arity = FAMILIES[quorum].arity
    slots = _CSV_HEADER[1 : 1 + _MAX_SETTING]
    fields = ([("quorum", name_dtype)]
              + [(s, "f8" if i < arity else "S1") for i, s in enumerate(slots)]
              + [("o1", "f8")])
    table = read(dtype=fields)
    for s in slots[arity:]:
        used = np.flatnonzero(table[s] != b"")
        if len(used):
            raise InvalidSpecError(f"{path}: line {_line(path, used[0])}: {quorum} records "
                                   f"have {arity} setting(s), but {s} holds a value")
    try:
        return RecordBatch(quorum, np.stack([table[s] for s in slots[:arity]], axis=1),
                           table["o1"])
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"{path}: {exc}") from None


def _line(path, row: int) -> int:
    """The file line of data row `row` (from 0), counting the empty lines numpy skips."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = (n for n, text in enumerate(fh, start=1) if n > 1 and text.rstrip("\r\n"))
        return next(itertools.islice(lines, row, None))


def _parse_error(path, exc: ValueError) -> str:
    """numpy's parse error, told at the file line of the row it names.

    numpy counts data rows without the empty lines it skips: from 1 when a
    row has the wrong number of fields, from 0 when a field does not convert.
    """
    found = re.search(r"requires \d+ columns but (\d+) were found at row (\d+)", str(exc))
    if found:
        return (f"line {_line(path, int(found[2]) - 1)}: malformed row of {found[1]} "
                f"field(s), not {len(_CSV_HEADER)}")
    found = re.search(r"could not convert string (.*) to (\S+) at row (\d+), column (\d+)",
                      str(exc))
    if found:
        kind = "non-numeric" if found[2] == "float64" else "unreadable"
        return (f"line {_line(path, int(found[3]))}: {kind} field {found[1]} "
                f"in column {_CSV_HEADER[int(found[4]) - 1]}")
    return str(exc)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(value.real), float(value.imag)]
    return value


def save_reconstruction(path, rec: ReconstructedMatrix) -> None:
    elements = []
    for k in range(rec.dim):
        for n in range(rec.dim):
            res = rec.elements[k][n]
            if res is None:
                continue
            elements.append({
                "k": k, "n": n,
                "mean": [float(res.mean.real), float(res.mean.imag)],
                "std_error": float(res.std_error),
                "n_samples": int(res.n_samples),
            })
    _dump_json(path, {
        "version": FORMAT_VERSION,
        "kind": "reconstruction",
        "dim": rec.dim,
        "method": rec.method,
        "elements": elements,
        "diagnostics": _jsonable(rec.diagnostics),
    })


def save_estimation(path, observable: str, result: EstimationResult,
                    extra: Union[dict, None] = None) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "kind": "estimation",
        "observable": observable,
        "mean": [float(result.mean.real), float(result.mean.imag)],
        "std_error": float(result.std_error),
        "n_samples": int(result.n_samples),
    }
    if extra:
        payload["diagnostics"] = _jsonable(extra)
    _dump_json(path, payload)
