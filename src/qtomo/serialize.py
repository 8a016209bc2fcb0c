"""File formats: operator/state JSON, quorum JSON, record CSV, result JSON.

Every JSON document carries a version field; loaders reject unknown
versions and malformed shapes instead of guessing. Writers are
deterministic byte-for-byte for identical inputs: fixed key order, fixed
float formatting, fixed newlines.
"""

from __future__ import annotations

import csv
import json
from typing import List, Sequence, Union

import numpy as np

from .errors import InvalidSpecError
from .frames import DualSet, FrameElement, SettingLabel, SpanningSet
from .operators import Operator
from .recon import EstimationResult, ReconstructedMatrix
from .sampler import MeasurementRecord
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


def _entries(mat: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in mat.ravel()]


def _matrix_from(payload: dict) -> np.ndarray:
    dim = payload.get("dim")
    entries = payload.get("entries")
    if not isinstance(dim, int) or dim < 1 or not isinstance(entries, list):
        raise InvalidSpecError("matrix document needs integer dim and an entries list")
    if len(entries) != dim * dim:
        raise InvalidSpecError(
            f"entries count {len(entries)} does not match dim^2 = {dim * dim}"
        )
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
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
    elements = []
    for el in frame.elements:
        elements.append({
            "label": {"quorum": el.label.quorum, "coords": list(el.label.coords)},
            "weight": float(el.weight),
            "dim": frame.dim,
            "entries": _entries(el.op.mat),
        })
    _dump_json(path, {
        "version": FORMAT_VERSION,
        "kind": "quorum",
        "role": "dual" if isinstance(frame, DualSet) else "spanning",
        "dim": frame.dim,
        "elements": elements,
    })


def load_quorum(path) -> SpanningSet:
    payload = _load_json(path)
    if payload.get("kind") != "quorum":
        raise InvalidSpecError(f"{path}: not a quorum document")
    dim = payload.get("dim")
    raw = payload.get("elements")
    if not isinstance(raw, list) or not raw:
        raise InvalidSpecError(f"{path}: quorum document needs a non-empty elements list")
    elements = []
    for entry in raw:
        label = entry.get("label", {})
        elements.append(FrameElement(
            label=SettingLabel(str(label.get("quorum", "")),
                               tuple(label.get("coords", ()))),
            weight=float(entry.get("weight", 1.0)),
            op=Operator(_matrix_from(entry)),
        ))
    cls = DualSet if payload.get("role") == "dual" else SpanningSet
    return cls(dim, tuple(elements))


def records_to_csv(path, records: Sequence[MeasurementRecord]) -> None:
    """One record per row; unused setting slots stay empty; 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in records:
            coords = list(r.setting.coords)
            if len(coords) > _MAX_SETTING or len(r.outcome) != 1:
                raise InvalidSpecError(
                    "record shape does not fit the CSV schema (3 settings, 1 outcome)"
                )
            row = [r.quorum]
            row += [format(c, ".17g") for c in coords]
            row += [""] * (_MAX_SETTING - len(coords))
            row.append(format(r.outcome[0], ".17g"))
            writer.writerow(row)


def records_from_csv(path) -> List[MeasurementRecord]:
    out: List[MeasurementRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise InvalidSpecError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            if len(row) != len(_CSV_HEADER):
                raise InvalidSpecError(f"{path}: malformed row {row}")
            quorum = row[0]
            try:
                coords = tuple(float(c) for c in row[1:4] if c != "")
                outcome = (float(row[4]),)
            except ValueError:
                raise InvalidSpecError(
                    f"{path}: line {reader.line_num}: non-numeric field in row {row}"
                ) from None
            out.append(MeasurementRecord(
                quorum=quorum,
                setting=SettingLabel(quorum, coords),
                outcome=outcome,
            ))
    return out


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
