"""File formats: states, isometries, and reports.

States and isometries are stored as JSON with the layout spelled out and
the matrix split into real and imaginary row-major arrays, so files are
diffable, human-readable, and language-neutral.  Floats use Python's
shortest round-trip repr, which makes write-then-read bit-exact.  Reports
are JSON with sorted keys and no timestamps, so identical inputs and seeds
produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import __version__
from .layout import SystemLayout
from .tensor import DensityOperator, Isometry, _finite

STATE_FORMAT = "privsq-state/1"


class StateFileError(ValueError):
    """Raised with a diagnostic naming the file, offset, and violated invariant."""


def _matrix_payload(mat: np.ndarray) -> dict[str, Any]:
    return {
        "re": [[float(x) for x in row] for row in mat.real],
        "im": [[float(x) for x in row] for row in mat.imag],
    }


def _matrix_from_payload(obj: dict, path: str) -> np.ndarray:
    try:
        # checked before re + 1j * im, which turns an infinite entry into NaN
        re = _finite(obj["re"], "'re'", float)
        im = _finite(obj["im"], "'im'", float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFileError(f"{path}: missing or malformed 're'/'im' arrays ({exc})") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise StateFileError(
            f"{path}: 're' shape {re.shape} and 'im' shape {im.shape} must be equal 2-d arrays"
        )
    return re + 1j * im


def _layout_from_payload(obj: Any, path: str, field: str = "layout") -> SystemLayout:
    try:
        systems = [(str(lbl), d) for lbl, d in obj]
        for lbl, d in systems:
            if type(d) is not int:  # not a float, bool or string that int() would take
                raise TypeError(f"dimension {d!r} of system {lbl!r} is not a JSON integer")
        return SystemLayout(systems)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{path}: invalid {field!r} entry ({exc})") from exc


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_state(path: str, rho: DensityOperator) -> None:
    payload = {
        "format": STATE_FORMAT,
        "kind": "density",
        "layout": [[lbl, d] for lbl, d in rho.layout.systems],
        **_matrix_payload(rho.matrix),
    }
    _write_json(path, payload)


def write_isometry(path: str, v: Isometry) -> None:
    payload = {
        "format": STATE_FORMAT,
        "kind": "isometry",
        "input_layout": [[lbl, d] for lbl, d in v.input_layout.systems],
        "output_layout": [[lbl, d] for lbl, d in v.output_layout.systems],
        **_matrix_payload(v.matrix),
    }
    _write_json(path, payload)


def _load_payload(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"{path}: cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno} (offset {exc.pos})"
        ) from exc
    if not isinstance(payload, dict):
        raise StateFileError(f"{path}: top level must be a JSON object")
    fmt = payload.get("format")
    if fmt != STATE_FORMAT:
        raise StateFileError(f"{path}: unsupported format {fmt!r}, expected {STATE_FORMAT!r}")
    return payload


def read_state(path: str) -> DensityOperator:
    """Parse a density-operator file; any violated invariant is named."""
    payload = _load_payload(path)
    if payload.get("kind", "density") != "density":
        raise StateFileError(f"{path}: kind {payload.get('kind')!r} is not a density operator")
    if "layout" not in payload:
        raise StateFileError(f"{path}: missing 'layout'")
    layout = _layout_from_payload(payload["layout"], path)
    mat = _matrix_from_payload(payload, path)
    try:
        return DensityOperator(mat, layout)
    except ValueError as exc:
        raise StateFileError(f"{path}: invalid density operator: {exc}") from exc


def read_isometry(path: str) -> Isometry:
    payload = _load_payload(path)
    if payload.get("kind") != "isometry":
        raise StateFileError(f"{path}: kind {payload.get('kind')!r} is not an isometry")
    for field in ("input_layout", "output_layout"):
        if field not in payload:
            raise StateFileError(f"{path}: missing {field!r}")
    vin = _layout_from_payload(payload["input_layout"], path, "input_layout")
    vout = _layout_from_payload(payload["output_layout"], path, "output_layout")
    mat = _matrix_from_payload(payload, path)
    try:
        return Isometry(mat, vin, vout)
    except ValueError as exc:
        raise StateFileError(f"{path}: invalid isometry: {exc}") from exc


def write_report(path: str, report: dict) -> None:
    """Deterministic JSON rendering; the caller supplies seed and tolerances."""
    _write_json(path, {"tool": f"privsq {__version__}", **report})


__all__ = [
    "STATE_FORMAT",
    "StateFileError",
    "write_state",
    "write_isometry",
    "read_state",
    "read_isometry",
    "write_report",
]
