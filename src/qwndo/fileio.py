"""The file layer: the JSON reader and writer behind every file format, state files and CSV.

State files, datasets (`measurement`), checkpoints (`ndo`), training
reports (`training`) and config files (`cli`) all go through `read_json`
and `write_json`, and versioned files read their header fields through
`require`, so a malformed file fails the same way, a ValueError, whatever its kind.
"""

from __future__ import annotations

import json

import numpy as np

from .walk import validate_density_matrix

STATE_FORMAT_VERSION = 1


def read_json(path, kind: str) -> dict:
    """The JSON object in `path`; a ValueError names `kind` when the file is not one."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} {path} must hold a JSON object at the top level")
    return doc


def require(doc: dict, field: str, kind, what: str):
    """doc[field] of type `kind` (a JSON boolean is no integer), else a ValueError naming `what`."""
    if field not in doc:
        raise ValueError(f"{what} missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} field {field!r} has wrong type {type(value).__name__}")
    return value


def write_json(path, doc: dict) -> None:
    """Write `doc` with one-space indentation and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_state(rho: np.ndarray, path) -> None:
    """Write a density matrix as JSON with separate real/imaginary parts.

    The file's n_steps is d/2 - 1, the only value `load_state` accepts for dim d.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    write_json(path, {
        "format_version": STATE_FORMAT_VERSION,
        "n_steps": d // 2 - 1,
        "dim": d,
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    })


def load_state(path) -> tuple[np.ndarray, int]:
    """Read a state file; returns (rho, n_steps). The state must be a density matrix."""
    doc = read_json(path, "state file")
    version = require(doc, "format_version", int, "state file")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format_version {version}")
    n_steps = require(doc, "n_steps", int, "state file")
    d = require(doc, "dim", int, "state file")
    parts = {}
    for field in ("re", "im"):
        value = require(doc, field, list, "state file")
        try:
            parts[field] = np.array(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"state file field {field!r} is not a numeric array") from exc
    re, im = parts["re"], parts["im"]
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(f"state file field 're'/'im' shape does not match dim {d}")
    if 2 * (n_steps + 1) != d:
        raise ValueError(f"state file field 'n_steps' = {n_steps!r} does not match dim {d}")
    rho = re + 1j * im
    validate_density_matrix(rho)
    return rho, n_steps


def write_csv(path, header: list[str], rows) -> None:
    """Plain CSV with a fixed header; floats at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return "%.17g" % cell
    return str(cell)
