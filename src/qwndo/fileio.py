"""The file layer: one reader for every JSON file, its numeric arrays, state files and CSV.

State files, datasets (`measurement`), checkpoints (`ndo`) and config files
(`cli`) are all opened by `reading`, and their loaders read fields through
`require` and arrays through `numbers`, so a malformed file of any kind fails
the same way, a ValueError that starts with the file's kind and path.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from .walk import validate_density_matrix

STATE_FORMAT_VERSION = 1


@contextlib.contextmanager
def reading(path, kind: str, version: int | None = None):
    """Yield the JSON object in `path`, checking its `format_version` unless `version`
    is None; every ValueError of the `with` block leaves as f"{kind} {path}: {exc}"."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
                raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("must hold a JSON object at the top level")
        if version is not None and require(doc, "format_version", int) != version:
            raise ValueError(f"unsupported format_version {doc['format_version']}")
        yield doc
    except ValueError as exc:
        raise ValueError(f"{kind} {path}: {exc}") from exc


def require(doc: dict, field: str, kind):
    """doc[field] of type `kind` (a JSON boolean is no integer), else a ValueError naming `field`."""
    if field not in doc:
        raise ValueError(f"missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def numbers(value, field: str) -> np.ndarray:
    """`value`, a list of JSON numbers or rectangular nested lists of them, as a float
    array; a string, boolean or null entry or a ragged row is a ValueError naming `field`."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # np.array reads "0.5", true and null (as nan) as floats; JSON numbers only
    if arr is None or any(type(x) not in (int, float) for x in np.array(value, dtype=object).flat):
        raise ValueError(f"{field} is not a numeric array")
    return arr


def write_json(path, doc: dict) -> None:
    """Write `doc` with one-space indentation and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_state(rho: np.ndarray, path) -> None:
    """Write a density matrix as JSON with separate real/imaginary parts.

    The file's n_steps is d/2 - 1, the only value `load_state` accepts for dim d,
    so rho must be d x d with d = 2(N+1), N >= 0; anything else is rejected
    before the file is opened. Whether rho is a density matrix is left to
    `load_state`.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0] if rho.ndim else 0
    if rho.shape != (d, d) or d < 2 or d % 2:
        raise ValueError(f"a walk state is d x d with d = 2(N+1), N >= 0; got shape {rho.shape}")
    write_json(path, {
        "format_version": STATE_FORMAT_VERSION,
        "n_steps": d // 2 - 1,
        "dim": d,
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    })


def load_state(path) -> tuple[np.ndarray, int]:
    """Read a state file; returns (rho, n_steps). The state must be a density matrix."""
    with reading(path, "state file", STATE_FORMAT_VERSION) as doc:
        n_steps = require(doc, "n_steps", int)
        d = require(doc, "dim", int)
        re, im = (numbers(require(doc, field, list), f"field {field!r}") for field in ("re", "im"))
        if re.shape != (d, d) or im.shape != (d, d):
            raise ValueError(f"field 're'/'im' shape does not match dim {d}")
        if 2 * (n_steps + 1) != d:
            raise ValueError(f"field 'n_steps' = {n_steps!r} does not match dim {d}")
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
