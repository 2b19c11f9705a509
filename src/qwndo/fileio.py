"""File formats shared by the CLI: density-matrix state files and CSV helpers."""

from __future__ import annotations

import json

import numpy as np

from .walk import validate_density_matrix

STATE_FORMAT_VERSION = 1


def save_state(rho: np.ndarray, path, n_steps: int | None = None) -> None:
    """Write a density matrix as JSON with separate real/imaginary parts."""
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    if n_steps is None:
        n_steps = d // 2 - 1
    doc = {
        "format_version": STATE_FORMAT_VERSION,
        "n_steps": int(n_steps),
        "dim": int(d),
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_state(path) -> tuple[np.ndarray, int]:
    """Read a state file; returns (rho, n_steps). The state must be a density matrix."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"state file is not valid JSON: {exc}") from exc
    for field in ("format_version", "n_steps", "dim", "re", "im"):
        if field not in doc:
            raise ValueError(f"state file missing field {field!r}")
    if doc["format_version"] != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format_version {doc['format_version']}")
    d = doc["dim"]
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(f"state file field 're'/'im' shape does not match dim {d}")
    n_steps = doc["n_steps"]
    if not isinstance(n_steps, int) or isinstance(n_steps, bool) or 2 * (n_steps + 1) != d:
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
