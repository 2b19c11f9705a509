"""Interferometric measurement bases and dataset generation for the walk.

The family holds 2*(N+1)+1 bases. Base 0 is the computational (reference)
basis. For k = 1..N+1, base 2k-1 pairs each up-site l with the down-site
(l-(k-1)) mod (N+1) in the sigma_y sense and base 2k in the sigma_x sense:

    <v[2k]_(+,l)|   = (|up,l> + |down,(l-(k-1)) mod (N+1)>)^dag / sqrt(2)
    <v[2k-1]_(+,l)| = (|up,l> + i|down,(l-(k-1)) mod (N+1)>)^dag / sqrt(2)

Rows of each basis matrix are these bras, ordered coin-major like the
reference basis, so outcome probabilities are diag(U^n rho U^n^dag).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

K_X = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
K_Y = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=np.complex128) / np.sqrt(2.0)

CLAMP_TOL = 1e-12  # roundoff negatives are zeroed; anything worse is a bug

DATASET_FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Raised when a dataset file does not follow the expected schema."""


def n_bases(n_steps: int) -> int:
    """Number of measurement bases, 2*(N+1)+1."""
    return 2 * (n_steps + 1) + 1


def cyclic_shift(n_steps: int) -> np.ndarray:
    """Conditioned cyclic shift S': |down, l> -> |down, (l-1) mod (N+1)>, up fixed."""
    n_sites = n_steps + 1
    d = 2 * n_sites
    s = np.zeros((d, d), dtype=np.complex128)
    for l in range(n_sites):
        s[2 * l, 2 * l] = 1.0
        s[2 * ((l - 1) % n_sites) + 1, 2 * l + 1] = 1.0
    return s


def basis_unitary(n: int, n_steps: int) -> np.ndarray:
    """Base-transformation matrix U^n whose rows are the bras of basis n.

    n = 0 is the identity. For n = 2k-1 (sigma_y) and n = 2k (sigma_x) the
    transpose of S'^(k-1) pairs row (c, l) with down-site (l-(k-1)) mod (N+1),
    matching the basis-vector convention in the module docstring.
    """
    if not 0 <= n <= 2 * (n_steps + 1):
        raise ValueError(f"basis index {n} out of range [0, {2 * (n_steps + 1)}]")
    d = 2 * (n_steps + 1)
    if n == 0:
        return np.eye(d, dtype=np.complex128)
    k = (n + 1) // 2
    gate = K_Y if n % 2 == 1 else K_X
    cycle = np.linalg.matrix_power(cyclic_shift(n_steps).T, k - 1)
    return np.kron(np.eye(n_steps + 1), gate) @ cycle


def all_basis_unitaries(n_steps: int) -> list[np.ndarray]:
    """All 2*(N+1)+1 basis matrices in index order."""
    return [basis_unitary(n, n_steps) for n in range(n_bases(n_steps))]


def measure_distribution(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Outcome probabilities diag(U rho U^dag) in the given basis."""
    if rho.shape != basis.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, basis {basis.shape}")
    probs = np.einsum("ij,jk,ik->i", basis, rho, basis.conj()).real
    worst = probs.min()
    if worst < -CLAMP_TOL:
        raise ValueError(f"probability {worst:.3e} below -{CLAMP_TOL:.0e}; invalid state")
    return np.clip(probs, 0.0, None)


@dataclass(frozen=True)
class MeasurementDataset:
    """Per-basis outcome distributions: probs[n, j] for basis n and outcome j."""

    n_steps: int
    probs: np.ndarray  # (n_bases, 2*(N+1))
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        expected = (n_bases(self.n_steps), 2 * (self.n_steps + 1))
        if self.probs.shape != expected:
            raise ValueError(f"probs shape {self.probs.shape}, expected {expected}")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be nonnegative")
        sums = self.probs.sum(axis=1)
        off = np.max(np.abs(sums - 1.0))
        if off > 1e-9:
            raise ValueError(f"basis distribution sums deviate from 1 by {off:.3e}")


def generate_dataset(
    rho: np.ndarray,
    n_steps: int,
    shots: int | None = None,
    seed: int | None = None,
) -> MeasurementDataset:
    """Measure rho in every basis; exact probabilities or multinomial frequencies.

    Shot mode draws one multinomial of size `shots` per basis from an RNG
    seeded with seed XOR basis index, so bases are independent of evaluation
    order. Stored values are empirical frequencies, not counts.
    """
    d = 2 * (n_steps + 1)
    if rho.shape != (d, d):
        raise ValueError(f"rho shape {rho.shape} does not match n_steps={n_steps}")
    if shots is not None and shots <= 0:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.empty((n_bases(n_steps), d))
    for n, basis in enumerate(all_basis_unitaries(n_steps)):
        p = measure_distribution(rho, basis)
        if shots is None:
            probs[n] = p
        else:
            rng = np.random.default_rng((seed or 0) ^ n)
            probs[n] = rng.multinomial(shots, p / p.sum()) / shots
    return MeasurementDataset(n_steps=n_steps, probs=probs, shots=shots, seed=seed)


def save_dataset(ds: MeasurementDataset, path) -> None:
    """Write the dataset as JSON (schema: format_version/n_steps/shots/seed/bases)."""
    doc = {
        "format_version": DATASET_FORMAT_VERSION,
        "n_steps": ds.n_steps,
        "shots": ds.shots,
        "seed": ds.seed,
        "bases": [
            {"index": n, "probs": [float(p) for p in ds.probs[n]]}
            for n in range(ds.probs.shape[0])
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _require(doc: dict, field: str, kind) -> object:
    if field not in doc:
        raise DatasetFormatError(f"missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind):
        raise DatasetFormatError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def load_dataset(path) -> MeasurementDataset:
    """Read a dataset file, validating schema and basis completeness."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError("top level must be an object")
    version = _require(doc, "format_version", int)
    if version != DATASET_FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format_version {version}")
    n_steps = _require(doc, "n_steps", int)
    if n_steps < 0:
        raise DatasetFormatError(f"field 'n_steps' must be >= 0, got {n_steps}")
    shots = doc.get("shots")
    if shots is not None and (not isinstance(shots, int) or shots <= 0):
        raise DatasetFormatError(f"field 'shots' must be a positive integer or null")
    seed = doc.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise DatasetFormatError("field 'seed' must be an integer or null")
    bases = _require(doc, "bases", list)
    d = 2 * (n_steps + 1)
    probs = np.full((n_bases(n_steps), d), np.nan)
    for entry in bases:
        if not isinstance(entry, dict):
            raise DatasetFormatError("each basis entry must be an object")
        idx = _require(entry, "index", int)
        if not 0 <= idx < n_bases(n_steps):
            raise DatasetFormatError(f"basis index {idx} out of range")
        if not np.all(np.isnan(probs[idx])):
            raise DatasetFormatError(f"duplicate basis n={idx}")
        vec = _require(entry, "probs", list)
        if len(vec) != d:
            raise DatasetFormatError(f"basis n={idx}: expected {d} probabilities, got {len(vec)}")
        try:
            probs[idx] = [float(p) for p in vec]
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"basis n={idx}: non-numeric 'probs' entry") from exc
        if not np.all(np.isfinite(probs[idx])):
            raise DatasetFormatError(f"basis n={idx}: non-finite 'probs' entry")
    for n in range(n_bases(n_steps)):
        if np.any(np.isnan(probs[n])):
            raise DatasetFormatError(f"missing basis n={n}")
    try:
        return MeasurementDataset(n_steps=n_steps, probs=probs, shots=shots, seed=seed)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
