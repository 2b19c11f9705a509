"""Interferometric measurement bases and dataset generation for the walk.

The family holds 2*(N+1)+1 bases. Base 0 is the computational (reference)
basis. For k = 1..N+1, base 2k-1 pairs each up-site l with the down-site
(l-(k-1)) mod (N+1) in the sigma_y sense and base 2k in the sigma_x sense:

    <v[2k]_(+,l)|   = (|up,l> + |down,(l-(k-1)) mod (N+1)>)^dag / sqrt(2)
    <v[2k-1]_(+,l)| = (|up,l> + i|down,(l-(k-1)) mod (N+1)>)^dag / sqrt(2)

Rows of each basis matrix U^n are these bras, ordered coin-major like the
reference basis, so outcome probabilities are diag(U^n rho U^n^dag). Every
row has at most two nonzeros, so `BasisTables` stores each basis as two
(column index, coefficient) pairs per row instead of a dense d x d matrix,
and contracts states and outcome weights with them in O(n_bases * d).
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


@dataclass(frozen=True)
class BasisTables:
    """All bases as 2-sparse rows: U^n(j, index[n, j, s]) = coef[n, j, s], s = 0, 1.

    Every other entry of U^n is zero. A row with a single nonzero (basis 0)
    carries coefficient 0 in its second slot.
    """

    index: np.ndarray  # (n_bases, d, 2) integer column indices
    coef: np.ndarray  # (n_bases, d, 2) complex coefficients

    @property
    def n_bases(self) -> int:
        return self.index.shape[0]

    @property
    def dim(self) -> int:
        return self.index.shape[1]

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """diag(U^n rho U^n^dag) for every basis n, shape (n_bases, d)."""
        d = self.dim
        if rho.shape != (d, d):
            raise ValueError(f"rho shape {rho.shape} does not match basis dimension {d}")
        c = self.coef
        sub = rho[self.index[..., :, None], self.index[..., None, :]]  # (n_b, d, 2, 2)
        return (c[..., :, None] * sub * c.conj()[..., None, :]).sum(axis=(-2, -1)).real

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """M(a, b) = sum_nj w[n, j] U^n(j, a) conj(U^n(j, b)) for real weights w."""
        d = self.dim
        c = self.coef
        vals = (w[..., None, None] * c[..., :, None] * c.conj()[..., None, :]).ravel()
        flat = (self.index[..., :, None] * d + self.index[..., None, :]).ravel()
        m = np.bincount(flat, vals.real, d * d) + 1j * np.bincount(flat, vals.imag, d * d)
        return m.reshape(d, d)


def all_basis_unitaries(n_steps: int) -> BasisTables:
    """Tables of all 2*(N+1)+1 bases in index order, built from the pairing above.

    Row j = 2l + c of basis 2k-1 (2k) holds K_Y[c] (K_X[c]) on (up, l) and
    (down, (l-(k-1)) mod (N+1)); basis 0 holds coefficient 1 on column j.
    """
    n_sites = n_steps + 1
    d = 2 * n_sites
    index = np.empty((n_bases(n_steps), d, 2), dtype=np.intp)
    coef = np.zeros((n_bases(n_steps), d, 2), dtype=np.complex128)
    index[0] = np.arange(d)[:, None]
    coef[0, :, 0] = 1.0
    sites = np.arange(n_sites)
    partner = (sites[None, :] - sites[:, None]) % n_sites  # [k-1, l]
    index[1:, :, 0] = np.repeat(2 * sites, 2)
    for first, gate in ((1, K_Y), (2, K_X)):
        index[first::2, :, 1] = np.repeat(2 * partner + 1, 2, axis=1)
        coef[first::2] = np.tile(gate, (n_sites, 1))
    return BasisTables(index=index, coef=coef)


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

    All bases are measured with one `BasisTables.probabilities` call. Shot
    mode draws one multinomial of size `shots` per basis n from an RNG
    seeded with SeedSequence((seed, n)), so bases are independent of each
    other and of evaluation order, and distinct seeds give distinct streams.
    With seed None, shot mode draws fresh entropy once and records it as the
    dataset's seed, so the saved file reproduces the draw. Stored values are
    empirical frequencies, not counts.
    """
    if shots is not None and shots <= 0:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    probs = all_basis_unitaries(n_steps).probabilities(rho)
    worst = probs.min()
    if worst < -CLAMP_TOL:
        raise ValueError(f"probability {worst:.3e} below -{CLAMP_TOL:.0e}; invalid state")
    probs = np.clip(probs, 0.0, None)
    if shots is not None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        for n, p in enumerate(probs):
            rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
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
    """doc[field], which must be of type `kind`; JSON booleans are not integers."""
    if field not in doc:
        raise DatasetFormatError(f"missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):
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
    if shots is not None and (not isinstance(shots, int) or isinstance(shots, bool) or shots <= 0):
        raise DatasetFormatError("field 'shots' must be a positive integer or null")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
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
