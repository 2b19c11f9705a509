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
and contracts states and outcome weights with them in O(n_bases * d). Both
contractions go through per-outcome gather tables built once per table and
take the four terms of each outcome one by one; they are exact to the bit
against the 2 x 2 outer-product form because every coefficient is real or
purely imaginary and every coherence pairs an up site (first slot) with a
down site (second slot).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import fileio

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

    The contractions read and write through gather tables built once per
    table (`_gather`): for every outcome (n, j), with i0, i1 = index[n, j],
    the positions in the float view of rho of its two populations
    rho[i0, i0], rho[i1, i1] and of the one part of each coherence
    rho[i0, i1], rho[i1, i0] that its coefficients can see, and the
    adjoint's positions in M. They take each of the four terms
    c_s rho[i_s, i_t] conj(c_t) on its own, in real arithmetic with the
    rounding of the full complex product, because the tables have two
    properties:

    - every coefficient is real or purely imaginary (1, 1/sqrt 2, +-i/sqrt 2
      or 0), so a population term is the real (|c_s| rho_ss) |c_s|, a
      coherence term is one real part of rho times two real factors, and
      the first coefficient, c0, is real and positive, so the adjoint's
      cross term w c0 conj(c1) is the pair of real products (w |c0|) conj(c1);
    - every coherence has one orientation: i0 is an up site (even index) and
      i1 a down site (odd index), so the adjoint sums the cross terms into
      the (even, odd) entries M[i0, i1] alone, in outcome order, and mirrors
      them onto M[i1, i0] by conjugation; the diagonal is not mirrored.
    """

    index: np.ndarray  # (n_bases, d, 2) integer column indices
    coef: np.ndarray  # (n_bases, d, 2) complex coefficients

    @property
    def n_bases(self) -> int:
        return self.index.shape[0]

    @property
    def dim(self) -> int:
        return self.index.shape[1]

    @functools.cached_property
    def _gather(self) -> SimpleNamespace:
        """Per-outcome positions and real factors of the two contractions (read-only).

        probe holds, for each outcome, four positions in the float view of
        rho: rho[i0, i0], then the real or imaginary part of rho[i0, i1] and
        of rho[i1, i0], whichever c1 is (real for a zero c1), then
        rho[i1, i1]; k01/k10 are the real factors of those two parts, Re c1
        and Re c1 where c1 is real, Im c1 and -Im c1 where it is imaginary.
        slots are the adjoint's four float-view positions of M per outcome:
        Re M[i0, i0], Re and Im M[i0, i1], Re M[i1, i1], and left/right the
        real factors of the four slot values w left right:
        (|c0|, |c0|, |c0|, |c1|) and (|c0|, Re conj(c1), Im conj(c1), |c1|);
        a0/a1 are |c0|/|c1|.
        """
        d = self.dim
        i0, i1 = self.index[..., 0], self.index[..., 1]
        cross, cross_t = 2 * (i0 * d + i1), 2 * (i1 * d + i0)
        diag0, diag1 = 2 * (i0 * (d + 1)), 2 * (i1 * (d + 1))
        c0, c1 = self.coef[..., 0], self.coef[..., 1]
        a0, a1, c1bar = np.abs(c0), np.abs(c1), c1.conj()
        imag = c1.imag != 0
        tables = SimpleNamespace(
            probe=np.array([diag0, cross + imag, cross_t + imag, diag1]),
            k01=np.where(imag, c1.imag, c1.real), k10=np.where(imag, -c1.imag, c1.real),
            slots=np.stack([diag0, cross, cross + 1, diag1], axis=-1).ravel(),
            left=np.stack([a0, a0, a0, a1], axis=-1),
            right=np.stack([a0, c1bar.real, c1bar.imag, a1], axis=-1),
            a0=a0, a1=a1,
        )
        for arr in vars(tables).values():
            arr.setflags(write=False)
        return tables

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """diag(U^n rho U^n^dag) for every basis n, shape (n_bases, d).

        Each outcome sums its terms t_st = c_s rho[i_s, i_t] conj(c_t) as
        (t00 + t01) + (t10 + t11), in real arithmetic: with x01 and x10 the
        parts of the coherences that `_gather` probes,
        t01 = (|c0| x01) k01 and t10 = (k10 x10) |c0|. The complex products
        round the same way, since each of their terms that this drops is a
        product with an exact zero: c0 is real and c1 real or imaginary.
        """
        d = self.dim
        if rho.shape != (d, d):
            raise ValueError(f"rho shape {rho.shape} does not match basis dimension {d}")
        g = self._gather
        flat = np.ascontiguousarray(rho, dtype=np.complex128).reshape(-1)
        p0, x01, x10, p1 = flat.view(np.float64).take(g.probe)
        return (g.a0 * p0 * g.a0 + (g.a0 * x01) * g.k01) + ((g.k10 * x10) * g.a0 + g.a1 * p1 * g.a1)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """M(a, b) = sum_nj w[n, j] U^n(j, a) conj(U^n(j, b)) for real weights w.

        The cross term w c0 conj(c1) is formed in real arithmetic as
        (w |c0|) Re conj(c1) and (w |c0|) Im conj(c1), the same bits as the
        complex product because c0 is real and positive.
        """
        d, g = self.dim, self._gather
        w = np.asarray(w)
        if w.shape != (self.n_bases, d):
            raise ValueError(f"w shape {w.shape}, expected (n_bases, d) = {(self.n_bases, d)}")
        vals = (w[..., None] * g.left) * g.right
        half = np.bincount(g.slots, vals.ravel(), 2 * d * d).view(np.complex128).reshape(d, d)
        m = half + half.conj().T
        m.reshape(-1)[:: d + 1] = half.diagonal()
        return m


@functools.lru_cache(maxsize=64)
def all_basis_unitaries(n_steps: int) -> BasisTables:
    """Tables of all 2*(N+1)+1 bases in index order, built from the pairing above.

    Row j = 2l + c of basis 2k-1 (2k) holds K_Y[c] (K_X[c]) on (up, l) and
    (down, (l-(k-1)) mod (N+1)); basis 0 holds coefficient 1 on column j.
    Built once per N, read-only, and shared with their gather tables.
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
    index.setflags(write=False)
    coef.setflags(write=False)
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
        bad = np.flatnonzero(~np.isfinite(self.probs).all(axis=1))
        if bad.size:
            raise ValueError(f"basis n={bad[0]}: non-finite probability")
        bad = np.flatnonzero((self.probs < 0).any(axis=1))
        if bad.size:
            raise ValueError(f"basis n={bad[0]}: negative probability")
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
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho has a non-finite entry; invalid state")
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
    fileio.write_json(path, {
        "format_version": DATASET_FORMAT_VERSION,
        "n_steps": ds.n_steps,
        "shots": ds.shots,
        "seed": ds.seed,
        "bases": [
            {"index": n, "probs": [float(p) for p in ds.probs[n]]}
            for n in range(ds.probs.shape[0])
        ],
    })


def load_dataset(path) -> MeasurementDataset:
    """Read a dataset file, validating schema and basis completeness."""
    doc = fileio.read_json(path, "dataset", DatasetFormatError)
    require = functools.partial(fileio.require, what="dataset", error=DatasetFormatError)
    version = require(doc, "format_version", int)
    if version != DATASET_FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format_version {version}")
    n_steps = require(doc, "n_steps", int)
    if n_steps < 0:
        raise DatasetFormatError(f"field 'n_steps' must be >= 0, got {n_steps}")
    shots = doc.get("shots")
    if shots is not None and (not isinstance(shots, int) or isinstance(shots, bool) or shots <= 0):
        raise DatasetFormatError("field 'shots' must be a positive integer or null")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise DatasetFormatError("field 'seed' must be an integer or null")
    bases = require(doc, "bases", list)
    expected = n_bases(n_steps)
    entries = {}
    for entry in bases:
        if not isinstance(entry, dict):
            raise DatasetFormatError("each basis entry must be an object")
        idx = require(entry, "index", int)
        if not 0 <= idx < expected:
            raise DatasetFormatError(f"basis index {idx} out of range")
        if idx in entries:
            raise DatasetFormatError(f"duplicate basis n={idx}")
        entries[idx] = entry
    # checked before the (n_bases, d) array exists, whose size n_steps alone sets
    missing = next((n for n in range(expected) if n not in entries), None)
    if missing is not None:
        raise DatasetFormatError(
            f"missing basis n={missing}: field 'n_steps' = {n_steps} needs {expected} bases, "
            f"the file has {len(bases)}"
        )
    d = 2 * (n_steps + 1)
    probs = np.empty((expected, d))
    for idx, entry in entries.items():
        vec = require(entry, "probs", list)
        if len(vec) != d:
            raise DatasetFormatError(f"basis n={idx}: expected {d} probabilities, got {len(vec)}")
        try:
            probs[idx] = [float(p) for p in vec]
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"basis n={idx}: non-numeric 'probs' entry") from exc
        if not np.all(np.isfinite(probs[idx])):
            raise DatasetFormatError(f"basis n={idx}: non-finite 'probs' entry")
    try:
        return MeasurementDataset(n_steps=n_steps, probs=probs, shots=shots, seed=seed)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
