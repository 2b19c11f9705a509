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
contractions go through one per-outcome position table built once per table:
the probabilities gather four float-view entries of rho per outcome, and the
adjoint, their transpose, scatters outcome weights into the same positions.
Both take the terms of each outcome one by one, exact to the bit against the
2 x 2 outer product because every coefficient is real or purely imaginary.

Dataset files are read through `fileio.reading`, so each of their errors
names the file; `MeasurementDataset` checks the values.
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


def n_bases(n_steps: int) -> int:
    """Number of measurement bases, 2*(N+1)+1."""
    return 2 * (n_steps + 1) + 1


@dataclass(frozen=True, eq=False)
class BasisTables:
    """All bases as 2-sparse rows: U^n(j, index[n, j, s]) = coef[n, j, s], s = 0, 1.

    Every other entry of U^n is zero. A row with a single nonzero (basis 0)
    carries coefficient 0 in its second slot.

    Both contractions go through one position table built once per table
    (`_gather`): for every outcome (n, j), with i0, i1 = index[n, j], the
    positions in the float view of rho of its two populations rho[i0, i0],
    rho[i1, i1] and of the one part of each coherence rho[i0, i1],
    rho[i1, i0] that its coefficients can see. `probabilities` gathers from
    these positions and `adjoint`, the transpose of that map, scatters into
    them. Each takes the four terms c_s rho[i_s, i_t] conj(c_t) on its own,
    in real arithmetic with the rounding of the full complex product,
    because every coefficient is real or purely imaginary (1, 1/sqrt 2,
    +-i/sqrt 2 or 0) and the first one, c0, is real and positive: a
    population term is the real (|c_s| rho_ss) |c_s|, and a coherence term
    is one real part of rho times two real factors.

    Every coherence also has one orientation: i0 is an up site (even index)
    and i1 a down site (odd index). Correctness does not depend on it; it
    makes the adjoint's two coherence entries M[i0, i1] and M[i1, i0] sum
    the same terms in the same order, so M is exactly Hermitian.
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
        """Per-outcome positions and real factors of both contractions (read-only).

        probe holds, for each outcome, four positions in the float view of
        rho (or of conj(M), for the adjoint): rho[i0, i0], then the real or
        imaginary part of rho[i0, i1] and of rho[i1, i0], whichever c1 is
        (real for a zero c1), then rho[i1, i1]; k01/k10 are the real factors
        of those two parts, Re c1 and Re c1 where c1 is real, Im c1 and
        -Im c1 where it is imaginary; a0/a1 are |c0|/|c1|.
        """
        d = self.dim
        i0, i1 = self.index[..., 0], self.index[..., 1]
        cross, cross_t = 2 * (i0 * d + i1), 2 * (i1 * d + i0)
        c1 = self.coef[..., 1]
        imag = c1.imag != 0
        tables = SimpleNamespace(
            probe=np.array([2 * (i0 * (d + 1)), cross + imag, cross_t + imag, 2 * (i1 * (d + 1))]),
            k01=np.where(imag, c1.imag, c1.real), k10=np.where(imag, -c1.imag, c1.real),
            a0=np.abs(self.coef[..., 0]), a1=np.abs(c1),
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

        The transpose of `probabilities`: each outcome scatters w times the
        four factors of its probed entries, (w |c0|) |c0|, (w |c0|) k01,
        (w |c0|) k10 and (w |c1|) |c1|, into the same four positions. The sum
        is conj(M), as c0 is real: w c0 c1 = conj(M[i0, i1]) lands on
        rho[i0, i1]'s position and w c0 conj(c1) = conj(M[i1, i0]) on rho[i1, i0]'s.
        """
        d, g = self.dim, self._gather
        w = np.asarray(w)
        if w.shape != (self.n_bases, d):
            raise ValueError(f"w shape {w.shape}, expected (n_bases, d) = {(self.n_bases, d)}")
        w0 = w * g.a0
        vals = np.array([w0 * g.a0, w0 * g.k01, w0 * g.k10, (w * g.a1) * g.a1])
        flat = np.bincount(g.probe.ravel(), vals.ravel(), 2 * d * d)
        # conj, not .T: M stays C-ordered, so callers can write through reshape(-1)
        return flat.view(np.complex128).reshape(d, d).conj()


@functools.lru_cache(maxsize=64)
def all_basis_unitaries(n_steps: int) -> BasisTables:
    """Tables of all 2*(N+1)+1 bases in index order, built from the pairing above.

    Row j = 2l + c of basis 2k-1 (2k) holds K_Y[c] (K_X[c]) on (up, l) and
    (down, (l-(k-1)) mod (N+1)); basis 0 holds coefficient 1 on column j.
    Built once per N, read-only, and shared with their position table.
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


@dataclass(frozen=True, eq=False)
class MeasurementDataset:
    """Per-basis outcome distributions: probs[n, j] for basis n and outcome j.

    n_steps is a non-negative int; shots (positive) and seed (non-negative) are
    each None or an int. None of the three may be a bool. Two datasets are
    equal only if they are the same object; compare `probs` for equal values.
    """

    n_steps: int
    probs: np.ndarray  # (n_bases, 2*(N+1))
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        # checked first: n_steps sets the expected shape
        if not (type(self.n_steps) is int and self.n_steps >= 0):
            raise ValueError(f"field 'n_steps' must be a non-negative integer, got {self.n_steps!r}")
        if self.shots is not None and not (type(self.shots) is int and self.shots > 0):
            raise ValueError(f"field 'shots' must be a positive integer or None, got {self.shots!r}")
        if self.seed is not None and not (type(self.seed) is int and self.seed >= 0):
            raise ValueError(f"field 'seed' must be a non-negative integer or None, got {self.seed!r}")
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
    with fileio.reading(path, "dataset", DATASET_FORMAT_VERSION) as doc:
        n_steps = fileio.require(doc, "n_steps", int)
        if n_steps < 0:
            raise ValueError(f"field 'n_steps' must be >= 0, got {n_steps}")
        bases = fileio.require(doc, "bases", list)
        expected = n_bases(n_steps)
        entries = {}
        for entry in bases:
            if not isinstance(entry, dict):
                raise ValueError("each basis entry must be an object")
            idx = fileio.require(entry, "index", int)
            if not 0 <= idx < expected:
                raise ValueError(f"basis index {idx} out of range")
            if idx in entries:
                raise ValueError(f"duplicate basis n={idx}")
            entries[idx] = entry
        # checked before the (n_bases, d) array exists, whose size n_steps alone sets
        missing = next((n for n in range(expected) if n not in entries), None)
        if missing is not None:
            raise ValueError(
                f"missing basis n={missing}: field 'n_steps' = {n_steps} needs {expected} bases, "
                f"the file has {len(bases)}"
            )
        d = 2 * (n_steps + 1)
        probs = np.empty((expected, d))
        for idx, entry in entries.items():
            vec = fileio.numbers(fileio.require(entry, "probs", list), f"basis n={idx}: 'probs'")
            if vec.shape != (d,):
                raise ValueError(f"basis n={idx}: expected {d} probabilities, got shape {vec.shape}")
            probs[idx] = vec
        return MeasurementDataset(n_steps=n_steps, probs=probs, shots=doc.get("shots"),
                                  seed=doc.get("seed"))
