"""State-quality metrics: Uhlmann fidelity, purity, and classical similarity."""

from __future__ import annotations

import numpy as np

EIG_CLAMP = 1e-10  # roundoff negatives below this are a bug, not noise
HERMITIAN_TOL = 1e-10  # largest |M - M^H| entry that `hermitian_sqrt` takes as roundoff


def hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition."""
    mat = np.asarray(mat)
    if not np.isfinite(mat).all():
        raise ValueError("matrix has a non-finite entry")
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    w, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if w.min() < -EIG_CLAMP:
        raise ValueError(f"matrix is not PSD: eigenvalue {w.min():.3e}")
    root = (vecs * np.sqrt(np.clip(w, 0.0, None))) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 in [0, 1]."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    for name, mat in (("rho", rho), ("sigma", sigma)):
        if not np.isfinite(mat).all():
            raise ValueError(f"{name} has a non-finite entry")
    root = hermitian_sqrt(rho)
    inner = root @ sigma @ root
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if w.min() < -EIG_CLAMP:
        raise ValueError(f"fidelity kernel is not PSD: eigenvalue {w.min():.3e}")
    value = float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
    return min(value, 1.0)


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.trace(rho @ rho).real)


def purity_error(rho: np.ndarray, target: np.ndarray) -> float:
    """|tr(rho^2) - tr(target^2)|."""
    return abs(purity(rho) - purity(target))


def classical_similarity(a, b) -> float:
    """Mean Bhattacharyya overlap of two `MeasurementDataset`s' outcome
    distributions `probs`: sum sqrt(Pa*Pb) / n_bases."""
    pa, pb = a.probs, b.probs
    if pa.shape != pb.shape:
        raise ValueError(f"shape mismatch: {pa.shape} vs {pb.shape}")
    return float(np.sum(np.sqrt(pa * pb)) / pa.shape[0])
