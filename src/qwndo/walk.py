"""Open 1D discrete-time quantum walk evolved as a density matrix.

Basis convention: coin-major within site, index(c, l) = 2*l + c with
c = 0 (up) and c = 1 (down), so each pair of lattice sites owns a
contiguous 2x2 coin block. An N-step walk lives on N+1 sites, total
dimension d = 2*(N+1). The up-shift wraps |up, N> -> |up, 0> to stay
unitary on the finite lattice; a walk started from site 0 never reaches
the wrap source before the final step, which `evolve` checks at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

NOISE_KINDS = ("none", "mixing", "dephasing", "depolarizing")


def dim(n_steps: int) -> int:
    """Hilbert-space dimension 2*(N+1) of an N-step walk."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    return 2 * (n_steps + 1)


def validate_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> None:
    """Raise ValueError unless rho is finite, Hermitian, unit-trace and PSD within atol."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > atol:
        raise ValueError(f"not Hermitian: max deviation {herm:.3e} > {atol:.1e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > atol:
        raise ValueError(f"trace deviates from 1 by {tr:.3e} > {atol:.1e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -atol:
        raise ValueError(f"not PSD: smallest eigenvalue {lo:.3e} < -{atol:.1e}")


@dataclass(frozen=True)
class WalkConfig:
    """Walk length, per-step coin angles and the noise channel applied each step."""

    n_steps: int
    coin_angles: tuple[float, ...]
    noise: str = "none"
    w_s: float = 0.0  # coin-projection mixing weight
    w_l: float = 0.0  # lattice-projection mixing weight
    delta_beta: float = 0.0  # dephasing fluctuation range, radians
    p: float = 0.0  # depolarizing probability

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if len(self.coin_angles) != self.n_steps:
            raise ValueError(
                f"need {self.n_steps} coin angles, got {len(self.coin_angles)}"
            )
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.w_s < 0 or self.w_l < 0 or self.w_s + self.w_l > 1.0:
            raise ValueError(f"need w_s, w_l >= 0 and w_s + w_l <= 1, got ({self.w_s}, {self.w_l})")
        if not 0.0 <= self.delta_beta <= np.pi:
            raise ValueError(f"delta_beta must lie in [0, pi], got {self.delta_beta}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing p must lie in [0, 1], got {self.p}")


def coin_operator(alpha: float) -> np.ndarray:
    """Coin flip exp(-i*alpha*sigma_y) @ sigma_z = [[cos a, sin a], [sin a, -cos a]].

    Real orthogonal for every alpha; the Hadamard gate at alpha = pi/4.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"coin angle must be finite, got {alpha}")
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def shift_operator(n_steps: int) -> np.ndarray:
    """Conditional shift: |up, l> -> |up, l+1> (cyclic at the top site), down stays."""
    n_sites = n_steps + 1
    d = 2 * n_sites
    s = np.zeros((d, d), dtype=np.complex128)
    for l in range(n_sites):
        s[2 * ((l + 1) % n_sites), 2 * l] = 1.0
        s[2 * l + 1, 2 * l + 1] = 1.0
    return s


def step_unitary(alpha: float, n_steps: int) -> np.ndarray:
    """One walk step U = S @ (coin x lattice identity)."""
    return shift_operator(n_steps) @ np.kron(np.eye(n_steps + 1), coin_operator(alpha))


def kraus_operators(alpha: float, n_steps: int, w_s: float, w_l: float) -> list[np.ndarray]:
    """Kraus set for one mixing step: coherent part plus coin and site projections.

    E_0 = sqrt(1 - w_s - w_l) U, one sqrt(w_s) P_coin U per coin value and
    one sqrt(w_l) P_site U per lattice site; sums to identity by construction.
    """
    if w_s < 0 or w_l < 0 or w_s + w_l > 1.0:
        raise ValueError(f"need w_s, w_l >= 0 and w_s + w_l <= 1, got ({w_s}, {w_l})")
    n_sites = n_steps + 1
    d = 2 * n_sites
    u = step_unitary(alpha, n_steps)
    ops = [np.sqrt(1.0 - w_s - w_l) * u]
    if w_s > 0:
        for c in (0, 1):
            proj = np.zeros(d)
            proj[c::2] = 1.0
            ops.append(np.sqrt(w_s) * (proj[:, None] * u))
    if w_l > 0:
        for l in range(n_sites):
            proj = np.zeros(d)
            proj[2 * l : 2 * l + 2] = 1.0
            ops.append(np.sqrt(w_l) * (proj[:, None] * u))
    return ops


def apply_kraus_step(rho: np.ndarray, alpha: float, w_s: float, w_l: float) -> np.ndarray:
    """One open-walk step rho -> sum_k E_k rho E_k^dag with the mixing Kraus set."""
    out = np.zeros_like(rho, dtype=np.complex128)
    for e in kraus_operators(alpha, rho.shape[0] // 2 - 1, w_s, w_l):
        out += e @ rho @ e.conj().T
    return out


def dephasing_step(rho: np.ndarray, delta_beta: float) -> np.ndarray:
    """Coin dephasing: average over conjugations by the phase gate exp(i*beta*sigma_z/2).

    Conjugation multiplies the up-down coin blocks elementwise by exp(i*beta),
    so averaging beta ~ U[-delta_beta, delta_beta] attenuates them by
    sinc(delta_beta) = sin(delta_beta)/delta_beta.
    """
    if not 0.0 <= delta_beta <= np.pi:
        raise ValueError(f"delta_beta must lie in [0, pi], got {delta_beta}")
    factor = complex(np.sinc(delta_beta / np.pi))
    out = np.array(rho, dtype=np.complex128, copy=True)
    out[0::2, 1::2] *= factor
    out[1::2, 0::2] *= np.conj(factor)
    return out


def depolarizing_step(rho: np.ndarray, p: float) -> np.ndarray:
    """Coin depolarizing channel (1-p) rho + p/3 sum_xyz (sigma x I) rho (sigma x I)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing p must lie in [0, 1], got {p}")
    n_sites = rho.shape[0] // 2
    eye = np.eye(n_sites)
    out = (1.0 - p) * np.asarray(rho, dtype=np.complex128)
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        k = np.kron(eye, sigma)
        out += (p / 3.0) * (k @ rho @ k.conj().T)
    return out


def initial_state(n_steps: int) -> np.ndarray:
    """Pure starting state (|up> + i|down>)/sqrt(2) localized at site 0."""
    d = dim(n_steps)
    psi = np.zeros(d, dtype=np.complex128)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[1] = 1.0j / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def disordered_angles(n_steps: int, seed: int) -> np.ndarray:
    """Per-step coin angles drawn uniformly from [0, pi], deterministic per seed."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    return np.random.default_rng(seed).uniform(0.0, np.pi, n_steps)


def position_marginal(rho: np.ndarray) -> np.ndarray:
    """Lattice-site occupation probabilities (coin traced out)."""
    diag = np.real(np.diag(rho))
    return diag[0::2] + diag[1::2]


def evolve(config: WalkConfig) -> np.ndarray:
    """Run the configured walk: per step one unitary, then the noise channel."""
    n = config.n_steps
    rho = initial_state(n)
    wrap_source = 2 * n  # (up, N): feeding the cyclic wrap would be unphysical
    for t, alpha in enumerate(config.coin_angles):
        if rho[wrap_source, wrap_source].real > 1e-12:
            raise RuntimeError(
                f"wrap source (up, {n}) populated before step {t}: "
                f"{rho[wrap_source, wrap_source].real:.3e}"
            )
        if config.noise == "mixing":
            rho = apply_kraus_step(rho, alpha, config.w_s, config.w_l)
            continue
        u = step_unitary(alpha, n)
        rho = u @ rho @ u.conj().T
        if config.noise == "dephasing":
            rho = dephasing_step(rho, config.delta_beta)
        elif config.noise == "depolarizing":
            rho = depolarizing_step(rho, config.p)
    return rho
