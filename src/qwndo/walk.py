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

# the channel that follows each step's unitary, by WalkConfig.noise
CHANNELS = {
    "none": lambda rho, config: rho,
    "mixing": lambda rho, config: mixing_step(rho, config.w_s, config.w_l),
    "dephasing": lambda rho, config: dephasing_step(rho, config.delta_beta),
    "depolarizing": lambda rho, config: depolarizing_step(rho, config.p),
}
NOISE_KINDS = tuple(CHANNELS)
STATE_TOL = 1e-10  # roundoff allowed in a state's Hermiticity, trace and smallest eigenvalue


def dim(n_steps: int) -> int:
    """Hilbert-space dimension 2*(N+1) of an N-step walk."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    return 2 * (n_steps + 1)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is finite, Hermitian, unit-trace and PSD within STATE_TOL."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > STATE_TOL:
        raise ValueError(f"not Hermitian: max deviation {herm:.3e} > {STATE_TOL:.1e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > STATE_TOL:
        raise ValueError(f"trace deviates from 1 by {tr:.3e} > {STATE_TOL:.1e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -STATE_TOL:
        raise ValueError(f"not PSD: smallest eigenvalue {lo:.3e} < -{STATE_TOL:.1e}")


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
        if not (self.w_s >= 0 and self.w_l >= 0 and self.w_s + self.w_l <= 1.0):
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


def mixing_step(rho: np.ndarray, w_s: float, w_l: float) -> np.ndarray:
    """Projective mixing (1 - w_s - w_l) rho + w_s sum_c P_c rho P_c + w_l sum_l P_l rho P_l.

    A projector sum over the coin values (lattice sites) keeps the entries
    whose coins (sites) agree and zeroes the rest, so entry (i, j) is scaled
    by (1 - w_s - w_l) + w_s [c_i = c_j] + w_l [l_i = l_j].
    """
    if not (w_s >= 0 and w_l >= 0 and w_s + w_l <= 1.0):
        raise ValueError(f"need w_s, w_l >= 0 and w_s + w_l <= 1, got ({w_s}, {w_l})")
    idx = np.arange(rho.shape[0])
    same_coin = idx[:, None] % 2 == idx[None, :] % 2
    same_site = idx[:, None] // 2 == idx[None, :] // 2
    return rho * ((1.0 - w_s - w_l) + w_s * same_coin + w_l * same_site)


def dephasing_step(rho: np.ndarray, delta_beta: float) -> np.ndarray:
    """Coin dephasing: average over conjugations by the phase gate exp(i*beta*sigma_z/2).

    Conjugation multiplies the up-down coin blocks elementwise by exp(+-i*beta),
    so averaging beta ~ U[-delta_beta, delta_beta] attenuates them by the real
    sinc(delta_beta) = sin(delta_beta)/delta_beta.
    """
    if not 0.0 <= delta_beta <= np.pi:
        raise ValueError(f"delta_beta must lie in [0, pi], got {delta_beta}")
    factor = np.sinc(delta_beta / np.pi)
    out = np.array(rho, dtype=np.complex128)
    out[0::2, 1::2] *= factor
    out[1::2, 0::2] *= factor
    return out


def depolarizing_step(rho: np.ndarray, p: float) -> np.ndarray:
    """Coin depolarizing channel (1-p) rho + p/3 sum_xyz sigma rho sigma, each Pauli on the coin.

    On a 2x2 coin block B the Pauli sum is 2 tr(B) I - B (Nielsen & Chuang,
    section 8.3.4), so the channel is (1 - 4p/3) rho plus 2p/3 times the block
    traces rho_00 + rho_11 on both coin diagonals.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing p must lie in [0, 1], got {p}")
    rho = np.asarray(rho, dtype=np.complex128)
    out = (1.0 - 4.0 * p / 3.0) * rho
    traces = (2.0 * p / 3.0) * (rho[0::2, 0::2] + rho[1::2, 1::2])
    out[0::2, 0::2] += traces
    out[1::2, 1::2] += traces
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
    channel = CHANNELS[config.noise]
    for t, alpha in enumerate(config.coin_angles):
        if rho[wrap_source, wrap_source].real > 1e-12:
            raise RuntimeError(
                f"wrap source (up, {n}) populated before step {t}: "
                f"{rho[wrap_source, wrap_source].real:.3e}"
            )
        u = step_unitary(alpha, n)
        rho = channel(u @ rho @ u.conj().T, config)
    return rho
