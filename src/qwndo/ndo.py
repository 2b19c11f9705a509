"""Neural density operator: a three-layer RBM purification of a mixed state.

Two amplitude/phase networks (lambda/mu) share a visible layer that one-hot
encodes the d basis states. Hidden units are marginalized analytically into
softplus terms; the ancilla layer purifies the state and is traced out in
closed form, giving every log density entry

    A(v, v') = Gamma_lam_plus(v, v') + i*Gamma_mu_minus(v, v') + Pi(v, v')

with rho = exp(A) / Z and Z = sum_v exp(A(v, v)).

The phase-network ancilla bias cancels between a purification amplitude and
its conjugate, so the parameter set carries only the lambda ancilla bias.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fileio, kernels
from .kernels import param_offsets, param_shapes

ARRAY_NAMES = tuple(param_shapes(0, 0, 0))
ARRAY_NDIMS = tuple(map(len, param_shapes(0, 0, 0).values()))

CHECKPOINT_FORMAT_VERSION = 1


def n_params(d: int, m_h: int, m_a: int) -> int:
    """Length of the flattened parameter vector."""
    return param_offsets(d, m_h, m_a)["total"]


@dataclass(frozen=True)
class NdoParams:
    """The nine real parameter arrays of the amplitude (lam) and phase (mu)
    networks, with the shapes and order of `kernels.param_shapes`."""

    w_lam: np.ndarray
    w_mu: np.ndarray
    u_lam: np.ndarray
    u_mu: np.ndarray
    b_lam: np.ndarray
    b_mu: np.ndarray
    c_lam: np.ndarray
    c_mu: np.ndarray
    d_lam: np.ndarray

    def __post_init__(self):
        for name, ndim in zip(ARRAY_NAMES, ARRAY_NDIMS):
            try:
                arr = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name} is not a numeric array") from exc
            if arr.ndim != ndim:
                raise ValueError(f"{name} has shape {arr.shape}, expected {ndim} dimensions")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m_h, d = self.w_lam.shape
        m_a = self.u_lam.shape[0]
        for name, shape in param_shapes(d, m_h, m_a).items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.w_lam.shape[1]

    @property
    def m_h(self) -> int:
        return self.w_lam.shape[0]

    @property
    def m_a(self) -> int:
        return self.u_lam.shape[0]

    @property
    def n_params(self) -> int:
        return n_params(self.dim, self.m_h, self.m_a)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The nine arrays in flattening order."""
        return tuple(getattr(self, name) for name in ARRAY_NAMES)

    def to_vector(self) -> np.ndarray:
        """Flatten to the optimizer's parameter vector (row-major matrices)."""
        return np.concatenate([arr.ravel() for arr in self.arrays()])

    @classmethod
    def from_vector(cls, d: int, m_h: int, m_a: int, vec: np.ndarray) -> "NdoParams":
        """Read-only views into one copy of `vec`, checked once for length and finiteness."""
        blocks = _blocks(d, m_h, m_a)
        vec = np.array(vec, dtype=float)
        if vec.shape != (blocks[-1][2],):
            raise ValueError(f"vector length {vec.shape}, expected ({blocks[-1][2]},)")
        if not np.isfinite(vec).all():
            bad = int(np.argmin(np.isfinite(vec)))
            name = next(name for name, _, stop, _ in blocks if bad < stop)
            raise ValueError(f"{name} contains non-finite entries")
        vec.setflags(write=False)
        params = object.__new__(cls)
        for name, start, stop, shape in blocks:
            object.__setattr__(params, name, vec[start:stop].reshape(shape))
        return params


@functools.lru_cache(maxsize=64)
def _blocks(d: int, m_h: int, m_a: int) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of each block of the flattened vector."""
    off = param_offsets(d, m_h, m_a)
    return tuple(
        (name, off[name], off[name] + math.prod(shape), shape)
        for name, shape in param_shapes(d, m_h, m_a).items()
    )


def init_params(d: int, m_h: int, m_a: int, scale: float = 0.01, seed: int = 0) -> NdoParams:
    """Parameters drawn i.i.d. uniform on [-scale, scale].

    Near theta = 0 every log density entry is equal, so this start is close
    to the pure uniform superposition J/d.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    rng = np.random.default_rng(seed)
    return NdoParams.from_vector(
        d, m_h, m_a, rng.uniform(-scale, scale, n_params(d, m_h, m_a))
    )


# Phase-network ancilla weight of the mixed start. Two basis states whose
# weights differ in sign see the ancilla factor 1 + exp(i*3*pi/4): it scales
# their coherence by |cos(3*pi/8)| = 0.38 and stays a quarter of pi from the
# branch point i*pi of the complex softplus, where the log density diverges.
MIXING_PHASE = 3.0 * np.pi / 4.0


def mixed_init_params(d: int, m_h: int, m_a: int, seed: int = 0) -> NdoParams:
    """`init_params` plus phase-network ancilla weights that make the state nearly I/d.

    Ancilla i gives basis state v the weight u_mu[i, v] = MIXING_PHASE * H[v + 1, i + 1],
    where H[a, b] = (-1)^popcount(a & b) is the Sylvester-Hadamard matrix;
    its all-ones first row and column are skipped. In the order-n matrix,
    n the smallest power of two > max(d, m_a), two rows differ in sign on
    n/2 of the other columns, so when m_a = n - 1 every pair of basis states
    is split by n/2 ancillas and its coherence shrinks by 0.38^(n/2)
    (4.6e-4 at d = 12 with 15 ancillas). Smaller m_a keeps only the first
    columns and mixes less; the random draw only breaks the symmetry.
    """
    base = init_params(d, m_h, m_a, seed=seed)
    overlap = np.arange(1, m_a + 1)[:, None] & np.arange(1, d + 1)
    for shift in (32, 16, 8, 4, 2, 1):  # fold the parity of popcount into bit 0
        overlap ^= overlap >> shift
    signs = 1 - 2 * (overlap & 1)
    arrays = {name: getattr(base, name) for name in ARRAY_NAMES}
    arrays["u_mu"] = arrays["u_mu"] + MIXING_PHASE * signs
    return NdoParams(**arrays)


def _normalize(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The state exp(A) / Z and log Z = log sum_v exp(A(v, v)), as a log-sum-exp."""
    diag = a.diagonal().real
    peak = diag.max()
    lz = float(peak + np.log(np.exp(diag - peak).sum()))
    return np.exp(a - lz), lz


def density_matrix(params: NdoParams) -> np.ndarray:
    """The normalized state exp(A) / Z; Hermitian, unit trace and PSD by construction."""
    return _normalize(kernels.pair_cache(*params.arrays())[0])[0]


@dataclass(frozen=True)
class NdoEval:
    """One-pass evaluation of everything the cost, gradient and metric reuse.

    The logistic caches are formed on first use from the pre-activations and
    the exps their softplus already evaluated (`kernels.pair_cache`), so a
    point that only needs its cost (a rejected line-search trial) never pays
    for them, and one that does pays no second exp. The ancilla logistic
    exists only on the upper index pairs (`s_upper`), where the gradient, the
    metric and the Jacobian reference all read it.
    """

    a: np.ndarray          # (d, d) complex log density entries
    rho: np.ndarray        # (d, d) complex state
    log_z: float
    x_lam: np.ndarray      # (m_h, d) hidden pre-activation W + c, amplitude net
    t_lam: np.ndarray      # exp(-|x_lam|)
    x_mu: np.ndarray
    t_mu: np.ndarray
    z: np.ndarray          # (m_a, d(d+1)/2) complex ancilla argument per upper pair
    t_z: np.ndarray        # the exp of z's softplus

    @functools.cached_property
    def sig_lam(self) -> np.ndarray:
        """(m_h, d) hidden logistic, amplitude net."""
        return kernels._logistic(self.x_lam, self.t_lam)

    @functools.cached_property
    def sig_mu(self) -> np.ndarray:
        return kernels._logistic(self.x_mu, self.t_mu)

    @functools.cached_property
    def s_upper(self) -> np.ndarray:
        """(m_a, d(d+1)/2) complex ancilla logistic on the upper index pairs."""
        return kernels._logistic_c(self.z, self.t_z)


def evaluate(params: NdoParams) -> NdoEval:
    """Compute the state plus the pre-activations of the gradient caches in one pass."""
    a, *pre = kernels.pair_cache(*params.arrays())
    rho, lz = _normalize(a)
    return NdoEval(a, rho, lz, *pre)


def save_checkpoint(params: NdoParams, path) -> None:
    """Write parameters as JSON; float repr keeps the round trip bit-exact."""
    fileio.write_json(path, {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dim": params.dim,
        "m_h": params.m_h,
        "m_a": params.m_a,
        "arrays": {name: getattr(params, name).tolist() for name in ARRAY_NAMES},
    })


def load_checkpoint(path) -> NdoParams:
    doc = fileio.read_json(path, "checkpoint")
    version = fileio.require(doc, "format_version", int, "checkpoint")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version}")
    dims = tuple(fileio.require(doc, name, int, "checkpoint") for name in ("dim", "m_h", "m_a"))
    stored = fileio.require(doc, "arrays", dict, "checkpoint")
    arrays = {name: fileio.require(stored, name, list, "checkpoint arrays") for name in ARRAY_NAMES}
    try:
        params = NdoParams(**arrays)
    except ValueError as exc:
        raise ValueError(f"checkpoint array {exc}") from exc
    if (params.dim, params.m_h, params.m_a) != dims:
        raise ValueError("checkpoint header dims do not match array shapes")
    return params
