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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

from . import fileio, kernels
from .kernels import param_offsets, param_shapes

ARRAY_NAMES = tuple(param_shapes(0, 0, 0))

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
        for name in ARRAY_NAMES:
            arr = np.array(getattr(self, name), dtype=float)
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
        expected = n_params(d, m_h, m_a)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (expected,):
            raise ValueError(f"vector length {vec.shape}, expected ({expected},)")
        off = param_offsets(d, m_h, m_a)
        return cls(**{
            name: vec[off[name] : off[name] + math.prod(shape)].reshape(shape)
            for name, shape in param_shapes(d, m_h, m_a).items()
        })


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
    where H is the Sylvester-Hadamard matrix of the smallest power-of-two
    order n > max(d, m_a); its all-ones first row and column are skipped.
    Two rows of H differ in sign on n/2 of the other columns, so when
    m_a = n - 1 every pair of basis states is split by n/2 ancillas and its
    coherence shrinks by 0.38^(n/2) (4.6e-4 at d = 12 with 15 ancillas).
    Smaller m_a keeps only the first columns and mixes less; the random draw
    only breaks the symmetry.
    """
    base = init_params(d, m_h, m_a, seed=seed)
    order = 1
    while order <= max(d, m_a):
        order *= 2
    signs = hadamard(order)[1 : d + 1, 1 : m_a + 1].T
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
    a, _, _, _ = kernels.pair_cache(*params.arrays())
    return _normalize(a)[0]


@dataclass(frozen=True)
class NdoEval:
    """One-pass evaluation of everything the cost, gradient and metric reuse."""

    a: np.ndarray          # (d, d) complex log density entries
    rho: np.ndarray        # (d, d) complex state
    log_z: float
    sig_lam: np.ndarray    # (m_h, d) hidden logistic, amplitude net
    sig_mu: np.ndarray
    s_pair: np.ndarray     # (m_a, d, d) complex ancilla logistic per index pair


def evaluate(params: NdoParams) -> NdoEval:
    """Compute the state plus the gradient caches in one pass."""
    a, sig_lam, sig_mu, s_pair = kernels.pair_cache(*params.arrays())
    rho, lz = _normalize(a)
    return NdoEval(a, rho, lz, sig_lam, sig_mu, s_pair)


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
    for field in ("format_version", "dim", "m_h", "m_a", "arrays"):
        if field not in doc:
            raise ValueError(f"checkpoint missing field {field!r}")
    if doc["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc['format_version']}")
    if not isinstance(doc["arrays"], dict):
        raise ValueError("checkpoint field 'arrays' must be a JSON object")
    arrays = {}
    for name in ARRAY_NAMES:
        if name not in doc["arrays"]:
            raise ValueError(f"checkpoint missing array {name!r}")
        arrays[name] = np.array(doc["arrays"][name], dtype=float)
    params = NdoParams(**arrays)
    if (params.dim, params.m_h, params.m_a) != (doc["dim"], doc["m_h"], doc["m_a"]):
        raise ValueError("checkpoint header dims do not match array shapes")
    return params
