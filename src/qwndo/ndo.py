"""Neural density operator: a three-layer RBM purification of a mixed state.

Two amplitude/phase networks (lambda/mu) share a visible layer that one-hot
encodes the d basis states. Hidden units are marginalized analytically into
softplus terms; the ancilla layer purifies the state and is traced out in
closed form, giving every log density entry

    A(v, v') = Gamma_lam_plus(v, v') + i*Gamma_mu_minus(v, v') + Pi(v, v')

with rho = exp(A) / Z and Z = sum_v exp(A(v, v)).

The two networks are evaluated as one: `NdoParams` holds each lam/mu pair of
blocks as one stacked (2, ...) view of the parameter vector, so one softplus,
one logistic and one gather serve both. Pi is taken as the log of a product
of ancilla factors (`kernels.pair_cache`), which fixes A only mod 2 pi i;
rho = exp(A) / Z does not depend on the branch.

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
    networks, with the shapes and order of `kernels.param_shapes`.

    However it is built, every instance holds one read-only copy of the
    flattened vector and binds the views that `kernels.pair_cache` takes:
    the stacked (lam, mu) pairs w (2, m_h, d), u (2, m_a, d), b (2, d) and
    c (2, m_h), which `param_shapes` puts next to each other, and d_lam.
    The eight per-block arrays w_lam ... c_mu are formed on first access as
    the read-only views w[0], w[1], ..., so a point that only the fit
    evaluates never forms them.
    """

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
        arrays = []
        for name, ndim in zip(ARRAY_NAMES, ARRAY_NDIMS):
            try:
                arr = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name} is not a numeric array") from exc
            if arr.ndim != ndim:
                raise ValueError(f"{name} has shape {arr.shape}, expected {ndim} dimensions")
            arrays.append(arr)
        (m_h, d), m_a = arrays[0].shape, arrays[2].shape[0]
        for arr, (name, shape) in zip(arrays, param_shapes(d, m_h, m_a).items()):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        _bind(self, d, m_h, m_a, np.concatenate([arr.ravel() for arr in arrays]))

    def __getattr__(self, name: str) -> np.ndarray:
        """Bind a per-block array on its first access (only unbound names get here)."""
        try:
            stacked, net = _PER_BLOCK[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None
        view = getattr(self, stacked)[net]
        object.__setattr__(self, name, view)
        return view

    @property
    def dim(self) -> int:
        return self.w.shape[2]

    @property
    def m_h(self) -> int:
        return self.w.shape[1]

    @property
    def m_a(self) -> int:
        return self.u.shape[1]

    @property
    def n_params(self) -> int:
        return n_params(self.dim, self.m_h, self.m_a)

    def to_vector(self) -> np.ndarray:
        """A copy of the optimizer's parameter vector (row-major matrices)."""
        return self._vector.copy()

    @classmethod
    def from_vector(cls, d: int, m_h: int, m_a: int, vec: np.ndarray) -> "NdoParams":
        """Read-only views into one copy of `vec`, checked once for length and finiteness."""
        vec = np.array(vec, dtype=float)
        size = n_params(d, m_h, m_a)
        if vec.shape != (size,):
            raise ValueError(f"vector length {vec.shape}, expected ({size},)")
        if not np.isfinite(vec).all():
            bad = int(np.argmin(np.isfinite(vec)))
            off = param_offsets(d, m_h, m_a)
            stops = (off[name] for name in (*ARRAY_NAMES[1:], "total"))
            name = next(name for name, stop in zip(ARRAY_NAMES, stops) if bad < stop)
            raise ValueError(f"{name} contains non-finite entries")
        params = object.__new__(cls)
        _bind(params, d, m_h, m_a, vec)
        return params


# Each per-block name as (stacked view, network): w_lam is w[0], w_mu is w[1], ...
_PER_BLOCK = {
    f"{stacked}_{net}": (stacked, i) for stacked in "wubc" for i, net in enumerate(("lam", "mu"))
}


def _bind(params: NdoParams, d: int, m_h: int, m_a: int, vec: np.ndarray) -> None:
    """Make vec read-only and replace the state of params by it and its views
    w, u, b, c and d_lam; the per-block arrays are bound on first access."""
    vec.setflags(write=False)
    state = {"_vector": vec}
    for name, start, stop, shape in _views(d, m_h, m_a):
        state[name] = vec[start:stop].reshape(shape)
    object.__setattr__(params, "__dict__", state)


@functools.lru_cache(maxsize=64)
def _views(d: int, m_h: int, m_a: int) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) in the flattened vector of the stacked
    (lam, mu) pairs w, u, b and c, then of d_lam."""
    off = param_offsets(d, m_h, m_a)
    stacked = tuple(
        (name, off[f"{name}_lam"], off[f"{name}_mu"] + math.prod(shape), (2, *shape))
        for name, shape in (("w", (m_h, d)), ("u", (m_a, d)), ("b", (d,)), ("c", (m_h,)))
    )
    return (*stacked, ("d_lam", off["d_lam"], off["total"], (m_a,)))


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
    a = kernels.pair_cache(params.w, params.u, params.b, params.c, params.d_lam)[0]
    return _normalize(a)[0]


@dataclass(frozen=True)
class NdoEval:
    """One-pass evaluation of everything the cost, gradient and metric reuse.

    The logistic caches are formed on first use from the factors that
    `kernels.pair_cache` already evaluated, so a point that only needs its
    cost (a rejected line-search trial) never pays for them, and one that
    does pays no second exp. The hidden logistic exists only stacked like
    the networks, `sig` (2, m_h, d), and the ancilla logistic only on the
    upper index pairs, `s_upper` (m_a, d(d+1)/2): the gradient, the metric
    and the Jacobian reference all read these two layouts.
    """

    a: np.ndarray          # (d, d) complex log density entries, exact mod 2 pi i
    rho: np.ndarray        # (d, d) complex state
    log_z: float
    x: np.ndarray          # (2, m_h, d) hidden pre-activations W + c, lam then mu
    t_x: np.ndarray        # exp(-|x|)
    pos: np.ndarray        # (m_a, d(d+1)/2) Re z > 0 of the ancilla argument z per upper pair
    t: np.ndarray          # e^-z where pos, else e^z
    w: np.ndarray          # 1 + t

    @functools.cached_property
    def sig(self) -> np.ndarray:
        """(2, m_h, d) hidden logistic, amplitude net then phase net."""
        return kernels._logistic(self.x, self.t_x)

    @functools.cached_property
    def s_upper(self) -> np.ndarray:
        """(m_a, d(d+1)/2) complex ancilla logistic on the upper index pairs:
        1/w where pos, else t/w, which keeps its relative accuracy where
        Re z << 0."""
        return np.where(self.pos, 1.0, self.t) / self.w


def evaluate(params: NdoParams) -> NdoEval:
    """Compute the state plus the factors of the gradient caches in one pass."""
    a, *factors = kernels.pair_cache(params.w, params.u, params.b, params.c, params.d_lam)
    rho, lz = _normalize(a)
    return NdoEval(a, rho, lz, *factors)


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
    """Parameters from a `save_checkpoint` file. Each array is read with the
    shape that the header's (dim, m_h, m_a) gives it, since JSON keeps no
    shape for an empty array (a zero-unit layer)."""
    doc = fileio.read_json(path, "checkpoint")
    version = fileio.require(doc, "format_version", int, "checkpoint")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version}")
    dims = {name: fileio.require(doc, name, int, "checkpoint") for name in ("dim", "m_h", "m_a")}
    for name, least in (("dim", 1), ("m_h", 0), ("m_a", 0)):
        if dims[name] < least:
            raise ValueError(f"checkpoint field '{name}' must be >= {least}, got {dims[name]}")
    stored = fileio.require(doc, "arrays", dict, "checkpoint")
    arrays = {}
    for name, shape in param_shapes(*dims.values()).items():
        values = fileio.require(stored, name, list, "checkpoint arrays")
        try:
            arr = np.array(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint array {name} is not a numeric array") from exc
        if arr.shape != shape and not arr.size == 0 == math.prod(shape):
            raise ValueError(f"checkpoint array {name} has shape {arr.shape}, expected {shape}")
        arrays[name] = arr.reshape(shape)
    try:
        return NdoParams(**arrays)
    except ValueError as exc:
        raise ValueError(f"checkpoint array {exc}") from exc
