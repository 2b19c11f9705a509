"""Neural density operator: a three-layer RBM purification of a mixed state.

Two amplitude/phase networks (lambda/mu) share a visible layer that one-hot
encodes the d basis states. Hidden units are marginalized analytically into
softplus terms; the ancilla layer purifies the state and is traced out in
closed form, giving every log density entry

    A(v, v') = Gamma_lam_plus(v, v') + i*Gamma_mu_minus(v, v') + Pi(v, v')

with rho = exp(A) / Z and Z = sum_v exp(A(v, v)).

The two networks are evaluated as one: `NdoParams` is the parameter vector
and its views, each lam/mu pair of blocks one stacked (2, ...) view, so one
softplus, one logistic and one gather serve both. The per-block names of
`kernels.param_shapes` give only the flattening order and the checkpoint's
arrays. Pi is taken as the log of a product of ancilla factors
(`kernels.pair_cache`), which fixes A only mod 2 pi i; rho = exp(A) / Z does
not depend on the branch.

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

CHECKPOINT_FORMAT_VERSION = 1


def n_params(d: int, m_h: int, m_a: int) -> int:
    """Length of the flattened parameter vector."""
    return param_offsets(d, m_h, m_a)["total"]


class NdoParams:
    """The parameters of the amplitude (lam) and phase (mu) networks: one
    read-only copy of the flattened vector, whose blocks have the order and
    shapes of `kernels.param_shapes`, and its views that `kernels.pair_cache`
    takes: the stacked (lam, mu) pairs w (2, m_h, d), u (2, m_a, d), b (2, d)
    and c (2, m_h), which `param_shapes` puts next to each other, and d_lam
    (m_a,). `from_vector` builds every instance. Two instances are equal only
    if they are the same object; compare `to_vector()` for equal values.
    """

    __slots__ = ("_vector", "w", "u", "b", "c", "d_lam")

    @property
    def dim(self) -> int:
        return self.w.shape[2]

    @property
    def m_h(self) -> int:
        return self.w.shape[1]

    @property
    def m_a(self) -> int:
        return self.u.shape[1]

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
            name = next(name for name, stop in zip(off, [*off.values()][1:]) if bad < stop)
            raise ValueError(f"{name} contains non-finite entries")
        vec.setflags(write=False)
        params = object.__new__(cls)
        params._vector = vec
        params.w, params.u, params.b, params.c, params.d_lam = [
            vec[start:stop].reshape(shape) for start, stop, shape in _views(d, m_h, m_a)
        ]
        return params


@functools.lru_cache(maxsize=64)
def _views(d: int, m_h: int, m_a: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) in the flattened vector of the stacked (lam, mu)
    pairs w, u, b and c, then of d_lam."""
    off = param_offsets(d, m_h, m_a)
    stacked = tuple(
        (off[f"{name}_lam"], off[f"{name}_mu"] + math.prod(shape), (2, *shape))
        for name, shape in (("w", (m_h, d)), ("u", (m_a, d)), ("b", (d,)), ("c", (m_h,)))
    )
    return (*stacked, (off["d_lam"], off["total"], (m_a,)))


# Half-width of the uniform draw of `init_params`.
INIT_SCALE = 0.01

# Phase-network ancilla weight of the mixed start. Two basis states whose
# weights differ in sign see the ancilla factor 1 + exp(i*3*pi/4): it scales
# their coherence by |cos(3*pi/8)| = 0.38 and stays a quarter of pi from the
# branch point i*pi of the complex softplus, where the log density diverges.
MIXING_PHASE = 3.0 * np.pi / 4.0


def init_params(d: int, m_h: int, m_a: int, seed: int = 0) -> NdoParams:
    """Parameters drawn i.i.d. uniform on [-INIT_SCALE, INIT_SCALE].

    Near theta = 0 every log density entry is equal, so this start is close
    to the pure uniform superposition J/d.
    """
    rng = np.random.default_rng(seed)
    return NdoParams.from_vector(
        d, m_h, m_a, rng.uniform(-INIT_SCALE, INIT_SCALE, n_params(d, m_h, m_a))
    )


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
    vec = base.to_vector()
    start = param_offsets(d, m_h, m_a)["u_mu"]
    vec[start : start + m_a * d] += (MIXING_PHASE * signs).ravel()
    return NdoParams.from_vector(d, m_h, m_a, vec)


def _normalize(a: np.ndarray) -> np.ndarray:
    """The state exp(A) / Z, with log Z = log sum_v exp(A(v, v)) taken as a log-sum-exp."""
    diag = a.diagonal().real
    peak = diag.max()
    lz = float(peak + np.log(np.exp(diag - peak).sum()))
    return np.exp(a - lz)


def density_matrix(params: NdoParams) -> np.ndarray:
    """The normalized state exp(A) / Z; Hermitian, unit trace and PSD by construction."""
    a = kernels.pair_cache(params.w, params.u, params.b, params.c, params.d_lam)[0]
    return _normalize(a)


@dataclass(frozen=True)
class NdoEval:
    """One-pass evaluation of everything the cost, gradient and metric reuse;
    A and log Z, which only the state reads, are not kept.

    The logistic caches are formed on first use from the factors that
    `kernels.pair_cache` already evaluated, so a point that only needs its
    cost (a rejected line-search trial) never pays for them, and one that
    does pays no second exp. The hidden logistic exists only stacked like
    the networks, `sig` (2, m_h, d), and the ancilla logistic only on the
    upper index pairs, `s_upper` (m_a, d(d+1)/2): the gradient, the metric
    and the Jacobian reference all read these two layouts.
    """

    rho: np.ndarray        # (d, d) complex state
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
    return NdoEval(_normalize(a), *factors)


def save_checkpoint(params: NdoParams, path) -> None:
    """Write parameters as JSON, one array per block of `kernels.param_shapes`;
    float repr keeps the round trip bit-exact."""
    off = param_offsets(params.dim, params.m_h, params.m_a)
    vec = params.to_vector()
    fileio.write_json(path, {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dim": params.dim,
        "m_h": params.m_h,
        "m_a": params.m_a,
        "arrays": {
            name: vec[off[name] : off[name] + math.prod(shape)].reshape(shape).tolist()
            for name, shape in param_shapes(params.dim, params.m_h, params.m_a).items()
        },
    })


def load_checkpoint(path) -> NdoParams:
    """Parameters from a `save_checkpoint` file. Each array is checked
    against the shape that the header's (dim, m_h, m_a) gives it, an empty
    one (a zero-unit layer, whose shape JSON does not keep) against its size,
    and the arrays are joined into the parameter vector."""
    with fileio.reading(path, "checkpoint", CHECKPOINT_FORMAT_VERSION) as doc:
        dims = {name: fileio.require(doc, name, int) for name in ("dim", "m_h", "m_a")}
        for name, least in (("dim", 1), ("m_h", 0), ("m_a", 0)):
            if dims[name] < least:
                raise ValueError(f"field '{name}' must be >= {least}, got {dims[name]}")
        stored = fileio.require(doc, "arrays", dict)
        arrays = []
        for name, shape in param_shapes(*dims.values()).items():
            arr = fileio.numbers(fileio.require(stored, name, list), f"array {name}")
            if arr.shape != shape and not arr.size == 0 == math.prod(shape):
                raise ValueError(f"array {name} has shape {arr.shape}, expected {shape}")
            arrays.append(arr.ravel())
        return NdoParams.from_vector(*dims.values(), np.concatenate(arrays))
