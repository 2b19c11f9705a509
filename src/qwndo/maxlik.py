"""Maximum-likelihood tomography baseline: rho = T T^dag / tr(T T^dag).

T is lower triangular with a real diagonal, parameterized by d^2 reals packed
diagonal-first, then strictly-lower entries row-major with real and imaginary
parts interleaved. The fit minimizes the same total statistical distance as
the network ansatz through the shared `training.KlObjective`, for which this
module supplies T -> rho and the pullback of the cost's derivative in rho to
T, driven by the shared conjugate-gradient machinery.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import training
from .measurement import BasisTables
from .training import TrainConfig, TrainReport, minimize_vector


@functools.lru_cache(maxsize=64)
def _t_slots(d: int) -> np.ndarray:
    """Position of each packed parameter in the float view of the row-major
    complex d x d T: Re T[k, k] for the diagonal, then Re and Im of each
    strictly-lower T[r, c], row-major (read-only, shared)."""
    rows, cols = np.tril_indices(d, -1)
    lower = 2 * (rows * d + cols)
    slots = np.concatenate([2 * (d + 1) * np.arange(d), np.stack([lower, lower + 1], axis=1).ravel()])
    slots.setflags(write=False)
    return slots


def t_matrix(t_params: np.ndarray, d: int) -> np.ndarray:
    """Unpack the parameter vector into the lower-triangular d x d matrix T."""
    t_params = np.asarray(t_params, dtype=float)
    if t_params.shape != (d * d,):
        raise ValueError(f"expected {d * d} parameters for d={d}, got {t_params.shape}")
    t = np.zeros(2 * d * d)
    t[_t_slots(d)] = t_params
    return t.view(np.complex128).reshape(d, d)


def pack_t(t: np.ndarray) -> np.ndarray:
    """Inverse of `t_matrix` (imaginary diagonal and upper triangle discarded)."""
    t = np.ascontiguousarray(t, dtype=np.complex128)
    return t.reshape(-1).view(np.float64)[_t_slots(t.shape[0])]


def _t_state(t_params: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(rho, T, tr(T T^dag)) with rho = T T^dag / tr(T T^dag)."""
    t_params = np.asarray(t_params, dtype=float)
    d = math.isqrt(t_params.size)
    if d * d != t_params.size:
        raise ValueError(f"parameter count {t_params.size} is not a perfect square")
    t = t_matrix(t_params, d)
    gram = t @ t.conj().T
    tr = gram.trace().real
    if tr <= 0.0:
        raise ValueError("all-zero parameter vector has no associated state")
    return gram / tr, t, tr


def rho_from_t(t_params: np.ndarray) -> np.ndarray:
    """The PSD unit-trace state T T^dag / tr(T T^dag). A non-finite parameter
    raises ValueError naming the first one; it would make every entry NaN."""
    t_params = np.asarray(t_params, dtype=float)
    bad = np.flatnonzero(~np.isfinite(t_params))
    if bad.size:
        raise ValueError(f"T parameter {bad[0]} is {t_params.flat[bad[0]]}; need finite")
    return _t_state(t_params)[0]


def init_t_params(d: int, seed: int = 0) -> np.ndarray:
    """Uniform [-0.1, 0.1] draw with the diagonal offset by 1, away from zero trace."""
    rng = np.random.default_rng(seed)
    params = rng.uniform(-0.1, 0.1, d * d)
    params[:d] += 1.0
    return params


class _MaxlikObjective(training.KlObjective):
    """The KL objective over the T parameters."""

    def __init__(self, ds, bases: BasisTables):
        super().__init__(ds, bases, bases.dim)

    def _state(self, x: np.ndarray):
        rho, t, tau = _t_state(x)
        return rho, (t, tau)

    def _pullback(self, rho, aux, m):
        t, tau = aux
        swp = float((rho * m).sum().real)  # sum_nj w_nj * model_nj
        return pack_t((2.0 / tau) * (swp * t - m.conj() @ t))


def maxlik_fit(
    ds,
    bases,
    seed: int = 0,
    grad_tol: float = 1e-8,
    max_iters: int = 2000,
    target: np.ndarray | None = None,
) -> tuple[np.ndarray, TrainReport]:
    """CG fit of the triangular parameterization to the dataset.

    Returns the reconstructed state and the optimizer trace; when a target
    state is given the report carries fidelity/purity comparisons against it.
    """
    obj = _MaxlikObjective(ds, bases)
    config = TrainConfig(optimizer="cg", grad_tol=grad_tol, max_iters=max_iters)
    x0 = init_t_params(obj.d, seed=seed)
    x, report = minimize_vector(obj.cost, obj.grad, x0, config)
    rho = rho_from_t(x)
    if target is not None:
        report.score(rho, target)
    return rho, report
