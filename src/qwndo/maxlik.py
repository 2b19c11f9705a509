"""Maximum-likelihood tomography baseline: rho = T T^dag / tr(T T^dag).

T is lower triangular with a real diagonal, parameterized by d^2 reals packed
diagonal-first, then strictly-lower entries row-major with real and imaginary
parts interleaved. The fit minimizes the same total statistical distance as
the network ansatz, driven by the shared conjugate-gradient machinery.
"""

from __future__ import annotations

import numpy as np

from . import training
from .measurement import BasisTables
from .training import TrainConfig, TrainReport, _data_probs, kl_distance, minimize_vector


def n_t_params(d: int) -> int:
    """Number of real parameters, d^2 = 4(N+1)^2."""
    return d * d


def t_matrix(t_params: np.ndarray, d: int) -> np.ndarray:
    """Unpack the parameter vector into the lower-triangular d x d matrix T."""
    t_params = np.asarray(t_params, dtype=float)
    if t_params.shape != (d * d,):
        raise ValueError(f"expected {d * d} parameters for d={d}, got {t_params.shape}")
    t = np.zeros((d, d), dtype=np.complex128)
    t[np.diag_indices(d)] = t_params[:d]
    rows, cols = np.tril_indices(d, -1)
    t[rows, cols] = t_params[d::2] + 1j * t_params[d + 1 :: 2]
    return t


def pack_t(t: np.ndarray) -> np.ndarray:
    """Inverse of `t_matrix` (imaginary diagonal and upper triangle discarded)."""
    d = t.shape[0]
    out = np.empty(d * d)
    out[:d] = np.diag(t).real
    rows, cols = np.tril_indices(d, -1)
    out[d::2] = t[rows, cols].real
    out[d + 1 :: 2] = t[rows, cols].imag
    return out


def rho_from_t(t_params: np.ndarray) -> np.ndarray:
    """The PSD unit-trace state T T^dag / tr(T T^dag)."""
    t_params = np.asarray(t_params, dtype=float)
    d = int(round(np.sqrt(t_params.size)))
    if d * d != t_params.size:
        raise ValueError(f"parameter count {t_params.size} is not a perfect square")
    t = t_matrix(t_params, d)
    gram = t @ t.conj().T
    tr = np.trace(gram).real
    if tr <= 0.0:
        raise ValueError("all-zero parameter vector has no associated state")
    return gram / tr


def init_t_params(d: int, seed: int = 0, scale: float = 0.1, diag_offset: float = 1.0) -> np.ndarray:
    """Uniform [-scale, scale] draw with the diagonal offset away from zero trace."""
    rng = np.random.default_rng(seed)
    params = rng.uniform(-scale, scale, d * d)
    params[:d] += diag_offset
    return params


class _MaxlikObjective:
    """Cost and analytic gradient of the KL distance over the T parameters."""

    def __init__(self, ds, bases: BasisTables):
        self.bases = bases
        self.d = bases.dim
        self.data = _data_probs(ds, bases, self.d)

    def cost(self, x: np.ndarray) -> float:
        pm = training.model_distributions(rho_from_t(x), self.bases)
        return kl_distance(self.data, pm)

    def grad(self, x: np.ndarray) -> np.ndarray:
        d = self.d
        t = t_matrix(x, d)
        tau = float(np.sum(np.abs(t) ** 2))
        if tau <= 0.0:
            raise ValueError("all-zero parameter vector has no associated state")
        rho = (t @ t.conj().T) / tau
        m_mat = training._data_adjoint(rho, self.data, self.bases)
        swp = float(np.sum(rho * m_mat).real)  # sum_nj w_nj * model_nj
        return pack_t((2.0 / tau) * (swp * t - m_mat.conj() @ t))


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
        from . import metrics

        report.fidelity = metrics.fidelity(rho, target)
        report.purity = metrics.purity(rho)
        report.purity_error = metrics.purity_error(rho, target)
    return rho, report
