"""Reference implementations that pin the vectorized kernels and tables in tests.

The per-entry NDO references check the kernels; the dense basis builder
(`basis_unitary` and friends) and the einsum contractions over its
(n_bases, d, d) stack check `measurement.BasisTables`; the dense P x P
metric and its plain solve check the rho-space `training.solve_metric`.
"""

from __future__ import annotations

import numpy as np

from qwndo.kernels import _logistic, _logistic_c, _softplus, _softplus_c, param_offsets
from qwndo.maxlik import pack_t, t_matrix
from qwndo.measurement import K_X, K_Y, n_bases
from qwndo.ndo import NdoParams
from qwndo.training import PROB_FLOOR


def a_entry(params: NdoParams, v: int, vp: int) -> complex:
    """Log density entry A(v, v') for basis indices v, v'."""
    hs_l_v = _softplus(params.w_lam[:, v] + params.c_lam).sum()
    hs_l_vp = _softplus(params.w_lam[:, vp] + params.c_lam).sum()
    hs_m_v = _softplus(params.w_mu[:, v] + params.c_mu).sum()
    hs_m_vp = _softplus(params.w_mu[:, vp] + params.c_mu).sum()
    gamma_plus = 0.5 * (hs_l_v + hs_l_vp + params.b_lam[v] + params.b_lam[vp])
    gamma_minus = 0.5 * (hs_m_v - hs_m_vp + params.b_mu[v] - params.b_mu[vp])
    z = (
        0.5 * (params.u_lam[:, v] + params.u_lam[:, vp])
        + 0.5j * (params.u_mu[:, v] - params.u_mu[:, vp])
        + params.d_lam
    ).astype(np.complex128)
    return complex(gamma_plus + 1j * gamma_minus + _softplus_c(z).sum())


def grad_a(params: NdoParams, v: int, vp: int) -> np.ndarray:
    """Derivative of A(v, v') w.r.t. the flattened parameters, complex length P.

    The one-hot encoding confines weight derivatives to columns v and vp.
    """
    d, m_h, m_a = params.dim, params.m_h, params.m_a
    off = param_offsets(d, m_h, m_a)
    g = np.zeros(off["total"], dtype=np.complex128)
    rows_h = np.arange(m_h) * d
    rows_a = np.arange(m_a) * d
    sig_l_v = _logistic(params.w_lam[:, v] + params.c_lam)
    sig_l_vp = _logistic(params.w_lam[:, vp] + params.c_lam)
    sig_m_v = _logistic(params.w_mu[:, v] + params.c_mu)
    sig_m_vp = _logistic(params.w_mu[:, vp] + params.c_mu)
    g[off["w_lam"] + rows_h + v] += 0.5 * sig_l_v
    g[off["w_lam"] + rows_h + vp] += 0.5 * sig_l_vp
    g[off["w_mu"] + rows_h + v] += 0.5j * sig_m_v
    g[off["w_mu"] + rows_h + vp] -= 0.5j * sig_m_vp
    g[off["c_lam"] : off["c_lam"] + m_h] = 0.5 * (sig_l_v + sig_l_vp)
    g[off["c_mu"] : off["c_mu"] + m_h] = 0.5j * (sig_m_v - sig_m_vp)
    g[off["b_lam"] + v] += 0.5
    g[off["b_lam"] + vp] += 0.5
    g[off["b_mu"] + v] += 0.5j
    g[off["b_mu"] + vp] -= 0.5j
    s = _logistic_c(
        (
            0.5 * (params.u_lam[:, v] + params.u_lam[:, vp])
            + 0.5j * (params.u_mu[:, v] - params.u_mu[:, vp])
            + params.d_lam
        ).astype(np.complex128)
    )
    g[off["u_lam"] + rows_a + v] += 0.5 * s
    g[off["u_lam"] + rows_a + vp] += 0.5 * s
    g[off["u_mu"] + rows_a + v] += 0.5j * s
    g[off["u_mu"] + rows_a + vp] -= 0.5j * s
    g[off["d_lam"] : off["d_lam"] + m_a] = s
    return g


def cyclic_shift(n_steps: int) -> np.ndarray:
    """Conditioned cyclic shift S': |down, l> -> |down, (l-1) mod (N+1)>, up fixed."""
    n_sites = n_steps + 1
    d = 2 * n_sites
    s = np.zeros((d, d), dtype=np.complex128)
    for l in range(n_sites):
        s[2 * l, 2 * l] = 1.0
        s[2 * ((l - 1) % n_sites) + 1, 2 * l + 1] = 1.0
    return s


def basis_unitary(n: int, n_steps: int) -> np.ndarray:
    """Base-transformation matrix U^n whose rows are the bras of basis n.

    n = 0 is the identity. For n = 2k-1 (sigma_y) and n = 2k (sigma_x) the
    transpose of S'^(k-1) pairs row (c, l) with down-site (l-(k-1)) mod (N+1),
    matching the basis-vector convention in the measurement module docstring.
    """
    if not 0 <= n <= 2 * (n_steps + 1):
        raise ValueError(f"basis index {n} out of range [0, {2 * (n_steps + 1)}]")
    d = 2 * (n_steps + 1)
    if n == 0:
        return np.eye(d, dtype=np.complex128)
    k = (n + 1) // 2
    gate = K_Y if n % 2 == 1 else K_X
    cycle = np.linalg.matrix_power(cyclic_shift(n_steps).T, k - 1)
    return np.kron(np.eye(n_steps + 1), gate) @ cycle


def all_basis_unitaries(n_steps: int) -> list[np.ndarray]:
    """All 2*(N+1)+1 basis matrices in index order."""
    return [basis_unitary(n, n_steps) for n in range(n_bases(n_steps))]


def scatter(tables) -> np.ndarray:
    """The dense (n_bases, d, d) stack that a `BasisTables` describes."""
    n_b, d = tables.n_bases, tables.dim
    dense = np.zeros((n_b, d, d), dtype=np.complex128)
    rows = np.arange(d)[None, :]
    for s in range(2):
        dense[np.arange(n_b)[:, None], rows, tables.index[..., s]] += tables.coef[..., s]
    return dense


class DenseBases:
    """The dense stack behind the two contractions of `measurement.BasisTables`."""

    def __init__(self, n_steps: int):
        self.stack = np.asarray(all_basis_unitaries(n_steps))
        self.n_bases, self.dim = self.stack.shape[:2]

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("nij,jk,nik->ni", self.stack, rho, self.stack.conj()).real

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return np.einsum("nja,nj,njb->ab", self.stack, w, self.stack.conj())


def maxlik_grad(x: np.ndarray, data: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """MaxLik KL gradient contracted with the dense stack, index order U^n T."""
    d = stack.shape[1]
    t = t_matrix(x, d)
    tau = float(np.sum(np.abs(t) ** 2))
    v = stack @ t  # (n_b, d, d)
    q = np.sum(np.abs(v) ** 2, axis=2)  # (n_b, d)
    pm = q / tau
    w = np.where(data > 0, data / np.maximum(pm, PROB_FLOOR), 0.0)
    k = np.einsum("nja,nj,njc->ac", stack.conj(), w, stack) @ t
    swp = float(np.sum(w * pm))
    return pack_t((2.0 / tau) * (swp * t - k))


def dense_metric(jac: np.ndarray) -> np.ndarray:
    """G = Re(J^dag J) over the (d^2, P) complex state Jacobian."""
    return (jac.conj().T @ jac).real


def dense_metric_direction(metric: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """(G + eps * (tr G / P) I)^-1 grad by a plain dense solve."""
    p = metric.shape[0]
    return np.linalg.solve(metric + eps * np.trace(metric) / p * np.eye(p), grad)
