"""Hot numeric kernels for the density-operator ansatz, vectorized in NumPy.

Parameters flatten block by block in the order of `param_shapes`, each
matrix row-major.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType

import numpy as np


def param_shapes(d: int, m_h: int, m_a: int) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter block, in flattening order."""
    return {
        "w_lam": (m_h, d), "w_mu": (m_h, d),  # hidden weights
        "u_lam": (m_a, d), "u_mu": (m_a, d),  # ancilla weights
        "b_lam": (d,), "b_mu": (d,),  # visible biases
        "c_lam": (m_h,), "c_mu": (m_h,),  # hidden biases
        "d_lam": (m_a,),  # ancilla bias (amplitude network only)
    }


@functools.lru_cache(maxsize=64)
def param_offsets(d: int, m_h: int, m_a: int) -> MappingProxyType:
    """Start offset of each parameter block in the flattened vector, plus "total".

    Built once per (d, m_h, m_a) and returned read-only.
    """
    shapes = param_shapes(d, m_h, m_a)
    starts = itertools.accumulate(map(math.prod, shapes.values()), initial=0)
    return MappingProxyType(dict(zip([*shapes, "total"], starts)))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _logistic(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus_c(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z.real > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def _logistic_c(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z.real >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def pair_cache(w_lam, w_mu, u_lam, u_mu, b_lam, b_mu, c_lam, c_mu, d_lam):
    """Matrix of log density entries A plus the pre-activations its derivatives need.

    Returns (a, x_lam, x_mu, z) with a (d, d) complex, x_* = W + c of shape
    (m_h, d) and z the complex ancilla pair argument, shape (m_a, d, d). The
    gradient and the Jacobian read logistic(x_*) and the complex logistic of z
    (`ndo.NdoEval` computes them on first use).
    """
    x_lam = w_lam + c_lam[:, None]
    x_mu = w_mu + c_mu[:, None]
    hs_lam = _softplus(x_lam).sum(axis=0)
    hs_mu = _softplus(x_mu).sum(axis=0)
    z = (
        0.5 * (u_lam[:, :, None] + u_lam[:, None, :])
        + 0.5j * (u_mu[:, :, None] - u_mu[:, None, :])
        + d_lam[:, None, None]
    ).astype(np.complex128)
    pi = _softplus_c(z).sum(axis=0)
    gamma_plus = 0.5 * (hs_lam[:, None] + hs_lam[None, :] + b_lam[:, None] + b_lam[None, :])
    gamma_minus = 0.5 * (hs_mu[:, None] - hs_mu[None, :] + b_mu[:, None] - b_mu[None, :])
    a = gamma_plus + 1j * gamma_minus + pi
    return a, x_lam, x_mu, z


@functools.lru_cache(maxsize=64)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of the d(d+1)/2 upper entries: the diagonal, then the
    strict upper triangle in row-major order (read-only, shared by all calls)."""
    rows, cols = np.triu_indices(d, 1)
    diag = np.arange(d)
    pairs = np.concatenate([diag, rows]), np.concatenate([diag, cols])
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def assemble_jacobian(rho, sig_lam, sig_mu, s_pair):
    """Real Jacobian J_r of rho's d^2 Hermitian coordinates, shape (d*d, P).

    rho is Hermitian, so its derivative is fixed by the upper entries
    (alpha <= beta), and J_r is `hermitian_rows` of them: d(rho_aa)/d(theta)
    for the d diagonal entries, then sqrt(2) Re and sqrt(2) Im of
    d(rho_ab)/d(theta) for the strict upper triangle, row-major;
    J_r^T J_r = Re(J^dag J) for the complex Jacobian J of all d^2 entries.
    Row (alpha, beta) of J is rho[alpha, beta] * (dA[alpha, beta, :] - z), where
    z = sum_v rho[v, v] dA[v, v, :] is the gradient of log Z (zero on mu-group
    entries). The one-hot visible encoding confines weight-block nonzeros to
    the two columns alpha and beta, so each weight block takes two scatters:
    the alpha term, then the beta term (both land on a diagonal row).
    """
    d = rho.shape[0]
    m_h = sig_lam.shape[0]
    m_a = s_pair.shape[0]
    off = param_offsets(d, m_h, m_a)
    pd = rho.diagonal().real
    s_diag = s_pair[:, np.arange(d), np.arange(d)].real
    z = np.zeros(off["total"])
    z[off["w_lam"] : off["w_lam"] + m_h * d] = (sig_lam * pd[None, :]).ravel()
    z[off["u_lam"] : off["u_lam"] + m_a * d] = (s_diag * pd[None, :]).ravel()
    z[off["b_lam"] : off["b_lam"] + d] = pd
    z[off["c_lam"] : off["c_lam"] + m_h] = sig_lam @ pd
    z[off["d_lam"] : off["d_lam"] + m_a] = s_diag @ pd
    al, be = _upper_pairs(d)
    r = rho[al, be]
    jac = r[:, None] * (-z)[None, :].astype(np.complex128)
    k = np.arange(al.size)[:, None]
    half, half_j = (0.5 * r)[:, None], (0.5j * r)[:, None]
    s_ab = s_pair[:, al, be].T  # (pairs, m_a)

    def block(name, width):
        return jac[:, off[name] : off[name] + width * d].reshape(-1, width, d)

    units_h, units_a = np.arange(m_h)[None, :], np.arange(m_a)[None, :]
    ul_term, um_term = half * s_ab, half_j * s_ab
    # alpha terms enter the mu blocks with +, beta terms with -
    for cols, mu_half, um in ((al, half_j, um_term), (be, -half_j, -um_term)):
        at_h, at_a = (k, units_h, cols[:, None]), (k, units_a, cols[:, None])
        block("w_lam", m_h)[at_h] += half * sig_lam.T[cols]
        block("w_mu", m_h)[at_h] += mu_half * sig_mu.T[cols]
        block("u_lam", m_a)[at_a] += ul_term
        block("u_mu", m_a)[at_a] += um
        jac[k, off["b_lam"] + cols[:, None]] += half
        jac[k, off["b_mu"] + cols[:, None]] += mu_half
    jac[:, off["c_lam"] : off["c_lam"] + m_h] += half * (sig_lam.T[al] + sig_lam.T[be])
    jac[:, off["c_mu"] : off["c_mu"] + m_h] += half_j * (sig_mu.T[al] - sig_mu.T[be])
    jac[:, off["d_lam"] :] += r[:, None] * s_ab
    return hermitian_rows(jac, d)


def hermitian_rows(upper: np.ndarray, d: int) -> np.ndarray:
    """The d^2 real coordinates, in which Re tr(X^dag Y) is a dot product, of a
    Hermitian array given by its entries in `_upper_pairs(d)` order (first axis):
    the real diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle."""
    rows = np.concatenate([upper[:d].real, upper[d:].real, upper[d:].imag])
    rows[d:] *= np.sqrt(2.0)
    return rows


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"
