"""Hot numeric kernels for the density-operator ansatz, vectorized in NumPy.

Parameters flatten block by block in the order of `param_shapes`, each
matrix row-major.
"""

from __future__ import annotations

import itertools
import math

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


def param_offsets(d: int, m_h: int, m_a: int) -> dict[str, int]:
    """Start offset of each parameter block in the flattened vector, plus "total"."""
    shapes = param_shapes(d, m_h, m_a)
    starts = itertools.accumulate(map(math.prod, shapes.values()), initial=0)
    return dict(zip([*shapes, "total"], starts))


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
    """Matrix of log density entries A plus the logistic caches its gradient needs.

    Returns (a, sig_lam, sig_mu, s_pair) with a (d, d) complex,
    sig_* = logistic(W + c) of shape (m_h, d) and s_pair the complex logistic
    of the ancilla pair argument, shape (m_a, d, d).
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
    return a, _logistic(x_lam), _logistic(x_mu), _logistic_c(z)


def assemble_jacobian(rho, sig_lam, sig_mu, s_pair):
    """Jacobian d(rho)/d(theta) as a (d*d, P) complex matrix.

    Row (alpha, beta) is rho[alpha, beta] * (dA[alpha, beta, :] - z), where
    z = sum_v rho[v, v] dA[v, v, :] is the gradient of log Z (zero on mu-group
    entries). The one-hot visible encoding confines weight-block nonzeros to
    the two columns alpha and beta, which keeps the fill O(d) per block.
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
    jac = rho.reshape(-1)[:, None] * (-z)[None, :].astype(np.complex128)
    j3 = jac.reshape(d, d, off["total"])
    wl = j3[:, :, off["w_lam"] : off["w_lam"] + m_h * d].reshape(d, d, m_h, d)
    wm = j3[:, :, off["w_mu"] : off["w_mu"] + m_h * d].reshape(d, d, m_h, d)
    ul = j3[:, :, off["u_lam"] : off["u_lam"] + m_a * d].reshape(d, d, m_a, d)
    um = j3[:, :, off["u_mu"] : off["u_mu"] + m_a * d].reshape(d, d, m_a, d)
    bl = j3[:, :, off["b_lam"] : off["b_lam"] + d]
    bm = j3[:, :, off["b_mu"] : off["b_mu"] + d]
    for v in range(d):
        row = rho[v, :, None]
        col = rho[:, v, None]
        wl[v, :, :, v] += 0.5 * row * sig_lam[:, v][None, :]
        wl[:, v, :, v] += 0.5 * col * sig_lam[:, v][None, :]
        wm[v, :, :, v] += 0.5j * row * sig_mu[:, v][None, :]
        wm[:, v, :, v] -= 0.5j * col * sig_mu[:, v][None, :]
        ul[v, :, :, v] += 0.5 * row * s_pair[:, v, :].T
        ul[:, v, :, v] += 0.5 * col * s_pair[:, :, v].T
        um[v, :, :, v] += 0.5j * row * s_pair[:, v, :].T
        um[:, v, :, v] -= 0.5j * col * s_pair[:, :, v].T
        bl[v, :, v] += 0.5 * rho[v, :]
        bl[:, v, v] += 0.5 * rho[:, v]
        bm[v, :, v] += 0.5j * rho[v, :]
        bm[:, v, v] -= 0.5j * rho[:, v]
    j3[:, :, off["c_lam"] : off["c_lam"] + m_h] += (
        0.5 * rho[:, :, None] * (sig_lam.T[:, None, :] + sig_lam.T[None, :, :])
    )
    j3[:, :, off["c_mu"] : off["c_mu"] + m_h] += (
        0.5j * rho[:, :, None] * (sig_mu.T[:, None, :] - sig_mu.T[None, :, :])
    )
    j3[:, :, off["d_lam"] :] += rho[:, :, None] * np.moveaxis(s_pair, 0, -1)
    return jac


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"
