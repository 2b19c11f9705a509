"""Per-entry reference implementations that pin the vectorized kernels in tests."""

from __future__ import annotations

import numpy as np

from qwndo.kernels import _logistic, _logistic_c, _softplus, _softplus_c, param_offsets
from qwndo.ndo import NdoParams


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
