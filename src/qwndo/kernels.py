"""Hot numeric kernels for the density-operator ansatz, vectorized in NumPy.

Parameters flatten block by block in the order of `param_shapes`, each
matrix row-major. The log density A and every per-pair quantity derived from
it are Hermitian in the index pair, so the complex ancilla terms are computed
on the d(d+1)/2 upper pairs (`_upper_pairs`) and `mirror`ed by conjugation.
Each softplus keeps the exp it evaluates, and the matching logistic reuses it:
one exp per pre-activation serves the state, the gradient and the Jacobian.
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


def _softplus(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + e^x) and the t = exp(-|x|) it evaluates, which `_logistic` reuses."""
    t = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(t), t


def _logistic(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) from the t of `_softplus(x)`: 1/w where x >= 0, else t/w, w = 1 + t."""
    w = 1.0 + t
    out = t / w
    np.divide(1.0, w, out=out, where=x >= 0)
    return out


def _softplus_c(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex log(1 + e^z) and the exp it evaluates, t = exp(-z) where Re z > 0
    and exp(z) elsewhere: log1p(t), plus z where Re z > 0."""
    pos = z.real > 0
    t = np.exp(np.where(pos, -z, z))
    out = np.log1p(t)
    np.add(out, z, out=out, where=pos)
    return out, t


def _logistic_c(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Complex 1 / (1 + e^-z) from the t of `_softplus_c(z)`: 1/w where Re z >= 0,
    else t/w, w = 1 + t. Where Re z == 0 exactly, t is exp(z), so only there
    is exp(-z) evaluated again."""
    w = 1.0 + t
    out = t / w
    np.divide(1.0, w, out=out, where=z.real >= 0)
    zero = z.real == 0
    if zero.any():
        out[zero] = 1.0 / (1.0 + np.exp(-z[zero]))
    return out


def pair_cache(w_lam, w_mu, u_lam, u_mu, b_lam, b_mu, c_lam, c_mu, d_lam):
    """Matrix of log density entries A plus what its derivatives reuse.

    Returns (a, x_lam, t_lam, x_mu, t_mu, z, t_z): a is (d, d) complex; x_* = W + c
    has shape (m_h, d) and t_* = exp(-|x_*|); z is the complex ancilla argument
    on the d(d+1)/2 upper index pairs (`_upper_pairs` order), shape
    (m_a, pairs), and t_z the exp its softplus evaluates. z(b, a) = conj z(a, b),
    so the softplus and its sum over ancillas run on the upper pairs only, and
    the sum is `mirror`ed into A. The gradient and the Jacobian read
    logistic(x_*) and the complex logistic of z, which `ndo.NdoEval` forms from
    these exps on first use.
    """
    d = w_lam.shape[1]
    x_lam = w_lam + c_lam[:, None]
    x_mu = w_mu + c_mu[:, None]
    sp_lam, t_lam = _softplus(x_lam)
    sp_mu, t_mu = _softplus(x_mu)
    hs_lam = sp_lam.sum(axis=0)
    hs_mu = sp_mu.sum(axis=0)
    al, be = _upper_pairs(d)
    # np.take keeps z C-ordered (u[:, al] would not), so the sum over ancillas
    # adds one ancilla after another, as on the full (m_a, d, d) array, and
    # conjugating the summed upper pairs gives the lower ones exactly.
    z = (
        0.5 * (np.take(u_lam, al, axis=1) + np.take(u_lam, be, axis=1))
        + 0.5j * (np.take(u_mu, al, axis=1) - np.take(u_mu, be, axis=1))
        + d_lam[:, None]
    )
    sp_z, t_z = _softplus_c(z)
    pi = mirror(sp_z.sum(axis=0), d)
    gamma_plus = 0.5 * (hs_lam[:, None] + hs_lam[None, :] + b_lam[:, None] + b_lam[None, :])
    gamma_minus = 0.5 * (hs_mu[:, None] - hs_mu[None, :] + b_mu[:, None] - b_mu[None, :])
    a = gamma_plus + 1j * gamma_minus + pi
    return a, x_lam, t_lam, x_mu, t_mu, z, t_z


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


def mirror(upper: np.ndarray, d: int) -> np.ndarray:
    """The (..., d, d) array X with X[..., b, a] = conj X[..., a, b], from its
    entries in `_upper_pairs(d)` order along the last axis."""
    al, be = _upper_pairs(d)
    full = np.empty(upper.shape[:-1] + (d, d), dtype=upper.dtype)
    full[..., al, be] = upper
    full[..., be[d:], al[d:]] = upper[..., d:].conj()
    return full


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
        return jac[:, off[name] : off[name] + width * d].reshape(jac.shape[0], width, d)

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
