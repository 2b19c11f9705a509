"""Hot numeric kernels for the density-operator ansatz, vectorized in NumPy.

Parameters flatten block by block in the order of `param_shapes`, each
matrix row-major; each lam block sits next to its mu block, so the two
networks are read as stacked (2, ...) views (`ndo.NdoParams`) and evaluated
in one pass. The block names of `param_shapes` are the checkpoint's arrays
and the offsets of `param_offsets`; no parameter object carries them. The
log density A and every per-pair quantity derived from it are Hermitian in
the index pair, so the complex ancilla terms live on the d(d+1)/2 upper pairs
(`_upper_pairs`) only: A is `mirror`ed by conjugation, and the gradient, the
metric and `assemble_jacobian` read the ancilla logistic there. The ancilla
sum of complex softplus terms is taken as the log of a product of factors
1 + t (`pair_cache`), so A is exact mod 2 pi i, which leaves rho = exp(A) / Z
unchanged. Each softplus keeps its exp, and each logistic reuses it (the
ancilla's, its factor). `assemble_jacobian` builds the real state Jacobian,
which no fit forms: the reference that `training.gram` and the metric's
pullback are tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType

import numpy as np


def param_shapes(d: int, m_h: int, m_a: int) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter block, in flattening order; also the arrays,
    by name, of a checkpoint (`ndo.save_checkpoint`)."""
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
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


# Ancillas per factor of the product form: each factor 1 + t has |1 + t| <= 2,
# so a block's product stays below 2^512, far inside the double range.
PRODUCT_BLOCK = 512


def pair_cache(w, u, b, c, d_lam):
    """Matrix of log density entries A plus what its derivatives reuse.

    Takes the two networks stacked, lam then mu on the first axis: w (2, m_h, d),
    u (2, m_a, d), b (2, d) and c (2, m_h), as `ndo.NdoParams` holds them, plus
    the ancilla bias d_lam (m_a,). Returns (a, x, t_x, pos, t, w_a): a is the
    (d, d) complex A; x = W + c, shape (2, m_h, d), and t_x = exp(-|x|) are
    the hidden pre-activations and the exps of their softplus; pos, t and
    w_a = 1 + t are the ancilla factors on the d(d+1)/2 upper index pairs
    (`_upper_pairs` order), shape (m_a, pairs).

    The ancilla argument is z = x + iy with x = (u_lam(v) + u_lam(v'))/2 + d_lam
    and y = (u_mu(v) - u_mu(v'))/2. Its softplus is z + log(1 + e^-z) where
    pos = x > 0 and log(1 + e^z) elsewhere, so the ancilla sum is taken as a
    product, Pi = sum_i [pos_i] z_i + log prod_i (1 + t_i), with
    t = e^-|x| e^(-+iy) (minus where pos) from one real exp, cos and sin per
    entry. The product runs over blocks of PRODUCT_BLOCK ancillas with one
    complex log per block. The log's branch differs from the sum of the
    softplus branches by a multiple of 2 pi i, so A is exact mod 2 pi i and
    rho = exp(A) / Z is unchanged. z(v', v) = conj z(v, v'), so A is formed on
    the upper pairs and `mirror`ed; the gradient and the metric read the
    logistics, which `ndo.NdoEval` forms from these factors on first use.
    """
    d = w.shape[2]
    m_a = u.shape[1]
    x = w + c[:, :, None]
    sp, t_x = _softplus(x)
    half = 0.5 * (sp.sum(axis=1) + b)  # half of each network's visible term, (2, d)
    al, be = _upper_pairs(d)
    # The take method keeps the (m_a, pairs) arrays C-ordered (u[..., al] would
    # not), so the reductions over ancillas run one ancilla after another, as
    # on the full (m_a, d, d) triangle.
    u_al, u_be = u.take(al, axis=2), u.take(be, axis=2)
    re = 0.5 * (u_al[0] + u_be[0]) + d_lam[:, None]
    im = 0.5 * (u_al[1] - u_be[1])
    pos = re > 0
    mag = np.exp(-np.abs(re))
    t = np.empty(re.shape, dtype=np.complex128)
    np.multiply(mag, np.cos(im), out=t.real)
    np.multiply(np.where(pos, -mag, mag), np.sin(im), out=t.imag)
    w_a = 1.0 + t
    h_al, h_be = half.take(al, axis=1), half.take(be, axis=1)
    a_re = h_al[0] + h_be[0] + np.where(pos, re, 0.0).sum(axis=0)
    a_im = h_al[1] - h_be[1] + np.where(pos, im, 0.0).sum(axis=0)
    a = a_re + 1j * a_im
    for start in range(0, m_a, PRODUCT_BLOCK):
        a += np.log(w_a[start : start + PRODUCT_BLOCK].prod(axis=0))
    return mirror(a, d), x, t_x, pos, t, w_a


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


def assemble_jacobian(rho, sig, s_upper):
    """Real Jacobian J_r of rho's d^2 Hermitian coordinates, shape (d*d, P);
    the test reference of `training.gram` (J_r J_r^T) and its pullback J_r^T y,
    from the same caches: the stacked hidden logistic sig (2, m_h, d), lam
    then mu, and the ancilla logistic s_upper on the upper pairs.

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
    sig_lam, sig_mu = sig
    m_h = sig.shape[1]
    m_a = s_upper.shape[0]
    off = param_offsets(d, m_h, m_a)
    pd = rho.diagonal().real
    s_diag = s_upper[:, :d].real
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
    s_ab = s_upper.T  # (pairs, m_a)

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
