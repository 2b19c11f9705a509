"""Reference implementations that pin the vectorized kernels and tables in tests.

The masked softplus and logistic functions, each with its own exp, define
what the kernel's product form of the ancilla sum must equal (A mod 2 pi i);
the full-triangle (m_a, d, d) `pair_cache`, the same product arithmetic
entry for entry, and the eager caches built on it check the upper-pair
kernel and the lazy caches of `ndo.NdoEval` bit for bit; the
per-entry NDO references and the brute-force purification check the
kernels and the closed-form state; the dense basis builder
(`basis_unitary` and friends) and the einsum contractions over its
(n_bases, d, d) stack check `measurement.BasisTables`, and `GatherBases`,
which contracts through each row's 2 x 2 outer product of coefficients,
pins its term-by-term contractions bit for bit; the two-scatter T and its
gathers pin `maxlik.t_matrix` and `maxlik.pack_t`; the dense P x P
metric and its plain solve check the rho-space `training.solve_metric`;
the complex Jacobian of all d^2 entries, filled one visible index at a
time, checks the real Hermitian-row Jacobian of `kernels.assemble_jacobian`,
whose dsyrk Gram, transpose product and Cholesky solve check the metric
that `training.gram`, `training._rho_pullback` and `training.solve_metric` form
without it, and whose extended-precision copy checks the gradient near a
basis state; the einsums over the mirrored (m_a, d, d) ancilla logistic
check `training._contract`'s upper-pair ancilla blocks;
the per-call gather, KL mask and data adjoint check the fit's cached ones;
the two-loop recursion that forms every s.y on use checks `training._Lbfgs`;
backtracking from the unit step on every search checks the warm-started
`training._armijo`;
two separate fits joined by a report merge check `training.fit_ndo`'s phases;
a Monte-Carlo average over coin phases checks `walk.dephasing_step`; the
walk with a dense Kraus list for mixing, the complex phase pair for
dephasing and the kron(I, sigma) Pauli sum for depolarizing checks the
entrywise channels of `walk.evolve`.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

from qwndo import kernels, ndo, training, walk
from qwndo.kernels import param_offsets, param_shapes
from qwndo.measurement import K_X, K_Y, n_bases
from qwndo.ndo import NdoParams
from qwndo.training import PROB_FLOOR, TrainConfig


BLOCK_NAMES = tuple(param_shapes(0, 0, 0))


def blocks(params: NdoParams) -> dict[str, np.ndarray]:
    """The nine parameter blocks of `kernels.param_shapes` by name, as
    read-only views of params: w_lam is params.w[0], w_mu is params.w[1], ..."""
    arrays = {f"{name}_{net}": getattr(params, name)[i]
              for name in "wubc" for i, net in enumerate(("lam", "mu"))}
    return {**arrays, "d_lam": params.d_lam}


def from_blocks(arrays: dict) -> NdoParams:
    """`NdoParams` from the nine blocks of `blocks`, by name, in any array form."""
    arrays = {name: np.asarray(arrays[name], dtype=float) for name in BLOCK_NAMES}
    (m_h, d), m_a = arrays["w_lam"].shape, arrays["u_lam"].shape[0]
    for name, shape in param_shapes(d, m_h, m_a).items():
        assert arrays[name].shape == shape, (name, arrays[name].shape, shape)
    vec = np.concatenate([arr.ravel() for arr in arrays.values()])
    return NdoParams.from_vector(d, m_h, m_a, vec)


def random_params(d: int, m_h: int, m_a: int, scale: float, seed: int = 0) -> NdoParams:
    """Parameters drawn i.i.d. uniform on [-scale, scale]: the draw of
    `ndo.init_params`, whose half-width is `ndo.INIT_SCALE`, at any other."""
    vec = np.random.default_rng(seed).uniform(-scale, scale, ndo.n_params(d, m_h, m_a))
    return NdoParams.from_vector(d, m_h, m_a, vec)


def random_t_params(d: int, scale: float, seed: int = 0) -> np.ndarray:
    """The draw of `maxlik.init_t_params`, uniform on [-0.1, 0.1] with the
    diagonal offset by 1, at the half-width `scale`."""
    params = np.random.default_rng(seed).uniform(-scale, scale, d * d)
    params[:d] += 1.0
    return params


def softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def logistic(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus_c(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z.real > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def logistic_c(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z.real >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def pair_cache(w, u, b, c, d_lam):
    """`kernels.pair_cache` over the full (m_a, d, d) ancilla triangle: the same
    stacked networks and the same product arithmetic entry for entry, each
    softplus with its own exp. Returns (a, x, pos, t, w_a), the ancilla
    factors on the full triangle."""
    x = w + c[:, :, None]
    half = 0.5 * (softplus(x).sum(axis=1) + b)
    re = 0.5 * (u[0][:, :, None] + u[0][:, None, :]) + d_lam[:, None, None]
    im = 0.5 * (u[1][:, :, None] - u[1][:, None, :])
    pos = re > 0
    mag = np.exp(-np.abs(re))
    t = mag * np.cos(im) + 1j * (np.where(pos, -mag, mag) * np.sin(im))
    w_a = 1.0 + t
    a_re = half[0][:, None] + half[0][None, :] + np.where(pos, re, 0.0).sum(axis=0)
    a_im = half[1][:, None] - half[1][None, :] + np.where(pos, im, 0.0).sum(axis=0)
    a = a_re + 1j * a_im
    for start in range(0, u.shape[1], kernels.PRODUCT_BLOCK):
        a += np.log(w_a[start : start + kernels.PRODUCT_BLOCK].prod(axis=0))
    return a, x, pos, t, w_a


def evaluate(params: NdoParams) -> SimpleNamespace:
    """`ndo.evaluate` through the full-triangle `pair_cache`, with the logistic
    caches computed up front; s_upper is read from the full-triangle logistic.
    It also keeps A and log Z = log sum_v exp(A(v, v)), the log-sum-exp that
    normalizes rho, which `ndo.evaluate` does not."""
    a, x, pos, t, w_a = pair_cache(params.w, params.u, params.b, params.c, params.d_lam)
    diag = a.diagonal().real
    log_z = float(diag.max() + np.log(np.exp(diag - diag.max()).sum()))
    rho = np.exp(a - log_z)
    al, be = kernels._upper_pairs(params.dim)
    sig = logistic(x)
    return SimpleNamespace(a=a, rho=rho, log_z=log_z, sig=sig,
                           s_upper=(np.where(pos, 1.0, t) / w_a)[:, al, be])


def a_entry(params: NdoParams, v: int, vp: int) -> complex:
    """Log density entry A(v, v') for basis indices v, v'."""
    blk = blocks(params)
    hs_l_v = softplus(blk["w_lam"][:, v] + blk["c_lam"]).sum()
    hs_l_vp = softplus(blk["w_lam"][:, vp] + blk["c_lam"]).sum()
    hs_m_v = softplus(blk["w_mu"][:, v] + blk["c_mu"]).sum()
    hs_m_vp = softplus(blk["w_mu"][:, vp] + blk["c_mu"]).sum()
    gamma_plus = 0.5 * (hs_l_v + hs_l_vp + blk["b_lam"][v] + blk["b_lam"][vp])
    gamma_minus = 0.5 * (hs_m_v - hs_m_vp + blk["b_mu"][v] - blk["b_mu"][vp])
    z = (
        0.5 * (blk["u_lam"][:, v] + blk["u_lam"][:, vp])
        + 0.5j * (blk["u_mu"][:, v] - blk["u_mu"][:, vp])
        + params.d_lam
    ).astype(np.complex128)
    return complex(gamma_plus + 1j * gamma_minus + softplus_c(z).sum())


def grad_a(params: NdoParams, v: int, vp: int) -> np.ndarray:
    """Derivative of A(v, v') w.r.t. the flattened parameters, complex length P.

    The one-hot encoding confines weight derivatives to columns v and vp.
    """
    d, m_h, m_a = params.dim, params.m_h, params.m_a
    off = param_offsets(d, m_h, m_a)
    g = np.zeros(off["total"], dtype=np.complex128)
    rows_h = np.arange(m_h) * d
    rows_a = np.arange(m_a) * d
    blk = blocks(params)
    sig_l_v = logistic(blk["w_lam"][:, v] + blk["c_lam"])
    sig_l_vp = logistic(blk["w_lam"][:, vp] + blk["c_lam"])
    sig_m_v = logistic(blk["w_mu"][:, v] + blk["c_mu"])
    sig_m_vp = logistic(blk["w_mu"][:, vp] + blk["c_mu"])
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
    s = logistic_c(
        (
            0.5 * (blk["u_lam"][:, v] + blk["u_lam"][:, vp])
            + 0.5j * (blk["u_mu"][:, v] - blk["u_mu"][:, vp])
            + params.d_lam
        ).astype(np.complex128)
    )
    g[off["u_lam"] + rows_a + v] += 0.5 * s
    g[off["u_lam"] + rows_a + vp] += 0.5 * s
    g[off["u_mu"] + rows_a + v] += 0.5j * s
    g[off["u_mu"] + rows_a + vp] -= 0.5j * s
    g[off["d_lam"] : off["d_lam"] + m_a] = s
    return g


def nearly_pure_subnormal(d: int, m_h: int, m_a: int) -> NdoParams:
    """A state dominated by basis state 0 whose coherences with the others
    sit in the subnormal range (exp(-720) ~ 1e-313) and whose other
    populations underflow to zero."""
    base = random_params(d, m_h, m_a, 0.3, seed=2)
    return from_blocks({**blocks(base), "b_lam": np.concatenate([[0.0], -1440.0 - np.arange(d - 1)])})


def purification_oracle(params: NdoParams, max_ancilla: int = 12) -> np.ndarray:
    """Brute-force state from the purified wavefunction, tracing the ancilla.

    Enumerates all 2^m_a binary ancilla configurations a and forms
    Psi(v, a) ~ sqrt(p_lam(v, a)) * exp(i log p_mu(v, a) / 2) with hidden
    units already marginalized inside p; the Gram sum over a, normalized to
    unit trace, must reproduce `ndo.density_matrix`.
    """
    if params.m_a > max_ancilla:
        raise ValueError(
            f"refusing to enumerate 2^{params.m_a} ancilla configurations "
            f"(limit m_a <= {max_ancilla})"
        )
    confs = (
        (np.arange(2 ** params.m_a)[:, None] >> np.arange(params.m_a)[None, :]) & 1
    ).astype(float)
    blk = blocks(params)
    hs_lam = softplus(blk["w_lam"] + blk["c_lam"][:, None]).sum(axis=0)
    hs_mu = softplus(blk["w_mu"] + blk["c_mu"][:, None]).sum(axis=0)
    log_p_lam = hs_lam[None, :] + confs @ blk["u_lam"] + blk["b_lam"][None, :] + (confs @ params.d_lam)[:, None]
    log_p_mu = hs_mu[None, :] + confs @ blk["u_mu"] + blk["b_mu"][None, :]
    shift = log_p_lam.max()  # cancels in the trace normalization
    psi = np.exp(0.5 * (log_p_lam - shift) + 0.5j * log_p_mu)
    rho = psi.T @ psi.conj()
    return rho / np.trace(rho).real


def eager_caches(params: NdoParams) -> tuple[np.ndarray, np.ndarray]:
    """(sig, s_upper) of `evaluate`, the values `ndo.NdoEval` computes on
    first use."""
    ev = evaluate(params)
    return ev.sig, ev.s_upper


def complex_jacobian(rho, sig, s_upper) -> np.ndarray:
    """Jacobian d(rho)/d(theta) of all d^2 entries as a (d*d, P) complex matrix.

    Row (alpha, beta) is rho[alpha, beta] * (dA[alpha, beta, :] - z), where
    z = sum_v rho[v, v] dA[v, v, :] is the gradient of log Z (zero on mu-group
    entries), filled one visible index v at a time in the precision of the
    inputs from the stacked hidden logistic sig (2, m_h, d) and the full
    (m_a, d, d) ancilla logistic, `s_upper` mirrored.
    `training._hermitian_rows` of it is `kernels.assemble_jacobian`.
    """
    d = rho.shape[0]
    sig_lam, sig_mu = sig
    m_h = sig.shape[1]
    m_a = s_upper.shape[0]
    s_pair = kernels.mirror(s_upper, d)
    off = param_offsets(d, m_h, m_a)
    pd = rho.diagonal().real
    s_diag = s_pair[:, np.arange(d), np.arange(d)].real
    z = np.zeros(off["total"], dtype=pd.dtype)
    z[off["w_lam"] : off["w_lam"] + m_h * d] = (sig_lam * pd[None, :]).ravel()
    z[off["u_lam"] : off["u_lam"] + m_a * d] = (s_diag * pd[None, :]).ravel()
    z[off["b_lam"] : off["b_lam"] + d] = pd
    z[off["c_lam"] : off["c_lam"] + m_h] = sig_lam @ pd
    z[off["d_lam"] : off["d_lam"] + m_a] = s_diag @ pd
    jac = rho.reshape(-1)[:, None] * (-z)[None, :].astype(rho.dtype)
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


def contract_full(ev, e_mat: np.ndarray) -> np.ndarray:
    """`training._contract` over the full (m_a, d, d) ancilla logistic, `s_upper`
    mirrored: its row sums, column sums and total against E by three einsums."""
    s_pair = kernels.mirror(ev.s_upper, e_mat.shape[0])
    rs = e_mat.sum(axis=1)
    cs = e_mat.sum(axis=0)
    plus, minus = 0.5 * (rs + cs), 0.5j * (rs - cs)
    sig_lam, sig_mu = ev.sig
    row_u = np.einsum("iab,ab->ia", s_pair, e_mat)
    col_u = np.einsum("iab,ab->ib", s_pair, e_mat)
    grads = {
        "w_lam": sig_lam * plus, "w_mu": sig_mu * minus,
        "u_lam": 0.5 * (row_u + col_u), "u_mu": 0.5j * (row_u - col_u),
        "b_lam": plus, "b_mu": minus,
        "c_lam": sig_lam @ plus, "c_mu": sig_mu @ minus,
        "d_lam": np.einsum("iab,ab->i", s_pair, e_mat),
    }
    return np.concatenate([grads[name].ravel() for name in BLOCK_NAMES])


def rho_jacobian(params: NdoParams) -> np.ndarray:
    """d(rho)/d(theta) flattened row-major over (alpha, beta): (d*d, P) complex."""
    return complex_jacobian(ndo.density_matrix(params), *eager_caches(params))


def monte_carlo_dephasing(rho: np.ndarray, delta_beta: float, n_samples: int, seed: int) -> np.ndarray:
    """Coin dephasing by the empirical mean phase of n_samples draws of
    beta ~ U[-delta_beta, delta_beta], which equals the sample average of the
    conjugations by exp(i*beta*sigma_z/2) by linearity."""
    betas = np.random.default_rng(seed).uniform(-delta_beta, delta_beta, n_samples)
    factor = complex(np.exp(1j * betas).mean())
    out = np.array(rho, dtype=np.complex128, copy=True)
    out[0::2, 1::2] *= factor
    out[1::2, 0::2] *= np.conj(factor)
    return out


PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


def kraus_operators(alpha: float, n_steps: int, w_s: float, w_l: float) -> list[np.ndarray]:
    """Kraus set for one mixing step: coherent part plus coin and site projections.

    E_0 = sqrt(1 - w_s - w_l) U, one sqrt(w_s) P_coin U per coin value and
    one sqrt(w_l) P_site U per lattice site; sums to identity by construction.
    """
    n_sites = n_steps + 1
    d = 2 * n_sites
    u = walk.step_unitary(alpha, n_steps)
    ops = [np.sqrt(1.0 - w_s - w_l) * u]
    if w_s > 0:
        for c in (0, 1):
            proj = np.zeros(d)
            proj[c::2] = 1.0
            ops.append(np.sqrt(w_s) * (proj[:, None] * u))
    if w_l > 0:
        for l in range(n_sites):
            proj = np.zeros(d)
            proj[2 * l : 2 * l + 2] = 1.0
            ops.append(np.sqrt(w_l) * (proj[:, None] * u))
    return ops


def dense_evolve(config: walk.WalkConfig) -> np.ndarray:
    """The walk with every channel in its operator form: a mixing step is
    sum_k E_k rho E_k^dag over `kraus_operators`, dephasing multiplies the
    up-down blocks by complex sinc(delta_beta) and its conjugate, and
    depolarizing adds p/3 of each kron(I, sigma) conjugation to (1-p) rho."""
    n = config.n_steps
    rho = walk.initial_state(n)
    for alpha in config.coin_angles:
        if config.noise == "mixing":
            out = np.zeros_like(rho)
            for e in kraus_operators(alpha, n, config.w_s, config.w_l):
                out += e @ rho @ e.conj().T
            rho = out
            continue
        u = walk.step_unitary(alpha, n)
        rho = u @ rho @ u.conj().T
        if config.noise == "dephasing":
            factor = complex(np.sinc(config.delta_beta / np.pi))
            rho[0::2, 1::2] *= factor
            rho[1::2, 0::2] *= np.conj(factor)
        elif config.noise == "depolarizing":
            out = (1.0 - config.p) * rho
            for sigma in PAULIS:
                k = np.kron(np.eye(n + 1), sigma)
                out += (config.p / 3.0) * (k @ rho @ k.conj().T)
            rho = out
    return rho


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


class GatherBases:
    """`measurement.BasisTables` contractions through the (n_bases, d, 2, 2)
    outer product c_s conj(c_t) of each row's coefficients, with the gather
    index formed on every call from the (row, column) index pair: the
    arithmetic the tables' term-by-term contractions reproduce bit for bit."""

    def __init__(self, tables):
        self.tables = tables
        self.n_bases, self.dim = tables.n_bases, tables.dim

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        index, c = self.tables.index, self.tables.coef
        sub = rho[index[..., :, None], index[..., None, :]]  # (n_b, d, 2, 2)
        return (c[..., :, None] * sub * c.conj()[..., None, :]).sum(axis=(-2, -1)).real

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        d, index, c = self.dim, self.tables.index, self.tables.coef
        vals = (w[..., None, None] * c[..., :, None] * c.conj()[..., None, :]).ravel()
        flat = (index[..., :, None] * d + index[..., None, :]).ravel()
        m = np.bincount(flat, vals.real, d * d) + 1j * np.bincount(flat, vals.imag, d * d)
        return m.reshape(d, d)


def kl_distance(data: np.ndarray, model: np.ndarray) -> float:
    """`training.KlObjective.cost` with the mask and the data's logs taken on every call."""
    mask = data > 0
    d = data[mask]
    m = np.maximum(model[mask], PROB_FLOOR)
    return float(np.sum(d * (np.log(d) - np.log(m))))


def data_adjoint(rho: np.ndarray, data: np.ndarray, bases) -> np.ndarray:
    """`training.KlObjective._adjoint` with the model probabilities formed on
    every call: M(a,b) = sum_nj w_nj U^n(j,a) conj(U^n(j,b)), w = data/model."""
    pm = bases.probabilities(rho)
    w = np.where(data > 0, data / np.maximum(pm, PROB_FLOOR), 0.0)
    return bases.adjoint(w)


def t_matrix(t_params: np.ndarray, d: int) -> np.ndarray:
    """`maxlik.t_matrix` as two scatters into the complex T: the diagonal,
    then the strictly-lower entries formed as re + 1j * im."""
    t = np.zeros((d, d), dtype=np.complex128)
    t[np.diag_indices(d)] = t_params[:d]
    t[np.tril_indices(d, -1)] = t_params[d::2] + 1j * t_params[d + 1 :: 2]
    return t


def pack_t(t: np.ndarray) -> np.ndarray:
    """`maxlik.pack_t` as separate gathers of the diagonal's real part and
    the strictly-lower entries' real and imaginary parts."""
    d = t.shape[0]
    out = np.empty(d * d)
    out[:d] = np.diag(t).real
    lower = t[np.tril_indices(d, -1)]
    out[d::2] = lower.real
    out[d + 1 :: 2] = lower.imag
    return out


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


def lbfgs_direction(pairs, g: np.ndarray) -> np.ndarray:
    """The L-BFGS two-loop recursion over curvature pairs (s, y), forming s.y
    on every use."""
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = float(s @ q) / float(s @ y)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = float(y @ q) / float(s @ y)
        q += (a - b) * s
    return -q


def backtracking_armijo(fun, x, f0, g, p):
    """Armijo backtracking from LS_INIT_STEP: the first of LS_INIT_STEP,
    LS_INIT_STEP/2, ... down to LS_MIN_STEP that passes, or None."""
    slope = float(g @ p)
    if slope >= 0.0:
        return None
    eta = training.LS_INIT_STEP
    for _ in range(training.LS_MAX_HALVINGS + 1):
        xn = x + eta * p
        fn = fun(xn)
        if fn - f0 <= training.LS_ARMIJO * eta * slope:
            return xn, fn, eta
        eta *= training.LS_SHRINK
    return None


def dense_metric(jac: np.ndarray) -> np.ndarray:
    """G = Re(J^dag J) over the (d^2, P) complex state Jacobian."""
    return (jac.conj().T @ jac).real


def dense_metric_direction(metric: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """(G + eps * (tr G / P) I)^-1 grad by a plain dense solve."""
    p = metric.shape[0]
    return np.linalg.solve(metric + eps * np.trace(metric) / p * np.eye(p), grad)


def jacobian_rows(ev) -> np.ndarray:
    """The real Hermitian-row Jacobian J_r at an evaluation, which no fit forms."""
    return kernels.assemble_jacobian(ev.rho, ev.sig, ev.s_upper)


def extended_jacobian_rows(ev) -> np.ndarray:
    """J_r at an evaluation in 80-bit extended precision (np.longdouble): the
    `complex_jacobian` of its double caches, reduced to Hermitian rows, so
    that its products keep about three more digits than the library's."""
    def widen(a):
        return a.astype(np.clongdouble if np.iscomplexobj(a) else np.longdouble)

    d = ev.rho.shape[0]
    jac = complex_jacobian(widen(ev.rho), widen(ev.sig), widen(ev.s_upper))
    return training._hermitian_rows(jac.reshape(d, d, -1))


def jacobian_gram(jr: np.ndarray) -> np.ndarray:
    """K = J_r J_r^T as one real rank-P update."""
    upper = dsyrk(1.0, jr.T, trans=1, lower=0)
    return upper + np.triu(upper, 1).T


def jacobian_solve_metric(jr: np.ndarray, e: np.ndarray, eps: float) -> np.ndarray:
    """The natural-gradient direction through the formed Jacobian: J_r^T y with
    (K + lam I) y = e, K = `jacobian_gram`(J_r) and lam = eps tr K / P, solved
    by Cholesky of a copy of K + lam I with three steps of iterative
    refinement, the reference for `training.solve_metric`'s single in-place
    solve without J_r."""
    k = jacobian_gram(jr)
    t_bar = float(np.trace(k)) / jr.shape[1]
    if not np.isfinite(t_bar) or t_bar <= 0.0:
        return jr.T @ e
    reg = k + (eps * t_bar) * np.eye(k.shape[0])
    factor = cho_factor(reg, lower=True, check_finite=False)
    y = cho_solve(factor, e)
    scale = np.linalg.norm(e)
    for _ in range(3):
        residual = e - reg @ y
        if np.linalg.norm(residual) <= 1e-12 * scale:
            break
        y = y + cho_solve(factor, residual)
    return jr.T @ y


def two_phase_fit_ndo(ds, bases, d, m_h, m_a, seed=0, warmup_iters=500, polish_iters=300,
                      grad_tol=1e-8):
    """`training.fit_ndo` as two fits: an L-BFGS warm-up, then a GNGD polish on
    a fresh objective from the warm-up's end point, their reports merged at
    the seam, which both fits evaluate. Returns the parameters, the merged
    report and the warm-up's own report."""
    init = ndo.mixed_init_params(d, m_h, m_a, seed=seed)
    mid, warm = training.optimize((TrainConfig("lbfgs", grad_tol, warmup_iters),), ds, bases, init)
    params, polish = training.optimize((TrainConfig("gngd", grad_tol, polish_iters),), ds, bases, mid)
    merged = dataclasses.replace(
        polish,
        optimizer="lbfgs+gngd",
        costs=warm.costs + polish.costs[1:],
        grad_norms=warm.grad_norms + polish.grad_norms[1:],
        step_sizes=warm.step_sizes + polish.step_sizes,
        millis=warm.millis + polish.millis,
    )
    return params, merged, warm
