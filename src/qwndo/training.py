"""KL-divergence fitting of a parameterized density operator to measurement data.

The cost is the total statistical distance summed over all measured bases,
D = sum_n sum_j P_n(j) log[P_n(j) / P_model_n(j)], with the exact analytic
gradient (no sampling). `KlObjective` computes it for the network ansatz and
the MaxLik baseline alike, forming each point's model distributions and the
adjoint M = -dD/drho once from the 2-sparse `measurement.BasisTables`, the
only basis representation. One loop runs a sequence of optimizer phases,
each from where the last stopped, and four optimizers share its Armijo line
search and stopping rule: plain gradient descent, Polak-Ribiere-plus
conjugate gradient, L-BFGS, and natural gradient descent preconditioned by
the Gram metric G = Re(J^dag J) of the flattened-state Jacobian J, i.e. the
pullback of a flat metric on density-matrix entries. The search halves a
failing first trial and doubles a passing one up to the unit step; gradient
and natural-gradient descent take their first trial from the last accepted
step, the others from the unit step.
rho is Hermitian, so J has d^2 independent real rows J_r
(`kernels.hermitian_rows`); G = J_r^T J_r, and the gradient is J_r^T e for
the same coordinates e of -M^T. The push-through identity
(J_r^T J_r + lam I)^-1 J_r^T = J_r^T (J_r J_r^T + lam I)^-1 (Rende et al.,
Commun. Phys. 2024) makes the metric solve d^2 x d^2. Neither product needs
J_r (Schraudolph, Neural Comput. 14, 2002): `gram` forms K = J_r J_r^T from
the one-hot structure of the network in O(d^4 (m_h + m_a)), and
`_rho_pullback` forms J_r^T y, the gradient at y = e, by one contraction.
`kernels.assemble_jacobian` builds J_r only for the tests that check both.
All three read the same two caches of `ndo.NdoEval`: the hidden logistic of
both networks stacked, (2, m_h, d), and the ancilla logistic on the upper
index pairs. SciPy's one use is the metric's Cholesky factor and solve:
`solve_metric` imports `scipy.linalg.lapack` when it first factors a metric, so a
process that never runs natural gradient descent (MaxLik, simulation, data
generation) never loads it.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import fileio, kernels, metrics, ndo
from .measurement import BasisTables

PROB_FLOOR = 1e-12  # inside logs and the matching gradient weights

OPTIMIZERS = ("gd", "cg", "lbfgs", "gngd")

LS_INIT_STEP = 1.0  # largest Armijo trial step, and the first one unless warm-started
LS_SHRINK = 0.5  # halving factor of a failed trial; a passing warm start grows by its inverse
LS_ARMIJO = 1e-4  # sufficient-decrease constant
LS_MAX_HALVINGS = 30
LS_MIN_STEP = LS_INIT_STEP * LS_SHRINK**LS_MAX_HALVINGS  # smallest trial step
# Optimizers whose direction has no natural unit length start each search at
# the phase's last accepted step (Nocedal & Wright, Numerical Optimization,
# sec. 3.5). L-BFGS scales its direction so that the unit step is the natural
# trial, and warm-started it took more evaluations; MaxLik's CG steps accept
# the unit step, so CG keeps it too.
WARM_START = ("gd", "gngd")
LBFGS_MEMORY = 10  # curvature pairs kept by L-BFGS
METRIC_EPS = 1e-6  # relative jitter on the metric solve, the floor of the damping schedule


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "gngd"
    grad_tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0 < self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be finite and > 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class TrainReport:
    """Optimizer trace: costs[i] is the cost before step i, plus the final cost.

    grad_norms holds one entry per point as well, the start and each accepted
    step, so the last entries of costs and grad_norms are final.
    """

    optimizer: str
    costs: list[float]
    grad_norms: list[float]
    step_sizes: list[float]
    millis: list[float]
    termination: str  # grad_tol | max_iters | line-search failure
    fidelity: float | None = None
    purity: float | None = None
    purity_error: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)

    @property
    def final_cost(self) -> float:
        return self.costs[-1]

    @property
    def final_grad_norm(self) -> float:
        return self.grad_norms[-1]

    def score(self, rho: np.ndarray, target: np.ndarray) -> None:
        """Record the fidelity, purity and purity error of the fitted rho against target."""
        self.fidelity = metrics.fidelity(rho, target)
        self.purity = metrics.purity(rho)
        self.purity_error = metrics.purity_error(rho, target)

    def rows(self) -> list[tuple[int, float, float, float, float]]:
        """(iter, cost, grad_norm, step, millis) per executed iteration."""
        return [
            (i, self.costs[i], self.grad_norms[i], self.step_sizes[i], self.millis[i])
            for i in range(len(self.step_sizes))
        ]

    def save_csv(self, path) -> None:
        fileio.write_csv(path, ["iter", "cost", "grad_norm", "step", "millis"], self.rows())

    def to_dict(self) -> dict:
        return {
            "optimizer": self.optimizer,
            "iterations": self.iterations,
            "termination": self.termination,
            "final_cost": self.final_cost,
            "final_grad_norm": self.final_grad_norm,
            "fidelity": self.fidelity,
            "purity": self.purity,
            "purity_error": self.purity_error,
            "costs": self.costs,
            "grad_norms": self.grad_norms,
            "step_sizes": self.step_sizes,
            "millis": self.millis,
        }

    def save_json(self, path) -> None:
        fileio.write_json(path, self.to_dict())


def _data_probs(ds, bases: BasisTables, d: int) -> np.ndarray:
    """The dataset's (n_bases, d) probabilities, checked against the bases and
    model dimension d, and finite and nonnegative: the cost's mask data > 0
    would drop a NaN or negative entry without a word."""
    data = np.asarray(ds.probs if hasattr(ds, "probs") else ds, dtype=float)
    if data.ndim != 2 or data.shape[0] != bases.n_bases:
        raise ValueError(f"n_bases mismatch: dataset shape {data.shape}, {bases.n_bases} bases")
    if data.shape[1] != d or bases.dim != d:
        raise ValueError(f"dim mismatch: dataset {data.shape[1]}, bases {bases.dim}, model {d}")
    bad = np.argwhere(~(np.isfinite(data) & (data >= 0)))
    if bad.size:
        n, j = bad[0]
        raise ValueError(f"dataset probability {data[n, j]} at basis n={n}, outcome j={j}; "
                         "need finite and >= 0")
    return data


def model_distributions(rho: np.ndarray, bases: BasisTables) -> np.ndarray:
    """diag(U^n rho U^n^dag) for every basis, shape (n_bases, d)."""
    return bases.probabilities(rho)


def _hermitian_rows(a: np.ndarray) -> np.ndarray:
    """`kernels.hermitian_rows` of a Hermitian (d, d, ...) array."""
    d = a.shape[0]
    return kernels.hermitian_rows(a[kernels._upper_pairs(d)], d)


def _covector(m: np.ndarray) -> np.ndarray:
    """Y = -M, the cost's derivative in rho, without its identity part, which
    J_r^T annihilates (rho keeps unit trace) only in exact arithmetic."""
    y = -m
    d = y.shape[0]
    y.reshape(-1)[:: d + 1] -= y.diagonal().real.sum() / d
    return y


def _grad_from_eval(ev: ndo.NdoEval, y_mat: np.ndarray) -> np.ndarray:
    """Analytic cost gradient, the `_rho_pullback` of Y = `_covector`(M) for the
    adjoint M of `KlObjective`. Its E is Hermitian, so a network block's imaginary
    part is roundoff (the ancilla blocks are real); a larger one raises RuntimeError."""
    g = _rho_pullback(ev, y_mat)
    resid = np.abs(g.imag).max()
    scale = max(1.0, float(np.abs(g.real).max()))
    if resid > 1e-10 * scale:
        raise RuntimeError(f"gradient imaginary residue {resid:.3e} exceeds roundoff")
    return g.real.copy()


def _rho_pullback(ev: ndo.NdoEval, y_mat: np.ndarray) -> np.ndarray:
    """sum_ab Y_ab drho_ab / d theta for a Hermitian (d, d) Y, a complex vector
    whose real part is J_r^T y for Y's Hermitian-row coordinates y: the
    `_contract` of E = rho .* Y - (sum rho .* Y) diag(rho_vv), as
    drho_ab = rho_ab (dA_ab - z) with z = sum_v rho_vv dA_vv.

    sum E = (sum rho .* Y)(1 - tr rho), and E_ss of the largest population is
    set from it: near a basis state E_ss is small, and rho_ss (Y_ss - sum rho .* Y)
    would leave it the roundoff of O(Y) terms."""
    e_mat = ev.rho * y_mat
    total = e_mat.sum().real
    pd = ev.rho.diagonal().real
    e_mat.reshape(-1)[:: pd.size + 1] -= total * pd
    top, off_trace = _largest_population(pd)
    e_mat[top, top] = 0.0
    e_mat[top, top] = total * off_trace - e_mat.sum().real
    return _contract(ev, e_mat)


def _contract(ev: ndo.NdoEval, e_mat: np.ndarray) -> np.ndarray:
    """sum_ab E_ab dA_ab / d theta by dA's one-hot structure, as a complex vector
    whose real part is the contraction with a Hermitian (d, d) E. Like the
    parameter vector, the pieces come stacked, lam then mu: the networks'
    weights, visible and hidden biases read E's row and column sums through
    pm = (plus, minus) and the stacked logistic. The ancilla blocks Re r,
    -Im r, sum Re r read only E's upper triangle, E assumed Hermitian: s times
    E then mirrors by conjugation, so r, the row sums of its mirrored upper
    pairs, are its column sums conjugated."""
    rs = e_mat.sum(axis=1)
    cs = e_mat.sum(axis=0)
    pm = np.array([0.5 * (rs + cs), 0.5j * (rs - cs)])
    d = e_mat.shape[0]
    r = kernels.mirror(ev.s_upper * e_mat[kernels._upper_pairs(d)], d).sum(axis=2)
    pieces = (
        ev.sig * pm[:, None, :],  # w
        r.real, -r.imag,  # u
        pm,  # b
        ev.sig @ pm[:, :, None],  # c
        r.real.sum(axis=1),  # d_lam
    )
    return np.concatenate([piece.ravel() for piece in pieces])


def _row_matrix(y: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian (d, d) Y with Hermitian-row coordinates y: Y_aa = y_a and
    Y_ab = (y_re - i y_im) / sqrt 2 above the diagonal, so sum Y .* drho = J_r^T y."""
    n = (y.size + d) // 2
    return kernels.mirror(np.concatenate([y[:d], (y[d:n] - 1j * y[n:]) / np.sqrt(2.0)]), d)


def _largest_population(pd: np.ndarray) -> tuple[int, float]:
    """The index s of the largest population and 1 - tr rho, which is roundoff;
    1 - rho_ss is exact when rho_ss >= 1/2, so the defect is formed from it."""
    top = int(pd.argmax())
    return top, (1.0 - pd[top]) - np.concatenate([pd[:top], pd[top + 1:]]).sum()


@functools.lru_cache(maxsize=16)
def _pair_matches(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a stacked (2, pairs, pairs) array where the upper pairs
    p = (a, b) and q = (c, e) share a one-hot visible index: (a == c in the
    first slice, a == e in the second) and (b == e, b == c), the few entries
    where the ancilla Grams gain a term (read-only, shared by all calls)."""
    al, be = kernels._upper_pairs(d)
    size = al.size * al.size
    out = tuple(
        np.concatenate([np.flatnonzero(x[:, None] == y[None, :]),
                        size + np.flatnonzero(u[:, None] == w[None, :])])
        for x, y, u, w in ((al, al, al, be), (be, be, be, al))
    )
    for arr in out:
        arr.setflags(write=False)
    return out


def gram(rho: np.ndarray, sig: np.ndarray, s_upper: np.ndarray) -> np.ndarray:
    """K = J_r J_r^T, the (d^2, d^2) metric in rho-space, from the evaluation's
    caches: the stacked hidden logistic sig (2, m_h, d) and the upper-pair
    ancilla logistic s_upper; J_r itself is never formed.

    Row p = (a, b), a <= b, of the complex Jacobian is J_p = rho_p (dA_p - z),
    with z = sum_v rho_vv dA_vv the gradient of log Z. The one-hot visible
    encoding gives D = sum_theta conj(dA_p) dA_q and E = sum_theta dA_p dA_q,
    q = (c, e), in closed form:
    - the networks add lam + mu to D and lam - mu to E, where the lam part is
      (delta_a + delta_b)^T Phi_lam (delta_c + delta_e) and the mu part
      (delta_a - delta_b)^T Phi_mu (delta_c - delta_e), with each network's
      Gram Phi = (sig^T sig + diag(sum_h sig^2 + 1)) / 4 over its hidden
      weights, hidden biases and visible biases;
    - the ancillas add G (1 + [a=c]/2 + [b=e]/2) to D and
      H (1 + [a=e]/2 + [b=c]/2) to E, with G = s^H s and H = s^T s over the
      upper-pair logistic s (`_pair_matches`).
    log Z enters through v_q = sum_v rho_vv D_(vv)q and w = sum_v rho_vv v_(vv):
    C = conj(rho_p) rho_q (D - conj v_p - v_q + w) is sum_theta conj(J_p) J_q
    and T = rho_p rho_q (E - v_p - v_q + w) is sum_theta J_p J_q, where every
    dA is first shifted by dA_ss of the largest population, which z - dA_ss
    absorbs (the comment below says why). In
    `kernels.hermitian_rows` order K holds Re and Im of (C +- T) / 2, with
    sqrt 2 on the off-diagonal coordinates. The work is O(d^4 (m_h + m_a)),
    against O(d^4 P) for the Gram of J_r.
    """
    d = rho.shape[0]
    al, be = kernels._upper_pairs(d)
    n = al.size
    # both networks' Phi in one stacked product, then its columns c + e (lam)
    # and c - e (mu) for every upper pair q = (c, e), shape (d, pairs)
    phi = np.matmul(sig.transpose(0, 2, 1), sig)
    diag = np.arange(d)
    phi[:, diag, diag] += (sig * sig).sum(axis=1) + 1.0
    phi *= 0.25
    lam, mu = phi[0][:, al] + phi[0][:, be], phi[1][:, al] - phi[1][:, be]
    plus, minus = lam + mu, lam - mu
    # ct[0] is D, then C; ct[1] is E, then T
    ct = np.matmul(np.array([s_upper.conj(), s_upper]).transpose(0, 2, 1), s_upper)
    flat = ct.reshape(-1)
    first, second = _pair_matches(d)
    half_first, half_second = 0.5 * flat[first], 0.5 * flat[second]
    flat[first] += half_first
    flat[second] += half_second
    ct[0] += plus[al] + minus[be]  # the networks' lam + mu
    ct[1] += minus[al] + plus[be]  # lam - mu
    # Shift every dA_p by dA_ss of the largest population rho_ss, which leaves
    # D and E exact zeros in row and column s: near a basis state dA_ss - z is
    # small, and the log Z terms would otherwise subtract O(D) from O(D). Then
    # z - dA_ss = sum_v rho_vv (dA_vv - dA_ss) - (1 - tr rho) dA_ss.
    pd = rho.diagonal().real
    top, off_trace = _largest_population(pd)
    ct -= ct[:, :, top, None].copy()
    row = ct[0, top].copy()  # sum_theta dA_ss (dA_q - dA_ss)
    ct -= ct[:, top, None, :].copy()
    v = pd @ ct[0, :d] - off_trace * row
    w = float(v[:d].real @ pd - off_trace * (row[:d].real @ pd))
    r = rho[al, be]
    r[:d] *= np.sqrt(0.5)  # the (C + T) / 2 of the diagonal coordinates
    ct -= np.array([v.conj(), v])[:, :, None] - 0.5 * w
    ct -= v - 0.5 * w
    ct *= np.array([r.conj(), r])[:, :, None]
    ct *= r
    c, t = ct
    k = np.empty((d * d, d * d))
    np.add(c.real, t.real, out=k[:n, :n])
    np.add(c.imag[:, d:], t.imag[:, d:], out=k[:n, n:])
    k[n:, :n] = k[:n, n:].T
    np.subtract(c.real[d:, d:], t.real[d:, d:], out=k[n:, n:])
    return k


def solve_metric(ev: ndo.NdoEval, e: np.ndarray, eps: float) -> np.ndarray:
    """The natural-gradient direction x = (G + lam I)^-1 J_r^T e, G = J_r^T J_r,
    at the evaluation ev.

    By the push-through identity x = J_r^T y with (K + lam I) y = e, K = `gram`,
    and lam = eps * tr(G) / P, where tr G = tr K; J_r^T y is the gradient's
    `_rho_pullback` of `_row_matrix`(y), so J_r itself is never formed. K is
    symmetric and not read again, so K + lam I is factored in place through
    the Fortran-ordered view K^T, by LAPACK's dpotrf and dpotrs called
    directly, the routines `scipy.linalg.cho_factor` and `cho_solve` call
    after their Python-level checks. One solve is enough: Cholesky is backward
    stable, and refinement in the same precision stays near the residual the
    1/eps conditioning sets (at eps = 1e-6 after 100 L-BFGS steps, 8.1e-9,
    1.7e-8 and 3.6e-8 at N = 5, 10 and 30, against 5.2e-9, 9.2e-9 and 2.7e-8
    after three refinement steps), far above roundoff.

    Only e and the factor's diagonal are scanned for non-finite entries, not
    the whole factor. A non-finite entry in row i of the factor reaches its
    pivot L_ii, whose square subtracts the squares of that row, as NaN or
    -inf; dpotrf rejects -inf as not positive (info > 0) but passes NaN.
    """
    k = gram(ev.rho, ev.sig, ev.s_upper)
    d, m_h, m_a = ev.rho.shape[0], ev.sig.shape[1], ev.s_upper.shape[0]
    t_bar = float(k.trace()) / ndo.n_params(d, m_h, m_a)
    if not np.isfinite(t_bar) or t_bar <= 0.0:
        y = e  # degenerate metric: fall back to the identity
    else:
        if not np.isfinite(e).all():
            raise ValueError("metric right-hand side e has a non-finite entry")
        from scipy.linalg.lapack import dpotrf, dpotrs  # loaded by the first solve only

        k.flat[:: k.shape[0] + 1] += eps * t_bar
        factor, info = dpotrf(k.T, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"metric K + lam I is not positive definite at pivot {info}")
        if not np.isfinite(factor.diagonal()).all():
            raise np.linalg.LinAlgError("metric K + lam I has a non-finite Cholesky pivot")
        y, _ = dpotrs(factor, e, lower=1)
    return _rho_pullback(ev, _row_matrix(y, d)).real.copy()


def _armijo(fun, x, f0, g, p, eta=LS_INIT_STEP):
    """Armijo search along p from the first trial step eta, a power of two
    times LS_INIT_STEP; returns (x + eta p, cost, eta), or None when every
    such step from LS_INIT_STEP down to LS_MIN_STEP fails.

    A passing first trial doubles while the doubled step still passes, up to
    LS_INIT_STEP. A failing one halves until a trial passes, and if none
    down to LS_MIN_STEP does, the steps above it are tried from LS_INIT_STEP
    down, so the search fails exactly where backtracking from LS_INIT_STEP
    does. Where the passing steps form an interval, it accepts the largest
    passing power of two, the step that backtracking accepts, in fewer
    trials when eta is near it. fn - f0 is tested, since f0 + a decrease
    below f0's resolution is f0."""
    slope = float(g @ p)
    if slope >= 0.0:
        return None

    def trial(eta):
        xn = x + eta * p
        fn = fun(xn)
        return (xn, fn, eta) if fn - f0 <= LS_ARMIJO * eta * slope else None

    res = trial(eta)
    if res is not None:
        while eta < LS_INIT_STEP and (wider := trial(eta / LS_SHRINK)) is not None:
            res, eta = wider, eta / LS_SHRINK
        return res
    first = eta
    while eta > LS_MIN_STEP:
        eta *= LS_SHRINK
        if (res := trial(eta)) is not None:
            return res
    eta = LS_INIT_STEP
    while eta > first:
        if (res := trial(eta)) is not None:
            return res
        eta *= LS_SHRINK
    return None


def _gradient_fallback(fun, x, f0, g):
    """Plain gradient step at the smallest line-search step."""
    eta = LS_MIN_STEP
    xn = x - eta * g
    fn = fun(xn)
    if fn - f0 <= -LS_ARMIJO * eta * float(g @ g):
        return xn, fn, eta
    return None


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a real vector, the bits of `np.linalg.norm` (a dot, then
    a correctly rounded sqrt) without its Python-level argument handling."""
    return math.sqrt(float(v @ v))


class _Lbfgs:
    """Two-loop recursion with bounded memory; skips non-curvature updates.
    Each curvature pair (s, y) is kept with its s.y, which the recursion reads
    three times per call."""

    def __init__(self, memory: int):
        self.memory = memory
        self.pairs: list[tuple[np.ndarray, np.ndarray, float]] = []

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy > 1e-10 * _norm(s) * _norm(y):
            self.pairs.append((s, y, sy))
            if len(self.pairs) > self.memory:
                self.pairs.pop(0)

    def direction(self, g: np.ndarray) -> np.ndarray:
        q = g.copy()
        alphas = []
        for s, y, sy in reversed(self.pairs):
            a = float(s @ q) / sy
            q -= a * y
            alphas.append(a)
        if self.pairs:
            _, y, sy = self.pairs[-1]
            q *= sy / float(y @ y)
        for (s, y, sy), a in zip(self.pairs, reversed(alphas)):
            b = float(y @ q) / sy
            q += (a - b) * s
        return -q


def minimize_vector(fun, grad_fun, x0, *configs: TrainConfig, metric_fun=None):
    """Shared optimizer loop. Returns (x, TrainReport without final metrics).

    Each config is a phase that starts where the previous one stopped, with
    fresh optimizer state; the report's optimizer names the phases joined by
    "+" and its termination is the last phase's. `metric_fun(x)` supplies the
    pair (ev, e) of `solve_metric` for the gngd optimizer, with J_r^T e the
    gradient at x, and is ignored otherwise. Each step runs the `_armijo`
    search, from LS_INIT_STEP for lbfgs and cg, and for gd and gngd from the
    step the phase's last search accepted (LS_INIT_STEP on its first step).
    Line-search failures first retry a plain gradient step at LS_MIN_STEP,
    then end the phase; the next phase starts from the same point.
    """
    if not configs:
        raise ValueError("configs is empty: at least one phase is required")
    if metric_fun is None and any(c.optimizer == "gngd" for c in configs):
        raise ValueError("gngd requires a metric_fun")
    x = np.array(x0, dtype=float)
    n = x.size
    f = fun(x)
    g = grad_fun(x)
    costs = [f]
    grad_norms = [_norm(g)]
    step_sizes: list[float] = []
    millis: list[float] = []
    for config in configs:
        opt = config.optimizer
        termination = "max_iters"
        lbfgs = _Lbfgs(LBFGS_MEMORY)
        prev_g = prev_p = None
        since_restart = 0
        # Levenberg-Marquardt schedule for the metric jitter: the pure
        # Gauss-Newton direction can overshoot badly far from the optimum
        # (accepted steps collapse to ~1e-5 and progress stalls), so the
        # jitter grows tenfold on collapsed steps and decays back to the
        # METRIC_EPS floor on full ones.
        eps = METRIC_EPS
        first_step = LS_INIT_STEP
        for _ in range(config.max_iters):
            t0 = time.perf_counter()
            if grad_norms[-1] <= config.grad_tol:
                termination = "grad_tol"
                break
            if opt == "gd":
                p = -g
            elif opt == "cg":
                if prev_g is None or since_restart >= n:
                    p = -g
                    since_restart = 0
                else:
                    beta = max(0.0, float(g @ (g - prev_g)) / float(prev_g @ prev_g))
                    p = -g + beta * prev_p
                    if float(g @ p) >= 0.0:
                        p = -g
                        since_restart = 0
            elif opt == "lbfgs":
                p = lbfgs.direction(g)
                if float(g @ p) >= 0.0:
                    lbfgs.pairs.clear()
                    p = -g
            else:  # gngd
                p = -solve_metric(*metric_fun(x), eps)
            res = _armijo(fun, x, f, g, p, first_step)
            if res is None:
                res = _gradient_fallback(fun, x, f, g)
                if res is not None:
                    lbfgs.pairs.clear()
            elif opt in WARM_START:
                first_step = res[2]
            if res is None:
                termination = "line-search failure"
                break
            xn, fn, eta = res
            if opt == "gngd":
                if eta >= 0.5:
                    eps = max(eps / 10.0, METRIC_EPS)
                elif eta < 1e-3:
                    eps = min(eps * 10.0, 1e3)
            gn = grad_fun(xn)
            if opt == "cg":
                prev_g, prev_p = g, p
                since_restart += 1
            elif opt == "lbfgs":
                lbfgs.update(xn - x, gn - g)
            x, f, g = xn, fn, gn
            costs.append(f)
            grad_norms.append(_norm(g))
            step_sizes.append(eta)
            millis.append(1e3 * (time.perf_counter() - t0))
    report = TrainReport(
        optimizer="+".join(c.optimizer for c in configs),
        costs=costs,
        grad_norms=grad_norms,
        step_sizes=step_sizes,
        millis=millis,
        termination=termination,
    )
    return x, report


@dataclass
class _Point:
    """One point of a `KlObjective`: its state, floored model and cost, and
    the adjoint M once a call needs it."""

    key: bytes
    rho: np.ndarray
    aux: object
    model: np.ndarray
    cost: float
    m: np.ndarray | None = None


class KlObjective:
    """D(x) = sum data * log(data / model(rho(x))) over the nonzero data, model
    floored at PROB_FLOOR. Per point, rho and the model are formed on the first
    call at x, M(a,b) = sum_nj w_nj U^n(j,a) conj(U^n(j,b)), w = data / model,
    on the first call that needs it. The last CACHED_POINTS points are kept:
    a search that accepts a step and then fails the doubled trial asks for
    the gradient at the point before last. Subclasses supply the state map
    `_state(x) -> (rho, aux)` and its pullback `_pullback(rho, aux, M)` to x."""

    CACHED_POINTS = 2

    def __init__(self, ds, bases: BasisTables, d: int):
        self.data = _data_probs(ds, bases, d)
        self.bases, self.d = bases, d
        self.mask = self.data > 0
        self.kept_at = np.flatnonzero(self.mask)  # the mask's entries as flat indices
        self.kept = self.data.take(self.kept_at)
        self.log_kept = np.log(self.kept)
        self._points: list[_Point] = []  # most recently used first

    def _at(self, x: np.ndarray) -> _Point:
        """The cached point x, formed on a miss."""
        key = x.tobytes()
        for point in self._points:
            if point.key == key:
                self._points.remove(point)
                break
        else:
            rho, aux = self._state(x)
            model = np.maximum(model_distributions(rho, self.bases), PROB_FLOOR)
            cost = float((self.kept * (self.log_kept - np.log(model.take(self.kept_at)))).sum())
            point = _Point(key, rho, aux, model, cost)
        self._points = [point, *self._points[: self.CACHED_POINTS - 1]]
        return point

    def cost(self, x: np.ndarray) -> float:
        return self._at(x).cost

    def _adjoint(self, point: _Point) -> np.ndarray:
        """M at the point: minus the cost's derivative in rho."""
        if point.m is None:
            point.m = self.bases.adjoint(np.where(self.mask, self.data / point.model, 0.0))
        return point.m

    def grad(self, x: np.ndarray) -> np.ndarray:
        point = self._at(x)
        return self._pullback(point.rho, point.aux, self._adjoint(point))


class _NdoObjective(KlObjective):
    """The KL objective of the network ansatz, with the GNGD metric."""

    def __init__(self, ds, bases: BasisTables, d: int, m_h: int, m_a: int):
        super().__init__(ds, bases, d)
        self.dims = (d, m_h, m_a)

    def _state(self, x: np.ndarray):
        ev = ndo.evaluate(ndo.NdoParams.from_vector(*self.dims, x))
        return ev.rho, ev

    def _pullback(self, rho, ev, m):
        return _grad_from_eval(ev, _covector(m))

    def metric(self, x: np.ndarray) -> tuple[ndo.NdoEval, np.ndarray]:
        """(ev, e): the evaluation at x, whose caches give `gram` and
        `_rho_pullback`, and the Hermitian rows e of Y^T for the gradient's
        covector Y = `_covector`(M), so J_r^T e is the gradient. Y has no
        identity part, which the solve would scale by 1/lam only for
        J_r^T y to cancel it."""
        point = self._at(x)
        return point.aux, _hermitian_rows(_covector(self._adjoint(point)).T)


def fit_ndo(
    ds,
    bases,
    d: int,
    m_h: int,
    m_a: int,
    seed: int = 0,
    warmup_iters: int = 500,
    polish_iters: int = 300,
    grad_tol: float = 1e-8,
    target: np.ndarray | None = None,
):
    """L-BFGS warm start, natural-gradient polish; returns (params, TrainReport).

    The fit starts from `ndo.mixed_init_params`, a state close to the
    maximally mixed I/d (purity 1/12 + 1.3e-5 at d=12 with 15 ancillas), so
    every coherence starts near zero. The start matters because the bases
    do not fix the state: at N=5 they determine 84 of the 144 real
    parameters of rho, and the other 60, the up-up and down-down coherences
    between different sites, get no gradient from the data, so what the fit
    puts there comes from the start and the ansatz. On the 20 open-walk
    targets of acceptance criterion 6, fits from this start reached at least
    the fidelity of the maximum-entropy state that fits the same data on
    every target (mean F 0.983 against 0.968). A pure start such as
    `ndo.init_params` (the uniform superposition J/d) passes its own
    coherence on to the result, and beat MaxLik on only 7 of those 20
    targets. The polish is not measured to pay: 600 L-BFGS steps alone won
    20/20 there, and at N = 15, 20, 30 reached F 0.951, 0.923, 0.882 where this
    recipe reached 0.926, 0.829, 0.605 in over four times as long.
    """
    return optimize(
        (TrainConfig("lbfgs", grad_tol, warmup_iters), TrainConfig("gngd", grad_tol, polish_iters)),
        ds, bases, ndo.mixed_init_params(d, m_h, m_a, seed=seed), target=target,
    )


def optimize(
    configs: Sequence[TrainConfig],
    ds,
    bases,
    init: ndo.NdoParams,
    target: np.ndarray | None = None,
):
    """Run the configured optimizer phases from `init`; returns (params, TrainReport)."""
    obj = _NdoObjective(ds, bases, init.dim, init.m_h, init.m_a)
    x, report = minimize_vector(obj.cost, obj.grad, init.to_vector(), *configs, metric_fun=obj.metric)
    params = ndo.NdoParams.from_vector(init.dim, init.m_h, init.m_a, x)
    if target is not None:
        report.score(ndo.density_matrix(params), target)
    return params, report
