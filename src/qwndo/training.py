"""KL-divergence fitting of the density-operator ansatz to measurement data.

The cost is the total statistical distance summed over all measured bases,
D = sum_n sum_j P_n(j) log[P_n(j) / P_model_n(j)], with the exact analytic
gradient (no sampling). Model distributions and the gradient's weighted
sum over basis rows come from the 2-sparse `measurement.BasisTables`, the
only basis representation. Four optimizers share one Armijo backtracking
line search and stopping rule: plain gradient descent, Polak-Ribiere-plus
conjugate gradient, L-BFGS, and natural gradient descent preconditioned by
the Gram metric G = Re(J^dag J) of the flattened-state Jacobian J, i.e. the
pullback of a flat metric on density-matrix entries. rho is Hermitian, so J
has d^2 independent real rows J_r (`_hermitian_rows`: the diagonal, then
sqrt(2) Re and sqrt(2) Im of the strict upper triangle), G = J_r^T J_r, and
the gradient is J_r^T e for the same rows e of the cost's derivative in rho.
The push-through identity (J_r^T J_r + lam I)^-1 J_r^T = J_r^T (J_r J_r^T +
lam I)^-1 (Rende et al., Commun. Phys. 2024) makes the metric solve d^2 x d^2.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

from . import kernels, ndo
from .measurement import BasisTables

PROB_FLOOR = 1e-12  # inside logs and the matching gradient weights

OPTIMIZERS = ("gd", "cg", "lbfgs", "gngd")

LS_INIT_STEP = 1.0  # first Armijo trial step
LS_SHRINK = 0.5  # backtracking factor
LS_ARMIJO = 1e-4  # sufficient-decrease constant
LS_MAX_HALVINGS = 30
LBFGS_MEMORY = 10  # curvature pairs kept by L-BFGS


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "gngd"
    grad_tol: float = 1e-8
    max_iters: int = 2000
    metric_eps: float = 1e-6  # relative jitter on the metric solve
    init_scale: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class TrainReport:
    """Optimizer trace: costs[i] is the cost before step i, plus the final cost."""

    optimizer: str
    iterations: int
    costs: list[float]
    grad_norms: list[float]
    step_sizes: list[float]
    millis: list[float]
    termination: str  # grad_tol | max_iters | line-search failure
    final_cost: float
    final_grad_norm: float
    fidelity: float | None = None
    purity: float | None = None
    purity_error: float | None = None

    def rows(self) -> list[tuple[int, float, float, float, float]]:
        """(iter, cost, grad_norm, step, millis) per executed iteration."""
        return [
            (i, self.costs[i], self.grad_norms[i], self.step_sizes[i], self.millis[i])
            for i in range(len(self.step_sizes))
        ]

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,cost,grad_norm,step,millis\n")
            for row in self.rows():
                fh.write("%d,%.17g,%.17g,%.17g,%.6g\n" % row)

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
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def _data_probs(ds, bases: BasisTables, d: int) -> np.ndarray:
    """The dataset's (n_bases, d) probabilities, checked against the bases and model dimension d."""
    data = np.asarray(ds.probs if hasattr(ds, "probs") else ds, dtype=float)
    if data.ndim != 2 or data.shape[0] != bases.n_bases:
        raise ValueError(f"n_bases mismatch: dataset shape {data.shape}, {bases.n_bases} bases")
    if data.shape[1] != d or bases.dim != d:
        raise ValueError(f"dim mismatch: dataset {data.shape[1]}, bases {bases.dim}, model {d}")
    return data


def model_distributions(rho: np.ndarray, bases: BasisTables) -> np.ndarray:
    """diag(U^n rho U^n^dag) for every basis, shape (n_bases, d)."""
    return bases.probabilities(rho)


def kl_distance(data: np.ndarray, model: np.ndarray) -> float:
    """sum data*log(data/model) with zero-data terms dropped and floored model."""
    mask = data > 0
    d = data[mask]
    m = np.maximum(model[mask], PROB_FLOOR)
    return float(np.sum(d * (np.log(d) - np.log(m))))


def cost(params: ndo.NdoParams, ds, bases: BasisTables) -> float:
    """Total statistical distance of the model to the dataset over the given bases."""
    data = _data_probs(ds, bases, params.dim)
    return kl_distance(data, model_distributions(ndo.density_matrix(params), bases))


def _data_adjoint(rho: np.ndarray, data: np.ndarray, bases: BasisTables) -> np.ndarray:
    """M(a,b) = sum_nj w_nj U^n(j,a) conj(U^n(j,b)), w = data/model: d cost/d rho(a,b) = -M(a,b)."""
    pm = bases.probabilities(rho)
    w = np.where(data > 0, data / np.maximum(pm, PROB_FLOOR), 0.0)
    return bases.adjoint(w)


def _hermitian_rows(a: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates of a Hermitian (d, d, ...) array, in which
    Re tr(X^dag Y) is a dot product: the diagonal, then sqrt(2) Re and
    sqrt(2) Im of the strict upper triangle in row-major order."""
    d = a.shape[0]
    upper = a[np.triu_indices(d, 1)]
    rows = np.concatenate([a[np.arange(d), np.arange(d)].real, upper.real, upper.imag])
    rows[d:] *= np.sqrt(2.0)
    return rows


def _grad_from_eval(ev: ndo.NdoEval, data: np.ndarray, bases: BasisTables) -> np.ndarray:
    """Analytic cost gradient: contract the error matrix E with dA's structure.

    E = -rho .* M + N_b diag(rho_vv), with M from `_data_adjoint`. E is
    Hermitian, so the contraction is real up to roundoff; a larger imaginary
    part raises RuntimeError.
    """
    d = ev.rho.shape[0]
    e_mat = -(ev.rho * _data_adjoint(ev.rho, data, bases))
    idx = np.arange(d)
    e_mat[idx, idx] += bases.n_bases * ev.rho.diagonal().real
    rs = e_mat.sum(axis=1)
    cs = e_mat.sum(axis=0)
    plus, minus = 0.5 * (rs + cs), 0.5j * (rs - cs)
    row_u = np.einsum("iab,ab->ia", ev.s_pair, e_mat)
    col_u = np.einsum("iab,ab->ib", ev.s_pair, e_mat)
    blocks = {
        "w_lam": ev.sig_lam * plus, "w_mu": ev.sig_mu * minus,
        "u_lam": 0.5 * (row_u + col_u), "u_mu": 0.5j * (row_u - col_u),
        "b_lam": plus, "b_mu": minus,
        "c_lam": ev.sig_lam @ plus, "c_mu": ev.sig_mu @ minus,
        "d_lam": np.einsum("iab,ab->i", ev.s_pair, e_mat),
    }
    g = np.concatenate([blocks[name].ravel() for name in ndo.ARRAY_NAMES])
    resid = np.max(np.abs(g.imag))
    scale = max(1.0, float(np.max(np.abs(g.real))))
    if resid > 1e-10 * scale:
        raise RuntimeError(f"gradient imaginary residue {resid:.3e} exceeds roundoff")
    return g.real.copy()


def grad_cost(params: ndo.NdoParams, ds, bases: BasisTables) -> np.ndarray:
    """Exact derivative of `cost` w.r.t. the flattened parameter vector."""
    data = _data_probs(ds, bases, params.dim)
    return _grad_from_eval(ndo.evaluate(params), data, bases)


def gram(jr: np.ndarray) -> np.ndarray:
    """K = J_r J_r^T, the (d^2, d^2) metric in rho-space, as one real rank-P update."""
    upper = dsyrk(1.0, jr.T, trans=1, lower=0)
    return upper + np.triu(upper, 1).T


def solve_metric(jr: np.ndarray, e: np.ndarray, eps: float) -> np.ndarray:
    """The natural-gradient direction x = (G + lam I)^-1 J_r^T e, G = J_r^T J_r.

    By the push-through identity x = J_r^T y with (K + lam I) y = e, K = `gram`(J_r),
    and lam = eps * tr(G) / P, where tr G = tr K. The jittered system can be
    conditioned like 1/eps, so iterative refinement keeps the residual at roundoff.
    """
    k = gram(jr)
    t_bar = float(np.trace(k)) / jr.shape[1]
    if not np.isfinite(t_bar) or t_bar <= 0.0:
        return jr.T @ e  # degenerate metric: fall back to the identity
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


def _armijo(fun, x, f0, g, p):
    """Backtrack from the initial step; None when all halvings fail.

    fn - f0 is tested, since f0 + a decrease below f0's resolution is f0."""
    slope = float(g @ p)
    if slope >= 0.0:
        return None
    eta = LS_INIT_STEP
    for _ in range(LS_MAX_HALVINGS + 1):
        xn = x + eta * p
        fn = fun(xn)
        if fn - f0 <= LS_ARMIJO * eta * slope:
            return xn, fn, eta
        eta *= LS_SHRINK
    return None


def _gradient_fallback(fun, x, f0, g):
    """Plain gradient step at the last backtracked step size."""
    eta = LS_INIT_STEP * LS_SHRINK**LS_MAX_HALVINGS
    xn = x - eta * g
    fn = fun(xn)
    if fn - f0 <= -LS_ARMIJO * eta * float(g @ g):
        return xn, fn, eta
    return None


class _Lbfgs:
    """Two-loop recursion with bounded memory; skips non-curvature updates."""

    def __init__(self, memory: int):
        self.memory = memory
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y))
            if len(self.pairs) > self.memory:
                self.pairs.pop(0)

    def direction(self, g: np.ndarray) -> np.ndarray:
        q = g.copy()
        alphas = []
        for s, y in reversed(self.pairs):
            a = float(s @ q) / float(s @ y)
            q -= a * y
            alphas.append(a)
        if self.pairs:
            s, y = self.pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y), a in zip(self.pairs, reversed(alphas)):
            b = float(y @ q) / float(s @ y)
            q += (a - b) * s
        return -q


def minimize_vector(fun, grad_fun, x0, config: TrainConfig, metric_fun=None):
    """Shared optimizer loop. Returns (x, TrainReport without final metrics).

    `metric_fun(x)` supplies the pair (J_r, e) of `solve_metric` for the gngd
    optimizer, with J_r^T e the gradient at x, and is ignored otherwise.
    Line-search failures first retry a plain gradient step at the last
    backtracked step size, then terminate.
    """
    opt = config.optimizer
    if opt == "gngd" and metric_fun is None:
        raise ValueError("gngd requires a metric_fun")
    x = np.array(x0, dtype=float)
    n = x.size
    f = fun(x)
    g = grad_fun(x)
    costs = [f]
    grad_norms: list[float] = []
    step_sizes: list[float] = []
    millis: list[float] = []
    termination = "max_iters"
    lbfgs = _Lbfgs(LBFGS_MEMORY)
    prev_g = None
    prev_p = None
    since_restart = 0
    # Levenberg-Marquardt schedule for the metric jitter: the pure
    # Gauss-Newton direction can overshoot badly far from the optimum
    # (accepted steps collapse to ~1e-5 and progress stalls), so the
    # jitter grows tenfold on collapsed steps and decays back to the
    # configured floor on full ones.
    eps = config.metric_eps
    for _ in range(config.max_iters):
        t0 = time.perf_counter()
        gnorm = float(np.linalg.norm(g))
        grad_norms.append(gnorm)
        if gnorm <= config.grad_tol:
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
        res = _armijo(fun, x, f, g, p)
        if res is None and opt != "gd":
            res = _gradient_fallback(fun, x, f, g)
            if res is not None:
                lbfgs.pairs.clear()
                prev_g = None
                eps = min(eps * 10.0, 1e3)
        if res is None:
            termination = "line-search failure"
            break
        xn, fn, eta = res
        if opt == "gngd":
            if eta >= 0.5:
                eps = max(eps / 10.0, config.metric_eps)
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
        step_sizes.append(eta)
        millis.append(1e3 * (time.perf_counter() - t0))
    if termination == "max_iters":
        grad_norms.append(float(np.linalg.norm(g)))
    report = TrainReport(
        optimizer=opt,
        iterations=len(step_sizes),
        costs=costs,
        grad_norms=grad_norms,
        step_sizes=step_sizes,
        millis=millis,
        termination=termination,
        final_cost=f,
        final_grad_norm=float(np.linalg.norm(g)),
    )
    return x, report


class _NdoObjective:
    """Cost/gradient/metric on the flattened parameter vector, cached per point."""

    def __init__(self, ds, bases: BasisTables, d: int, m_h: int, m_a: int):
        self.data = _data_probs(ds, bases, d)
        self.bases = bases
        self.dims = (d, m_h, m_a)
        self._key = None
        self._ev = None

    def _eval(self, x: np.ndarray) -> ndo.NdoEval:
        key = x.tobytes()
        if key != self._key:
            params = ndo.NdoParams.from_vector(*self.dims, x)
            self._ev = ndo.evaluate(params)
            self._key = key
        return self._ev

    def cost(self, x: np.ndarray) -> float:
        ev = self._eval(x)
        return kl_distance(self.data, model_distributions(ev.rho, self.bases))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return _grad_from_eval(self._eval(x), self.data, self.bases)

    def metric(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J_r, e): the Hermitian rows of the state Jacobian and of -M^T, the
        cost's derivative in rho, so J_r^T e is the gradient. rho keeps unit
        trace, so J_r^T annihilates the identity; e drops its identity part,
        which the solve would scale by 1/lam only for J_r^T y to cancel it."""
        ev = self._eval(x)
        d = ev.rho.shape[0]
        jac = kernels.assemble_jacobian(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_pair, ev.grad_log_z)
        e = _hermitian_rows(-_data_adjoint(ev.rho, self.data, self.bases).T)
        e[:d] -= e[:d].mean()
        return _hermitian_rows(jac.reshape(d, d, -1)), e


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
    init_scale: float = 0.01,
    target: np.ndarray | None = None,
):
    """Recommended reconstruction recipe: L-BFGS warm start, natural-gradient polish.

    The fit starts from `ndo.mixed_init_params`, a state close to the
    maximally mixed I/d (purity 1/12 + 1.3e-5 at d=12 with 15 ancillas), so
    every coherence starts near zero. The start matters because the bases
    do not fix the state: at N=5 they determine 84 of the 144 real
    parameters of rho, and the other 60, the up-up and down-down coherences
    between different sites, get no gradient from the data. The fit keeps
    the start's values there, so from I/d it adds no coherence that the data
    do not carry, which approximates the maximum-entropy choice among the
    states that fit the data (Teo et al., PRL 107, 020404, 2011). A pure
    start such as `ndo.init_params` (the uniform superposition J/d) would
    pass its own coherence on to the result. The natural-gradient polish
    converges far faster than L-BFGS near the optimum. Returns
    (params, merged TrainReport).
    """
    init = ndo.mixed_init_params(d, m_h, m_a, scale=init_scale, seed=seed)
    warm_config = TrainConfig(optimizer="lbfgs", grad_tol=grad_tol, max_iters=warmup_iters)
    mid, warm = optimize(warm_config, ds, bases, init)
    polish_config = TrainConfig(optimizer="gngd", grad_tol=grad_tol, max_iters=polish_iters)
    params, polish = optimize(polish_config, ds, bases, mid, target=target)
    return params, dataclasses.replace(
        polish,
        optimizer="lbfgs+gngd",
        iterations=warm.iterations + polish.iterations,
        costs=warm.costs + polish.costs[1:],
        grad_norms=warm.grad_norms + polish.grad_norms,
        step_sizes=warm.step_sizes + polish.step_sizes,
        millis=warm.millis + polish.millis,
    )


def optimize(
    config: TrainConfig,
    ds,
    bases,
    init: ndo.NdoParams,
    target: np.ndarray | None = None,
):
    """Run the configured optimizer from `init`; returns (params, TrainReport)."""
    obj = _NdoObjective(ds, bases, init.dim, init.m_h, init.m_a)
    x, report = minimize_vector(
        obj.cost, obj.grad, init.to_vector(), config,
        metric_fun=obj.metric if config.optimizer == "gngd" else None,
    )
    params = ndo.NdoParams.from_vector(init.dim, init.m_h, init.m_a, x)
    if target is not None:
        from . import metrics

        rho = ndo.density_matrix(params)
        report.fidelity = metrics.fidelity(rho, target)
        report.purity = metrics.purity(rho)
        report.purity_error = metrics.purity_error(rho, target)
    return params, report
