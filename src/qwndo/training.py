"""KL-divergence fitting of the density-operator ansatz to measurement data.

The cost is the total statistical distance summed over all measured bases,
D = sum_n sum_j P_n(j) log[P_n(j) / P_model_n(j)], with the exact analytic
gradient (no sampling). Model distributions and the gradient's weighted
sum over basis rows come from the 2-sparse `measurement.BasisTables`, the
only basis representation. Four optimizers share one Armijo backtracking
line search and stopping rule: plain gradient descent, Polak-Ribiere-plus
conjugate gradient, L-BFGS, and natural gradient descent preconditioned by
the Gram metric G = Re(J^dag J) of the flattened-state Jacobian J, i.e. the
pullback of a flat metric on density-matrix entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

from . import kernels, ndo
from .kernels import param_offsets
from .measurement import BasisTables

PROB_FLOOR = 1e-12  # inside logs and the matching gradient weights
# Jacobian and metric entries this far below their matrix's scale are zeroed.
# They cannot change the metric solve above roundoff (its jitter is 1e-6 of
# the mean diagonal), but products of them in the subnormal range slow the
# BLAS Gram and Cholesky kernels 3-4x. Fits to nearly pure targets reach such
# entries when the weights of zero-population states run far out.
FLUSH = 1e-150

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


def _grad_from_eval(ev: ndo.NdoEval, data: np.ndarray, bases: BasisTables) -> np.ndarray:
    """Analytic cost gradient: contract the error matrix E with dA's structure.

    E = -rho .* M + N_b diag(rho_vv), where M(a,b) = sum_nj w_nj U^n(j,a) conj(U^n(j,b))
    and w = data/model. E is Hermitian, so the contraction is real up to roundoff;
    a larger imaginary part raises RuntimeError.
    """
    d = ev.rho.shape[0]
    m_h = ev.sig_lam.shape[0]
    m_a = ev.s_pair.shape[0]
    n_b = bases.n_bases
    pm = bases.probabilities(ev.rho)
    w = np.where(data > 0, data / np.maximum(pm, PROB_FLOOR), 0.0)
    m_mat = bases.adjoint(w)
    e_mat = -(ev.rho * m_mat)
    idx = np.arange(d)
    e_mat[idx, idx] += n_b * ev.rho.diagonal().real
    rs = e_mat.sum(axis=1)
    cs = e_mat.sum(axis=0)
    off = param_offsets(d, m_h, m_a)
    g = np.zeros(off["total"], dtype=np.complex128)
    g[off["w_lam"] : off["w_lam"] + m_h * d] = (0.5 * ev.sig_lam * (rs + cs)[None, :]).ravel()
    g[off["w_mu"] : off["w_mu"] + m_h * d] = (0.5j * ev.sig_mu * (rs - cs)[None, :]).ravel()
    row_u = np.einsum("iab,ab->ia", ev.s_pair, e_mat)
    col_u = np.einsum("iab,ab->ib", ev.s_pair, e_mat)
    g[off["u_lam"] : off["u_lam"] + m_a * d] = (0.5 * (row_u + col_u)).ravel()
    g[off["u_mu"] : off["u_mu"] + m_a * d] = (0.5j * (row_u - col_u)).ravel()
    g[off["b_lam"] : off["b_lam"] + d] = 0.5 * (rs + cs)
    g[off["b_mu"] : off["b_mu"] + d] = 0.5j * (rs - cs)
    g[off["c_lam"] : off["c_lam"] + m_h] = 0.5 * (ev.sig_lam @ (rs + cs))
    g[off["c_mu"] : off["c_mu"] + m_h] = 0.5j * (ev.sig_mu @ (rs - cs))
    g[off["d_lam"] : off["d_lam"] + m_a] = np.einsum("iab,ab->i", ev.s_pair, e_mat)
    resid = np.max(np.abs(g.imag))
    scale = max(1.0, float(np.max(np.abs(g.real))))
    if resid > 1e-10 * scale:
        raise RuntimeError(f"gradient imaginary residue {resid:.3e} exceeds roundoff")
    return g.real.copy()


def grad_cost(params: ndo.NdoParams, ds, bases: BasisTables) -> np.ndarray:
    """Exact derivative of `cost` w.r.t. the flattened parameter vector."""
    data = _data_probs(ds, bases, params.dim)
    return _grad_from_eval(ndo.evaluate(params), data, bases)


def _flush(mat: np.ndarray, threshold: float) -> None:
    """Zero the entries of magnitude below `threshold` in place (see FLUSH)."""
    mat[(mat > -threshold) & (mat < threshold)] = 0.0


def gram(jac: np.ndarray) -> np.ndarray:
    """Re(J^dag J) as one real rank-k update on the stacked [Re J; Im J]."""
    rows, cols = jac.shape
    stacked = np.empty((2 * rows, cols))
    stacked[:rows] = jac.real
    stacked[rows:] = jac.imag
    _flush(stacked, FLUSH * max(stacked.max(initial=0.0), -stacked.min(initial=0.0)))
    upper = dsyrk(1.0, stacked, trans=1, lower=0)
    return upper + np.triu(upper, 1).T


def solve_metric(metric: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """Solve (G + eps*(tr G / P)*I) x = grad through a Cholesky factorization.

    The jittered system can be conditioned like 1/eps, so one round of
    iterative refinement keeps the relative residual at roundoff level.
    """
    p = metric.shape[0]
    t_bar = float(np.trace(metric)) / p
    if not np.isfinite(t_bar) or t_bar <= 0.0:
        return grad.copy()  # degenerate metric: fall back to the identity
    reg = metric + (eps * t_bar) * np.eye(p)
    _flush(reg, FLUSH * t_bar)
    factor = cho_factor(reg, lower=True, check_finite=False)
    x = cho_solve(factor, grad)
    scale = np.linalg.norm(grad)
    for _ in range(3):
        residual = grad - reg @ x
        if np.linalg.norm(residual) <= 1e-12 * scale:
            break
        x = x + cho_solve(factor, residual)
    return x


def _armijo(fun, x, f0, g, p):
    """Backtrack from the initial step; None when all halvings fail."""
    slope = float(g @ p)
    if slope >= 0.0:
        return None
    eta = LS_INIT_STEP
    for _ in range(LS_MAX_HALVINGS + 1):
        xn = x + eta * p
        fn = fun(xn)
        if fn <= f0 + LS_ARMIJO * eta * slope:
            return xn, fn, eta
        eta *= LS_SHRINK
    return None


def _gradient_fallback(fun, x, f0, g):
    """Plain gradient step at the last backtracked step size."""
    eta = LS_INIT_STEP * LS_SHRINK**LS_MAX_HALVINGS
    xn = x - eta * g
    fn = fun(xn)
    if fn <= f0 - LS_ARMIJO * eta * float(g @ g):
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

    `metric_fun` supplies the preconditioner for the gngd optimizer and is
    ignored otherwise. Line-search failures first retry a plain gradient step
    at the last backtracked step size, then terminate.
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
            p = -solve_metric(metric_fun(x), g, eps)
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

    def metric(self, x: np.ndarray) -> np.ndarray:
        ev = self._eval(x)
        return gram(kernels.assemble_jacobian(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_pair, ev.grad_log_z))


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
    report = TrainReport(
        optimizer="lbfgs+gngd",
        iterations=warm.iterations + polish.iterations,
        costs=warm.costs + polish.costs[1:],
        grad_norms=warm.grad_norms + polish.grad_norms,
        step_sizes=warm.step_sizes + polish.step_sizes,
        millis=warm.millis + polish.millis,
        termination=polish.termination,
        final_cost=polish.final_cost,
        final_grad_norm=polish.final_grad_norm,
        fidelity=polish.fidelity,
        purity=polish.purity,
        purity_error=polish.purity_error,
    )
    return params, report


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
