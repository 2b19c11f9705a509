"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the slow reconstruction suites (criteria 4-7) dominate the runtime.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

import oracles
from qwndo import maxlik, measurement, metrics, ndo, training, walk
from qwndo.training import TrainConfig


def report(num, ok, detail):
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def finite_diff(fun, x0, h=1e-6):
    out = None
    for j in range(x0.size):
        xp = x0.copy()
        xp[j] += h
        xm = x0.copy()
        xm[j] -= h
        fp, fm = fun(xp), fun(xm)
        if out is None:
            out = np.empty((np.size(fp), x0.size), dtype=np.result_type(fp, 1.0))
        out[:, j] = (np.ravel(fp) - np.ravel(fm)) / (2 * h)
    return out


def test_criterion_1_ansatz_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(4, 9))
        params = oracles.random_params(d, 3, 3, 1.0, seed=int(rng.integers(2**31)))
        closed = ndo.density_matrix(params)
        oracle = oracles.purification_oracle(params)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"closed form vs purification max |diff| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    worst_grad = 0.0
    worst_jac = 0.0
    for _ in range(10):
        n_steps = int(rng.integers(1, 4))  # d in {4, 6, 8}
        d = 2 * (n_steps + 1)
        m_h, m_a = 3, 2
        db = float(rng.uniform(0.2, np.pi))
        rho = walk.evolve(walk.WalkConfig(n_steps, (np.pi / 4,) * n_steps,
                                          noise="dephasing", delta_beta=db))
        ds = measurement.generate_dataset(rho, n_steps)
        bases = measurement.all_basis_unitaries(n_steps)
        params = oracles.random_params(d, m_h, m_a, 0.5, seed=int(rng.integers(2**31)))
        x0 = params.to_vector()

        objective = training._NdoObjective(ds, bases, d, m_h, m_a)
        grad = objective.grad(x0)
        fd = finite_diff(objective.cost, x0)[0]
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6))))

        jac = oracles.rho_jacobian(params)
        fd_jac = finite_diff(
            lambda x: ndo.density_matrix(ndo.NdoParams.from_vector(d, m_h, m_a, x)), x0
        )
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - fd_jac) / np.maximum(np.abs(fd_jac), 1e-7))))
    elapsed = time.monotonic() - start
    report(2, worst_grad <= 1e-5 and worst_jac <= 1e-5 and elapsed < 30.0,
           f"grad rel err {worst_grad:.2e}, jacobian rel err {worst_jac:.2e} in {elapsed:.1f}s")


def test_criterion_3_physicality_invariants():
    rng = np.random.default_rng(1003)
    checked = 0
    worst = {"herm": 0.0, "trace": 0.0, "eig": 0.0}

    def check(rho):
        nonlocal checked
        checked += 1
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(rho - rho.conj().T))))
        worst["trace"] = max(worst["trace"], abs(float(np.trace(rho).real) - 1.0))
        worst["eig"] = max(worst["eig"], -float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()))

    for _ in range(150):  # channel outputs across all noise kinds
        n = int(rng.integers(1, 5))
        kind = ("none", "mixing", "dephasing", "depolarizing")[int(rng.integers(4))]
        ws = float(rng.uniform(0, 0.6))
        config = walk.WalkConfig(
            n, tuple(rng.uniform(0, np.pi, n)), noise=kind,
            w_s=ws, w_l=float(rng.uniform(0, 1.0 - ws)),
            delta_beta=float(rng.uniform(0, np.pi)), p=float(rng.uniform(0, 1)),
        )
        rng.integers(2**31)  # unused draw: keeps the instances the recorded results used
        check(walk.evolve(config))
    for _ in range(120):  # network states at random parameters
        d = 2 * int(rng.integers(2, 7))
        params = oracles.random_params(d, 4, 4, float(rng.uniform(0.01, 2.0)),
                                       seed=int(rng.integers(2**31)))
        check(ndo.density_matrix(params))
    for _ in range(60):  # triangular-parameterization states
        d = 2 * int(rng.integers(2, 7))
        check(maxlik.rho_from_t(rng.normal(size=d * d)))

    ok = checked >= 300 and worst["herm"] <= 1e-10 and worst["trace"] <= 1e-10 and worst["eig"] <= 1e-10
    report(3, ok, f"{checked} states: herm {worst['herm']:.1e}, "
                  f"trace {worst['trace']:.1e}, -min eig {worst['eig']:.1e}")


def test_criterion_4_closed_walk_reconstruction():
    start = time.monotonic()
    results = []
    for n in (2, 4, 6):
        rho = walk.evolve(walk.WalkConfig(n, (np.pi / 4,) * n))
        ds = measurement.generate_dataset(rho, n)
        bases = measurement.all_basis_unitaries(n)
        _, rep = training.fit_ndo(ds, bases, 2 * (n + 1), 10, 10, seed=0, target=rho)
        results.append((n, rep.fidelity, rep.purity_error))
    elapsed = time.monotonic() - start
    ok = all(f >= 0.98 and p <= 1e-2 for _, f, p in results) and elapsed < 300.0
    detail = ", ".join(f"N={n}: F={f:.4f} dP={p:.1e}" for n, f, p in results)
    report(4, ok, f"{detail} in {elapsed:.0f}s")


@lru_cache(maxsize=1)
def open_walk_suite():
    """20 dephasing instances shared by criteria 5 and 6."""
    rng = np.random.default_rng(1005)
    rows = []
    start = time.monotonic()
    for k in range(20):
        db = float(rng.uniform(0.0, np.pi))
        rho = walk.evolve(walk.WalkConfig(5, (np.pi / 4,) * 5, noise="dephasing", delta_beta=db))
        ds = measurement.generate_dataset(rho, 5)
        bases = measurement.all_basis_unitaries(5)
        _, rep = training.fit_ndo(ds, bases, 12, 15, 15, seed=k,
                                  warmup_iters=400, polish_iters=200, target=rho)
        _, ml = maxlik.maxlik_fit(ds, bases, seed=k, max_iters=1500, target=rho)
        rows.append({"db": db, "fid_ndo": rep.fidelity, "perr_ndo": rep.purity_error,
                     "fid_ml": ml.fidelity, "perr_ml": ml.purity_error})
    return rows, time.monotonic() - start


def test_criterion_5_open_walk_reconstruction():
    rows, elapsed = open_walk_suite()
    mean_fid = float(np.mean([r["fid_ndo"] for r in rows]))
    mean_perr = float(np.mean([r["perr_ndo"] for r in rows]))
    ok = mean_fid >= 0.95 and mean_perr <= 2e-2 and elapsed < 900.0
    report(5, ok, f"20 dephasing walks: mean F={mean_fid:.4f}, "
                  f"mean purity err={mean_perr:.2e}, suite {elapsed:.0f}s")


def test_criterion_6_ndo_vs_maxlik():
    rows, _ = open_walk_suite()
    print("\n  k  F NDO   F MaxLik  margin   purity err")
    for k, r in enumerate(rows):
        print(f"{k:3d}  {r['fid_ndo']:.4f}  {r['fid_ml']:.4f}  {r['fid_ndo'] - r['fid_ml']:+.4f}  {r['perr_ndo']:.2e}")
    wins = sum(r["fid_ndo"] >= r["fid_ml"] for r in rows)
    mean_ndo = float(np.mean([r["fid_ndo"] for r in rows]))
    mean_ml = float(np.mean([r["fid_ml"] for r in rows]))
    ok = wins >= 16 and mean_ndo >= mean_ml
    report(6, ok, f"NDO wins {wins}/20 instances; mean F {mean_ndo:.4f} vs MaxLik {mean_ml:.4f}")


def test_criterion_7_gngd_speedup():
    rho = walk.evolve(walk.WalkConfig(5, (np.pi / 4,) * 5, noise="dephasing", delta_beta=np.pi / 2))
    ds = measurement.generate_dataset(rho, 5)
    bases = measurement.all_basis_unitaries(5)
    init = ndo.init_params(12, 15, 15, seed=0)

    def run(optimizer, max_iters):
        config = TrainConfig(optimizer=optimizer, grad_tol=1e-14, max_iters=max_iters)
        _, rep = training.optimize((config,), ds, bases, init)
        return rep

    d_star = run("gd", 1000).final_cost

    def iters_to_level(rep):
        reached = next((i for i, c in enumerate(rep.costs) if c <= d_star), None)
        return reached if reached is not None else math.inf

    it_gngd = iters_to_level(run("gngd", 400))
    it_cg = iters_to_level(run("cg", 4000))
    it_lbfgs = iters_to_level(run("lbfgs", 4000))
    ok = it_gngd <= 200 and it_gngd <= 0.5 * it_cg and it_gngd <= 0.5 * it_lbfgs
    report(7, ok, f"GD(1000) cost {d_star:.3e}; iterations to reach it: "
                  f"GNGD {it_gngd}, CG {it_cg}, L-BFGS {it_lbfgs}")


def test_criterion_8_classical_limit():
    n = 5
    rho = walk.evolve(walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=np.pi))
    marg = walk.position_marginal(rho)
    binom = np.array([math.comb(n, l) for l in range(n + 1)]) / 2**n
    marg_ok = bool(np.max(np.abs(marg - binom)) <= 1e-9)
    off = float(np.max(np.abs(rho - np.diag(np.diag(rho)))))
    # the stated binomial-sum oracle sum_l C(5,l)^2/2^10 = 252/1024 is the
    # purity of the position marginal; the full state keeps the coin label,
    # and its purity follows from the classical joint distribution
    # P(up,l) = C(4,l-1)/32, P(down,l) = C(4,l)/32.
    marg_purity = float(marg @ marg)
    joint = []
    for l in range(n + 1):
        joint.append(math.comb(n - 1, l - 1) / 2**n if l >= 1 else 0.0)
        joint.append(math.comb(n - 1, l) / 2**n)
    full_purity = metrics.purity(rho)
    ok = (marg_ok and off <= 1e-12
          and abs(marg_purity - 252 / 1024) <= 1e-9
          and abs(full_purity - sum(q * q for q in joint)) <= 1e-9)
    report(8, ok, f"binomial marginal ok={marg_ok}, max offdiag {off:.1e}, "
                  f"marginal purity {marg_purity:.6f} (=252/1024), "
                  f"full purity {full_purity:.6f} (=140/1024 joint oracle)")


def test_criterion_9_basis_bookkeeping():
    n_b5 = measurement.n_bases(5)
    n_b30 = measurement.n_bases(30)
    t_count = maxlik.init_t_params(2 * (5 + 1)).size
    dim30 = walk.dim(30)
    ok = n_b5 == 13 and n_b30 == 63 and t_count == 144 and dim30 == 62
    report(9, ok, f"N_b(5)={n_b5}, N_b(30)={n_b30}, MaxLik params at N=5: {t_count}, "
                  f"dimension at N=30: {dim30}")


def test_criterion_10_paper_scale_structural(tmp_path):
    # experimental fidelities are not reproduced; the ingestion path and the
    # N=30 pipeline are validated structurally instead
    n = 30
    rho = walk.evolve(walk.WalkConfig(n, (np.pi / 4,) * n))
    ds = measurement.generate_dataset(rho, n)
    path = tmp_path / "n30.json"
    measurement.save_dataset(ds, path)
    loaded = measurement.load_dataset(path)
    round_trip = bool(np.array_equal(loaded.probs, ds.probs))

    bases = measurement.all_basis_unitaries(n)
    params = ndo.init_params(62, 2, 2, seed=0)
    objective = training._NdoObjective(loaded, bases, 62, 2, 2)
    cost = objective.cost(params.to_vector())
    grad = objective.grad(params.to_vector())
    state = ndo.density_matrix(params)
    ok = (round_trip and loaded.probs.shape == (63, 62) and state.shape == (62, 62)
          and np.isfinite(cost) and bool(np.all(np.isfinite(grad))))
    report(10, ok, f"N=30 ingestion round-trip={round_trip}, 63 bases x 62 outcomes, "
                   f"one cost/gradient evaluation finite (cost={cost:.3f})")
