"""Cost, exact gradient, the pullback metric, and the four optimizers."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg

import oracles
from qwndo import maxlik, measurement, ndo, training, walk
from qwndo.kernels import param_offsets
from qwndo.training import TrainConfig


def hadamard_setup(n_steps, noise="none", **kwargs):
    config = walk.WalkConfig(n_steps, (np.pi / 4,) * n_steps, noise=noise, **kwargs)
    rho = walk.evolve(config)
    ds = measurement.generate_dataset(rho, n_steps)
    bases = measurement.all_basis_unitaries(n_steps)
    return rho, ds, bases


def ndo_objective(params, ds, bases):
    """The KL objective the fits use, for the shape of params."""
    return training._NdoObjective(ds, bases, params.dim, params.m_h, params.m_a)


def cost(params, ds, bases):
    return ndo_objective(params, ds, bases).cost(params.to_vector())


def grad(params, ds, bases):
    return ndo_objective(params, ds, bases).grad(params.to_vector())


def metric_gram(ev):
    """`training.gram` at an evaluation."""
    return training.gram(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_upper)


def pullback_rows(ev, y):
    """J_r^T y for Hermitian-row coordinates y, the way `training.solve_metric` forms it."""
    return training._rho_pullback(ev, training._row_matrix(y, ev.rho.shape[0])).real


def wide_range(d, m_h, m_a, seed):
    """Random weights at scale 0.8 with the last two visible biases at -920 and
    -1340: those two populations underflow to zero, and their coherences with
    the other basis states sit near 1e-200 and 1e-291."""
    base = ndo.init_params(d, m_h, m_a, scale=0.8, seed=seed)
    arrays = {name: getattr(base, name) for name in ndo.ARRAY_NAMES}
    arrays["b_lam"] = np.concatenate([arrays["b_lam"][:-2], [-920.0, -1340.0]])
    return ndo.NdoParams(**arrays)


def reference_basis_only(n_steps):
    """Tables holding only basis 0, the computational basis."""
    bases = measurement.all_basis_unitaries(n_steps)
    return measurement.BasisTables(index=bases.index[:1], coef=bases.coef[:1])


class TestCost:
    def test_own_dataset_zero(self):
        params = ndo.init_params(4, 3, 3, scale=0.6, seed=1)
        ds = measurement.generate_dataset(ndo.density_matrix(params), 1)
        bases = measurement.all_basis_unitaries(1)
        assert cost(params, ds, bases) <= 1e-12

    def test_single_binary_basis_log_two(self):
        params = ndo.init_params(2, 2, 2, scale=0.0)  # uniform state: P = (1/2, 1/2)
        data = np.array([[1.0, 0.0]])
        bases = reference_basis_only(0)
        assert cost(params, data, bases) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_for_random_pairs(self):
        rng = np.random.default_rng(2)
        bases = measurement.all_basis_unitaries(1)
        for _ in range(50):
            params = ndo.init_params(4, 3, 2, scale=1.0, seed=int(rng.integers(2**31)))
            other = ndo.init_params(4, 3, 2, scale=1.0, seed=int(rng.integers(2**31)))
            ds = measurement.generate_dataset(ndo.density_matrix(other), 1)
            assert cost(params, ds, bases) >= 0.0

    def test_dimension_mismatch(self):
        params = ndo.init_params(4, 3, 2)
        ds = measurement.generate_dataset(walk.initial_state(2), 2)
        with pytest.raises(ValueError, match="dim"):
            cost(params, ds, measurement.all_basis_unitaries(2))
        with pytest.raises(ValueError, match="n_bases"):
            cost(ndo.init_params(6, 3, 2), ds.probs[:5], measurement.all_basis_unitaries(2))


class TestGradCost:
    def test_matches_finite_differences(self):
        rho, ds, bases = hadamard_setup(1, noise="dephasing", delta_beta=0.8)
        d, m_h, m_a = 4, 3, 2
        rng = np.random.default_rng(4)
        for _ in range(3):
            params = ndo.init_params(d, m_h, m_a, scale=0.6, seed=int(rng.integers(2**31)))
            obj = ndo_objective(params, ds, bases)
            x0 = params.to_vector()
            g = obj.grad(x0)
            h = 1e-6
            fd = np.empty_like(x0)
            for j in range(x0.size):
                xp = x0.copy()
                xp[j] += h
                xm = x0.copy()
                xm[j] -= h
                fd[j] = (obj.cost(xp) - obj.cost(xm)) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
            assert rel.max() <= 1e-5

    def test_non_hermitian_state_raises_runtime_error(self):
        rho, ds, bases = hadamard_setup(1)
        ev = ndo.evaluate(ndo.init_params(4, 3, 2, scale=0.6, seed=2))
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 0.3j
        tampered = dataclasses.replace(ev, rho=ev.rho + skew)
        m = oracles.data_adjoint(tampered.rho, ds.probs, bases)
        with pytest.raises(RuntimeError, match="imaginary residue"):
            training._grad_from_eval(tampered, training._covector(m))

    # relative differences measured: 3.3e-16 and 5.2e-13
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than double here")
    @pytest.mark.parametrize("scale,tol", [(3.0, 1e-12), (5.0, 1e-10)])
    def test_near_a_basis_state_matches_extended_precision(self, scale, tol):
        # rho_11 = 1 - 1.8e-4 at scale 3 and 1 - 4.9e-7 at scale 5, where 16
        # model probabilities meet the floor; the data are a nearby state's
        x = ndo.init_params(12, 15, 15, scale=scale, seed=17).to_vector()
        near = x + 0.01 * np.random.default_rng(1).standard_normal(x.size)
        bases = measurement.all_basis_unitaries(5)
        data = bases.probabilities(ndo.density_matrix(ndo.NdoParams.from_vector(12, 15, 15, near)))
        obj = training._NdoObjective(data, bases, 12, 15, 15)
        ev, e = obj.metric(x)
        ref = oracles.extended_jacobian_rows(ev).T @ e.astype(np.longdouble)
        err = np.linalg.norm((obj.grad(x) - ref).astype(float))
        assert err <= tol * np.linalg.norm(ref.astype(float))

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 5, 30])
    def test_matches_dense_oracle(self, n_steps):
        d = 2 * (n_steps + 1)
        rng = np.random.default_rng(n_steps)
        target = ndo.density_matrix(ndo.init_params(d, 3, 2, scale=0.8, seed=int(rng.integers(2**31))))
        data = measurement.generate_dataset(target, n_steps).probs
        params = ndo.init_params(d, 3, 2, scale=0.8, seed=int(rng.integers(2**31)))
        g = grad(params, data, measurement.all_basis_unitaries(n_steps))
        ev = ndo.evaluate(params)
        dense = oracles.DenseBases(n_steps)
        ref = training._grad_from_eval(ev, training._covector(oracles.data_adjoint(ev.rho, data, dense)))
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_stationary_on_own_dataset(self):
        params = ndo.init_params(6, 4, 3, scale=0.8, seed=9)
        ds = measurement.generate_dataset(ndo.density_matrix(params), 2)
        bases = measurement.all_basis_unitaries(2)
        assert np.linalg.norm(grad(params, ds, bases)) <= 1e-8

    def test_mu_bias_gradient_zero_with_reference_basis_only(self):
        params = ndo.init_params(4, 3, 2, scale=0.7, seed=11)
        bases = reference_basis_only(1)
        data = bases.probabilities(walk.evolve(walk.WalkConfig(1, (0.6,))))
        g = grad(params, data, bases)
        off = param_offsets(4, 3, 2)
        np.testing.assert_array_equal(g[off["b_mu"] : off["b_mu"] + 4], 0.0)


class TestMetric:
    def test_symmetric_psd_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = ndo.init_params(4, 3, 3, scale=0.9, seed=int(rng.integers(2**31)))
            g = metric_gram(ndo.evaluate(params))
            assert np.max(np.abs(g - g.T)) <= 1e-12
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-8 * np.linalg.norm(g)

    def test_jacobian_matches_finite_differences(self):
        d, m_h, m_a = 4, 3, 2
        params = ndo.init_params(d, m_h, m_a, scale=0.7, seed=6)
        jac = oracles.rho_jacobian(params)
        x0 = params.to_vector()
        h = 1e-6
        for j in range(x0.size):
            xp = x0.copy()
            xp[j] += h
            xm = x0.copy()
            xm[j] -= h
            col = (
                ndo.density_matrix(ndo.NdoParams.from_vector(d, m_h, m_a, xp))
                - ndo.density_matrix(ndo.NdoParams.from_vector(d, m_h, m_a, xm))
            ).reshape(-1) / (2 * h)
            denom = np.maximum(np.abs(col), 1e-7)
            assert np.max(np.abs(jac[:, j] - col) / denom) <= 1e-5

    def test_gram_of_orthonormal_columns(self):
        # the Jacobian-path oracle that the metric is checked against
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(30, 8)))
        np.testing.assert_allclose(oracles.jacobian_gram(q.T), np.eye(8), atol=1e-12)

    def test_gram_with_subnormal_range_rows(self):
        # coherences near 1e-200 and 1e-291 leave rows of that size in J_r,
        # whose products put entries near 1e-200 and in the subnormal range in K
        ev = ndo.evaluate(wide_range(12, 15, 15, seed=8))
        k, ref = metric_gram(ev), oracles.jacobian_gram(oracles.jacobian_rows(ev))
        assert np.any((np.abs(ref) > 0) & (np.abs(ref) < 1e-280))
        assert np.max(np.abs(k - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_solve_metric_residual(self):
        # the solved right-hand side is the cost gradient, which the chain
        # rule keeps inside range(G); the regularized solve then stays accurate
        rho, ds, bases = hadamard_setup(1, noise="dephasing", delta_beta=0.9)
        params = ndo.init_params(4, 3, 3, scale=0.8, seed=8)
        obj = training._NdoObjective(ds, bases, 4, 3, 3)
        delta = training.solve_metric(*obj.metric(params.to_vector()), 1e-6)
        g_mat = oracles.dense_metric(oracles.rho_jacobian(params))
        grad = obj.grad(params.to_vector())
        t_bar = np.trace(g_mat) / g_mat.shape[0]
        reg = g_mat + 1e-6 * t_bar * np.eye(g_mat.shape[0])
        resid = np.linalg.norm(reg @ delta - grad) / np.linalg.norm(grad)
        assert resid <= 1e-10

    def test_solve_metric_zero_metric_returns_zero_direction(self):
        # b_lam[2] = 1600 makes rho exactly e_2 e_2^T, so J_r and K vanish and
        # tr K = 0; a Cholesky of lam I = 0 would raise, so the identity
        # fallback applies, and J_r^T e is the zero gradient
        base = ndo.init_params(6, 3, 3, scale=0.5, seed=1)
        params = dataclasses.replace(base, b_lam=np.where(np.arange(6) == 2, 1600.0, base.b_lam))
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        obj = training._NdoObjective(ds, bases, 6, 3, 3)
        ev, e = obj.metric(params.to_vector())
        assert np.array_equal(ev.rho, np.diag(np.arange(6) == 2).astype(complex))
        assert np.trace(metric_gram(ev)) == 0.0
        np.testing.assert_array_equal(obj.grad(params.to_vector()), 0.0)
        np.testing.assert_array_equal(training.solve_metric(ev, e, 1e-6), 0.0)

    @staticmethod
    def small_metric():
        rho, ds, bases = hadamard_setup(1, noise="dephasing", delta_beta=0.9)
        obj = training._NdoObjective(ds, bases, 4, 3, 3)
        return obj.metric(ndo.init_params(4, 3, 3, scale=0.8, seed=8).to_vector())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solve_metric_non_finite_e_raises(self, bad):
        ev, e = self.small_metric()
        e = e.copy()
        e[3] = bad
        with pytest.raises(ValueError, match="right-hand side e"):
            training.solve_metric(ev, e, 1e-6)

    def test_solve_metric_unchanged_without_finite_scan(self, monkeypatch):
        ev, e = self.small_metric()
        direction = training.solve_metric(ev, e, 1e-6)
        cho_solve = scipy.linalg.cho_solve  # solve_metric imports it by name on each call
        monkeypatch.setattr(scipy.linalg, "cho_solve", lambda factor, b, check_finite=False:
                            cho_solve(factor, b))  # scans the factor and b
        assert np.array_equal(direction, training.solve_metric(ev, e, 1e-6))

    def test_cholesky_pivots_show_a_non_finite_factor(self):
        # cho_factor passes a NaN pivot; a non-finite entry anywhere in the
        # lower triangle still leaves a non-finite pivot, or is rejected
        rng = np.random.default_rng(0)
        n = 300  # above the blocking size of the factorization
        a = rng.normal(size=(n, n))
        k0 = a @ a.T / n + 1e-3 * np.eye(n)
        factored = 0
        for trial in range(60):
            k = k0.copy()
            i, j = sorted(rng.integers(0, n, 2), reverse=True)
            k[i, j] = k[j, i] = (np.nan, np.inf, -np.inf)[trial % 3]
            try:
                c, _ = scipy.linalg.cho_factor(k, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                continue
            factored += 1
            assert not np.all(np.isfinite(c.diagonal()))
        assert factored > 0

    def test_solve_metric_never_solves_with_a_non_finite_factor(self, monkeypatch):
        # a non-finite entry of K either falls back to the identity (on the
        # diagonal, through the trace) or stops the solve with LinAlgError
        ev, e = self.small_metric()
        k0 = training.gram(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_upper)
        fallback = training._rho_pullback(ev, training._row_matrix(e, 4)).real
        n = k0.shape[0]
        for i, j in zip(*np.tril_indices(n)):
            for bad in (np.nan, np.inf, -np.inf):
                k = k0.copy()
                k[i, j] = k[j, i] = bad
                monkeypatch.setattr(training, "gram", lambda *args, k=k: k.copy())
                if i == j:
                    assert np.array_equal(training.solve_metric(ev, e, 1e-6), fallback)
                else:
                    with pytest.raises(np.linalg.LinAlgError):
                        training.solve_metric(ev, e, 1e-6)

    def test_solve_metric_unchanged_by_subnormal_range_entries(self):
        # coherences driven to 1e-200 and 1e-291 put entries near 1e-200 and in
        # the subnormal range in K; the data are another such state's, so no
        # model probability meets the floor and J_r^T e is the gradient
        bases = measurement.all_basis_unitaries(1)
        data = bases.probabilities(ndo.density_matrix(wide_range(4, 3, 3, seed=9)))
        obj = training._NdoObjective(data, bases, 4, 3, 3)
        ev, e = obj.metric(wide_range(4, 3, 3, seed=8).to_vector())
        k = np.abs(metric_gram(ev))
        assert np.any((k > 0) & (k < 1e-280))
        jr = oracles.jacobian_rows(ev)
        # relative differences measured: 1.3e-9 at eps 1e-6, 1.3e-12 at 1e-3
        for eps, tol in ((1e-6, 1e-7), (1e-3, 1e-10)):
            ref = oracles.jacobian_solve_metric(jr, e, eps)
            delta = training.solve_metric(ev, e, eps)
            assert np.linalg.norm(delta - ref) <= tol * np.linalg.norm(ref)


class TestRhoSpaceSolve:
    """The d^2 x d^2 push-through solve against the dense P x P oracle."""

    @staticmethod
    def objective_at(n_steps, m_h=3, m_a=2, scale=0.8):
        d = 2 * (n_steps + 1)
        seeds = np.random.default_rng(100 + n_steps).integers(2**31, size=2)
        target = ndo.density_matrix(ndo.init_params(d, m_h, m_a, scale=scale, seed=int(seeds[0])))
        ds = measurement.generate_dataset(target, n_steps)
        params = ndo.init_params(d, m_h, m_a, scale=scale, seed=int(seeds[1]))
        obj = training._NdoObjective(ds, measurement.all_basis_unitaries(n_steps), d, m_h, m_a)
        return obj, params

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 5])
    def test_rows_reproduce_cost_gradient(self, n_steps):
        obj, params = self.objective_at(n_steps)
        ev, e = obj.metric(params.to_vector())
        g = obj.grad(params.to_vector())
        assert np.linalg.norm(pullback_rows(ev, e) - g) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(oracles.jacobian_rows(ev).T @ e - g) <= 1e-12 * np.linalg.norm(g)

    def test_gram_shape(self):
        obj, params = self.objective_at(2)
        ev, e = obj.metric(params.to_vector())
        assert e.shape == (36,)
        assert metric_gram(ev).shape == (36, 36)
        assert oracles.jacobian_rows(ev).shape == (36, params.n_params)

    # relative differences measured: 1.3e-9, 1.2e-9, 1.1e-9, 2.9e-9 at N = 1, 2, 5, 10
    @pytest.mark.parametrize("n_steps", [1, 2, 5, 10])
    def test_direction_matches_dense_oracle(self, n_steps):
        obj, params = self.objective_at(n_steps, m_h=15, m_a=15, scale=0.3)
        x = params.to_vector()
        direction = training.solve_metric(*obj.metric(x), 1e-6)
        metric = oracles.dense_metric(oracles.rho_jacobian(params))
        ref = oracles.dense_metric_direction(metric, obj.grad(x), 1e-6)
        assert np.linalg.norm(direction - ref) <= 1e-6 * np.linalg.norm(ref)


class TestMetricWithoutJacobian:
    """`training.gram` and the pullback of `training.solve_metric` against the
    formed Jacobian J_r: K = J_r J_r^T by dsyrk and J_r^T y by the plain product."""

    STATES = {
        **{f"N={n}, scale {scale}": functools.partial(
            ndo.init_params, 2 * (n + 1), *((15, 15) if n == 5 else (4, 3)), scale=scale, seed=n)
           for n in (1, 2, 5) for scale in (0.01, 0.5, 3.0)},
        "no hidden units": functools.partial(ndo.init_params, 6, 0, 3, scale=1.0, seed=6),
        "no ancilla units": functools.partial(ndo.init_params, 6, 3, 0, scale=1.0, seed=7),
        "no hidden or ancilla units": functools.partial(ndo.init_params, 6, 0, 0, scale=1.0, seed=8),
        "nearly pure, subnormal": functools.partial(oracles.nearly_pure_subnormal, 12, 15, 15),
        "coherences near 1e-200 and 1e-291": functools.partial(wide_range, 12, 15, 15, seed=8),
        # rho_11 = 1 - 1.8e-4, so dA_11 - z is small
        "near a basis state": functools.partial(ndo.init_params, 12, 15, 15, scale=3.0, seed=17),
    }

    @pytest.mark.parametrize("state", list(STATES))
    def test_gram_equals_jacobian_gram(self, state):
        ev = ndo.evaluate(self.STATES[state]())
        k = metric_gram(ev)
        ref = oracles.jacobian_gram(oracles.jacobian_rows(ev))
        assert k.shape == ref.shape
        # relative differences measured: at most 1.4e-15 (1.3e-14 near a
        # basis state, where J_r's own roundoff sets it), and 0 on the nearly
        # pure state, whose K underflows to zero on both paths
        assert np.max(np.abs(k - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("state", list(STATES))
    def test_pullback_equals_jacobian_transpose(self, state):
        ev = ndo.evaluate(self.STATES[state]())
        jr = oracles.jacobian_rows(ev)
        y = np.random.default_rng(3).normal(size=jr.shape[0])
        ref = jr.T @ y
        # relative differences measured: at most 4.5e-15, but 1.5e-12 near a
        # basis state, where J_r's own roundoff is 1.5e-12 against extended
        # precision (the contraction's is 1.9e-15); the nearly pure state's
        # products are subnormal, where doubles keep fewer digits
        tol = 1e-11 * np.linalg.norm(ref) + 1e3 * np.finfo(float).smallest_subnormal
        assert np.linalg.norm(pullback_rows(ev, y) - ref) <= tol

    @pytest.fixture(scope="class")
    def fit_points(self):
        """Two `recon-n5`-like warm-up end points: after 100 L-BFGS steps on a
        nearly pure and on a strongly mixed dephasing walk."""
        points = []
        for delta_beta, seed in ((0.3, 0), (2.5, 4)):
            rho, ds, bases = hadamard_setup(5, noise="dephasing", delta_beta=delta_beta)
            init = ndo.mixed_init_params(12, 15, 15, seed=seed)
            params, _ = training.optimize((TrainConfig("lbfgs", 1e-8, 100),), ds, bases, init)
            points.append((training._NdoObjective(ds, bases, 12, 15, 15), params.to_vector()))
        return points

    # relative differences measured: 1.5e-8 and 9.9e-10 at eps 1e-6, set by its
    # 1/eps conditioning; 5.6e-11 and 1.4e-11 at eps 1e-3
    @pytest.mark.parametrize("eps,tol", [(1e-6, 1e-6), (1e-3, 1e-9)])
    def test_direction_equals_jacobian_path(self, fit_points, eps, tol):
        for obj, x in fit_points:
            ev, e = obj.metric(x)
            ref = oracles.jacobian_solve_metric(oracles.jacobian_rows(ev), e, eps)
            direction = training.solve_metric(ev, e, eps)
            assert np.linalg.norm(direction - ref) <= tol * np.linalg.norm(ref)


    def test_direction_near_a_basis_state(self):
        # rho_11 = 1 - 4.9e-7: forming K by subtracting the log Z terms from
        # D without the shift to dA_11 left K + lam I indefinite here
        rho, ds, bases = hadamard_setup(5, noise="dephasing", delta_beta=1.0)
        obj = training._NdoObjective(ds, bases, 12, 15, 15)
        ev, e = obj.metric(ndo.init_params(12, 15, 15, scale=5.0, seed=17).to_vector())
        assert 1.0 - ev.rho.diagonal().real.max() < 1e-6
        ref = oracles.jacobian_solve_metric(oracles.jacobian_rows(ev), e, 1e-6)
        direction = training.solve_metric(ev, e, 1e-6)
        # relative difference measured: 1.6e-5, where J_r's Gram is the less
        # accurate of the two (7.7e-12 against 1.0e-14 relative to K in
        # extended precision)
        assert np.linalg.norm(direction - ref) <= 1e-3 * np.linalg.norm(ref)


class TestBitIdentity:
    """The fit's objective returns exactly what the reference path computes:
    the full-triangle kernel with eager logistic caches, the complex Jacobian
    reduced by `_hermitian_rows`, the gather index and the KL mask formed on
    every call."""

    STATES = {
        "mixed start": lambda: ndo.mixed_init_params(12, 15, 15, seed=0),
        "random": lambda: ndo.init_params(12, 15, 15, scale=1.0, seed=7),
        "nearly pure, subnormal": lambda: oracles.nearly_pure_subnormal(12, 15, 15),
    }

    @pytest.fixture(scope="class")
    def objective(self):
        rho, ds, bases = hadamard_setup(5, noise="dephasing", delta_beta=1.0)
        return training._NdoObjective(ds, bases, 12, 15, 15)

    @pytest.mark.parametrize("state", list(STATES))
    def test_cost_grad_metric_equal_reference(self, objective, state):
        params = self.STATES[state]()
        x = params.to_vector()
        eager = oracles.evaluate(params)
        rho = eager.rho
        bases = oracles.GatherBases(objective.bases)
        data = objective.data
        if state == "nearly pure, subnormal":
            tiny = np.abs(rho[0, 1:])
            assert np.all((tiny > 0) & (tiny < np.finfo(float).tiny))

        assert objective.cost(x) == oracles.kl_distance(data, bases.probabilities(rho))
        m_ref = oracles.data_adjoint(rho, data, bases)
        assert np.array_equal(objective.grad(x), training._grad_from_eval(eager, training._covector(m_ref)))
        ev, e = objective.metric(x)
        e_ref = training._hermitian_rows(-m_ref.T)
        e_ref[:12] -= e_ref[:12].mean()
        assert np.array_equal(e, e_ref)
        for name in ("rho", "sig_lam", "sig_mu", "s_upper"):
            assert np.array_equal(getattr(ev, name), getattr(eager, name)), name
        # the metric's Gram against the complex oracle's Hermitian rows
        jac = oracles.complex_jacobian(rho, eager.sig_lam, eager.sig_mu, eager.s_upper)
        ref = oracles.jacobian_gram(training._hermitian_rows(jac.reshape(12, 12, -1)))
        assert np.max(np.abs(metric_gram(ev) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_maxlik_cost_equals_reference(self):
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=0.7)
        obj = maxlik._MaxlikObjective(ds, bases)
        x = maxlik.init_t_params(obj.d, seed=3)
        ref = oracles.kl_distance(ds.probs, oracles.GatherBases(bases).probabilities(maxlik.rho_from_t(x)))
        assert obj.cost(x) == ref


class TestLbfgs:
    def test_direction_equals_two_loop_reference(self):
        rng = np.random.default_rng(5)
        lbfgs = training._Lbfgs(4)
        for _ in range(7):
            s = rng.standard_normal(40)
            lbfgs.update(s, s + 0.3 * rng.standard_normal(40))
        lbfgs.update(np.ones(40), -np.ones(40))  # no curvature: skipped
        pairs = [(s, y) for s, y, _ in lbfgs.pairs]
        assert len(pairs) == 4
        assert all(sy == float(s @ y) for s, y, sy in lbfgs.pairs)
        for _ in range(20):
            g = rng.standard_normal(40)
            assert np.array_equal(lbfgs.direction(g), oracles.lbfgs_direction(pairs, g))
        assert np.array_equal(training._Lbfgs(4).direction(g), -g)


def quadratic_line(scale):
    """f(x) = x.A.x / 2 at x0 = (1, 1) along p = -scale g, g = A x0. Its
    passing Armijo steps are the interval (0, eta_max] with eta_max about
    0.067 / scale, so scale sets where a search along p must stop."""
    a = np.diag([1.0, 30.0])
    x0 = np.ones(2)

    def fun(x):
        return 0.5 * float(x @ a @ x)

    g = a @ x0
    return fun, x0, fun(x0), g, -scale * g


def backtracking_search(monkeypatch):
    """Swap the warm-started line search for the oracle that backtracks from 1."""
    monkeypatch.setattr(
        training, "_armijo",
        lambda fun, x, f0, g, p, eta: oracles.backtracking_armijo(fun, x, f0, g, p),
    )


class TestWarmStartedArmijo:
    # the largest passing step: 1, 2^-4, 2^-8, 2^-14, 2^-28, and none
    SCALES = (1e-3, 1.0, 16.0, 1e3, 1e7, 1e9)

    @pytest.mark.parametrize("scale", SCALES)
    def test_equals_backtracking_from_every_first_step(self, scale):
        fun, x0, f0, g, p = quadratic_line(scale)
        ref = oracles.backtracking_armijo(fun, x0, f0, g, p)
        for k in range(training.LS_MAX_HALVINGS + 1):
            res = training._armijo(fun, x0, f0, g, p, 2.0**-k)
            if ref is None:
                assert res is None, k
            else:
                assert np.array_equal(res[0], ref[0]) and res[1:] == ref[1:], k

    def test_fewer_trials_from_the_accepted_step(self):
        fun, x0, f0, g, p = quadratic_line(16.0)
        trials = []

        def counted(x):
            trials.append(x)
            return fun(x)

        _, _, eta = oracles.backtracking_armijo(counted, x0, f0, g, p)
        assert eta == 2.0**-8 and len(trials) == 9
        trials.clear()
        assert training._armijo(counted, x0, f0, g, p, eta)[2] == eta
        assert len(trials) == 2  # eta passes, 2 eta fails

    def test_expansion_stops_at_the_unit_step(self):
        # a falling linear cost passes the Armijo test at every step
        steps = []

        def fun(x):
            steps.append(float(x[0]))
            return -float(x[0])

        g = np.array([-1.0])
        for k in range(training.LS_MAX_HALVINGS + 1):
            steps.clear()
            res = training._armijo(fun, np.zeros(1), 0.0, g, -g, 2.0**-k)
            assert res[2] == training.LS_INIT_STEP
            assert steps == [2.0**-j for j in range(k, -1, -1)]

    @pytest.mark.parametrize("case", ["ascent", "unchanged cost", "over-curved", "passing",
                                      "long steps only"])
    def test_none_exactly_where_backtracking_fails(self, case):
        if case == "ascent":
            fun, x0, f0, g, p = quadratic_line(1.0)
            p = -p
        elif case == "unchanged cost":
            fun, x0, f0, g = (lambda x: 1.0), np.zeros(1), 1.0, np.array([1e-20])
            p = -g
        elif case == "long steps only":
            # a step to 0.3 or beyond drops the cost; a shorter one leaves it
            # unchanged, so only 1/2 and 1 pass
            fun, x0, f0, g = (lambda x: float(x[0] < 0.3)), np.zeros(1), 1.0, np.array([-1.0])
            p = -g
        else:
            fun, x0, f0, g, p = quadratic_line(1e9 if case == "over-curved" else 1e3)
        ref = oracles.backtracking_armijo(fun, x0, f0, g, p)
        assert (ref is None) == (case in ("ascent", "unchanged cost", "over-curved"))
        for k in range(training.LS_MAX_HALVINGS + 1):
            res = training._armijo(fun, x0, f0, g, p, 2.0**-k)
            assert (res is None) == (ref is None), k
            if case == "long steps only":
                assert res[2] == ref[2] == 1.0, k


def fits_equal_backtracking(monkeypatch, fit):
    """Run fit() with the warm-started search, then with the backtracking
    oracle; both give the same parameters and reports, the oracle with more
    NDO evaluations. Returns the two evaluation counts."""
    evals = count_calls(monkeypatch, ndo, "evaluate")
    x_lib, rep_lib = fit()
    n_lib = len(evals)
    backtracking_search(monkeypatch)
    x_ref, rep_ref = fit()
    n_ref = len(evals) - n_lib
    assert np.array_equal(x_lib.to_vector(), x_ref.to_vector())
    assert rep_lib.costs == rep_ref.costs
    assert rep_lib.grad_norms == rep_ref.grad_norms
    assert rep_lib.step_sizes == rep_ref.step_sizes
    assert rep_lib.termination == rep_ref.termination
    assert n_lib < n_ref
    return n_lib, n_ref


def test_fit_ndo_equals_backtracking_search(monkeypatch):
    """The benchmark's N=5 recipe (15+15 units, 100 L-BFGS + 20 GNGD)."""
    rho, ds, bases = hadamard_setup(5, noise="dephasing", delta_beta=1.0)
    fits_equal_backtracking(monkeypatch, lambda: training.fit_ndo(
        ds, bases, 12, 15, 15, seed=0, warmup_iters=100, polish_iters=20))


@pytest.mark.parametrize("optimizer", ["gd", "gngd"])
def test_pure_start_equals_backtracking_search(monkeypatch, optimizer):
    """150 steps from criterion 7's pure start, where GD accepts steps from
    2^-5 to 1 and GNGD from 2^-24 to 2^-6."""
    rho, ds, bases = hadamard_setup(5, noise="dephasing", delta_beta=np.pi / 2)
    init = ndo.init_params(12, 15, 15, scale=0.01, seed=0)
    config = TrainConfig(optimizer=optimizer, grad_tol=1e-14, max_iters=150)
    fits_equal_backtracking(monkeypatch, lambda: training.optimize((config,), ds, bases, init))


def test_fit_ndo_equals_dense_oracle_path(monkeypatch):
    """A short L-BFGS + GNGD fit is bit-identical when the upper-pair kernel,
    the lazy caches and the stored s.y are swapped for their oracles."""
    rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)

    def fit():
        params, report = training.fit_ndo(ds, bases, 6, 3, 3, warmup_iters=30, polish_iters=10)
        return params.to_vector(), report

    x_lib, rep_lib = fit()
    evals = count_calls(monkeypatch, oracles, "evaluate")
    monkeypatch.setattr(ndo, "evaluate", oracles.evaluate)
    monkeypatch.setattr(ndo.kernels, "pair_cache", oracles.pair_cache)
    monkeypatch.setattr(
        training._Lbfgs, "direction",
        lambda self, g: oracles.lbfgs_direction([(s, y) for s, y, _ in self.pairs], g),
    )
    x_ref, rep_ref = fit()
    assert len(evals) >= 40 and rep_ref.iterations == 40
    assert np.array_equal(x_lib, x_ref)
    assert rep_lib.costs == rep_ref.costs
    assert rep_lib.grad_norms == rep_ref.grad_norms


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the live count list."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOnePassPerPoint:
    def test_ndo_point_forms_probabilities_and_adjoint_once(self, monkeypatch):
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        params = ndo.init_params(6, 3, 3, scale=0.5, seed=4)
        obj = ndo_objective(params, ds, bases)
        probs = count_calls(monkeypatch, measurement.BasisTables, "probabilities")
        adjoints = count_calls(monkeypatch, measurement.BasisTables, "adjoint")
        x = params.to_vector()
        obj.cost(x)
        obj.grad(x)
        obj.metric(x)
        assert (len(probs), len(adjoints)) == (1, 1)
        obj.cost(x + 1e-3)  # a new point forms the probabilities again
        assert (len(probs), len(adjoints)) == (2, 1)

    def test_point_before_last_stays_cached(self, monkeypatch):
        """A search that accepts x1 and fails the doubled trial x2 then asks
        for the gradient at x1: the state is formed twice, not three times."""
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        params = ndo.init_params(6, 3, 3, scale=0.5, seed=4)
        obj = ndo_objective(params, ds, bases)
        evals = count_calls(monkeypatch, ndo, "evaluate")
        x1 = params.to_vector()
        x2 = x1 + 1e-3
        obj.cost(x1)
        obj.cost(x2)
        g1 = obj.grad(x1)
        assert len(evals) == 2
        obj.cost(x1 + 2e-3)  # a third point evicts x2, the least recently used
        obj.cost(x2)
        assert len(evals) == 4
        np.testing.assert_array_equal(g1, grad(params, ds, bases))

    def test_maxlik_point_forms_t_and_probabilities_once(self, monkeypatch):
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        obj = maxlik._MaxlikObjective(ds, bases)
        t_calls = count_calls(monkeypatch, maxlik, "t_matrix")
        probs = count_calls(monkeypatch, measurement.BasisTables, "probabilities")
        x = maxlik.init_t_params(obj.d, seed=2)
        obj.cost(x)
        obj.grad(x)
        assert (len(t_calls), len(probs)) == (1, 1)


class TestMixedStart:
    def test_purity_close_to_maximally_mixed(self):
        rho = ndo.density_matrix(ndo.mixed_init_params(12, 15, 15, seed=0))
        assert abs(np.trace(rho @ rho).real - 1.0 / 12) <= 1e-4
        # the plain start is the nearly pure uniform superposition
        plain = ndo.density_matrix(ndo.init_params(12, 15, 15, seed=0))
        assert np.trace(plain @ plain).real >= 0.99

    def test_same_seed_same_start(self):
        a = ndo.mixed_init_params(12, 15, 15, seed=5).to_vector()
        b = ndo.mixed_init_params(12, 15, 15, seed=5).to_vector()
        c = ndo.mixed_init_params(12, 15, 15, seed=6).to_vector()
        np.testing.assert_array_equal(a, b)
        assert 0.0 < np.max(np.abs(a - c)) <= 0.02  # only the +-0.01 draw differs

    def test_fit_ndo_starts_mixed(self):
        rho, ds, bases = hadamard_setup(5, noise="dephasing", delta_beta=2.0)
        init = ndo.mixed_init_params(12, 15, 15, seed=3)
        _, report = training.fit_ndo(ds, bases, 12, 15, 15, seed=3,
                                     warmup_iters=1, polish_iters=1)
        assert report.costs[0] == cost(init, ds, bases)


class TestGngdStep:
    def test_identity_metric_matches_gd_step(self, monkeypatch):
        rho, ds, bases = hadamard_setup(1)
        params = ndo.init_params(4, 3, 2, scale=0.3, seed=3)
        obj = training._NdoObjective(ds, bases, 4, 3, 2)
        x0 = params.to_vector()
        monkeypatch.setattr(training, "gram", lambda rho, *caches: np.eye(rho.size))
        config = TrainConfig(optimizer="gngd", max_iters=1)
        x, report = training.minimize_vector(obj.cost, obj.grad, x0, config, metric_fun=obj.metric)
        # K = I with relative jitter lam = eps d^2 / P solves (1 + lam) y = e,
        # and the direction J_r^T y is the gradient over 1 + lam
        expected_dir = -obj.grad(x0) / (1.0 + 1e-6 * 16 / params.n_params)
        assert report.iterations == 1
        np.testing.assert_allclose(x, x0 + report.step_sizes[0] * expected_dir, atol=1e-12)

    def test_accepted_fallback_raises_eps_tenfold(self, monkeypatch):
        # the first metric direction points uphill, so the line search fails
        # and the gradient fallback's step 2^-30 is accepted; that step is
        # below 1e-3, so the schedule raises eps tenfold, once
        seen = []

        def solve_metric(ev, e, eps):
            seen.append(eps)
            return -e if len(seen) == 1 else e

        monkeypatch.setattr(training, "solve_metric", solve_metric)
        _, report = training.minimize_vector(
            lambda x: 0.5 * float(x @ x), lambda x: x.copy(), np.ones(3),
            TrainConfig(optimizer="gngd", max_iters=2), metric_fun=lambda x: (None, x),
        )
        assert report.step_sizes[0] == 2.0**-30
        assert seen == [training.METRIC_EPS, 10.0 * training.METRIC_EPS]

    def test_accepted_steps_decrease_cost(self):
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        config = TrainConfig(optimizer="gngd", max_iters=200)
        init = ndo.init_params(6, 4, 4, scale=0.01, seed=1)
        _, report = training.optimize((config,), ds, bases, init)
        costs = np.array(report.costs)
        assert np.all(np.diff(costs) <= 0.0)

    def test_constant_cost_ends_in_line_search_failure(self):
        # a cost surface that never decreases defeats both the metric
        # direction and the gradient fallback
        rho, ds, bases = hadamard_setup(1)
        params = ndo.init_params(4, 3, 2, scale=0.3, seed=5)
        obj = training._NdoObjective(ds, bases, 4, 3, 2)
        metric = obj.metric(params.to_vector())
        config = TrainConfig(optimizer="gngd", max_iters=10)
        _, report = training.minimize_vector(
            lambda x: 1.0, obj.grad, params.to_vector(), config, metric_fun=lambda _: metric
        )
        assert report.termination == "line-search failure"
        assert report.iterations == 0

    def test_armijo_rejects_unchanged_cost(self):
        # the predicted decrease 1e-4 * 1e-40 is far below the resolution of
        # the cost 1.0, so 1.0 + decrease rounds to 1.0; no step may be
        # accepted that leaves the cost where it was
        g = np.array([1e-20])
        assert training._armijo(lambda x: 1.0, np.zeros(1), 1.0, g, -g) is None
        assert training._gradient_fallback(lambda x: 1.0, np.zeros(1), 1.0, g) is None

    def test_minimize_reports_line_search_failure(self):
        # inconsistent oracle: constant cost with a nonzero reported gradient
        config = TrainConfig(optimizer="cg", max_iters=10)
        _, report = training.minimize_vector(
            lambda x: 1.0, lambda x: np.ones_like(x), np.zeros(3), config
        )
        assert report.termination == "line-search failure"
        assert report.iterations == 0


class TestOptimize:
    def test_n1_hadamard_gngd_high_fidelity(self):
        rho, ds, bases = hadamard_setup(1)
        config = TrainConfig(optimizer="gngd", max_iters=500)
        init = ndo.init_params(4, 4, 4, scale=0.01, seed=0)
        _, report = training.optimize((config,), ds, bases, init, target=rho)
        assert report.iterations <= 500
        assert report.fidelity >= 0.999

    def test_deterministic_traces(self):
        rho, ds, bases = hadamard_setup(2)
        config = TrainConfig(optimizer="gngd", max_iters=40)
        init = ndo.init_params(6, 3, 3, scale=0.01, seed=7)
        _, rep_a = training.optimize((config,), ds, bases, init)
        _, rep_b = training.optimize((config,), ds, bases, init)
        assert rep_a.costs == rep_b.costs
        assert rep_a.step_sizes == rep_b.step_sizes

    @pytest.mark.parametrize("optimizer", ["gd", "cg", "gngd"])
    def test_line_searched_costs_non_increasing(self, optimizer):
        rho, ds, bases = hadamard_setup(1, noise="depolarizing", p=0.3)
        config = TrainConfig(optimizer=optimizer, max_iters=120)
        init = ndo.init_params(4, 3, 3, scale=0.01, seed=2)
        _, report = training.optimize((config,), ds, bases, init)
        assert np.all(np.diff(report.costs) <= 0.0)

    @pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
    def test_model_realizable_reaches_small_gradient(self, optimizer):
        target_params = ndo.init_params(4, 2, 2, scale=0.4, seed=17)
        ds = measurement.generate_dataset(ndo.density_matrix(target_params), 1)
        bases = measurement.all_basis_unitaries(1)
        config = TrainConfig(
            optimizer=optimizer, grad_tol=1e-6,
            max_iters=20000 if optimizer in ("gd", "cg") else 5000,
        )
        init = ndo.init_params(4, 2, 2, scale=0.01, seed=3)
        _, report = training.optimize((config,), ds, bases, init)
        assert report.termination == "grad_tol"
        assert report.final_grad_norm <= 1e-6

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adam")
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=0.0)
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="grad_tol"):
                TrainConfig(grad_tol=value)
        with pytest.raises(ValueError):
            TrainConfig(max_iters=0)

    def test_no_phases_rejected(self):
        with pytest.raises(ValueError, match="configs is empty"):
            training.minimize_vector(lambda x: float(x @ x), lambda x: 2.0 * x, np.ones(3))


class TestTrainReport:
    def test_csv_round_trip(self, tmp_path):
        rho, ds, bases = hadamard_setup(1)
        config = TrainConfig(optimizer="gd", max_iters=20)
        init = ndo.init_params(4, 2, 2, scale=0.01, seed=1)
        _, report = training.optimize((config,), ds, bases, init)
        path = tmp_path / "trace.csv"
        report.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,cost,grad_norm,step,millis"
        assert len(lines) == report.iterations + 1
        first = lines[1].split(",")
        assert float(first[1]) == report.costs[0]

    def test_json_fields(self, tmp_path):
        import json

        rho, ds, bases = hadamard_setup(1)
        config = TrainConfig(optimizer="lbfgs", max_iters=15)
        init = ndo.init_params(4, 2, 2, scale=0.01, seed=4)
        _, report = training.optimize((config,), ds, bases, init, target=rho)
        path = tmp_path / "report.json"
        report.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["optimizer"] == "lbfgs"
        assert doc["termination"] in ("grad_tol", "max_iters", "line-search failure")
        assert len(doc["costs"]) == doc["iterations"] + 1
        assert doc["fidelity"] is not None

    def test_fit_ndo_pairs_each_cost_with_its_gradient_norm(self, monkeypatch):
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        fit = (ds, bases, 6, 3, 3)
        options = dict(seed=1, warmup_iters=5, polish_iters=3, grad_tol=1e-14)
        evals = count_calls(monkeypatch, ndo, "evaluate")
        _, report = training.fit_ndo(*fit, **options)
        one_loop = len(evals)
        oracles.two_phase_fit_ndo(*fit, **options)
        assert len(evals) - one_loop == one_loop + 1  # the oracle evaluates the seam twice
        assert len(report.costs) == len(report.grad_norms) == 9


# (walk, network dims, fit options, the warm-up's termination and steps, the
# two-fit oracle's termination and steps)
PHASE_SEAMS = {
    "warmup-max-iters": (
        (2, "dephasing", 1.0), (6, 3, 3),
        dict(seed=1, warmup_iters=5, polish_iters=3, grad_tol=1e-14),
        ("max_iters", 5), ("max_iters", 8),
    ),
    "warmup-grad-tol": (  # L-BFGS converges in 50 steps; the polish takes none
        (1, "none", 0.0), (4, 3, 3),
        dict(seed=1, warmup_iters=300, polish_iters=30, grad_tol=1e-5),
        ("grad_tol", 50), ("grad_tol", 50),
    ),
    "warmup-line-search-failure": (  # L-BFGS fails at step 467; GNGD takes 6 more
        (1, "none", 0.0), (4, 3, 3),
        dict(seed=4, warmup_iters=2000, polish_iters=30),
        ("line-search failure", 467), ("line-search failure", 473),
    ),
}


@pytest.mark.parametrize("case", PHASE_SEAMS)
def test_fit_ndo_one_loop_equals_two_fit_oracle(case):
    (n_steps, noise, delta_beta), dims, options, warm_end, fit_end = PHASE_SEAMS[case]
    rho, ds, bases = hadamard_setup(n_steps, noise=noise, delta_beta=delta_beta)
    params, report = training.fit_ndo(ds, bases, *dims, **options)
    ref_params, ref, warm = oracles.two_phase_fit_ndo(ds, bases, *dims, **options)
    assert (warm.termination, warm.iterations) == warm_end
    assert (ref.termination, ref.iterations) == fit_end
    assert np.array_equal(params.to_vector(), ref_params.to_vector())
    assert report.costs == ref.costs
    assert report.grad_norms == ref.grad_norms
    assert report.step_sizes == ref.step_sizes
    assert report.termination == ref.termination
    assert report.optimizer == ref.optimizer == "lbfgs+gngd"
