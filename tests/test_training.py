"""Cost, exact gradient, the pullback metric, and the four optimizers."""

import dataclasses

import numpy as np
import pytest

import oracles
from qwndo import measurement, ndo, training, walk
from qwndo.kernels import param_offsets
from qwndo.training import TrainConfig


def hadamard_setup(n_steps, noise="none", **kwargs):
    config = walk.WalkConfig(n_steps, (np.pi / 4,) * n_steps, noise=noise, **kwargs)
    rho = walk.evolve(config)
    ds = measurement.generate_dataset(rho, n_steps)
    bases = measurement.all_basis_unitaries(n_steps)
    return rho, ds, bases


def reference_basis_only(n_steps):
    """Tables holding only basis 0, the computational basis."""
    bases = measurement.all_basis_unitaries(n_steps)
    return measurement.BasisTables(index=bases.index[:1], coef=bases.coef[:1])


class TestCost:
    def test_own_dataset_zero(self):
        params = ndo.init_params(4, 3, 3, scale=0.6, seed=1)
        ds = measurement.generate_dataset(ndo.density_matrix(params), 1)
        bases = measurement.all_basis_unitaries(1)
        assert training.cost(params, ds, bases) <= 1e-12

    def test_single_binary_basis_log_two(self):
        params = ndo.init_params(2, 2, 2, scale=0.0)  # uniform state: P = (1/2, 1/2)
        data = np.array([[1.0, 0.0]])
        bases = reference_basis_only(0)
        assert training.cost(params, data, bases) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_for_random_pairs(self):
        rng = np.random.default_rng(2)
        bases = measurement.all_basis_unitaries(1)
        for _ in range(50):
            params = ndo.init_params(4, 3, 2, scale=1.0, seed=int(rng.integers(2**31)))
            other = ndo.init_params(4, 3, 2, scale=1.0, seed=int(rng.integers(2**31)))
            ds = measurement.generate_dataset(ndo.density_matrix(other), 1)
            assert training.cost(params, ds, bases) >= 0.0

    def test_dimension_mismatch(self):
        params = ndo.init_params(4, 3, 2)
        ds = measurement.generate_dataset(walk.initial_state(2), 2)
        with pytest.raises(ValueError, match="dim"):
            training.cost(params, ds, measurement.all_basis_unitaries(2))
        with pytest.raises(ValueError, match="n_bases"):
            training.cost(ndo.init_params(6, 3, 2), ds.probs[:5], measurement.all_basis_unitaries(2))


class TestGradCost:
    def test_matches_finite_differences(self):
        rho, ds, bases = hadamard_setup(1, noise="dephasing", delta_beta=0.8)
        d, m_h, m_a = 4, 3, 2
        rng = np.random.default_rng(4)
        for _ in range(3):
            params = ndo.init_params(d, m_h, m_a, scale=0.6, seed=int(rng.integers(2**31)))
            g = training.grad_cost(params, ds, bases)
            x0 = params.to_vector()
            h = 1e-6
            fd = np.empty_like(x0)
            for j in range(x0.size):
                xp = x0.copy()
                xp[j] += h
                xm = x0.copy()
                xm[j] -= h
                fd[j] = (
                    training.cost(ndo.NdoParams.from_vector(d, m_h, m_a, xp), ds, bases)
                    - training.cost(ndo.NdoParams.from_vector(d, m_h, m_a, xm), ds, bases)
                ) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
            assert rel.max() <= 1e-5

    def test_non_hermitian_state_raises_runtime_error(self):
        rho, ds, bases = hadamard_setup(1)
        ev = ndo.evaluate(ndo.init_params(4, 3, 2, scale=0.6, seed=2))
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 0.3j
        tampered = dataclasses.replace(ev, rho=ev.rho + skew)
        with pytest.raises(RuntimeError, match="imaginary residue"):
            training._grad_from_eval(tampered, ds.probs, bases)

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 5, 30])
    def test_matches_dense_oracle(self, n_steps):
        d = 2 * (n_steps + 1)
        rng = np.random.default_rng(n_steps)
        target = ndo.density_matrix(ndo.init_params(d, 3, 2, scale=0.8, seed=int(rng.integers(2**31))))
        data = measurement.generate_dataset(target, n_steps).probs
        ev = ndo.evaluate(ndo.init_params(d, 3, 2, scale=0.8, seed=int(rng.integers(2**31))))
        g = training._grad_from_eval(ev, data, measurement.all_basis_unitaries(n_steps))
        ref = training._grad_from_eval(ev, data, oracles.DenseBases(n_steps))
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_stationary_on_own_dataset(self):
        params = ndo.init_params(6, 4, 3, scale=0.8, seed=9)
        ds = measurement.generate_dataset(ndo.density_matrix(params), 2)
        bases = measurement.all_basis_unitaries(2)
        assert np.linalg.norm(training.grad_cost(params, ds, bases)) <= 1e-8

    def test_mu_bias_gradient_zero_with_reference_basis_only(self):
        params = ndo.init_params(4, 3, 2, scale=0.7, seed=11)
        bases = reference_basis_only(1)
        data = bases.probabilities(walk.evolve(walk.WalkConfig(1, (0.6,))))
        g = training.grad_cost(params, data, bases)
        off = param_offsets(4, 3, 2)
        np.testing.assert_array_equal(g[off["b_mu"] : off["b_mu"] + 4], 0.0)


class TestMetric:
    def test_symmetric_psd_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = ndo.init_params(4, 3, 3, scale=0.9, seed=int(rng.integers(2**31)))
            g = training.gram(training._hermitian_rows(ndo.rho_jacobian(params).reshape(4, 4, -1)))
            assert np.max(np.abs(g - g.T)) <= 1e-12
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-8 * np.linalg.norm(g)

    def test_jacobian_matches_finite_differences(self):
        d, m_h, m_a = 4, 3, 2
        params = ndo.init_params(d, m_h, m_a, scale=0.7, seed=6)
        jac = ndo.rho_jacobian(params)
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
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(30, 8)))
        np.testing.assert_allclose(training.gram(q.T), np.eye(8), atol=1e-12)

    def test_gram_with_subnormal_range_rows(self):
        # rows near 1e-200 (density entries of states driven to zero) add
        # products near 1e-200 and in the subnormal range to K
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(30, 8)))
        tiny = 1e-200 * rng.normal(size=(10, 30))
        expected = np.zeros((18, 18))
        expected[:8, :8] = np.eye(8)
        np.testing.assert_allclose(training.gram(np.vstack([q.T, tiny])), expected, atol=1e-12)

    def test_solve_metric_residual(self):
        # the solved right-hand side is the cost gradient, which the chain
        # rule keeps inside range(G); the regularized solve then stays accurate
        rho, ds, bases = hadamard_setup(1, noise="dephasing", delta_beta=0.9)
        params = ndo.init_params(4, 3, 3, scale=0.8, seed=8)
        obj = training._NdoObjective(ds, bases, 4, 3, 3)
        delta = training.solve_metric(*obj.metric(params.to_vector()), 1e-6)
        g_mat = oracles.dense_metric(ndo.rho_jacobian(params))
        grad = training.grad_cost(params, ds, bases)
        t_bar = np.trace(g_mat) / g_mat.shape[0]
        reg = g_mat + 1e-6 * t_bar * np.eye(g_mat.shape[0])
        resid = np.linalg.norm(reg @ delta - grad) / np.linalg.norm(grad)
        assert resid <= 1e-10

    def test_solve_metric_unchanged_by_subnormal_range_entries(self):
        # weights driven far out leave Jacobian rows near 1e-290 and 1e-200,
        # whose products in K reach and pass the subnormal range
        rho, ds, bases = hadamard_setup(1, noise="dephasing", delta_beta=0.9)
        params = ndo.init_params(4, 3, 3, scale=0.8, seed=8)
        obj = training._NdoObjective(ds, bases, 4, 3, 3)
        jr, e = obj.metric(params.to_vector())
        jr[0] *= 1e-290
        jr[1] *= 1e-200
        assert np.min(np.abs(training.gram(jr)[0, 2:])) < 1e-280
        delta = training.solve_metric(jr, e, 1e-6)
        g_mat = jr.T @ jr
        grad = jr.T @ e
        t_bar = np.trace(g_mat) / g_mat.shape[0]
        reg = g_mat + 1e-6 * t_bar * np.eye(g_mat.shape[0])
        resid = np.linalg.norm(reg @ delta - grad) / np.linalg.norm(grad)
        assert resid <= 1e-10


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
        jr, e = obj.metric(params.to_vector())
        g = training.grad_cost(params, obj.data, obj.bases)
        assert np.linalg.norm(jr.T @ e - g) <= 1e-12 * np.linalg.norm(g)

    def test_gram_shape(self):
        obj, params = self.objective_at(2)
        jr, e = obj.metric(params.to_vector())
        assert jr.shape == (36, params.n_params)
        assert e.shape == (36,)
        assert training.gram(jr).shape == (36, 36)

    # relative differences measured: 3.5e-9, 4.2e-9, 1.2e-9, 1.4e-9 at N = 1, 2, 5, 10
    @pytest.mark.parametrize("n_steps", [1, 2, 5, 10])
    def test_direction_matches_dense_oracle(self, n_steps):
        obj, params = self.objective_at(n_steps, m_h=15, m_a=15, scale=0.3)
        x = params.to_vector()
        direction = training.solve_metric(*obj.metric(x), 1e-6)
        metric = oracles.dense_metric(ndo.rho_jacobian(params))
        ref = oracles.dense_metric_direction(metric, obj.grad(x), 1e-6)
        assert np.linalg.norm(direction - ref) <= 1e-6 * np.linalg.norm(ref)


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
        assert report.costs[0] == training.cost(init, ds, bases)


class TestGngdStep:
    def test_identity_metric_matches_gd_step(self):
        rho, ds, bases = hadamard_setup(1)
        params = ndo.init_params(4, 3, 2, scale=0.3, seed=3)
        obj = training._NdoObjective(ds, bases, 4, 3, 2)
        x0 = params.to_vector()
        eye = np.eye(params.n_params)
        config = TrainConfig(optimizer="gngd", max_iters=1)
        x, report = training.minimize_vector(
            obj.cost, obj.grad, x0, config, metric_fun=lambda x: (eye, obj.grad(x))
        )
        # identity metric with relative jitter solves (1 + eps)x = grad
        expected_dir = -obj.grad(x0) / (1.0 + 1e-6)
        assert report.iterations == 1
        np.testing.assert_allclose(x, x0 + report.step_sizes[0] * expected_dir, atol=1e-12)

    def test_accepted_steps_decrease_cost(self):
        rho, ds, bases = hadamard_setup(2, noise="dephasing", delta_beta=1.0)
        config = TrainConfig(optimizer="gngd", max_iters=200, seed=1)
        init = ndo.init_params(6, 4, 4, scale=0.01, seed=1)
        _, report = training.optimize(config, ds, bases, init)
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
        config = TrainConfig(optimizer="gngd", max_iters=500, seed=0)
        init = ndo.init_params(4, 4, 4, scale=0.01, seed=0)
        _, report = training.optimize(config, ds, bases, init, target=rho)
        assert report.iterations <= 500
        assert report.fidelity >= 0.999

    def test_deterministic_traces(self):
        rho, ds, bases = hadamard_setup(2)
        config = TrainConfig(optimizer="gngd", max_iters=40, seed=7)
        init = ndo.init_params(6, 3, 3, scale=0.01, seed=7)
        _, rep_a = training.optimize(config, ds, bases, init)
        _, rep_b = training.optimize(config, ds, bases, init)
        assert rep_a.costs == rep_b.costs
        assert rep_a.step_sizes == rep_b.step_sizes

    @pytest.mark.parametrize("optimizer", ["gd", "cg", "gngd"])
    def test_line_searched_costs_non_increasing(self, optimizer):
        rho, ds, bases = hadamard_setup(1, noise="depolarizing", p=0.3)
        config = TrainConfig(optimizer=optimizer, max_iters=120, seed=2)
        init = ndo.init_params(4, 3, 3, scale=0.01, seed=2)
        _, report = training.optimize(config, ds, bases, init)
        assert np.all(np.diff(report.costs) <= 0.0)

    @pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
    def test_model_realizable_reaches_small_gradient(self, optimizer):
        target_params = ndo.init_params(4, 2, 2, scale=0.4, seed=17)
        ds = measurement.generate_dataset(ndo.density_matrix(target_params), 1)
        bases = measurement.all_basis_unitaries(1)
        config = TrainConfig(
            optimizer=optimizer, grad_tol=1e-6,
            max_iters=20000 if optimizer in ("gd", "cg") else 5000, seed=3,
        )
        init = ndo.init_params(4, 2, 2, scale=0.01, seed=3)
        _, report = training.optimize(config, ds, bases, init)
        assert report.termination == "grad_tol"
        assert report.final_grad_norm <= 1e-6

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adam")
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_iters=0)


class TestTrainReport:
    def test_csv_round_trip(self, tmp_path):
        rho, ds, bases = hadamard_setup(1)
        config = TrainConfig(optimizer="gd", max_iters=20, seed=1)
        init = ndo.init_params(4, 2, 2, scale=0.01, seed=1)
        _, report = training.optimize(config, ds, bases, init)
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
        config = TrainConfig(optimizer="lbfgs", max_iters=15, seed=4)
        init = ndo.init_params(4, 2, 2, scale=0.01, seed=4)
        _, report = training.optimize(config, ds, bases, init, target=rho)
        path = tmp_path / "report.json"
        report.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["optimizer"] == "lbfgs"
        assert doc["termination"] in ("grad_tol", "max_iters", "line-search failure")
        assert len(doc["costs"]) == doc["iterations"] + 1
        assert doc["fidelity"] is not None
