"""Triangular maximum-likelihood parameterization and its CG fit."""

import numpy as np
import pytest

import oracles
from qwndo import maxlik, measurement, metrics, training, walk


class TestRhoFromT:
    def test_identity_t_gives_maximally_mixed(self):
        d = 4
        params = np.zeros(d * d)
        params[:d] = 1.0
        np.testing.assert_allclose(maxlik.rho_from_t(params), np.eye(d) / d, atol=1e-14)

    def test_random_params_valid_state(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            params = rng.normal(size=d * d)
            rho = maxlik.rho_from_t(params)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_scale_invariance(self):
        params = maxlik.init_t_params(5, seed=1)
        np.testing.assert_allclose(
            maxlik.rho_from_t(params), maxlik.rho_from_t(2.0 * params), atol=1e-14
        )

    def test_zero_params_rejected(self):
        with pytest.raises(ValueError):
            maxlik.rho_from_t(np.zeros(9))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_named(self, value):
        params = maxlik.init_t_params(3)
        params[[4, 7]] = value
        with pytest.raises(ValueError, match=f"^T parameter 4 is {value}; need finite$"):
            maxlik.rho_from_t(params)

    def test_param_count_at_n5(self):
        assert maxlik.init_t_params(2 * (5 + 1)).size == 144

    def test_pack_round_trip(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=36)
        t = maxlik.t_matrix(params, 6)
        assert np.max(np.abs(np.triu(t, 1))) == 0.0
        np.testing.assert_array_equal(maxlik.pack_t(t), params)


    @pytest.mark.parametrize("d", [1, 2, 6, 22, 62])
    def test_scatter_and_gather_equal_reference(self, d):
        rng = np.random.default_rng(d)
        params = rng.normal(size=d * d)
        params[rng.integers(0, d * d, 2)] = 0.0
        assert np.array_equal(maxlik.t_matrix(params, d), oracles.t_matrix(params, d))
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))  # upper and Im diag ignored
        assert np.array_equal(maxlik.pack_t(t), oracles.pack_t(t))
        assert np.array_equal(maxlik.pack_t(t.T), oracles.pack_t(t.T))  # not C-contiguous

class TestMaxlikGradient:
    def test_matches_finite_differences(self):
        rho = walk.evolve(walk.WalkConfig(1, (np.pi / 4,), noise="dephasing", delta_beta=0.9))
        ds = measurement.generate_dataset(rho, 1)
        bases = measurement.all_basis_unitaries(1)
        obj = maxlik._MaxlikObjective(ds, bases)
        rng = np.random.default_rng(5)
        x = maxlik.init_t_params(4, seed=2) + 0.05 * rng.normal(size=16)
        g = obj.grad(x)
        h = 1e-6
        fd = np.empty_like(x)
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            fd[j] = (obj.cost(xp) - obj.cost(xm)) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() <= 1e-5

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 5, 30])
    def test_matches_dense_oracle(self, n_steps):
        d = 2 * (n_steps + 1)
        target = maxlik.rho_from_t(oracles.random_t_params(d, 0.5, seed=n_steps))
        ds = measurement.generate_dataset(target, n_steps, shots=1000, seed=n_steps)
        obj = maxlik._MaxlikObjective(ds, measurement.all_basis_unitaries(n_steps))
        x = oracles.random_t_params(d, 0.3, seed=n_steps + 1)
        ref = oracles.maxlik_grad(x, ds.probs, np.asarray(oracles.all_basis_unitaries(n_steps)))
        assert np.linalg.norm(obj.grad(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dimension_mismatch_named(self):
        ds = measurement.generate_dataset(walk.initial_state(1), 1)
        with pytest.raises(ValueError, match="n_bases"):
            maxlik._MaxlikObjective(ds, measurement.all_basis_unitaries(2))
        with pytest.raises(ValueError, match="dim"):
            maxlik._MaxlikObjective(ds.probs[:, :2], measurement.all_basis_unitaries(1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.25])
    def test_non_finite_or_negative_data_named(self, value):
        # the cost's mask data > 0 would drop such an entry's basis silently
        data = measurement.generate_dataset(walk.initial_state(1), 1).probs.copy()
        data[2, 3] = value
        with pytest.raises(ValueError, match=r"basis n=2, outcome j=3; need finite and >= 0"):
            maxlik.maxlik_fit(data, measurement.all_basis_unitaries(1))


class TestMaxlikFit:
    def test_self_consistent_dataset_reaches_zero_cost(self):
        d = 4
        target = maxlik.rho_from_t(oracles.random_t_params(d, 0.5, seed=7))
        ds = measurement.generate_dataset(target, d // 2 - 1)
        bases = measurement.all_basis_unitaries(d // 2 - 1)
        rho, report = maxlik.maxlik_fit(ds, bases, seed=1, max_iters=3000)
        assert report.final_cost <= 1e-10

    def test_n1_hadamard_high_fidelity(self):
        target = walk.evolve(walk.WalkConfig(1, (np.pi / 4,)))
        ds = measurement.generate_dataset(target, 1)
        bases = measurement.all_basis_unitaries(1)
        rho, report = maxlik.maxlik_fit(ds, bases, seed=0, max_iters=3000, target=target)
        assert report.fidelity >= 0.99
        assert metrics.fidelity(rho, target) == report.fidelity

    def test_report_trace_monotone(self):
        target = walk.evolve(walk.WalkConfig(1, (0.9,), noise="depolarizing", p=0.3))
        ds = measurement.generate_dataset(target, 1)
        bases = measurement.all_basis_unitaries(1)
        _, report = maxlik.maxlik_fit(ds, bases, seed=3, max_iters=200)
        costs = np.array(report.costs)
        assert np.all(np.diff(costs) <= 1e-12)
