"""The vectorized Jacobian must match the per-entry grad_a oracle."""

import numpy as np

from qwndo import kernels, ndo, training

import oracles
from oracles import grad_a


class TestJacobianAgainstNaive:
    def test_matches_grad_a_rows(self):
        """Fast structured fill vs the per-pair reference path."""
        params = ndo.init_params(5, 3, 2, scale=0.9, seed=3)
        d = params.dim
        ev = ndo.evaluate(params)
        jac = kernels.assemble_jacobian(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_pair, ev.grad_log_z)
        for al in range(d):
            for be in range(d):
                naive = ev.rho[al, be] * (grad_a(params, al, be) - ev.grad_log_z)
                assert np.max(np.abs(jac[al * d + be] - naive)) <= 1e-12

    def test_numpy_path_matches_naive_gram(self):
        params = ndo.init_params(4, 3, 3, scale=0.7, seed=6)
        d = params.dim
        ev = ndo.evaluate(params)
        naive_j = np.empty((d * d, params.n_params), dtype=complex)
        for al in range(d):
            for be in range(d):
                naive_j[al * d + be] = ev.rho[al, be] * (grad_a(params, al, be) - ev.grad_log_z)
        jr = training._hermitian_rows(ndo.rho_jacobian(params).reshape(d, d, -1))
        naive_g = oracles.dense_metric(naive_j)
        assert np.max(np.abs(jr.T @ jr - naive_g)) <= 1e-12


class TestHelpers:
    def test_softplus_stable_at_extremes(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        out = kernels._softplus(x)
        assert out[0] == 0.0
        assert out[-1] == 800.0
        assert np.all(np.isfinite(out))

    def test_complex_softplus_matches_series(self):
        z = np.array([0.2 + 0.3j, -1.0 - 2.0j, 50.0 + 1.0j])
        out = kernels._softplus_c(z)
        np.testing.assert_allclose(out[:2], np.log(1 + np.exp(z[:2])), atol=1e-14)
        np.testing.assert_allclose(out[2], z[2] + np.exp(-z[2]), atol=1e-14)

    def test_complex_logistic_limits(self):
        z = np.array([1000.0 + 0.5j, -1000.0 + 0.5j])
        out = kernels._logistic_c(z)
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)

    def test_active_backend_name(self):
        assert kernels.active_backend() == "numpy"

    def test_param_offsets_partition(self):
        off = kernels.param_offsets(5, 4, 3)
        sizes = [4 * 5, 4 * 5, 3 * 5, 3 * 5, 5, 5, 4, 4, 3]
        starts = [off[k] for k in ("w_lam", "w_mu", "u_lam", "u_mu", "b_lam", "b_mu", "c_lam", "c_mu", "d_lam")]
        assert starts == sorted(starts)
        assert [b - a for a, b in zip(starts, starts[1:] + [off["total"]])] == sizes
