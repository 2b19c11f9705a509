"""The vectorized Jacobian must match the complex oracle and the per-entry grad_a oracle."""

import numpy as np
import pytest

from qwndo import kernels, ndo, training

import oracles
from oracles import grad_a


def grad_log_z(params, rho):
    """d log Z / d theta = sum_v rho_vv dA(v, v) / d theta, entry by entry."""
    return sum(rho[v, v].real * grad_a(params, v, v) for v in range(params.dim))


class TestJacobianAgainstNaive:
    def test_matches_grad_a_rows(self):
        """The complex Jacobian oracle vs the per-pair reference path."""
        params = ndo.init_params(5, 3, 2, scale=0.9, seed=3)
        d = params.dim
        rho = ndo.density_matrix(params)
        jac = oracles.rho_jacobian(params)
        z = grad_log_z(params, rho)
        for al in range(d):
            for be in range(d):
                naive = rho[al, be] * (grad_a(params, al, be) - z)
                assert np.max(np.abs(jac[al * d + be] - naive)) <= 1e-12

    def test_numpy_path_matches_naive_gram(self):
        params = ndo.init_params(4, 3, 3, scale=0.7, seed=6)
        d = params.dim
        ev = ndo.evaluate(params)
        z = grad_log_z(params, ev.rho)
        naive_j = np.empty((d * d, params.n_params), dtype=complex)
        for al in range(d):
            for be in range(d):
                naive_j[al * d + be] = ev.rho[al, be] * (grad_a(params, al, be) - z)
        jr = kernels.assemble_jacobian(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_pair)
        naive_g = oracles.dense_metric(naive_j)
        assert np.max(np.abs(jr.T @ jr - naive_g)) <= 1e-12


class TestRealJacobian:
    """`assemble_jacobian` builds the Hermitian rows of the complex oracle bit for bit."""

    @pytest.mark.parametrize(
        "d,m_h,m_a,scale,seed",
        [(4, 3, 2, 0.9, 3), (6, 4, 3, 2.0, 5), (12, 15, 15, 1.0, 1), (22, 15, 15, 0.5, 2),
         (6, 0, 3, 1.0, 6), (6, 3, 0, 1.0, 7), (6, 0, 0, 1.0, 8)],
    )
    def test_equals_hermitian_rows_of_oracle(self, d, m_h, m_a, scale, seed):
        params = ndo.init_params(d, m_h, m_a, scale=scale, seed=seed)
        ev = ndo.evaluate(params)
        jr = kernels.assemble_jacobian(ev.rho, ev.sig_lam, ev.sig_mu, ev.s_pair)
        ref = training._hermitian_rows(oracles.rho_jacobian(params).reshape(d, d, -1))
        assert jr.shape == (d * d, params.n_params) and jr.dtype == np.float64
        assert np.array_equal(jr, ref)

    def test_upper_pairs_follow_hermitian_row_order(self):
        al, be = kernels._upper_pairs(5)
        idx = np.arange(25).reshape(5, 5)
        rows = training._hermitian_rows(idx.astype(complex))
        n_up = al.size - 5
        np.testing.assert_array_equal(idx[al, be][:5], rows[:5])
        np.testing.assert_array_equal(np.sqrt(2.0) * idx[al, be][5:], rows[5 : 5 + n_up])


def wide_ancilla(d, m_h, m_a):
    """Random weights at scale 1 with ancilla weights and biases near +-800,
    where every exp of the ancilla terms overflows or underflows unless it is
    taken of the argument with non-positive real part."""
    base = ndo.init_params(d, m_h, m_a, scale=1.0, seed=11)
    arrays = {name: getattr(base, name) for name in ndo.ARRAY_NAMES}
    rng = np.random.default_rng(12)
    for name in ("u_lam", "u_mu", "d_lam"):
        arrays[name] = 800.0 * rng.choice([-1.0, 1.0], arrays[name].shape) + arrays[name]
    return ndo.NdoParams(**arrays)


def phases_only(d, m_h, m_a):
    """The mixed start with every array but the phase-network ancilla weights
    zeroed: Re z == 0 on every ancilla argument, and Im z != 0 off the diagonal."""
    base = ndo.mixed_init_params(d, m_h, m_a, seed=0)
    arrays = {name: np.zeros_like(getattr(base, name)) for name in ndo.ARRAY_NAMES}
    arrays["u_mu"] = base.u_mu
    return ndo.NdoParams(**arrays)


class TestUpperPairKernel:
    """The upper-pair kernel and lazy caches equal the full-triangle oracle bit for bit."""

    STATES = {
        "mixed start": lambda d: ndo.mixed_init_params(d, 15, 15, seed=0),
        "random, scale 1": lambda d: ndo.init_params(d, 15, 15, scale=1.0, seed=7),
        "nearly pure, subnormal": lambda d: oracles.nearly_pure_subnormal(d, 15, 15),
        "scale 0": lambda d: ndo.init_params(d, 15, 15, scale=0.0),
        "scale 0 but the mixing phases": lambda d: phases_only(d, 15, 15),
        "ancilla near +-800": lambda d: wide_ancilla(d, 15, 15),
    }

    @pytest.mark.parametrize("d", [4, 12, 22])
    @pytest.mark.parametrize("state", list(STATES))
    def test_equals_full_triangle_oracle(self, state, d):
        params = self.STATES[state](d)
        ev = ndo.evaluate(params)
        ref = oracles.evaluate(params)
        assert ev.z.shape == (15, d * (d + 1) // 2)
        if state == "scale 0 but the mixing phases":
            assert np.all(ev.z.real == 0) and np.all(ev.z.imag[:, d:] != 0)
        for name in ("a", "rho", "s_pair", "sig_lam", "sig_mu"):
            assert np.array_equal(getattr(ev, name), getattr(ref, name)), name
        assert ev.log_z == ref.log_z
        assert np.array_equal(ndo.density_matrix(params), ref.rho)


class TestHelpers:
    def test_softplus_stable_at_extremes(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        out, t = kernels._softplus(x)
        assert out[0] == 0.0
        assert out[-1] == 800.0
        assert np.all(np.isfinite(out))
        assert np.array_equal(t, np.exp(-np.abs(x)))
        assert np.array_equal(kernels._logistic(x, t), oracles.logistic(x))

    def test_complex_softplus_matches_series(self):
        z = np.array([0.2 + 0.3j, -1.0 - 2.0j, 50.0 + 1.0j])
        out = kernels._softplus_c(z)[0]
        np.testing.assert_allclose(out[:2], np.log(1 + np.exp(z[:2])), atol=1e-14)
        np.testing.assert_allclose(out[2], z[2] + np.exp(-z[2]), atol=1e-14)

    def test_complex_logistic_limits(self):
        z = np.array([1000.0 + 0.5j, -1000.0 + 0.5j])
        out = kernels._logistic_c(z, kernels._softplus_c(z)[1])
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)

    def test_complex_pair_on_the_imaginary_axis(self):
        """Where Re z == 0 the softplus takes exp(z) and the logistic exp(-z)."""
        z = np.array([0.0 + 0.0j, 0.0 + 1.0j, -0.0 - 2.5j, 1e-300 + 1.0j, -1e-300 + 1.0j])
        sp, t = kernels._softplus_c(z)
        assert np.array_equal(sp, oracles.softplus_c(z))
        assert np.array_equal(kernels._logistic_c(z, t), oracles.logistic_c(z))

    def test_active_backend_name(self):
        assert kernels.active_backend() == "numpy"

    def test_param_offsets_partition(self):
        off = kernels.param_offsets(5, 4, 3)
        sizes = [4 * 5, 4 * 5, 3 * 5, 3 * 5, 5, 5, 4, 4, 3]
        starts = [off[k] for k in ("w_lam", "w_mu", "u_lam", "u_mu", "b_lam", "b_mu", "c_lam", "c_mu", "d_lam")]
        assert starts == sorted(starts)
        assert [b - a for a, b in zip(starts, starts[1:] + [off["total"]])] == sizes

    def test_param_offsets_built_once_and_read_only(self):
        off = kernels.param_offsets(5, 4, 3)
        assert kernels.param_offsets(5, 4, 3) is off
        with pytest.raises(TypeError):
            off["w_lam"] = 1
