"""The vectorized Jacobian must match the complex oracle and the per-entry grad_a oracle."""

import numpy as np
import pytest

from qwndo import kernels, measurement, ndo, training, walk

import oracles
from oracles import grad_a


def log_density(params):
    """The log density entries A of `kernels.pair_cache`, exact mod 2 pi i."""
    return kernels.pair_cache(params.w, params.u, params.b, params.c, params.d_lam)[0]


def grad_log_z(params, rho):
    """d log Z / d theta = sum_v rho_vv dA(v, v) / d theta, entry by entry."""
    return sum(rho[v, v].real * grad_a(params, v, v) for v in range(params.dim))


class TestJacobianAgainstNaive:
    def test_matches_grad_a_rows(self):
        """The complex Jacobian oracle vs the per-pair reference path."""
        params = oracles.random_params(5, 3, 2, 0.9, seed=3)
        d = params.dim
        rho = ndo.density_matrix(params)
        jac = oracles.rho_jacobian(params)
        z = grad_log_z(params, rho)
        for al in range(d):
            for be in range(d):
                naive = rho[al, be] * (grad_a(params, al, be) - z)
                assert np.max(np.abs(jac[al * d + be] - naive)) <= 1e-12

    def test_numpy_path_matches_naive_gram(self):
        params = oracles.random_params(4, 3, 3, 0.7, seed=6)
        d = params.dim
        ev = ndo.evaluate(params)
        z = grad_log_z(params, ev.rho)
        naive_j = np.empty((d * d, params.to_vector().size), dtype=complex)
        for al in range(d):
            for be in range(d):
                naive_j[al * d + be] = ev.rho[al, be] * (grad_a(params, al, be) - z)
        jr = kernels.assemble_jacobian(ev.rho, ev.sig, ev.s_upper)
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
        params = oracles.random_params(d, m_h, m_a, scale, seed=seed)
        ev = ndo.evaluate(params)
        jr = kernels.assemble_jacobian(ev.rho, ev.sig, ev.s_upper)
        ref = training._hermitian_rows(oracles.rho_jacobian(params).reshape(d, d, -1))
        assert jr.shape == (d * d, params.to_vector().size) and jr.dtype == np.float64
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
    arrays = oracles.blocks(oracles.random_params(d, m_h, m_a, 1.0, seed=11))
    rng = np.random.default_rng(12)
    for name in ("u_lam", "u_mu", "d_lam"):
        arrays[name] = 800.0 * rng.choice([-1.0, 1.0], arrays[name].shape) + arrays[name]
    return oracles.from_blocks(arrays)


def phases_only(d, m_h, m_a):
    """The mixed start with every array but the phase-network ancilla weights
    zeroed: Re z == 0 on every ancilla argument, and Im z != 0 off the diagonal."""
    mixed = oracles.blocks(ndo.mixed_init_params(d, m_h, m_a, seed=0))
    arrays = {name: np.zeros_like(arr) for name, arr in mixed.items()}
    arrays["u_mu"] = mixed["u_mu"]
    return oracles.from_blocks(arrays)


class TestUpperPairKernel:
    """The upper-pair kernel and lazy caches equal the full-triangle oracle bit for bit."""

    STATES = {
        "mixed start": lambda d: ndo.mixed_init_params(d, 15, 15, seed=0),
        "random, scale 1": lambda d: oracles.random_params(d, 15, 15, 1.0, seed=7),
        "nearly pure, subnormal": lambda d: oracles.nearly_pure_subnormal(d, 15, 15),
        "scale 0": lambda d: oracles.random_params(d, 15, 15, 0.0),
        "scale 0 but the mixing phases": lambda d: phases_only(d, 15, 15),
        "ancilla near +-800": lambda d: wide_ancilla(d, 15, 15),
    }

    @pytest.mark.parametrize("d", [4, 12, 22])
    @pytest.mark.parametrize("state", list(STATES))
    def test_equals_full_triangle_oracle(self, state, d):
        params = self.STATES[state](d)
        ev = ndo.evaluate(params)
        ref = oracles.evaluate(params)
        assert ev.t.shape == ev.w.shape == ev.pos.shape == (15, d * (d + 1) // 2)
        if state == "scale 0 but the mixing phases":  # Re z == 0, Im z != 0 off the diagonal
            assert not ev.pos.any() and np.all(ev.t.imag[:, d:] != 0)
        assert np.array_equal(log_density(params), ref.a)
        for name in ("rho", "s_upper", "sig"):
            assert np.array_equal(getattr(ev, name), getattr(ref, name)), name
        assert np.array_equal(ndo.density_matrix(params), ref.rho)

    @pytest.mark.parametrize("d", [4, 12, 22])
    @pytest.mark.parametrize("state", list(STATES))
    def test_contract_matches_full_triangle_einsums(self, state, d, monkeypatch):
        """The upper-pair ancilla blocks of `_contract` against the einsums over
        the mirrored logistic, at the E that a KL covector of walk data gives;
        rho, and E with it, need not be bitwise Hermitian."""
        n = d // 2 - 1
        rho = walk.evolve(walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=0.7))
        obj = training._NdoObjective(measurement.generate_dataset(rho, n),
                                     measurement.all_basis_unitaries(n), d, 15, 15)
        point = obj._at(self.STATES[state](d).to_vector())
        contract, seen = training._contract, []
        monkeypatch.setattr(training, "_contract", lambda ev, e: seen.append(e) or contract(ev, e))
        training._rho_pullback(point.aux, training._covector(obj._adjoint(point)))
        (e_mat,) = seen
        g = contract(point.aux, e_mat)
        ref = oracles.contract_full(point.aux, e_mat)
        # Measured against the summands' scale max|s| sum|E|, not against max|g|:
        # at scale 0 floored outcomes make |Y| ~ 1e12 and both sums lose every
        # digit of g. Worst measured: 1.9e-16 (random, scale 1, d = 22).
        scale = np.abs(point.aux.s_upper).max() * np.abs(e_mat).sum()
        assert np.max(np.abs(g - ref)) <= 5e-16 * scale


def ancilla_params(z):
    """d = 2 and no hidden units, with ancilla i's argument z[i] on the pair (0, 1):
    A(0, 1) is the ancilla sum of softplus(z), and s_upper[:, 2] its logistic."""
    z = np.asarray(z, dtype=complex)
    arrays = {name: np.zeros(shape) for name, shape in kernels.param_shapes(2, 0, z.size).items()}
    arrays["u_mu"] = np.stack([z.imag, -z.imag], axis=1)
    arrays["d_lam"] = z.real
    return oracles.from_blocks(arrays)


def ancilla_term(z):
    """sum_i softplus(z[i]) as `kernels.pair_cache` takes it, mod 2 pi i."""
    return log_density(ancilla_params(np.atleast_1d(z)))[0, 1]


def wrap(diff):
    """diff with its imaginary part taken mod 2 pi into [-pi, pi)."""
    return diff.real + 1j * ((diff.imag + np.pi) % (2 * np.pi) - np.pi)


def definitional_a(params):
    return np.array([[oracles.a_entry(params, v, w) for w in range(params.dim)]
                     for v in range(params.dim)])


def definitional_s_upper(params):
    """The complex logistic of every ancilla argument on the upper pairs, each with its own exp."""
    al, be = kernels._upper_pairs(params.dim)
    u_lam, u_mu = params.u
    z = (0.5 * (u_lam[:, al] + u_lam[:, be]) + params.d_lam[:, None]
         + 0.5j * (u_mu[:, al] - u_mu[:, be]))
    return oracles.logistic_c(z)


class TestProductForm:
    """The product form of the ancilla sum against its definition: A mod 2 pi
    from `oracles.a_entry`, one complex log1p per (ancilla, pair), and the
    logistics from `oracles.logistic` and `oracles.logistic_c`, one exp each.
    The bounds are about three times the worst measured case: 3.3e-16 of
    1 + max|A| for A, and 4.1e-16 relative for s_upper."""

    def check(self, params):
        ev = ndo.evaluate(params)
        ref = definitional_a(params)
        assert np.max(np.abs(wrap(log_density(params) - ref))) <= 1e-15 * (1.0 + np.abs(ref).max())
        s_ref = definitional_s_upper(params)
        nonzero = s_ref != 0
        assert np.array_equal(ev.s_upper[~nonzero], s_ref[~nonzero])
        rel = np.abs(ev.s_upper - s_ref)[nonzero] / np.abs(s_ref[nonzero])
        assert rel.size == 0 or rel.max() <= 1e-15
        assert np.array_equal(ev.sig, oracles.logistic(ev.x))

    @pytest.mark.parametrize("d", [4, 12, 22])
    @pytest.mark.parametrize("state", list(TestUpperPairKernel.STATES))
    def test_matches_definition(self, state, d):
        self.check(TestUpperPairKernel.STATES[state](d))

    @pytest.mark.parametrize("m_a", [0, kernels.PRODUCT_BLOCK, kernels.PRODUCT_BLOCK + 1, 1100])
    @pytest.mark.parametrize("start", ["scale 0", "mixed"])
    def test_block_edges(self, start, m_a):
        """Zero, one, two and three product blocks. From scale 0 every factor
        is 2, so a full block's product is 2^512."""
        if start == "scale 0":
            params = oracles.random_params(4, 3, m_a, 0.0)
            ev = ndo.evaluate(params)
            assert np.all(ev.w == 2.0)
            np.testing.assert_allclose(log_density(params), (m_a + 3) * np.log(2.0), rtol=1e-15, atol=0)
        else:
            params = ndo.mixed_init_params(4, 3, m_a, seed=0)
        self.check(params)

    @pytest.mark.parametrize("z", [-40.0 + 1.0j, -40.0 - 1.0j])
    def test_logistic_far_left_is_exp(self, z):
        """Where Re z << 0 the logistic is e^z / (1 + e^z) ~ e^z, kept to
        relative accuracy: t / w, not 1 - 1 / w."""
        s = ndo.evaluate(ancilla_params([z])).s_upper[0, 2]
        assert abs(s - np.exp(z)) <= 1e-14 * abs(np.exp(z))


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
        out = np.array([ancilla_term(single) for single in z])
        np.testing.assert_allclose(wrap(out[:2] - np.log(1 + np.exp(z[:2]))), 0, atol=1e-14)
        np.testing.assert_allclose(wrap(out[2] - z[2] - np.exp(-z[2])), 0, atol=1e-14)

    def test_complex_logistic_limits(self):
        ev = ndo.evaluate(ancilla_params(np.array([1000.0 + 0.5j, -1000.0 + 0.5j])))
        np.testing.assert_allclose(ev.s_upper[0, 2], 1.0, atol=1e-12)
        np.testing.assert_allclose(ev.s_upper[1, 2], 0.0, atol=1e-12)

    def test_complex_pair_on_the_imaginary_axis(self):
        """Where Re z <= 0 the factor is 1 + e^z, and the logistic e^z / (1 + e^z)
        needs no second exp, also at Re z == 0."""
        z = np.array([0.0 + 0.0j, 0.0 + 1.0j, -0.0 - 2.5j, 1e-300 + 1.0j, -1e-300 + 1.0j])
        out = np.array([ancilla_term(single) for single in z])
        assert np.max(np.abs(wrap(out - oracles.softplus_c(z)))) <= 1e-15
        s = ndo.evaluate(ancilla_params(z)).s_upper[:, 2]
        assert np.max(np.abs(s - oracles.logistic_c(z)) / np.abs(oracles.logistic_c(z))) <= 1e-15

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
