"""Walk operators, noise channels, and density-matrix evolution."""

import math

import numpy as np
import pytest

import oracles
from qwndo import walk


def hadamard():
    return np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def statevector_walk(n_steps, alphas):
    """Independent amplitude-propagation oracle over (coin, site) dictionaries."""
    amp = {(0, 0): 1 / np.sqrt(2), (1, 0): 1j / np.sqrt(2)}
    n_sites = n_steps + 1
    for alpha in alphas:
        c, s = np.cos(alpha), np.sin(alpha)
        new = {}
        for (coin, site), a in amp.items():
            up, down = (c, s) if coin == 0 else (s, -c)
            new[(0, (site + 1) % n_sites)] = new.get((0, (site + 1) % n_sites), 0) + up * a
            new[(1, site)] = new.get((1, site), 0) + down * a
        amp = new
    vec = np.zeros(2 * n_sites, dtype=complex)
    for (coin, site), a in amp.items():
        vec[2 * site + coin] = a
    return vec


class TestCoinOperator:
    def test_hadamard_at_quarter_pi(self):
        np.testing.assert_allclose(walk.coin_operator(np.pi / 4), hadamard(), atol=1e-12)

    def test_zero_angle_is_sigma_z(self):
        np.testing.assert_allclose(walk.coin_operator(0.0), np.diag([1.0, -1.0]), atol=0)

    def test_half_pi_is_sigma_x(self):
        # direct 2x2 product oracle: exp(-i pi/2 sigma_y) @ sigma_z
        expected = np.array([[0, -1], [1, 0]]) @ np.diag([1, -1])
        np.testing.assert_allclose(walk.coin_operator(np.pi / 2), expected, atol=1e-12)

    @pytest.mark.parametrize("alpha", np.linspace(-3.0, 3.0, 7))
    def test_unitary_and_real(self, alpha):
        r = walk.coin_operator(alpha)
        np.testing.assert_allclose(r @ r.conj().T, np.eye(2), atol=1e-12)
        assert np.max(np.abs(r.imag)) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            walk.coin_operator(np.nan)


class TestShiftOperator:
    def test_n1_mapping_and_wrap(self):
        s = walk.shift_operator(1)
        assert s[2, 0] == 1.0  # |up,0> -> |up,1>
        assert s[0, 2] == 1.0  # |up,1> -> |up,0> (wrap)
        assert s[1, 1] == 1.0 and s[3, 3] == 1.0  # down stays

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unitary_permutation(self, n):
        s = walk.shift_operator(n)
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2 * (n + 1)), atol=1e-12)
        assert set(np.unique(s.real)) <= {0.0, 1.0}
        assert np.max(np.abs(s.imag)) == 0.0

    def test_coin_then_shift_splits_evenly(self):
        # brute-force 4x4 matrix-vector oracle at N=1
        psi0 = np.array([1 / np.sqrt(2), 1j / np.sqrt(2), 0, 0])
        psi = walk.shift_operator(1) @ np.kron(np.eye(2), walk.coin_operator(np.pi / 4)) @ psi0
        marg = np.abs(psi) ** 2
        assert marg[0] + marg[1] == pytest.approx(0.5, abs=1e-12)
        assert marg[2] + marg[3] == pytest.approx(0.5, abs=1e-12)


class TestStepUnitary:
    def test_zero_angle_signed_permutation(self):
        u = walk.step_unitary(0.0, 2)
        assert set(np.round(np.unique(np.abs(u)), 12)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_unitary(self, n):
        u = walk.step_unitary(0.7, n)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2 * (n + 1)), atol=1e-12)

    def test_matches_explicit_composition(self):
        u = walk.step_unitary(np.pi / 4, 1)
        composed = walk.shift_operator(1) @ np.kron(np.eye(2), walk.coin_operator(np.pi / 4))
        psi0 = np.array([1 / np.sqrt(2), 1j / np.sqrt(2), 0, 0])
        np.testing.assert_allclose(u @ psi0, composed @ psi0, atol=1e-14)


class TestKrausStep:
    """`mixing_step` against the projector form and the oracle's Kraus set."""

    def test_no_mixing_is_unitary_step(self):
        u = walk.step_unitary(np.pi / 4, 2)
        sigma = u @ walk.initial_state(2) @ u.conj().T
        out = walk.mixing_step(sigma, 0.0, 0.0)
        np.testing.assert_allclose(out, sigma, atol=1e-12)
        assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ws,wl", [(0.3, 0.2), (1.0, 0.0), (0.0, 1.0)])
    def test_completeness(self, ws, wl):
        ops = oracles.kraus_operators(0.9, 2, ws, wl)
        total = sum(e.conj().T @ e for e in ops)
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)

    def test_completeness_on_simplex_grid(self):
        for ws in np.linspace(0, 1, 5):
            for wl in np.linspace(0, 1, 5):
                if ws + wl > 1:
                    continue
                ops = oracles.kraus_operators(0.3, 1, ws, wl)
                total = sum(e.conj().T @ e for e in ops)
                np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_full_coin_projection_from_initial(self):
        # explicit projector oracle: w_s=1 projects onto the coin branches
        u = walk.step_unitary(np.pi / 4, 1)
        out = walk.mixing_step(u @ walk.initial_state(1) @ u.conj().T, 1.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 0.5  # |up,1>
        expected[1, 1] = 0.5  # |down,0>
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rejects_excess_weight(self):
        with pytest.raises(ValueError):
            walk.mixing_step(walk.initial_state(1), 0.7, 0.5)

    @pytest.mark.parametrize("w_s,w_l", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_rejects_nan_weight(self, w_s, w_l):
        with pytest.raises(ValueError, match="w_s, w_l"):
            walk.mixing_step(walk.initial_state(1), w_s, w_l)


class TestDephasingStep:
    def test_zero_is_identity(self):
        rho = random_density(6, 0)
        np.testing.assert_allclose(walk.dephasing_step(rho, 0.0), rho, atol=1e-14)

    def test_pi_kills_coin_coherence(self):
        rho = random_density(6, 1)
        out = walk.dephasing_step(rho, np.pi)
        assert np.max(np.abs(out[0::2, 1::2])) <= 1e-16
        assert np.max(np.abs(out[1::2, 0::2])) <= 1e-16

    def test_half_pi_attenuation(self):
        rho = random_density(4, 2)
        out = walk.dephasing_step(rho, np.pi / 2)
        np.testing.assert_allclose(out[0, 1], rho[0, 1] * 2 / np.pi, atol=1e-12)

    def test_monte_carlo_matches_analytic(self):
        rho = random_density(6, 3)
        n_samples = 100_000
        mc = oracles.monte_carlo_dephasing(rho, 1.1, n_samples=n_samples, seed=7)
        an = walk.dephasing_step(rho, 1.1)
        assert np.max(np.abs(mc - an)) <= 5.0 / np.sqrt(n_samples)


class TestDepolarizingStep:
    def test_zero_is_identity(self):
        rho = random_density(6, 5)
        np.testing.assert_allclose(walk.depolarizing_step(rho, 0.0), rho, atol=1e-14)

    def test_three_quarters_fully_depolarizes_coin(self):
        # direct channel-sum oracle: each 2x2 coin block becomes tr(block) I/2
        rho = random_density(8, 6)
        out = walk.depolarizing_step(rho, 0.75)
        marg = np.zeros((4, 4), dtype=complex)
        for l in range(4):
            for lp in range(4):
                marg[l, lp] = rho[2 * l, 2 * lp] + rho[2 * l + 1, 2 * lp + 1]
        np.testing.assert_allclose(out, np.kron(marg, np.eye(2) / 2), atol=1e-12)

    def test_trace_preserved(self):
        rho = random_density(6, 7)
        out = walk.depolarizing_step(rho, 0.5)
        assert abs(np.trace(out) - 1.0) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            walk.depolarizing_step(random_density(4, 8), 1.5)


class TestInitialState:
    def test_pure_and_localized(self):
        rho = walk.initial_state(3)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho[2:, :])) == 0.0

    def test_coin_superposition_entries(self):
        rho = walk.initial_state(2)
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[1, 1] == pytest.approx(0.5)
        assert rho[0, 1] == pytest.approx(-0.5j)


class TestDisorderedAngles:
    def test_empty_for_zero_steps(self):
        assert walk.disordered_angles(0, 1).size == 0

    def test_deterministic(self):
        np.testing.assert_array_equal(walk.disordered_angles(8, 3), walk.disordered_angles(8, 3))

    def test_range_and_mean(self):
        draws = np.concatenate([walk.disordered_angles(100, s) for s in range(100)])
        assert draws.min() >= 0.0 and draws.max() <= np.pi
        # uniform-distribution moment oracle: 3 sigma of the mean
        sigma = (np.pi / np.sqrt(12.0)) / np.sqrt(draws.size)
        assert abs(draws.mean() - np.pi / 2) <= 3 * sigma


class TestEvolve:
    def test_zero_steps_returns_initial(self):
        config = walk.WalkConfig(0, (), noise="dephasing", delta_beta=1.0)
        np.testing.assert_allclose(walk.evolve(config), walk.initial_state(0), atol=0)

    def test_hadamard_pure_and_matches_statevector(self):
        config = walk.WalkConfig(5, (np.pi / 4,) * 5)
        rho = walk.evolve(config)
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10
        vec = statevector_walk(5, [np.pi / 4] * 5)
        marg = walk.position_marginal(rho)
        expected = np.abs(vec[0::2]) ** 2 + np.abs(vec[1::2]) ** 2
        np.testing.assert_allclose(marg, expected, atol=1e-12)

    def test_full_dephasing_binomial_and_diagonal(self):
        config = walk.WalkConfig(5, (np.pi / 4,) * 5, noise="dephasing", delta_beta=np.pi)
        rho = walk.evolve(config)
        marg = walk.position_marginal(rho)
        expected = np.array([math.comb(5, l) for l in range(6)]) / 32.0
        np.testing.assert_allclose(marg, expected, atol=1e-12)
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) <= 1e-12

    def test_full_dephasing_purity_matches_classical_joint(self):
        # joint-distribution oracle: P(up,l) = C(N-1,l-1)/2^N, P(down,l) = C(N-1,l)/2^N
        n = 5
        config = walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=np.pi)
        rho = walk.evolve(config)
        joint = []
        for l in range(n + 1):
            joint.append(math.comb(n - 1, l - 1) / 2**n if l >= 1 else 0.0)
            joint.append(math.comb(n - 1, l) / 2**n)
        expected_purity = sum(q * q for q in joint)
        assert expected_purity == pytest.approx(140 / 1024)
        assert np.trace(rho @ rho).real == pytest.approx(expected_purity, abs=1e-12)
        # the binomial-sum value is the purity of the position marginal
        marg_purity = float(np.sum(walk.position_marginal(rho) ** 2))
        assert marg_purity == pytest.approx(252 / 1024, abs=1e-12)

    @pytest.mark.parametrize(
        "noise,kwargs",
        [
            ("none", {}),
            ("mixing", {"w_s": 0.3, "w_l": 0.2}),
            ("dephasing", {"delta_beta": 1.2}),
            ("depolarizing", {"p": 0.4}),
        ],
    )
    def test_outputs_are_valid_states(self, noise, kwargs):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            angles = tuple(rng.uniform(0, np.pi, n))
            rng.integers(2**31)  # unused draw: keeps the instances the recorded results used
            config = walk.WalkConfig(n, angles, noise=noise, **kwargs)
            walk.validate_density_matrix(walk.evolve(config))

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 30])
    @pytest.mark.parametrize(
        "noise,kwargs",
        [
            ("none", {}),
            ("mixing", {"w_s": 0.3, "w_l": 0.2}),
            ("mixing", {"w_s": 1.0}),
            ("mixing", {"w_l": 1.0}),
            ("dephasing", {"delta_beta": 1.2}),
            ("dephasing", {"delta_beta": np.pi}),
            ("depolarizing", {"p": 0.0}),
            ("depolarizing", {"p": 0.4}),
            ("depolarizing", {"p": 0.75}),
            ("depolarizing", {"p": 1.0}),
        ],
    )
    def test_matches_dense_oracle(self, n, noise, kwargs):
        # the entrywise channels equal the operator forms: bit for bit where
        # the step is the same product, at roundoff where sums are regrouped
        config = walk.WalkConfig(n, tuple(walk.disordered_angles(n, n)), noise=noise, **kwargs)
        rho, ref = walk.evolve(config), oracles.dense_evolve(config)
        if noise in ("none", "dephasing"):
            assert np.array_equal(rho, ref)
        else:
            np.testing.assert_allclose(rho, ref, rtol=0, atol=1e-15)

    def test_wrap_source_never_populated_before_final_step(self):
        # observable consequence: evolve never raises across the suite
        for n in (1, 4, 7):
            config = walk.WalkConfig(n, (np.pi / 4,) * n)
            walk.evolve(config)


class TestWalkConfigValidation:
    def test_angle_count_mismatch(self):
        with pytest.raises(ValueError):
            walk.WalkConfig(3, (0.1, 0.2))

    def test_mixing_weights(self):
        with pytest.raises(ValueError):
            walk.WalkConfig(1, (0.1,), noise="mixing", w_s=0.8, w_l=0.4)

    @pytest.mark.parametrize("weights", [dict(w_s=np.nan), dict(w_l=np.nan)])
    def test_nan_mixing_weight(self, weights):
        with pytest.raises(ValueError, match="w_s, w_l"):
            walk.WalkConfig(1, (0.1,), noise="mixing", **weights)

    def test_delta_beta_range(self):
        with pytest.raises(ValueError):
            walk.WalkConfig(1, (0.1,), noise="dephasing", delta_beta=4.0)
