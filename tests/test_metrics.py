"""Fidelity, purity, and similarity metrics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from qwndo import measurement, metrics, walk


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(metrics.hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            metrics.hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_reconstruction(self):
        m = random_density(8, 0) * 3.0
        root = metrics.hermitian_sqrt(m)
        assert np.max(np.abs(root @ root - m)) <= 1e-9 * np.linalg.norm(m)

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            metrics.hermitian_sqrt(bad)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="PSD"):
            metrics.hermitian_sqrt(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails every comparison, so it passed the Hermiticity bound
        with pytest.raises(ValueError, match="non-finite"):
            metrics.hermitian_sqrt(np.diag([1.0, bad]))

    def test_clamps_roundoff_negative(self):
        out = metrics.hermitian_sqrt(np.diag([1.0, -5e-11]))
        assert out[1, 1] == 0.0


class TestFidelity:
    def test_self_fidelity_one(self):
        rho = random_density(6, 1)
        assert metrics.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert metrics.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        pure = np.diag([1.0, 0.0]).astype(complex)
        assert metrics.fidelity(pure, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(2, 13))
            a = random_density(d, int(rng.integers(2**31)))
            b = random_density(d, int(rng.integers(2**31)))
            fab = metrics.fidelity(a, b)
            fba = metrics.fidelity(b, a)
            assert 0.0 <= fab <= 1.0
            assert abs(fab - fba) <= 1e-9

    def test_monotone_under_perturbation(self):
        rng = np.random.default_rng(3)
        # mix toward identity so every perturbed matrix stays PSD
        rho = 0.8 * random_density(6, 4) + 0.2 * np.eye(6) / 6
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = h + h.conj().T
        h -= np.trace(h) / 6 * np.eye(6)
        h /= np.linalg.norm(h)
        fids = []
        for scale in (0.002, 0.005, 0.01, 0.02, 0.03):
            pert = rho + scale * h
            w = np.linalg.eigvalsh(pert)
            assert w.min() > 0  # perturbation small enough to stay a state
            fids.append(metrics.fidelity(rho, pert))
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metrics.fidelity(np.eye(2) / 2, np.eye(4) / 4)

    @pytest.mark.parametrize("which", ["rho", "sigma"])
    def test_rejects_nan_in_either_state(self, which):
        states = {"rho": random_density(4, 5), "sigma": random_density(4, 6)}
        states[which][1, 2] = np.nan
        with pytest.raises(ValueError, match=f"{which} has a non-finite entry"):
            metrics.fidelity(states["rho"], states["sigma"])


class TestPurity:
    def test_pure_state(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert metrics.purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert metrics.purity(np.eye(5) / 5) == pytest.approx(0.2, abs=1e-12)

    def test_bounds_for_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 13))
            p = metrics.purity(random_density(d, int(rng.integers(2**31))))
            assert 1.0 / d - 1e-12 <= p <= 1.0 + 1e-12

    def test_full_dephasing_walk_value(self):
        # classical joint-distribution oracle: sum of squared (coin, site) weights
        n = 5
        rho = walk.evolve(walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=np.pi))
        joint = []
        for l in range(n + 1):
            joint.append(math.comb(n - 1, l - 1) / 2**n if l >= 1 else 0.0)
            joint.append(math.comb(n - 1, l) / 2**n)
        assert metrics.purity(rho) == pytest.approx(sum(q * q for q in joint), abs=1e-12)
        # the binomial-sum 252/1024 is the purity of the lattice marginal
        marg = walk.position_marginal(rho)
        assert float(marg @ marg) == pytest.approx(252 / 1024, abs=1e-9)

    def test_purity_error(self):
        a = np.eye(2) / 2
        b = np.diag([1.0, 0.0]).astype(complex)
        assert metrics.purity_error(a, b) == pytest.approx(0.5, abs=1e-12)


def probs_only(probs):
    """A stand-in for a dataset that holds only its outcome distributions,
    which need not be a whole basis family."""
    return SimpleNamespace(probs=probs)


class TestClassicalSimilarity:
    def test_identical_datasets(self):
        rho = walk.evolve(walk.WalkConfig(2, (np.pi / 4,) * 2, noise="dephasing", delta_beta=0.8))
        ds = measurement.generate_dataset(rho, 2)
        assert metrics.classical_similarity(ds, ds) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        a = np.array([[1.0, 0.0], [0.5, 0.5]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        got = metrics.classical_similarity(probs_only(a), probs_only(b))
        expected = (0.0 + np.sqrt(0.5)) / 2  # second rows overlap on one outcome
        assert got == pytest.approx(expected, abs=1e-12)
        assert metrics.classical_similarity(probs_only(a[:1]), probs_only(b[:1])) == pytest.approx(0.0, abs=1e-12)

    def test_single_basis_value(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.5, 0.5]])
        assert metrics.classical_similarity(probs_only(a), probs_only(b)) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics.classical_similarity(probs_only(np.ones((2, 3)) / 3), probs_only(np.ones((3, 3)) / 3))

    def test_n_steps_mismatch(self):
        rho1 = walk.evolve(walk.WalkConfig(1, (np.pi / 4,)))
        ds1 = measurement.generate_dataset(rho1, 1)
        rho2 = walk.evolve(walk.WalkConfig(2, (np.pi / 4,) * 2))
        ds2 = measurement.generate_dataset(rho2, 2)
        with pytest.raises(ValueError):
            metrics.classical_similarity(ds1, ds2)
