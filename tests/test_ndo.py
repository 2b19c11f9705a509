"""Closed-form density operator vs the brute-force purification, and its gradient."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from qwndo import kernels, ndo
from qwndo.kernels import param_offsets, param_shapes

from oracles import (a_entry, blocks, eager_caches, from_blocks, grad_a, purification_oracle,
                     random_params)
from oracles import evaluate as oracle_evaluate

STACKED_VIEWS = ("w", "u", "b", "c", "d_lam")
DATA = Path(__file__).parent / "data"


def finite_diff_a(params, v, vp, h=1e-6):
    x0 = params.to_vector()
    d, m_h, m_a = params.dim, params.m_h, params.m_a
    out = np.empty(x0.size, dtype=complex)
    for j in range(x0.size):
        xp = x0.copy()
        xp[j] += h
        xm = x0.copy()
        xm[j] -= h
        hi = a_entry(ndo.NdoParams.from_vector(d, m_h, m_a, xp), v, vp)
        lo = a_entry(ndo.NdoParams.from_vector(d, m_h, m_a, xm), v, vp)
        out[j] = (hi - lo) / (2 * h)
    return out


class TestParams:
    def test_vector_round_trip(self):
        params = random_params(6, 4, 3, 0.7, seed=2)
        again = ndo.NdoParams.from_vector(6, 4, 3, params.to_vector())
        for name in STACKED_VIEWS:
            np.testing.assert_array_equal(getattr(params, name), getattr(again, name))

    def test_param_count(self):
        d, m_h, m_a = 6, 4, 3
        expected = 2 * m_h * d + 2 * m_a * d + 2 * d + 2 * m_h + m_a
        assert ndo.n_params(d, m_h, m_a) == expected
        assert ndo.init_params(d, m_h, m_a).to_vector().size == expected

    def test_same_seed_identical(self):
        a = ndo.init_params(4, 3, 3, seed=9)
        b = ndo.init_params(4, 3, 3, seed=9)
        np.testing.assert_array_equal(a.to_vector(), b.to_vector())

    def test_equality_is_identity(self):
        a = ndo.init_params(4, 3, 2, seed=1)
        b = ndo.init_params(4, 3, 2, seed=1)
        assert a == a and a != b and len({a, b}) == 2
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ndo.NdoParams.from_vector(2, 1, 1, np.full(ndo.n_params(2, 1, 1), np.nan))

    def test_from_vector_names_the_non_finite_block(self):
        vec = ndo.init_params(3, 2, 2).to_vector()
        vec[param_offsets(3, 2, 2)["c_mu"] + 1] = np.inf
        with pytest.raises(ValueError, match="c_mu contains non-finite entries"):
            ndo.NdoParams.from_vector(3, 2, 2, vec)

    def test_from_vector_wraps_read_only_views_of_one_copy(self):
        vec = random_params(4, 3, 2, 0.5, seed=1).to_vector()
        vec_before = vec.copy()
        params = ndo.NdoParams.from_vector(4, 3, 2, vec)
        vec[:] = 0.0  # the caller's array is not shared
        np.testing.assert_array_equal(params.to_vector(), random_params(4, 3, 2, 0.5, seed=1).to_vector())
        base = params.w.base
        assert base is not None and base.shape == vec.shape
        for name in STACKED_VIEWS:
            arr = getattr(params, name)
            assert arr.base is base and not arr.flags.writeable
        off = param_offsets(4, 3, 2)
        for name, shape in param_shapes(4, 3, 2).items():
            block = vec_before[off[name] : off[name] + math.prod(shape)].reshape(shape)
            assert np.array_equal(blocks(params)[name], block)

    def test_from_vector_is_the_only_constructor(self):
        params = ndo.init_params(4, 3, 2)
        with pytest.raises(TypeError):
            ndo.NdoParams(**blocks(params))
        assert not hasattr(params, "__dict__") and not hasattr(params, "w_lam")

    @pytest.mark.parametrize("d, m_a", [(2, 1), (4, 3), (12, 15), (12, 16), (22, 40), (62, 15)])
    def test_mixed_init_signs_are_a_sylvester_hadamard_slice(self, d, m_a):
        order = 1
        while order <= max(d, m_a):
            order *= 2
        signs = scipy.linalg.hadamard(order)[1 : d + 1, 1 : m_a + 1].T
        base = ndo.init_params(d, 3, m_a, seed=4)
        mixed = ndo.mixed_init_params(d, 3, m_a, seed=4)
        mixed, base = blocks(mixed), blocks(base)
        assert np.array_equal(mixed["u_mu"], base["u_mu"] + ndo.MIXING_PHASE * signs)
        for name in set(mixed) - {"u_mu"}:
            assert np.array_equal(mixed[name], base[name])

    def test_default_scale_near_uniform_projector(self):
        d = 6
        for seed in range(20):
            params = ndo.init_params(d, 5, 5, seed=seed)
            rho = ndo.density_matrix(params)
            assert np.max(np.abs(rho - np.full((d, d), 1 / d))) <= 0.1 / d


class TestAEntry:
    def test_zero_params_constant(self):
        m_h, m_a = 4, 2
        params = random_params(5, m_h, m_a, 0.0)
        expected = (m_h + m_a) * np.log(2.0)
        for v in range(5):
            for vp in range(5):
                assert a_entry(params, v, vp) == pytest.approx(expected, abs=1e-14)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            params = random_params(4, 3, 3, 1.0, seed=int(rng.integers(2**31)))
            v, vp = rng.integers(0, 4, size=2)
            a = a_entry(params, int(v), int(vp))
            b = a_entry(params, int(vp), int(v))
            assert a == pytest.approx(np.conj(b), abs=1e-13)

    def test_matches_log_of_oracle_entry(self):
        params = random_params(4, 3, 3, 0.9, seed=12)
        rho = purification_oracle(params)
        lz = oracle_evaluate(params).log_z
        for v, vp in ((0, 1), (2, 3), (1, 1)):
            direct = np.exp(a_entry(params, v, vp) - lz)
            assert abs(direct - rho[v, vp]) <= 1e-10

    def test_matrix_agrees_with_entries(self):
        params = random_params(5, 3, 2, 0.6, seed=4)
        mat = kernels.pair_cache(params.w, params.u, params.b, params.c, params.d_lam)[0]
        for v in range(5):
            for vp in range(5):
                assert mat[v, vp] == pytest.approx(a_entry(params, v, vp), abs=1e-13)


class TestLogZ:
    def test_zero_params(self):
        d, m_h, m_a = 6, 4, 3
        params = random_params(d, m_h, m_a, 0.0)
        assert oracle_evaluate(params).log_z == pytest.approx(np.log(d) + (m_h + m_a) * np.log(2), abs=1e-12)

    def test_visible_bias_shift(self):
        params = random_params(4, 3, 3, 0.5, seed=7)
        kappa = 0.7
        shifted = from_blocks({**blocks(params), "b_lam": params.b[0] + kappa})
        assert oracle_evaluate(shifted).log_z == pytest.approx(oracle_evaluate(params).log_z + kappa, abs=1e-10)

    def test_trace_one_for_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = random_params(4, 3, 2, 1.5, seed=int(rng.integers(2**31)))
            assert np.trace(ndo.density_matrix(params)).real == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix:
    def test_zero_params_uniform_projector(self):
        d = 4
        params = random_params(d, 3, 3, 0.0)
        np.testing.assert_allclose(ndo.density_matrix(params), np.full((d, d), 1 / d), atol=1e-14)

    def test_psd_for_random_params(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 13))
            params = random_params(d, 3, 3, 1.0, seed=int(rng.integers(2**31)))
            rho = ndo.density_matrix(params)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_same_bits_as_evaluate(self):
        params = random_params(6, 4, 3, 1.0, seed=14)
        np.testing.assert_array_equal(ndo.density_matrix(params), ndo.evaluate(params).rho)

    @pytest.mark.parametrize("m_a", [1, 2, 3])
    def test_matches_purification_oracle(self, m_a):
        rng = np.random.default_rng(m_a)
        for _ in range(10):
            params = random_params(4, 3, m_a, 1.0, seed=int(rng.integers(2**31)))
            closed = ndo.density_matrix(params)
            oracle = purification_oracle(params)
            assert np.max(np.abs(closed - oracle)) <= 1e-10


class TestLazyCaches:
    @pytest.mark.parametrize("scale,seed", [(0.01, 0), (1.0, 4), (3.0, 8)])
    def test_equal_eager_caches(self, scale, seed):
        params = random_params(6, 4, 3, scale, seed=seed)
        ev = ndo.evaluate(params)
        assert not {"sig", "s_upper"} & set(vars(ev))  # nothing computed yet
        for lazy, eager in zip((ev.sig, ev.s_upper), eager_caches(params)):
            assert np.array_equal(lazy, eager)
        assert ev.s_upper is ev.s_upper  # computed once


class TestPurificationOracle:
    def test_zero_params(self):
        params = random_params(4, 2, 2, 0.0)
        np.testing.assert_allclose(purification_oracle(params), np.full((4, 4), 0.25), atol=1e-14)

    def test_hermitian(self):
        params = random_params(6, 3, 3, 1.2, seed=8)
        rho = purification_oracle(params)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_refuses_large_ancilla(self):
        params = random_params(2, 1, 13, 0.1, seed=0)
        with pytest.raises(ValueError, match="refusing"):
            purification_oracle(params)


class TestGradA:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            params = random_params(4, 3, 2, 0.8, seed=int(rng.integers(2**31)))
            v, vp = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            analytic = grad_a(params, v, vp)
            numeric = finite_diff_a(params, v, vp)
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5

    def test_mu_derivatives_vanish_on_diagonal(self):
        params = random_params(5, 4, 3, 1.0, seed=13)
        off = param_offsets(5, 4, 3)
        g = grad_a(params, 2, 2)
        mu_slices = np.r_[
            np.arange(off["w_mu"], off["w_mu"] + 4 * 5),
            np.arange(off["u_mu"], off["u_mu"] + 3 * 5),
            np.arange(off["b_mu"], off["b_mu"] + 5),
            np.arange(off["c_mu"], off["c_mu"] + 4),
        ]
        assert np.max(np.abs(g[mu_slices])) == 0.0

    def test_zero_params_hidden_bias_half(self):
        params = random_params(4, 3, 2, 0.0)
        off = param_offsets(4, 3, 2)
        g = grad_a(params, 0, 2)
        np.testing.assert_allclose(g[off["c_lam"] : off["c_lam"] + 3], 0.5, atol=1e-14)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params(5, 4, 3, 0.37, seed=21)
        path = tmp_path / "ckpt.json"
        ndo.save_checkpoint(params, path)
        loaded = ndo.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.to_vector(), params.to_vector())

    @pytest.mark.parametrize("m_h,m_a", [(3, 0), (0, 3), (0, 0)])
    def test_round_trip_zero_units(self, tmp_path, m_h, m_a):
        """An empty layer is written as [], which keeps no shape; the header gives it back."""
        params = random_params(5, m_h, m_a, 0.37, seed=22)
        path = tmp_path / "ckpt.json"
        ndo.save_checkpoint(params, path)
        loaded = ndo.load_checkpoint(path)
        assert (loaded.dim, loaded.m_h, loaded.m_a) == (5, m_h, m_a)
        np.testing.assert_array_equal(loaded.to_vector(), params.to_vector())

    @pytest.mark.parametrize("field,value,message", [
        ("m_h", 3, "array w_lam has shape"),
        ("dim", 4, "array w_lam has shape"),
        ("m_a", 0, "array u_lam has shape"),
        ("m_a", -1, "field 'm_a' must be >= 0"),
    ])
    def test_header_that_does_not_fit_the_arrays_rejected(self, tmp_path, field, value, message):
        import json

        path = tmp_path / "ckpt.json"
        ndo.save_checkpoint(ndo.init_params(5, 2, 2), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: {message}"):
            ndo.load_checkpoint(path)

    @pytest.mark.parametrize("name,units,seed", [("checkpoint_d4_h2_a2.json", 2, 3),
                                                 ("checkpoint_d4_h0_a2.json", 0, 4)])
    def test_committed_file_loads_and_rewrites_byte_for_byte(self, tmp_path, name, units, seed):
        """The committed files were written from `random_params(4, units, 2, 0.5, seed=seed)`;
        the one with no hidden units keeps its empty arrays as []."""
        committed = DATA / name
        loaded = ndo.load_checkpoint(committed)
        expected = random_params(4, units, 2, 0.5, seed=seed).to_vector()
        assert (loaded.dim, loaded.m_h, loaded.m_a) == (4, units, 2)
        assert np.array_equal(loaded.to_vector(), expected)
        ndo.save_checkpoint(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == committed.read_bytes()

    @pytest.mark.parametrize("name,value,message", [
        ("b_lam", [0.0, float("nan"), 0.0, 0.0], "b_lam contains non-finite entries"),
        ("u_mu", np.zeros((3, 4)).tolist(), r"array u_mu has shape \(3, 4\), expected \(2, 4\)"),
        ("c_lam", ["a", "b"], "array c_lam is not a numeric array"),
    ])
    def test_bad_array_rejected_naming_it(self, tmp_path, name, value, message):
        import json

        doc = json.loads((DATA / "checkpoint_d4_h2_a2.json").read_text())
        doc["arrays"][name] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: {message}"):
            ndo.load_checkpoint(path)

    def test_missing_array_rejected(self, tmp_path):
        import json

        params = ndo.init_params(3, 2, 2)
        path = tmp_path / "ckpt.json"
        ndo.save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        del doc["arrays"]["u_mu"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="u_mu"):
            ndo.load_checkpoint(path)
