"""Measurement bases as 2-sparse tables, their contractions, and datasets.

The dense basis builder in `oracles` is the reference the tables are pinned to.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from qwndo import maxlik, measurement, ndo, walk

AGREEMENT_STEPS = [0, 1, 2, 5, 10, 20, 30]


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def formula_basis_vectors(n, n_steps):
    """Direct enumeration of the displayed basis-vector formulas (kets, columns)."""
    n_sites = n_steps + 1
    d = 2 * n_sites
    if n == 0:
        return [np.eye(d)[:, j] for j in range(d)]
    k = (n + 1) // 2
    phase = 1.0j if n % 2 == 1 else 1.0
    vectors = []
    for l in range(n_sites):
        partner = (l - (k - 1)) % n_sites
        for sign in (1.0, -1.0):
            vec = np.zeros(d, dtype=complex)
            vec[2 * l] = 1.0 / np.sqrt(2.0)
            vec[2 * partner + 1] = sign * phase / np.sqrt(2.0)
            vectors.append(vec)
    return vectors


class TestCyclicShift:
    @pytest.mark.parametrize("n_steps", [1, 2, 5])
    def test_full_cycle_is_identity(self, n_steps):
        s = oracles.cyclic_shift(n_steps)
        power = np.linalg.matrix_power(s, n_steps + 1)
        np.testing.assert_allclose(power, np.eye(2 * (n_steps + 1)), atol=1e-14)

    def test_n1_down_mapping(self):
        s = oracles.cyclic_shift(1)
        assert s[3, 1] == 1.0  # |down,0> -> |down,1>
        assert s[1, 3] == 1.0  # |down,1> -> |down,0>
        assert s[0, 0] == 1.0 and s[2, 2] == 1.0

    def test_unitary(self):
        s = oracles.cyclic_shift(4)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(10), atol=1e-14)


class TestBasisUnitary:
    def test_reference_basis_is_identity(self):
        np.testing.assert_array_equal(oracles.scatter(measurement.all_basis_unitaries(3))[0], np.eye(8))

    def test_count_at_n5(self):
        bases = measurement.all_basis_unitaries(5)
        assert bases.n_bases == 13
        assert bases.index.shape == bases.coef.shape == (13, 12, 2)
        assert measurement.n_bases(30) == 63

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            oracles.basis_unitary(13, 5)
        with pytest.raises(ValueError):
            oracles.basis_unitary(-1, 5)

    @pytest.mark.parametrize("n_steps", [1, 2, 4])
    def test_all_unitary(self, n_steps):
        d = 2 * (n_steps + 1)
        for u in oracles.scatter(measurement.all_basis_unitaries(n_steps)):
            np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 3, 5])
    def test_rows_match_formula_vectors(self, n_steps):
        # phase-insensitive: each row must overlap one formula bra with modulus 1
        dense = oracles.scatter(measurement.all_basis_unitaries(n_steps))
        for n in range(measurement.n_bases(n_steps)):
            u = dense[n]
            kets = formula_basis_vectors(n, n_steps)
            overlaps = np.abs(np.array(kets).conj() @ u.conj().T)  # |<ket_m, row_j^*>|
            # rows and formula vectors pair up one-to-one
            for j in range(u.shape[0]):
                best = overlaps[:, j].max()
                assert best == pytest.approx(1.0, abs=1e-12), (n, j)
            matches = (overlaps > 1 - 1e-9).sum(axis=0)
            assert np.all(matches == 1)


class TestTablesAgainstDenseOracle:
    @pytest.mark.parametrize("n_steps", AGREEMENT_STEPS)
    def test_scatter_equals_dense_builder(self, n_steps):
        dense = np.asarray(oracles.all_basis_unitaries(n_steps))
        np.testing.assert_array_equal(oracles.scatter(measurement.all_basis_unitaries(n_steps)), dense)

    @pytest.mark.parametrize("n_steps", AGREEMENT_STEPS)
    def test_probabilities(self, n_steps):
        tables = measurement.all_basis_unitaries(n_steps)
        dense = oracles.DenseBases(n_steps)
        for seed in range(3):
            rho = random_density(tables.dim, seed)
            diff = np.abs(tables.probabilities(rho) - dense.probabilities(rho)).max()
            assert diff <= 1e-15

    @pytest.mark.parametrize("n_steps", AGREEMENT_STEPS)
    def test_adjoint(self, n_steps):
        tables = measurement.all_basis_unitaries(n_steps)
        dense = oracles.DenseBases(n_steps)
        gather = oracles.GatherBases(tables)
        rng = np.random.default_rng(n_steps)
        for _ in range(20):
            w = rng.uniform(0.0, 2.0, (tables.n_bases, tables.dim))
            w[rng.uniform(size=w.shape) < 0.3] = 0.0  # outcomes the data never saw
            m = tables.adjoint(w)
            assert np.abs(m - dense.adjoint(w)).max() <= 1e-15
            assert np.array_equal(m, gather.adjoint(w))
            assert np.array_equal(m, m.conj().T)

    def test_built_once_per_size_and_read_only(self):
        tables = measurement.all_basis_unitaries(4)
        assert measurement.all_basis_unitaries(4) is tables
        assert measurement.all_basis_unitaries(3) is not tables
        for arr in (tables.index, tables.coef):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 0

    @pytest.mark.parametrize("shots,seed", [(None, None), (1000, 4)])
    def test_shared_tables_give_the_fresh_tables_dataset(self, tmp_path, monkeypatch, shots, seed):
        """A dataset measured through the shared tables is byte for byte the
        one measured through tables built for the call."""
        rho = walk.evolve(walk.WalkConfig(3, (0.3, 0.7, 1.1), noise="dephasing", delta_beta=0.5))
        shared = tmp_path / "shared.json"
        measurement.all_basis_unitaries(3).probabilities(rho)  # gather tables already built
        measurement.save_dataset(measurement.generate_dataset(rho, 3, shots, seed), shared)
        monkeypatch.setattr(measurement, "all_basis_unitaries",
                            measurement.all_basis_unitaries.__wrapped__)
        fresh = tmp_path / "fresh.json"
        measurement.save_dataset(measurement.generate_dataset(rho, 3, shots, seed), fresh)
        assert shared.read_bytes() == fresh.read_bytes()

    def test_tables_stay_small_at_n30(self):
        # the dense (63, 62, 62) complex stack is 3.9 MB
        tables = measurement.all_basis_unitaries(30)
        assert tables.index.nbytes + tables.coef.nbytes < 200_000


def agreement_states(n_steps):
    """A random state, the NDO's mixed start, a nearly pure NDO state whose
    coherences are subnormal, a MaxLik state and a disordered dephasing walk."""
    d = 2 * (n_steps + 1)
    angles = tuple(walk.disordered_angles(n_steps, 3))
    return {
        "random": random_density(d, n_steps),
        "ndo mixed start": ndo.density_matrix(ndo.mixed_init_params(d, 4, 4, seed=1)),
        "nearly pure, subnormal": ndo.density_matrix(oracles.nearly_pure_subnormal(d, 3, 3)),
        "maxlik": maxlik.rho_from_t(oracles.random_t_params(d, 1.0, seed=2)),
        "walk": walk.evolve(walk.WalkConfig(n_steps, angles, noise="dephasing", delta_beta=1.2)),
    }


class TestTermByTermContractions:
    """The term-by-term contractions against `oracles.GatherBases`, bit for bit."""

    @pytest.mark.parametrize("n_steps", AGREEMENT_STEPS)
    def test_equal_gather_oracle(self, n_steps):
        tables = measurement.all_basis_unitaries(n_steps)
        oracle = oracles.GatherBases(tables)
        rng = np.random.default_rng(n_steps)
        for name, rho in agreement_states(n_steps).items():
            probs = tables.probabilities(rho)
            assert np.array_equal(probs, oracle.probabilities(rho)), name
            # the fit's weights data / model, and weights spread over [0, 2)
            model = np.maximum(probs, 1e-300)
            for w in (rng.uniform(0.0, 1.0, probs.shape) / model, rng.uniform(0.0, 2.0, probs.shape)):
                m = tables.adjoint(w)
                assert np.array_equal(m, oracle.adjoint(w)), name
                assert np.array_equal(m, m.conj().T), name
            # the adjoint is the transpose of the probabilities' map, checked with
            # the last, bounded weights: data / model puts weights near 1e300 on
            # outcomes of probability 0, whose terms of sum(M rho) then cancel
            lhs, rhs = np.sum(w * probs), np.sum(m * rho).real
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs), name

    @pytest.mark.parametrize("n_steps", AGREEMENT_STEPS)
    def test_coefficients_real_or_imaginary_and_coherences_oriented(self, n_steps):
        # the two properties that make the term-by-term contractions exact
        tables = measurement.all_basis_unitaries(n_steps)
        c = tables.coef
        assert np.all((c.real == 0.0) | (c.imag == 0.0))
        assert np.all((c[..., 0].real > 0.0) & (c[..., 0].imag == 0.0))  # the adjoint's real cross term
        if n_steps >= 1:
            assert np.all(tables.index[1:, :, 0] % 2 == 0)  # up site
            assert np.all(tables.index[1:, :, 1] % 2 == 1)  # down site
        assert np.array_equal(tables.index[0, :, 0], np.arange(tables.dim))
        assert np.array_equal(tables.index[0, :, 1], np.arange(tables.dim))
        assert np.all(c[0, :, 1] == 0.0)

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (7, 5), (7, 6, 1)])
    def test_adjoint_rejects_misshaped_weights(self, shape):
        tables = measurement.all_basis_unitaries(2)
        with pytest.raises(ValueError, match=r"w shape .* expected \(n_bases, d\) = \(7, 6\)"):
            tables.adjoint(np.ones(shape))


class TestMeasureDistribution:
    def test_maximally_mixed_uniform(self):
        d = 8
        rho = np.eye(d) / d
        probs = measurement.all_basis_unitaries(d // 2 - 1).probabilities(rho)
        for n in (0, 3, 6):
            np.testing.assert_allclose(probs[n], np.full(d, 1 / d), atol=1e-12)

    def test_initial_state_reference_basis(self):
        rho = walk.initial_state(2)
        p = measurement.all_basis_unitaries(2).probabilities(rho)[0]
        expected = np.zeros(6)
        expected[0] = expected[1] = 0.5
        np.testing.assert_allclose(p, expected, atol=1e-14)

    def test_random_states_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_steps = int(rng.integers(1, 4))
            rho = random_density(2 * (n_steps + 1), int(rng.integers(2**31)))
            n = int(rng.integers(0, measurement.n_bases(n_steps)))
            p = measurement.all_basis_unitaries(n_steps).probabilities(rho)[n]
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measurement.all_basis_unitaries(2).probabilities(np.eye(4) / 4)

    def test_rejects_very_negative_probability(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            measurement.generate_dataset(bad, 1)


class TestGenerateDataset:
    def test_exact_matches_distributions(self):
        rho = walk.evolve(walk.WalkConfig(2, (np.pi / 4,) * 2))
        ds = measurement.generate_dataset(rho, 2)
        np.testing.assert_allclose(ds.probs, oracles.DenseBases(2).probabilities(rho), atol=1e-15)

    def test_basis_count_at_n30(self):
        rho = np.eye(62, dtype=complex) / 62
        ds = measurement.generate_dataset(rho, 30)
        assert ds.probs.shape == (63, 62)

    def test_shot_frequencies_near_exact(self):
        rho = walk.evolve(walk.WalkConfig(2, (np.pi / 4,) * 2, noise="dephasing", delta_beta=1.0))
        shots = 10**6
        exact = measurement.generate_dataset(rho, 2)
        sampled = measurement.generate_dataset(rho, 2, shots=shots, seed=9)
        # binomial standard-error oracle per entry
        bound = 5.0 * np.sqrt(exact.probs * (1 - exact.probs) / shots) + 1e-6
        assert np.all(np.abs(sampled.probs - exact.probs) <= bound)

    def test_shot_mode_deterministic(self):
        rho = walk.evolve(walk.WalkConfig(1, (np.pi / 4,)))
        a = measurement.generate_dataset(rho, 1, shots=1000, seed=3)
        b = measurement.generate_dataset(rho, 1, shots=1000, seed=3)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_seed_and_basis_streams_independent(self):
        # under seed XOR basis, seed 0 basis 1 and seed 1 basis 0 drew one stream
        rho = np.eye(4, dtype=complex) / 4
        a = measurement.generate_dataset(rho, 1, shots=1000, seed=0)
        b = measurement.generate_dataset(rho, 1, shots=1000, seed=1)
        assert not np.array_equal(a.probs[1], b.probs[0])

    def test_unseeded_run_reproduced_from_recorded_seed(self, tmp_path):
        rho = walk.evolve(walk.WalkConfig(1, (0.7,), noise="dephasing", delta_beta=1.2))
        ds = measurement.generate_dataset(rho, 1, shots=1000)
        assert isinstance(ds.seed, int)
        path = tmp_path / "ds.json"
        measurement.save_dataset(ds, path)
        loaded = measurement.load_dataset(path)
        again = measurement.generate_dataset(rho, 1, shots=1000, seed=loaded.seed)
        np.testing.assert_array_equal(again.probs, ds.probs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            measurement.generate_dataset(walk.initial_state(1), 1, shots=10, seed=-1)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            measurement.generate_dataset(walk.initial_state(1), 1, shots=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measurement.generate_dataset(walk.initial_state(1), 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, value):
        rho = walk.initial_state(2)
        rho[3, 4] = value
        with pytest.raises(ValueError, match="rho has a non-finite entry"):
            measurement.generate_dataset(rho, 2)

    @pytest.mark.parametrize("value, error", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                              (-np.inf, "non-finite"), (-0.25, "negative")])
    def test_dataset_rejects_bad_probability_naming_its_basis(self, value, error):
        probs = measurement.generate_dataset(walk.initial_state(2), 2).probs.copy()
        probs[4, 1] = value
        with pytest.raises(ValueError, match=f"basis n=4: {error} probability"):
            measurement.MeasurementDataset(n_steps=2, probs=probs)

    @pytest.mark.parametrize("field, value", [("shots", 0), ("shots", -5), ("shots", 2.5),
                                              ("shots", True), ("shots", "10"), ("seed", -3),
                                              ("seed", 1.0), ("seed", False), ("seed", "2"),
                                              ("n_steps", True), ("n_steps", 1.0),
                                              ("n_steps", -1), ("n_steps", "1")])
    def test_dataset_rejects_bad_metadata_naming_its_field(self, field, value):
        probs = measurement.generate_dataset(walk.initial_state(1), 1).probs
        with pytest.raises(ValueError, match=f"field '{field}'"):
            measurement.MeasurementDataset(probs=probs, **{"n_steps": 1, field: value})


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        rho = walk.evolve(walk.WalkConfig(2, (0.3, 1.1), noise="depolarizing", p=0.2))
        ds = measurement.generate_dataset(rho, 2, shots=5000, seed=11)
        path = tmp_path / "ds.json"
        measurement.save_dataset(ds, path)
        loaded = measurement.load_dataset(path)
        assert loaded.n_steps == ds.n_steps
        assert loaded.shots == ds.shots
        assert loaded.seed == ds.seed
        np.testing.assert_array_equal(loaded.probs, ds.probs)

    def test_missing_basis_named_in_error(self, tmp_path):
        ds = measurement.generate_dataset(walk.initial_state(1), 1)
        path = tmp_path / "ds.json"
        measurement.save_dataset(ds, path)
        doc = json.loads(path.read_text())
        doc["bases"] = [b for b in doc["bases"] if b["index"] != 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing basis n=3"):
            measurement.load_dataset(path)

    def test_n_steps_checked_against_bases_before_allocating(self, tmp_path):
        # n_steps = 10^6 would need a 2000003 x 2000002 array (29 TiB)
        doc = {"format_version": 1, "n_steps": 1_000_000, "shots": None, "seed": None,
               "bases": [{"index": 0, "probs": [0.25, 0.25, 0.25, 0.25]}]}
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="missing basis n=1: field 'n_steps' = 1000000"):
                measurement.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_minimal_handwritten_file(self, tmp_path):
        doc = {
            "format_version": 1,
            "n_steps": 1,
            "shots": None,
            "seed": None,
            "bases": [
                {"index": n, "probs": [0.25, 0.25, 0.25, 0.25]} for n in range(5)
            ],
        }
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(doc))
        ds = measurement.load_dataset(path)
        assert ds.n_steps == 1
        assert ds.probs.shape == (5, 4)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("n_steps"), "n_steps"),
            (lambda d: d.update(format_version=99), "format_version"),
            (lambda d: d["bases"][0].pop("probs"), "probs"),
            (lambda d: d["bases"][0]["probs"].append(0.0), "expected"),
            (lambda d: d.update(shots=-2), "shots"),
            (lambda d: d.update(seed=-3), "seed"),
        ],
    )
    def test_malformed_fields_named(self, tmp_path, mutate, fragment):
        ds = measurement.generate_dataset(walk.initial_state(1), 1)
        path = tmp_path / "ds.json"
        measurement.save_dataset(ds, path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=fragment):
            measurement.load_dataset(path)

    @pytest.mark.parametrize("field", ["shots", "seed", "n_steps", "index"])
    def test_boolean_integer_rejected(self, tmp_path, field):
        # JSON true/false load as Python bools, which are ints to isinstance
        ds = measurement.generate_dataset(walk.initial_state(1), 1, shots=10, seed=2)
        path = tmp_path / "ds.json"
        measurement.save_dataset(ds, path)
        doc = json.loads(path.read_text())
        (doc["bases"][0] if field == "index" else doc)[field] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field):
            measurement.load_dataset(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_probability_named(self, tmp_path, value):
        ds = measurement.generate_dataset(walk.initial_state(1), 1)
        path = tmp_path / "ds.json"
        measurement.save_dataset(ds, path)
        doc = json.loads(path.read_text())
        doc["bases"][2]["probs"][1] = value
        path.write_text(json.dumps(doc))  # written as NaN / Infinity
        with pytest.raises(ValueError,
                           match=f"^dataset {re.escape(str(path))}: basis n=2: non-finite probability$"):
            measurement.load_dataset(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError, match="JSON"):
            measurement.load_dataset(path)
