"""State-file serialization round trips and validation."""

import json

import numpy as np
import pytest

from qwndo import fileio, walk


class TestStateFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rho = walk.evolve(walk.WalkConfig(3, (0.3, 0.7, 1.1), noise="dephasing", delta_beta=0.5))
        path = tmp_path / "rho.state"
        fileio.save_state(rho, path, n_steps=3)
        loaded, n_steps = fileio.load_state(path)
        assert n_steps == 3
        np.testing.assert_array_equal(loaded, rho)

    def test_n_steps_inferred(self, tmp_path):
        path = tmp_path / "rho.state"
        fileio.save_state(walk.initial_state(4), path)
        _, n_steps = fileio.load_state(path)
        assert n_steps == 4

    def test_missing_field(self, tmp_path):
        path = tmp_path / "rho.state"
        fileio.save_state(walk.initial_state(1), path)
        doc = json.loads(path.read_text())
        del doc["im"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="im"):
            fileio.load_state(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "rho.state"
        fileio.save_state(walk.initial_state(1), path)
        doc = json.loads(path.read_text())
        doc["dim"] = 6
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="dim"):
            fileio.load_state(path)

    @pytest.mark.parametrize(
        "rho,fragment",
        [
            (np.diag([2.0, -1.0, 0.0, 0.0]), "not PSD"),
            (np.eye(4) / 2, "trace"),
            (np.diag([1.0, 0.0, 0.0, 0.0]) + np.diag([0.1, 0.0, 0.0], k=1), "not Hermitian"),
        ],
    )
    def test_non_physical_state_rejected(self, tmp_path, rho, fragment):
        path = tmp_path / "bad.state"
        fileio.save_state(rho, path, n_steps=1)
        with pytest.raises(ValueError, match=fragment):
            fileio.load_state(path)

    def test_non_finite_entry_rejected(self, tmp_path):
        path = tmp_path / "rho.state"
        fileio.save_state(walk.initial_state(1), path)
        doc = json.loads(path.read_text())
        doc["im"][0][1] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="non-finite"):
            fileio.load_state(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.state"
        path.write_text("{{{")
        with pytest.raises(ValueError, match="JSON"):
            fileio.load_state(path)


class TestCsv:
    def test_full_precision_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1 + 0.2  # not exactly 0.3
        fileio.write_csv(path, ["a", "b"], [(1, value)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[1]) == value
