"""State-file serialization round trips and validation."""

import json
import re

import numpy as np
import pytest

from qwndo import fileio, measurement, ndo, walk


class TestStateFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rho = walk.evolve(walk.WalkConfig(3, (0.3, 0.7, 1.1), noise="dephasing", delta_beta=0.5))
        path = tmp_path / "rho.state"
        fileio.save_state(rho, path)
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

    @pytest.mark.parametrize("n_steps", [3, 0, True, "1"])
    def test_n_steps_must_match_dim(self, tmp_path, n_steps):
        path = tmp_path / "rho.state"
        fileio.save_state(walk.initial_state(1), path)
        doc = json.loads(path.read_text())
        doc["n_steps"] = n_steps
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="n_steps"):
            fileio.load_state(path)

    @pytest.mark.parametrize("rho", [np.eye(5) / 5, np.eye(1), np.eye(4)[:, :2] / 2, np.ones(4) / 4,
                                     np.array(1.0)], ids=["dim5", "dim1", "4x2", "vector", "scalar"])
    def test_save_rejects_a_shape_no_walk_has(self, tmp_path, rho):
        path = tmp_path / "rho.state"
        with pytest.raises(ValueError, match=re.escape(f"d = 2(N+1), N >= 0; got shape {rho.shape}")):
            fileio.save_state(rho, path)
        assert not path.exists()

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
        fileio.save_state(rho, path)
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


def save_and_load(kind):
    """(save, load) of a valid file of `kind`; save writes it to the path given."""
    rho = walk.initial_state(1)
    return {
        "state file": (lambda path: fileio.save_state(rho, path), fileio.load_state),
        "dataset": (
            lambda path: measurement.save_dataset(measurement.generate_dataset(rho, 1), path),
            measurement.load_dataset,
        ),
        "checkpoint": (lambda path: ndo.save_checkpoint(ndo.init_params(4, 2, 3), path),
                       ndo.load_checkpoint),
    }[kind]


@pytest.mark.parametrize(
    "kind,field,value",
    [("state file", "format_version", True), ("state file", "n_steps", True),
     ("state file", "dim", 4.0), ("state file", "dim", None),
     ("dataset", "format_version", True), ("dataset", "n_steps", 1.0),
     ("checkpoint", "format_version", True), ("checkpoint", "dim", 4.0),
     ("checkpoint", "m_h", True), ("checkpoint", "m_a", "3"), ("checkpoint", "m_a", None)],
)
def test_versioned_fields_checked_alike_in_every_kind(tmp_path, kind, field, value):
    """A boolean, float or string where an integer belongs, or a missing
    field (None here), is rejected by name whatever the file's kind."""
    save, load = save_and_load(kind)
    path = tmp_path / "file.json"
    save(path)
    load(path)  # the unedited file loads
    doc = json.loads(path.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    prefix = f"{kind} {re.escape(str(path))}: "
    with pytest.raises(ValueError, match=f"^{prefix}(missing )?field '{field}'"):
        load(path)


class TestCsv:
    def test_full_precision_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1 + 0.2  # not exactly 0.3
        fileio.write_csv(path, ["a", "b"], [(1, value)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[1]) == value
