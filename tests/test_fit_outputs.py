"""tools/fit_outputs.py --compare: which saved runs count as bit-identical."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_outputs.py"
_spec = importlib.util.spec_from_file_location("fit_outputs", TOOL)
fit_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_outputs)

BASE = {"w/op0/costs": np.array([3.0, 2.0, 1.0]), "w/op0/termination": np.array("grad_tol"),
        "w/op0/state": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)}


@pytest.mark.parametrize("edit, code, verdict", [
    ({}, 0, "3/3 items array_equal; 0 with"),
    ({"w/op0/state": np.array([[0.5, -0.0], [0.0, 0.5]], dtype=complex)}, 0, "equal (signed zeros differ)"),
    ({"w/op0/costs": np.array([3.0, 2.0, np.nextafter(1.0, 2.0)])}, 1, "DIFFERS"),
    ({"w/op0/termination": np.array("max_iters")}, 1, "DIFFERS"),
    ({"w/op1/costs": np.array([1.0])}, 1, "MISSING"),
])
def test_compare(tmp_path, capsys, edit, code, verdict):
    np.savez(tmp_path / "a.npz", **BASE)
    np.savez(tmp_path / "b.npz", **{**BASE, **edit})
    assert fit_outputs.main(["--compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]) == code
    assert verdict in capsys.readouterr().out
