"""SciPy stays off the import path until natural gradient descent factors a metric."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import sys

    def scipy_unloaded(after):
        assert "scipy" not in sys.modules, f"SciPy loaded by {after}"

    import qwndo
    from qwndo import cli, maxlik, measurement, training, walk
    scipy_unloaded("import qwndo")

    rho = walk.evolve(walk.WalkConfig(2, (0.8, 0.8), noise="dephasing", delta_beta=0.9))
    bases = measurement.all_basis_unitaries(2)
    ds = measurement.generate_dataset(rho, 2)
    maxlik.maxlik_fit(ds, bases, max_iters=20)
    scipy_unloaded("generate_dataset and maxlik_fit")

    state, data = sys.argv[1] + "/rho.state", sys.argv[1] + "/ds.json"
    for argv in (["simulate", "--steps", "2", "--noise", "dephasing", "--delta-beta", "0.9",
                  "--out", state],
                 ["gen-data", "--from-state", state, "--out", data],
                 ["maxlik", "--dataset", data, "--max-iters", "20"],
                 ["evaluate", "--state", state, "--reference", state, "--dataset", data]):
        assert cli.main(argv) == 0, argv[0]
        scipy_unloaded(f"qwndo {argv[0]}")

    training.fit_ndo(ds, bases, 6, 3, 3, warmup_iters=1, polish_iters=1)
    assert "scipy.linalg" in sys.modules, "one GNGD step solved its metric without SciPy"
""")


def test_scipy_loads_only_for_the_metric_solve(tmp_path):
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
