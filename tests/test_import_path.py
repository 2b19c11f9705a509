"""SciPy stays off the import path until natural gradient descent factors a metric,
and then only its LAPACK extension module loads, never the `scipy.linalg` package."""

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
    assert "scipy.linalg._flapack" in sys.modules, "one GNGD step solved its metric without LAPACK"
    assert "scipy.linalg" not in sys.modules, "one GNGD step imported the scipy.linalg package"
""")

# Either import order leaves one LAPACK module, whose routines the solve and
# `scipy.linalg.lapack` share; prints the fit's parameters for comparison.
FIT = textwrap.dedent("""
    import sys

    import numpy as np

    from qwndo import measurement, training, walk

    def fit():
        rho = walk.evolve(walk.WalkConfig(2, (0.8, 0.8), noise="dephasing", delta_beta=0.9))
        params, _ = training.fit_ndo(measurement.generate_dataset(rho, 2),
                                     measurement.all_basis_unitaries(2), 6, 3, 3,
                                     warmup_iters=2, polish_iters=3)
        return params

    if sys.argv[1] == "package-first":
        import scipy.linalg.lapack
        params = fit()
    else:
        params = fit()
        assert "scipy.linalg._flapack" in sys.modules and "scipy.linalg" not in sys.modules
        import scipy.linalg.lapack

    dpotrf, dpotrs = training._lapack()  # cached: the routines the solve called
    assert scipy.linalg.lapack.dpotrf is dpotrf and scipy.linalg.lapack.dpotrs is dpotrs
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), np.array([1.0, 2.0]))
    np.testing.assert_allclose(a @ x, [1.0, 2.0], rtol=1e-14)
    print(params.to_vector().tobytes().hex())
""")


def _run(script, arg, cwd):
    result = subprocess.run([sys.executable, "-c", script, arg], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_scipy_loads_only_for_the_metric_solve(tmp_path):
    _run(SCRIPT, str(tmp_path), tmp_path)


def test_lapack_module_shared_with_scipy_linalg_in_either_order(tmp_path):
    fits = {order: _run(FIT, order, tmp_path) for order in ("solve-first", "package-first")}
    assert fits["solve-first"] == fits["package-first"]
