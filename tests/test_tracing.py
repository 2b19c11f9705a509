"""The benchmark tracer sees the calls that fits make into each traced layer.

`perfbench/tracing.py` replaces module and class attributes with timing
wrappers, so a layer that the library reaches through a name bound at import
or class-definition time would silently report zero calls. Each benchmark
workload also runs one op at its tiny size, so that a change to the calls it
makes fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from qwndo import kernels, maxlik, measurement, training, walk

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_workload_runs_at_tiny_size(name):
    """Every benchmark workload builds and runs one op through the public
    calls it makes (`fit_ndo`, `maxlik_fit`, `generate_dataset` and their
    keywords), so a change to them fails here, not in the benchmark."""
    workload = workloads.build(name, None, tiny=True)
    out = workload.op(0)
    d = walk.dim(workload.spec.n_steps)
    assert out.target.shape == out.rho.shape == (d, d)
    assert np.all(np.isfinite(out.rho))
    assert len(out.costs) > 1 and np.all(np.isfinite(out.costs))
    assert isinstance(kernels.active_backend(), str)


def test_fits_reach_every_traced_layer():
    rho = walk.evolve(walk.WalkConfig(1, (np.pi / 4,), noise="dephasing", delta_beta=1.0))
    ds = measurement.generate_dataset(rho, 1)
    bases = measurement.all_basis_unitaries(1)
    tracer = Tracer()
    tracer.install()
    try:
        training.fit_ndo(ds, bases, 4, 2, 2, seed=0, warmup_iters=3, polish_iters=2)
        maxlik.maxlik_fit(ds, bases, seed=0, max_iters=3)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    for name in ("training.grad", "training.model_distributions", "maxlik.grad",
                 "training.gram", "training.solve_metric"):
        assert stats[name + ".calls"] > 0, name


def test_fit_ndo_runs_one_traced_optimizer_loop():
    rho = walk.evolve(walk.WalkConfig(1, (np.pi / 4,), noise="dephasing", delta_beta=1.0))
    ds = measurement.generate_dataset(rho, 1)
    bases = measurement.all_basis_unitaries(1)
    tracer = Tracer()
    tracer.install()
    try:
        _, report = training.fit_ndo(ds, bases, 4, 2, 2, seed=0, warmup_iters=3, polish_iters=2)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["training.minimize_vector.calls"] == 1
    assert stats["training.iterations"] == report.iterations


def test_line_search_trials_count_every_search_evaluation(monkeypatch):
    # every cost call is a line-search trial, except the start's and one per
    # gradient fallback
    rho = walk.evolve(walk.WalkConfig(2, (np.pi / 4,) * 2, noise="dephasing", delta_beta=1.0))
    ds = measurement.generate_dataset(rho, 2)
    bases = measurement.all_basis_unitaries(2)
    calls = []
    cost = training._NdoObjective.cost

    def counted(self, x):
        calls.append(1)
        return cost(self, x)

    monkeypatch.setattr(training._NdoObjective, "cost", counted)
    tracer = Tracer()
    tracer.install()
    try:
        _, report = training.fit_ndo(ds, bases, 6, 3, 3, seed=0, warmup_iters=10, polish_iters=10)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    searched = len(calls) - 1 - stats["training.gradient_fallback.calls"]
    assert stats["training.linesearch.trials"] == searched > report.iterations
