"""The fit loops call NumPy's compiled functions directly.

At the benchmark sizes one optimizer iteration touches a few thousand array
entries, so NumPy's Python-level wrappers (`np.sum`, `np.take`, `np.stack`,
`np.trace`, `np.linalg.norm`, `np.fill_diagonal`, `ndarray.mean`, ...) cost
a measurable share of it. The test counts the calls that `qwndo` frames make
into those wrappers during fits of k and of 2k iterations: a count that grows
with the iteration count is a wrapper on the per-iteration path. ndarray
methods that route through NumPy's `_methods` reductions (sum, max, all,
prod) and the dispatchers of C functions (`np.concatenate`, `np.where`, ...)
stay allowed.
"""

import collections
import os
import sys

import numpy as np
import pytest

import qwndo
from qwndo import maxlik, measurement, training, walk

# NumPy modules of Python-level wrappers, by their last dotted name with the
# underscores and "_impl" that NumPy 2 adds taken off, so NumPy 1.24's
# numpy.core.fromnumeric and NumPy 2's numpy._core.fromnumeric both match.
WRAPPER_MODULES = frozenset({"fromnumeric", "linalg", "shape_base", "index_tricks"})
K = 6  # iterations of the shorter fit; the longer one runs 2K

PACKAGE = os.path.dirname(qwndo.__file__)


def _is_wrapper(module: str, function: str) -> bool:
    if not module.startswith("numpy."):
        return False
    key = module.rpartition(".")[2].strip("_").removesuffix("_impl")
    return key in WRAPPER_MODULES or (key, function) == ("methods", "_mean")


def _wrapper_calls(fit) -> tuple[collections.Counter, int]:
    """Wrapper calls made from `qwndo` frames while fit() runs, keyed by the
    wrapper and its caller, and the iterations of the report fit() returns."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        caller = frame.f_back
        if event != "call" or caller is None:
            return
        if os.path.dirname(caller.f_code.co_filename) != PACKAGE:
            return
        module, function = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        if _is_wrapper(module, function):
            counts[f"{module}.{function} from {caller.f_code.co_name}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = fit()
    finally:
        sys.setprofile(previous)
    return counts, report.iterations


@pytest.fixture(scope="module")
def exact_n2():
    rho = walk.evolve(walk.WalkConfig(2, (np.pi / 4,) * 2, noise="dephasing", delta_beta=1.0))
    return measurement.generate_dataset(rho, 2), measurement.all_basis_unitaries(2)


FITS = {
    # L-BFGS then GNGD, each phase `iters` steps
    "fit_ndo": lambda ds, bases, iters: training.fit_ndo(
        ds, bases, 6, 3, 3, warmup_iters=iters, polish_iters=iters, grad_tol=1e-300)[1],
    "maxlik_fit": lambda ds, bases, iters: maxlik.maxlik_fit(
        ds, bases, max_iters=2 * iters, grad_tol=1e-300)[1],
}


@pytest.mark.parametrize("name", list(FITS))
def test_no_numpy_wrapper_calls_per_iteration(exact_n2, name):
    ds, bases = exact_n2
    fit = FITS[name]
    _wrapper_calls(lambda: fit(ds, bases, 1))  # fills the per-size caches
    short, short_iters = _wrapper_calls(lambda: fit(ds, bases, K))
    long, long_iters = _wrapper_calls(lambda: fit(ds, bases, 2 * K))
    assert (short_iters, long_iters) == (2 * K, 4 * K)
    grown = {key: (short[key], n) for key, n in long.items() if n > short[key]}
    assert not grown, f"wrapper calls per fit of {short_iters} and {long_iters} iterations: {grown}"
