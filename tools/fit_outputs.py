"""Save every fit output of a source tree, or compare two saved runs bit for bit.

A change that should not move a single bit of any fit is checked by running
the same fits in the parent's tree and in the change's, each in its own
process, and comparing what they saved:

    git archive <parent> | tar -x -C <dir>
    OPENBLAS_NUM_THREADS=1 python3 tools/fit_outputs.py --tree <dir> --out parent.npz
    OPENBLAS_NUM_THREADS=1 python3 tools/fit_outputs.py --tree . --out change.npz
    python3 tools/fit_outputs.py --compare parent.npz change.npz

A run covers every op of both benchmark workloads (`perfbench.workloads`) at
each --seeds value ("none" for the workloads' default instances), and the 20
open-walk instances of acceptance criteria 5 and 6 (`open_walk_suite` in
tests/test_acceptance.py), each fitted by the NDO and by MaxLik. For every
fit it saves the final state, the NDO's parameter vector, and the report's
cost trace, gradient norms, step sizes, termination and fidelity.

--compare prints one line per saved item and exits 1 if any item is missing
on one side or not `np.array_equal` on both. Items that are equal but differ
in their bytes (signed zeros) are reported and do not fail the comparison.
Standard library and NumPy only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SUITE_SIZE = 20


def _import_tree(tree: Path):
    """qwndo and perfbench.workloads from `tree`, never from anywhere else."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from qwndo import maxlik, measurement, training, walk
    from perfbench import workloads

    for mod in (training, workloads):
        if not Path(mod.__file__).resolve().is_relative_to(tree):
            raise SystemExit(f"fit_outputs.py: {mod.__name__} imported from {mod.__file__}, not {tree}")
    return maxlik, measurement, training, walk, workloads


class _Capture:
    """Wraps a fit function and keeps the (result, report) of every call."""

    def __init__(self, module, name: str):
        self.module, self.name, self.fit = module, name, getattr(module, name)
        self.calls = []
        setattr(module, name, self)

    def __call__(self, *args, **kwargs):
        out = self.fit(*args, **kwargs)
        self.calls.append(out)
        return out


def _fit_items(prefix: str, result, report, state=None) -> dict:
    """Items of one fit: an NDO fit returns its parameters, a MaxLik fit its state."""
    items = {
        "costs": np.asarray(report.costs, dtype=np.float64),
        "grad_norms": np.asarray(report.grad_norms, dtype=np.float64),
        "step_sizes": np.asarray(report.step_sizes, dtype=np.float64),
        "termination": np.array(report.termination),
    }
    if report.fidelity is not None:
        items["fidelity"] = np.float64(report.fidelity)
    if isinstance(result, np.ndarray):
        state = result
    else:
        items["params"] = result.to_vector()
    if state is not None:
        items["state"] = state
    return {f"{prefix}/{k}": v for k, v in items.items()}


def run_tree(tree: Path, seeds: list[int | None]) -> dict:
    maxlik, measurement, training, walk, workloads = _import_tree(tree)
    captures = (_Capture(training, "fit_ndo"), _Capture(maxlik, "maxlik_fit"))
    try:
        items = _workload_items(workloads, seeds, captures)
    finally:
        for cap in captures:
            setattr(cap.module, cap.name, cap.fit)
    items.update(_suite_items(maxlik, measurement, training, walk, workloads.ACCEPTANCE_RNG_SEED))
    return items


def _workload_items(workloads, seeds, captures) -> dict:
    """Every op of every workload; the fit it ran is read from the captures."""
    items = {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            wl = workloads.build(name, seed)
            for i in range(wl.n_ops):
                for cap in captures:
                    cap.calls.clear()
                out = wl.op(i)
                (result, report), = [call for cap in captures for call in cap.calls]
                items.update(_fit_items(f"{name}/seed={seed}/op{i}", result, report, out.rho))
    return items


def _suite_items(maxlik, measurement, training, walk, suite_seed: int) -> dict:
    """The fits of open_walk_suite in tests/test_acceptance.py, with its arguments
    and its generator's seed."""
    items = {}
    rng = np.random.default_rng(suite_seed)
    bases = measurement.all_basis_unitaries(5)
    for k in range(SUITE_SIZE):
        delta_beta = float(rng.uniform(0.0, np.pi))
        rho = walk.evolve(walk.WalkConfig(5, (np.pi / 4,) * 5, noise="dephasing", delta_beta=delta_beta))
        ds = measurement.generate_dataset(rho, 5)
        params, rep = training.fit_ndo(ds, bases, 12, 15, 15, seed=k,
                                       warmup_iters=400, polish_iters=200, target=rho)
        items.update(_fit_items(f"suite/k={k}/ndo", params, rep))
        state, rep = maxlik.maxlik_fit(ds, bases, seed=k, max_iters=1500, target=rho)
        items.update(_fit_items(f"suite/k={k}/maxlik", state, rep))
    return items


def compare(path_a: Path, path_b: Path) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    mismatched = signed_zeros = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            verdict = f"MISSING in {path_b if key in a else path_a}"
        elif not np.array_equal(a[key], b[key]):
            verdict = "DIFFERS"
        elif a[key].tobytes() != b[key].tobytes():
            verdict = "equal (signed zeros differ)"
            signed_zeros += 1
        else:
            verdict = "equal"
        mismatched += not verdict.startswith("equal")
        print(f"{key:<44} {verdict}")
    total = len(a.keys() | b.keys())
    print(f"{total - mismatched}/{total} items array_equal; {signed_zeros} with signed zeros that differ")
    return 1 if mismatched else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=REPO, help="source tree to run (default: this one)")
    ap.add_argument("--seeds", nargs="+", default=["none", "1", "2"],
                    help="workload seeds; 'none' runs the default instances")
    ap.add_argument("--out", type=Path, help="where to save the outputs (.npz)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two saved runs instead of running one")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("--out is required unless --compare is given")
    seeds = [None if s.lower() == "none" else int(s) for s in args.seeds]
    items = run_tree(args.tree.resolve(), seeds)
    np.savez(args.out, **items)
    print(f"{len(items)} items from {args.tree} saved to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
