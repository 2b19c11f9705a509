"""One benchmark process: set up a workload, run its ops, check every output.

run.py starts this script in a fresh interpreter for every sample, so set-up
time and peak memory belong to one workload alone:

    python3 perfbench/worker.py --workload recon-n5 --seed 3 --mode setup
    python3 perfbench/worker.py --workload recon-n5 --seed 3 --mode ops --seconds 20 [--trace]

`setup` stops after set-up. `ops` runs the workload's ops in a closed loop,
in rounds: each round runs every op once, in order, and rounds repeat until
--seconds have passed. With --seconds 0 it runs one round, so that traced
counts repeat exactly. The last stdout line is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from qwndo import kernels, metrics, walk

import workloads

ROOT = Path(__file__).resolve().parent.parent


def check_op(out) -> tuple[dict, list[str]]:
    """Quality of one op's output and the list of checks it failed."""
    problems = []
    try:
        walk.validate_density_matrix(out.rho)
    except ValueError as exc:
        problems.append(f"reconstructed state: {exc}")
    quality = {"fidelity": None, "purity_err": None, "final_cost": None}
    try:
        quality["fidelity"] = metrics.fidelity(out.rho, out.target)
        quality["purity_err"] = metrics.purity_error(out.rho, out.target)
    except ValueError as exc:
        problems.append(f"fidelity: {exc}")
    fid = quality["fidelity"]
    if fid is not None and not 0.0 <= fid <= 1.0:
        problems.append(f"fidelity {fid!r} outside [0, 1]")
    costs = [float(c) for c in out.costs]
    if not costs or not all(math.isfinite(c) for c in costs):
        problems.append("cost trace is empty or not finite")
    else:
        quality["final_cost"] = costs[-1]
        rises = [i for i in range(1, len(costs)) if costs[i] > costs[i - 1]]
        if rises:
            problems.append(f"cost rises at step {rises[0]}: {costs[rises[0] - 1]!r} -> {costs[rises[0]]!r}")
    return quality, problems


_REF_RNG = np.random.default_rng(0)
_REF_MAT = _REF_RNG.standard_normal((64, 64)) + 1j * _REF_RNG.standard_normal((64, 64))
_REF_VEC = _REF_RNG.standard_normal(50_000)


def reference_s() -> float:
    """Time of a fixed numpy kernel: complex matrix products and elementwise passes.

    The kernel is the benchmark's own code, never the program's. Timed next
    to every op, it tells how fast the host runs at that moment.
    """
    t0 = time.perf_counter()
    m = _REF_MAT
    for _ in range(100):
        m = (_REF_MAT @ m) * 0.125
    v = _REF_VEC
    for _ in range(50):
        v = np.sin(v) + 0.1
    return time.perf_counter() - t0


def run_ops(wl, seconds: float, span) -> list[dict]:
    """Closed loop: op (timed), then check (untimed), one at a time, in rounds.

    Every round runs ops 0..n_ops-1 on the same inputs; a new round starts
    while fewer than `seconds` have passed. Returns one record per op run,
    with the op's time and the reference kernel's time around it: the mean
    of the runs just before and just after the op.
    """
    records = []
    start = time.perf_counter()
    rnd = 0
    ref_before = reference_s()
    while rnd == 0 or time.perf_counter() - start < seconds:
        for i in range(wl.n_ops):
            problems = []
            t0 = time.perf_counter()
            try:
                with span("bench.op"):
                    out = wl.op(i)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                op_s = time.perf_counter() - t0
                out = None
                problems.append("raised " + "".join(traceback.format_exception_only(exc)).strip())
            else:
                op_s = time.perf_counter() - t0
            quality = {}
            if out is not None:
                with span("bench.check"):
                    quality, problems = check_op(out)
            for p in problems:
                print(f"op {i} round {rnd} failed: {p}", file=sys.stderr)
            ref_after = reference_s()
            records.append({"op": i, "round": rnd, "op_s": op_s, "ref_s": (ref_before + ref_after) / 2,
                            "failed": bool(problems), **quality})
            ref_before = ref_after
        rnd += 1
    return records


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str | None:
    """HEAD's commit from the checkout's own .git, loose or packed refs; None outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment(seed) -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "kernels_backend": kernels.active_backend(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--mode", required=True, choices=("setup", "ops"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.span
    pass_start = time.perf_counter()
    with span("bench.setup"):
        wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    result = {"setup_end_monotonic": time.monotonic()}
    if args.mode != "setup":
        result.update(
            records=run_ops(wl, args.seconds, span),
            pass_s=time.perf_counter() - pass_start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(args.seed),
        )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_stats()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
