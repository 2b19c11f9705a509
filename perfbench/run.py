"""qwndo benchmark: one workload per invocation, results as one JSON line.

    python3 perfbench/run.py --workload recon-n5 --seed 1 --seconds 45 --trace 0

--trace 0 measures the end-to-end metrics: set-up time over several fresh
processes, then one fresh process that runs the workload's ops in a closed
loop (one client, one op after another), in rounds, for --seconds. A fixed
reference kernel runs between ops; each op's time is corrected by the
kernel's time around it, so that the host's slow phases, which last seconds
to minutes, do not decide the result (see `corrected_op_s`). Every output is
checked (physical state, fidelity in [0, 1], finite non-increasing cost
trace); a failed check or an op that raises counts in `failed`.

--trace 1 runs one round twice in fresh processes, untraced and then
traced, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced wall time of the whole pass).

Metric names and units come from BENCHMARK.json. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines before it give every
metric with its sample count and the machine it ran on. This script imports
only the standard library; the numerics run in perfbench/worker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
# Half the set-up probes run before the ops and half after, so that they
# sample the host at two times about a run apart.
SETUP_SAMPLES = 6
# A worker may run --seconds of ops plus set-up and the op in flight.
WORKER_MARGIN_S = 150
# One BLAS thread: on a shared 2-core host, two threads were slower at N=5
# (3.4-4.2 s against 2.1-2.7 s for a 150-iteration fit_ndo) and ran 15-25x
# slower while another process was busy on the second core.
BLAS_THREADS = 1
# Printed with their sample counts but not in BENCHMARK.json: their spread
# across seeds spans orders of magnitude (final cost 1e-8..1e-3 on recon-n5)
# or tens of percent (the worst fit of a recon-n5 round, fidelity_min), or
# they are 0 at a healthy commit, so no regression bound fits them. The raw
# op times and the reference kernel's times show the host's speed during the
# run and move with it, so no bound fits them either.
REPORT_ONLY_UNITS = {"purity_err_mean": "1", "final_cost_median": "1", "failed_frac": "1",
                     "fidelity_min": "1", "op_s_raw_p50": "s", "ref_s_p50": "s"}
# The reference kernel's time (worker.reference_s) in a fast phase of the host
# where the bounds were set: a shared 2-core Xeon VM, one BLAS thread.
REF_S = 0.024


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: argparse.Namespace, *extra: str) -> tuple[dict, float]:
    """Run one worker process to completion; returns its record and start time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, *extra]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_MARGIN_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _quality(records: list[dict]) -> dict:
    """Quality of the first round's outputs; later rounds repeat the same ops."""
    ok = [r for r in records if r["round"] == 0 and not r["failed"]]
    fids = [r["fidelity"] for r in ok]
    return {
        "fidelity_mean": (statistics.fmean(fids), len(fids)) if fids else (None, 0),
        "fidelity_min": (min(fids), len(fids)) if fids else (None, 0),
        "purity_err_mean": (statistics.fmean(r["purity_err"] for r in ok), len(ok)) if ok else (None, 0),
        "final_cost_median": (statistics.median(r["final_cost"] for r in ok), len(ok)) if ok else (None, 0),
    }


def tally(records: list[dict]) -> dict:
    """Ops attempted and failed (raised or failed a check), as the result line reports them."""
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    return {"attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "correct": failed == 0}


def corrected_op_s(records: list[dict]) -> list[float]:
    """Each op's time at the host's reference speed: its median over rounds of
    op_s * REF_S / ref_s, in op order.

    The shared host runs in phases, and in a slow one the same code takes up
    to 1.7x as long; a phase can outlast a whole run. The reference kernel
    slows by about the same factor as ops that are short next to a phase
    (0.3-1 s here), so the ratio of such an op's time to the kernel's time
    around it barely depends on the phase.
    """
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["op_s"] * REF_S / r["ref_s"])
    return [statistics.median(by_op[i]) for i in sorted(by_op)]


def end_to_end(args) -> tuple[dict, list[dict], dict]:
    def setup_probe() -> float:
        rec, started = _worker(args, "--mode", "setup")
        return rec["setup_end_monotonic"] - started

    setups = [setup_probe() for _ in range(SETUP_SAMPLES // 2)]
    run, _ = _worker(args, "--mode", "ops", "--seconds", str(args.seconds))
    setups += [setup_probe() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    records = run["records"]
    op_s = corrected_op_s(records)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (sum(op_s), len(records)),
        "op_s_p50": (statistics.median(op_s), len(records)),
        "op_s_max": (max(op_s), len(records)),
        "op_s_raw_p50": (statistics.median(r["op_s"] for r in records), len(records)),
        "ref_s_p50": (statistics.median(r["ref_s"] for r in records), len(records)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        **_quality(records),
    }
    return values, records, run["env"]


def traced(args) -> tuple[dict, list[dict], dict]:
    RESULTS.mkdir(exist_ok=True)
    plain, _ = _worker(args, "--mode", "ops", "--seconds", "0")
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    run, _ = _worker(args, "--mode", "ops", "--seconds", "0", "--trace", "--spans-out", str(spans))
    layers = run["layers"]
    n_ops = len(run["records"])
    values = {name: (value, n_ops) for name, value in layers.items()}
    trials = layers.get("training.linesearch.trials", 0)
    values["training.linesearch.accept_ratio"] = (
        layers.get("training.linesearch.accepted", 0) / trials if trials else 0.0, trials)
    values["trace.wall_s"] = (run["pass_s"], 1)
    values["trace.overhead_s"] = (run["pass_s"] - plain["pass_s"], 1)
    quality = _quality(run["records"])
    values["metrics.purity_error.mean"] = quality["purity_err_mean"]
    values["training.final_cost.median"] = quality["final_cost_median"]
    return values, plain["records"] + run["records"], run["env"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; omitted, recon-n5 runs acceptance instances k=0 and k=4")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qwndo" / "__init__.py").is_file():
        print(f"run.py: no qwndo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, records, env = (traced if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    counts = tally(records)
    values["failed_frac"] = (counts["failed_frac"], counts["attempted"])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print(f"# {'metric':<44}{'value':>16} {'unit':<8}{'n':>6}")
    for name, (value, n) in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# {name:<44}{shown:>16} {units.get(name, 's' if name.endswith('_s') else 'count'):<8}{n:>6}")

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"run.py: BENCHMARK.json lists metrics the harness does not measure: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in listed}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "values": values, "records": records}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": counts["correct"], "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
