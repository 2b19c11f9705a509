"""Command-line front end: simulate walks, build datasets, fit states, benchmark.

`bench-opt` is the paper's optimizer comparison (Fig. 5); `reproduce` reruns
Figs. 3 and 4 at desk scale.

Exit codes: 0 success, 1 any failure (one `error:` line, never a traceback),
2 usage error. All angles are radians. Any subcommand accepts --config FILE
(JSON mapping long flag names to values); explicit flags override file values.

`main` is the one way out of every subcommand: it checks every count and
seed flag against `COUNT_FLOORS`, naming the flag, runs the handler, which
returns its summary, prints that summary and sets the exit code. Every file
it names is read and written by `fileio` or by the dataset, checkpoint and
report functions built on it, so a malformed file of any kind exits with
code 1 and an error naming the file itself, its kind and its path, and the
field at fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio, maxlik, measurement, metrics, ndo, training, walk

OPEN_NOISE = ("mixing", "dephasing", "depolarizing")

DELTA_BETA_PRESET = (0.0, np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=1, default=float))
    else:
        for key, value in payload.items():
            if isinstance(value, float):
                print(f"{key}: {value:.12g}")
            else:
                print(f"{key}: {value}")


def _add_walk_flags(sp) -> None:
    sp.add_argument("--steps", type=int, required=True, help="number of walk steps N")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float, help="constant coin angle (default pi/4)")
    group.add_argument("--angles", help="comma-separated per-step coin angles")
    group.add_argument("--disordered-seed", type=int, help="draw per-step angles uniform on [0, pi]")
    sp.add_argument("--noise", choices=walk.NOISE_KINDS, default="none")
    sp.add_argument("--w-s", type=float, default=0.0, help="coin-projection mixing weight")
    sp.add_argument("--w-l", type=float, default=0.0, help="site-projection mixing weight")
    sp.add_argument("--delta-beta", type=float, default=0.0, help="dephasing range in [0, pi]")
    sp.add_argument("--p", type=float, default=0.0, help="depolarizing probability")


def _walk_config(args) -> walk.WalkConfig:
    if args.angles is not None:
        try:
            angles = tuple(float(tok) for tok in args.angles.split(","))
        except ValueError as exc:
            raise ValueError(f"--angles {args.angles!r}: {exc}") from None
        if len(angles) != args.steps:
            raise ValueError(f"--angles lists {len(angles)} values for --steps {args.steps}")
    elif args.disordered_seed is not None:
        angles = tuple(walk.disordered_angles(args.steps, args.disordered_seed))
    else:
        alpha = args.alpha if args.alpha is not None else np.pi / 4
        angles = (alpha,) * args.steps
    for field, kind in walk.CHANNEL_PARAMS.items():  # named by the flag the user typed
        if getattr(args, field) != 0.0 and args.noise != kind:
            flag = "--" + field.replace("_", "-")
            raise ValueError(f"{flag} applies only to --noise {kind}, got --noise {args.noise}")
    return walk.WalkConfig(
        n_steps=args.steps,
        coin_angles=angles,
        noise=args.noise,
        w_s=args.w_s,
        w_l=args.w_l,
        delta_beta=args.delta_beta,
        p=args.p,
    )


def _network_sizes(noise: str, hidden=None, ancillary=None) -> tuple[int, int]:
    """Hidden and ancilla units: each count given, else 15 for an open walk and 10 otherwise."""
    default = 15 if noise in OPEN_NOISE else 10
    return (default if hidden is None else hidden, default if ancillary is None else ancillary)


def _check_steps(flag_steps, file_steps: int, what: str) -> None:
    if flag_steps is not None and flag_steps != file_steps:
        raise ValueError(f"--steps says N={flag_steps} but {what} has N={file_steps}")


def _load_fit_inputs(args):
    """The --dataset checked against --steps, its basis tables and the --target
    state or None, checked against the dataset before any fit runs."""
    ds = measurement.load_dataset(args.dataset)
    _check_steps(args.steps, ds.n_steps, f"dataset {args.dataset}")
    bases = measurement.all_basis_unitaries(ds.n_steps)
    target = None
    if args.target:
        target, target_steps = fileio.load_state(args.target)
        if target_steps != ds.n_steps:
            raise ValueError(f"state file {args.target} has N={target_steps} "
                             f"but dataset {args.dataset} has N={ds.n_steps}")
    return ds, bases, target


def _report_fit(args, report: training.TrainReport) -> dict:
    """Write --report and --report-csv; returns the summary fields of every fit."""
    if args.report:
        report.save_json(args.report)
    if args.report_csv:
        report.save_csv(args.report_csv)
    return {
        "iterations": report.iterations,
        "termination": report.termination,
        "final_cost": report.final_cost,
        "final_grad_norm": report.final_grad_norm,
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> dict:
    config = _walk_config(args)
    rho = walk.evolve(config)
    if args.out:
        fileio.save_state(rho, args.out)
    if args.marginal_csv:
        marg = walk.position_marginal(rho)
        fileio.write_csv(
            args.marginal_csv, ["site", "probability"],
            [(l, float(p)) for l, p in enumerate(marg)],
        )
    return {
        "n_steps": config.n_steps,
        "dim": walk.dim(config.n_steps),
        "noise": config.noise,
        "purity": metrics.purity(rho),
        "trace": float(np.trace(rho).real),
        "state_file": args.out or "",
        "marginal_csv": args.marginal_csv or "",
    }


def cmd_gen_data(args) -> dict:
    rho, file_steps = fileio.load_state(args.from_state)
    _check_steps(args.steps, file_steps, f"state file {args.from_state}")
    ds = measurement.generate_dataset(rho, file_steps, shots=args.shots, seed=args.seed)
    measurement.save_dataset(ds, args.out)
    return {
        "n_steps": file_steps,
        "n_bases": measurement.n_bases(file_steps),
        "shots": args.shots if args.shots is not None else "",
        "dataset": args.out,
    }


def _fit_ndo(args, ds, bases, sizes: tuple[int, int], seed: int, target):
    """`training.fit_ndo` with sizes = (hidden, ancilla) units and --max-iters
    capping each phase; returns (params, report)."""
    return training.fit_ndo(ds, bases, bases.dim, *sizes, seed=seed, target=target,
                            warmup_iters=args.max_iters, polish_iters=args.max_iters,
                            grad_tol=args.grad_tol)


def cmd_train(args) -> dict:
    ds, bases, target = _load_fit_inputs(args)
    m_h, m_a = _network_sizes(args.noise, args.hidden, args.ancillary)
    params, report = _fit_ndo(args, ds, bases, (m_h, m_a), args.seed, target)
    if args.checkpoint:
        ndo.save_checkpoint(params, args.checkpoint)
    summary = {"optimizer": report.optimizer, "hidden": m_h, "ancillary": m_a,
               **_report_fit(args, report)}
    if target is not None:
        summary.update(fidelity=report.fidelity, purity=report.purity,
                       purity_error=report.purity_error)
    return summary


def cmd_maxlik(args) -> dict:
    ds, bases, target = _load_fit_inputs(args)
    rho, report = maxlik.maxlik_fit(
        ds, bases, seed=args.seed, grad_tol=args.grad_tol,
        max_iters=args.max_iters, target=target,
    )
    if args.out_state:
        fileio.save_state(rho, args.out_state)
    summary = {**_report_fit(args, report), "purity": metrics.purity(rho)}
    if target is not None:
        summary.update(fidelity=report.fidelity, purity_error=report.purity_error)
    return summary


def cmd_evaluate(args) -> dict:
    if args.checkpoint:
        params = ndo.load_checkpoint(args.checkpoint)
        rho = ndo.density_matrix(params)
        source = f"checkpoint {args.checkpoint} has dimension {params.dim}"
    else:
        rho, n_steps = fileio.load_state(args.state)
        source = f"state file {args.state} has N={n_steps}"
    summary: dict = {"dim": rho.shape[0], "purity": metrics.purity(rho)}
    if args.reference:
        ref, ref_steps = fileio.load_state(args.reference)
        if rho.shape != ref.shape:
            raise ValueError(f"{source} but reference {args.reference} has N={ref_steps}, "
                             f"dimension {ref.shape[0]}")
        summary["fidelity"] = metrics.fidelity(rho, ref)
        summary["purity_error"] = metrics.purity_error(rho, ref)
    if args.dataset:
        ds = measurement.load_dataset(args.dataset)
        if rho.shape[0] != walk.dim(ds.n_steps):
            raise ValueError(f"{source} but dataset {args.dataset} has N={ds.n_steps}, "
                             f"dimension {walk.dim(ds.n_steps)}")
        model_ds = measurement.generate_dataset(rho, ds.n_steps)
        summary["similarity"] = metrics.classical_similarity(model_ds, ds)
    return summary


def cmd_bench_opt(args) -> dict:
    """Every optimizer from one `init_params` start on the walk's exact dataset.

    Writes the cost traces to --out. Each optimizer's summary names the first
    iteration whose cost is at most GD's final cost, and its fidelity to the
    walk's state.
    """
    config = _walk_config(args)
    rho = walk.evolve(config)
    ds = measurement.generate_dataset(rho, config.n_steps)
    bases = measurement.all_basis_unitaries(config.n_steps)
    m_h, m_a = _network_sizes(args.noise, args.hidden, args.ancillary)
    init = ndo.init_params(bases.dim, m_h, m_a, seed=args.seed)
    reports = {}
    for name in training.OPTIMIZERS:
        train_config = training.TrainConfig(name, args.grad_tol, args.max_iters)
        _, reports[name] = training.optimize((train_config,), ds, bases, init, target=rho)
    rows = [(i, name, c) for name, report in reports.items() for i, c in enumerate(report.costs)]
    fileio.write_csv(args.out, ["iter", "optimizer", "cost"], rows)
    gd_level = reports["gd"].final_cost
    summary = {"bench_csv": args.out}
    for name, report in reports.items():
        summary[f"{name}_iterations"] = report.iterations
        summary[f"{name}_iters_to_gd_level"] = next(
            (i for i, c in enumerate(report.costs) if c <= gd_level), "not reached")
        summary[f"{name}_final_cost"] = report.final_cost
        summary[f"{name}_fidelity"] = report.fidelity
    return summary


def _fit_instance(rho, n_steps, noise, args, seed, run_maxlik=True):
    """Exact dataset from rho, NDO fit at the default sizes of the walk's noise,
    optional MaxLik fit; returns metrics."""
    ds = measurement.generate_dataset(rho, n_steps)
    bases = measurement.all_basis_unitaries(n_steps)
    _, report = _fit_ndo(args, ds, bases, _network_sizes(noise), seed, rho)
    out = {"fidelity_ndo": report.fidelity, "purity_error_ndo": report.purity_error,
           "purity_ndo": report.purity}
    if run_maxlik:
        _, ml_report = maxlik.maxlik_fit(
            ds, bases, seed=seed, grad_tol=args.grad_tol,
            max_iters=args.max_iters, target=rho,
        )
        out["fidelity_maxlik"] = ml_report.fidelity
        out["purity_error_maxlik"] = ml_report.purity_error
    return out


def _reproduce_fig3(args, out_dir: Path) -> dict:
    rows = []
    for n in range(1, args.max_steps + 1):
        scenarios = [("hadamard", 0, walk.WalkConfig(n, (np.pi / 4,) * n))]
        for s in range(args.samples):
            angles = tuple(walk.disordered_angles(n, args.seed + 1000 * s + n))
            scenarios.append(("disordered", s, walk.WalkConfig(n, angles)))
        rng = np.random.default_rng(args.seed + n)
        for s in range(args.samples):
            db = float(rng.uniform(0.0, np.pi))
            scenarios.append(
                ("dephasing", s,
                 walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=db))
            )
        for scenario, s, config in scenarios:
            rho = walk.evolve(config)
            res = _fit_instance(rho, n, config.noise, args, seed=args.seed + 7 * s)
            rows.append((
                scenario, n, s,
                res["fidelity_ndo"], res["purity_error_ndo"],
                res["fidelity_maxlik"], res["purity_error_maxlik"],
            ))
    fileio.write_csv(
        out_dir / "fig3_fidelity.csv",
        ["scenario", "n_steps", "sample", "fidelity_ndo", "purity_error_ndo",
         "fidelity_maxlik", "purity_error_maxlik"],
        rows,
    )
    fid_ndo = [r[3] for r in rows]
    fid_ml = [r[5] for r in rows]
    return {
        "rows": len(rows),
        "mean_fidelity_ndo": float(np.mean(fid_ndo)),
        "min_fidelity_ndo": float(np.min(fid_ndo)),
        "mean_fidelity_maxlik": float(np.mean(fid_ml)),
        "csv": str(out_dir / "fig3_fidelity.csv"),
    }


def _reproduce_fig4(args, out_dir: Path) -> dict:
    n = args.max_steps
    rows = []
    for db in DELTA_BETA_PRESET:
        config = walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=db)
        rho = walk.evolve(config)
        fids, purs = [], []
        for s in range(args.samples):
            res = _fit_instance(rho, n, config.noise, args, run_maxlik=False,
                                seed=args.seed + 13 * s)
            fids.append(res["fidelity_ndo"])
            purs.append(res["purity_ndo"])
        rows.append((float(db), metrics.purity(rho), float(np.mean(purs)), float(np.mean(fids))))
    fileio.write_csv(
        out_dir / "fig4_purity.csv",
        ["delta_beta", "purity_theory", "purity_ndo", "fidelity_ndo"],
        rows,
    )
    worst = float(np.max([abs(r[1] - r[2]) for r in rows]))
    return {
        "rows": len(rows),
        "max_purity_gap": worst,
        "mean_fidelity_ndo": float(np.mean([r[3] for r in rows])),
        "csv": str(out_dir / "fig4_purity.csv"),
    }


REPRODUCE_PRESETS = {"fig3": _reproduce_fig3, "fig4": _reproduce_fig4}


def cmd_reproduce(args) -> dict:
    # --grad-tol is checked before the report directory is created
    training.TrainConfig(grad_tol=args.grad_tol)
    out_dir = Path(args.out_dir or f"reproduce_{args.preset}")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = REPRODUCE_PRESETS[args.preset](args, out_dir)
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key}: {value}\n")
    return summary


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_fit_flags(sp, max_iters: int, seed_help: str | None = None) -> None:
    """--grad-tol/--max-iters/--seed of the subcommands that run an optimizer."""
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=max_iters)
    sp.add_argument("--seed", type=int, default=0, help=seed_help)


def _add_size_flags(sp) -> None:
    """--hidden/--ancillary, whose defaults --noise sets."""
    for flag, unit in (("--hidden", "hidden"), ("--ancillary", "ancilla")):
        sp.add_argument(flag, type=int, help=f"{unit} units (default 10; 15 for open noise)")


def _add_dataset_flags(sp) -> None:
    """The input and report flags of the subcommands that fit a dataset."""
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--steps", type=int, help="expected N (checked against the dataset)")
    sp.add_argument("--report", help="training report JSON to write")
    sp.add_argument("--report-csv", help="per-iteration trace CSV to write")
    sp.add_argument("--target", help="reference state file for final metrics")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="qwndo",
        description="Open quantum-walk simulation and neural-density-operator tomography "
                    "(all angles in radians)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sp = subs.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
        sp.add_argument("--json", action="store_true", help="emit the summary as JSON")
        return sp

    sp = add("simulate", cmd_simulate, "evolve a walk and write the final state")
    _add_walk_flags(sp)
    sp.add_argument("--out", help="state file to write")
    sp.add_argument("--marginal-csv", help="CSV of the position marginal")

    sp = add("gen-data", cmd_gen_data, "measure a state file in every basis")
    sp.add_argument("--steps", type=int, help="expected N (checked against the state file)")
    sp.add_argument("--from-state", required=True, help="state file to measure")
    sp.add_argument("--shots", type=int, help="multinomial sample size (default: exact)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="dataset file to write")

    sp = add("train", cmd_train, "fit the network ansatz: L-BFGS from a mixed start, then GNGD")
    _add_dataset_flags(sp)
    _add_fit_flags(sp, max_iters=2000)
    _add_size_flags(sp)
    sp.add_argument("--noise", choices=walk.NOISE_KINDS, default="none",
                    help="walk noise the dataset came from; sets size defaults only")
    sp.add_argument("--checkpoint", help="parameter checkpoint file to write")

    sp = add("maxlik", cmd_maxlik, "maximum-likelihood fit of a dataset")
    _add_dataset_flags(sp)
    _add_fit_flags(sp, max_iters=2000)
    sp.add_argument("--out-state", help="reconstructed state file to write")

    sp = add("evaluate", cmd_evaluate, "metrics of a reconstruction vs a reference")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", help="network checkpoint to evaluate")
    group.add_argument("--state", help="state file to evaluate")
    sp.add_argument("--reference", help="reference state file")
    sp.add_argument("--dataset", help="dataset for the classical similarity")

    sp = add("bench-opt", cmd_bench_opt,
             "compare all four optimizers from one start on a walk's exact data (Fig. 5)")
    _add_walk_flags(sp)
    _add_size_flags(sp)
    _add_fit_flags(sp, max_iters=200, seed_help="seed of the shared initialization")
    sp.add_argument("--out", required=True, help="combined cost-trace CSV")

    sp = add("reproduce", cmd_reproduce,
             "desk-scale reruns of Figs. 3 and 4 (Fig. 5 is bench-opt)")
    sp.add_argument("preset", choices=tuple(REPRODUCE_PRESETS))
    sp.add_argument("--max-steps", type=int, default=5, help="fig3: largest N; fig4: N")
    sp.add_argument("--samples", type=int, default=5, help="instances per scenario point")
    _add_fit_flags(sp, max_iters=300)
    sp.add_argument("--out-dir", help="report directory (default reproduce_<preset>)")

    return parser, subs.choices


def _explicit_flags(argv) -> argparse.Namespace:
    """The command, --config and the flags argv sets itself: a parse in which
    no flag has a default and none is required."""
    parser, registry = build_parser()
    for sub in registry.values():
        # help and usage errors from this parse show the real parser's usage line
        sub.usage = sub.format_usage().removeprefix("usage: ").rstrip("\n")
        for action in sub._actions:
            if action.option_strings:
                action.required, action.default = False, argparse.SUPPRESS
        for group in sub._mutually_exclusive_groups:
            group.required = False
    return parser.parse_args(argv)


def _apply_config(sub, explicit: argparse.Namespace) -> None:
    """Make the config file's values the defaults of the subcommand parser `sub`.

    A value must be a JSON boolean for an on/off flag, else a string or number
    that passes the flag's type and choices. A flag the file sets is no longer
    required. A flag given explicitly, or a flag in a mutually exclusive group
    with one given explicitly, keeps its command-line value: explicit flags win.
    """
    with fileio.reading(explicit.config, "config file") as values:
        pass  # the flag checks below name the file themselves
    by_dest = {action.dest: action for action in sub._actions if action.option_strings}
    where = f"config file {explicit.config} sets"
    groups = {action.dest: group for group in sub._mutually_exclusive_groups
              for action in group._group_actions}
    # member of a group -> the config key that fills it, None for an explicit flag
    owner = {dest: None for dest, group in groups.items()
             if any(a.dest in vars(explicit) for a in group._group_actions)}
    for key, value in values.items():
        action = by_dest.get(key.replace("-", "_"))
        if action is None or action.dest in ("config", "help"):
            raise ValueError(f"{where} unknown flag {key!r} for {explicit.command!r}")
        on_off = isinstance(action, argparse._StoreTrueAction)
        if on_off != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            kind = "a JSON boolean" if on_off else "a JSON string or number"
            raise ValueError(f"{where} {key!r} to {json.dumps(value)}, not {kind}")
        if not on_off:
            try:
                value = sub._get_values(action, [str(value)])  # argparse's own type and choices checks
            except argparse.ArgumentError as exc:
                raise ValueError(f"{where} {key!r}: {exc.message}") from None
        if action.dest in vars(explicit):
            continue
        group = groups.get(action.dest)
        if group is not None:
            if action.dest in owner:
                if owner[action.dest] is None:
                    continue
                raise ValueError(f"{where} both {owner[action.dest]!r} and {key!r}, "
                                 "which exclude each other")
            owner.update((a.dest, key) for a in group._group_actions)
            group.required = False
        action.default, action.required = value, False


# The least value of every count and seed flag, by dest.
COUNT_FLOORS = {"steps": 0, "hidden": 0, "ancillary": 0, "seed": 0, "disordered_seed": 0,
                "shots": 1, "max_iters": 1, "samples": 1, "max_steps": 1}


def _check_counts(args) -> None:
    """Reject a count or seed below its floor, whether a flag or the config
    file set it, by its flag: the library's and NumPy's own errors do not
    name the flag."""
    for dest, floor in COUNT_FLOORS.items():
        value = getattr(args, dest, None)
        if value is not None and value < floor:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= {floor}, got {value}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    explicit = _explicit_flags(argv)
    parser, registry = build_parser()
    try:
        if getattr(explicit, "config", None):
            _apply_config(registry[explicit.command], explicit)
        args = parser.parse_args(argv)
        _check_counts(args)
        _emit(args, args.handler(args))
        return 0
    except (ValueError, RuntimeError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
