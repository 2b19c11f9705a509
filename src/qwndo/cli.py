"""Command-line front end: simulate walks, build datasets, fit states, benchmark.

Exit codes: 0 success, 1 domain or runtime error, 2 usage error. All angles
are radians. Any subcommand accepts --config FILE (JSON mapping long flag
names to values); explicit flags override file values.

This module parses flags, runs the subcommands and prints their summaries.
Every file it names is read and written by `fileio` or by the dataset,
checkpoint and report functions built on it, so a malformed file of any
kind exits with code 1 and an error naming the kind of file.
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
    if getattr(args, "json", False):
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
        angles = tuple(float(tok) for tok in args.angles.split(","))
        if len(angles) != args.steps:
            raise ValueError(f"--angles lists {len(angles)} values for --steps {args.steps}")
    elif args.disordered_seed is not None:
        angles = tuple(walk.disordered_angles(args.steps, args.disordered_seed))
    else:
        alpha = args.alpha if args.alpha is not None else np.pi / 4
        angles = (alpha,) * args.steps
    channel_flags = (("--w-s", args.w_s, "mixing"), ("--w-l", args.w_l, "mixing"),
                     ("--delta-beta", args.delta_beta, "dephasing"), ("--p", args.p, "depolarizing"))
    for flag, value, kind in channel_flags:  # each applies to one noise kind only
        if value != 0.0 and args.noise != kind:
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


def _network_size(noise: str) -> int:
    """Default hidden and ancilla units: 15 for an open walk, otherwise 10."""
    return 15 if noise in OPEN_NOISE else 10


def _network_sizes(args) -> tuple[int, int]:
    """--hidden/--ancillary, defaulting by --noise on subcommands that have it."""
    default = _network_size(getattr(args, "noise", "none"))
    hidden = args.hidden if args.hidden is not None else default
    ancillary = args.ancillary if args.ancillary is not None else default
    for flag, value in (("--hidden", hidden), ("--ancillary", ancillary)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    return hidden, ancillary


def _train_config(args, **fields) -> training.TrainConfig:
    return training.TrainConfig(grad_tol=args.grad_tol, max_iters=args.max_iters, **fields)


def _check_steps(flag_steps, file_steps: int, what: str) -> None:
    if flag_steps is not None and flag_steps != file_steps:
        raise ValueError(f"--steps says N={flag_steps} but {what} has N={file_steps}")


def _load_fit_inputs(args):
    """The --dataset checked against --steps, its basis tables and the --target state or None."""
    ds = measurement.load_dataset(args.dataset)
    _check_steps(args.steps, ds.n_steps, f"dataset {args.dataset}")
    bases = measurement.all_basis_unitaries(ds.n_steps)
    target = fileio.load_state(args.target)[0] if args.target else None
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

def cmd_simulate(args) -> int:
    config = _walk_config(args)
    rho = walk.evolve(config)
    if args.out:
        fileio.save_state(rho, args.out, n_steps=config.n_steps)
    if args.marginal_csv:
        marg = walk.position_marginal(rho)
        fileio.write_csv(
            args.marginal_csv, ["site", "probability"],
            [(l, float(p)) for l, p in enumerate(marg)],
        )
    _emit(args, {
        "n_steps": config.n_steps,
        "dim": walk.dim(config.n_steps),
        "noise": config.noise,
        "purity": metrics.purity(rho),
        "trace": float(np.trace(rho).real),
        "state_file": args.out or "",
        "marginal_csv": args.marginal_csv or "",
    })
    return 0


def cmd_gen_data(args) -> int:
    rho, file_steps = fileio.load_state(args.from_state)
    _check_steps(args.steps, file_steps, f"state file {args.from_state}")
    ds = measurement.generate_dataset(rho, file_steps, shots=args.shots, seed=args.seed)
    measurement.save_dataset(ds, args.out)
    _emit(args, {
        "n_steps": file_steps,
        "n_bases": measurement.n_bases(file_steps),
        "shots": args.shots if args.shots is not None else "",
        "dataset": args.out,
    })
    return 0


def cmd_train(args) -> int:
    ds, bases, target = _load_fit_inputs(args)
    m_h, m_a = _network_sizes(args)
    config = _train_config(args, optimizer=args.optimizer)
    init = ndo.init_params(2 * (ds.n_steps + 1), m_h, m_a, seed=args.seed)
    params, report = training.optimize((config,), ds, bases, init, target=target)
    if args.checkpoint:
        ndo.save_checkpoint(params, args.checkpoint)
    summary = {"optimizer": config.optimizer, "hidden": m_h, "ancillary": m_a,
               **_report_fit(args, report)}
    if target is not None:
        summary.update(fidelity=report.fidelity, purity=report.purity,
                       purity_error=report.purity_error)
    _emit(args, summary)
    return 0


def cmd_maxlik(args) -> int:
    ds, bases, target = _load_fit_inputs(args)
    rho, report = maxlik.maxlik_fit(
        ds, bases, seed=args.seed, grad_tol=args.grad_tol,
        max_iters=args.max_iters, target=target,
    )
    if args.out_state:
        fileio.save_state(rho, args.out_state, n_steps=ds.n_steps)
    summary = {**_report_fit(args, report), "purity": metrics.purity(rho)}
    if target is not None:
        summary.update(fidelity=report.fidelity, purity_error=report.purity_error)
    _emit(args, summary)
    return 0


def cmd_evaluate(args) -> int:
    if args.checkpoint:
        params = ndo.load_checkpoint(args.checkpoint)
        rho = ndo.density_matrix(params)
        n_steps = params.dim // 2 - 1
        source = f"checkpoint {args.checkpoint}"
    else:
        rho, n_steps = fileio.load_state(args.state)
        source = f"state file {args.state}"
    summary: dict = {"dim": rho.shape[0], "purity": metrics.purity(rho)}
    if args.reference:
        ref, _ = fileio.load_state(args.reference)
        summary["fidelity"] = metrics.fidelity(rho, ref)
        summary["purity_error"] = metrics.purity_error(rho, ref)
    if args.dataset:
        ds = measurement.load_dataset(args.dataset)
        if n_steps != ds.n_steps:
            raise ValueError(f"{source} has N={n_steps} but dataset {args.dataset} has N={ds.n_steps}")
        model_ds = measurement.generate_dataset(rho, ds.n_steps)
        summary["similarity"] = metrics.classical_similarity(model_ds, ds)
    _emit(args, summary)
    return 0


def _compare_optimizers(args, config: walk.WalkConfig, csv_path) -> dict:
    """Every optimizer from one `init_params` start on the walk's exact dataset.

    Writes the cost traces to `csv_path`; returns {optimizer: report}, each
    scored against the walk's state.
    """
    rho = walk.evolve(config)
    ds = measurement.generate_dataset(rho, config.n_steps)
    bases = measurement.all_basis_unitaries(config.n_steps)
    m_h, m_a = _network_sizes(args)
    init = ndo.init_params(2 * (config.n_steps + 1), m_h, m_a, seed=args.seed)
    reports = {}
    for name in training.OPTIMIZERS:
        train_config = _train_config(args, optimizer=name)
        _, reports[name] = training.optimize((train_config,), ds, bases, init, target=rho)
    rows = [(i, name, c) for name, report in reports.items() for i, c in enumerate(report.costs)]
    fileio.write_csv(csv_path, ["iter", "optimizer", "cost"], rows)
    return reports


def cmd_bench_opt(args) -> int:
    reports = _compare_optimizers(args, _walk_config(args), args.out)
    summary = {"bench_csv": args.out}
    for name, report in reports.items():
        summary[f"{name}_iterations"] = report.iterations
        summary[f"{name}_final_cost"] = report.final_cost
        summary[f"{name}_fidelity"] = report.fidelity
    _emit(args, summary)
    return 0


def _fit_instance(rho, n_steps, m, args, run_maxlik=True, seed=0):
    """Exact dataset from rho, NDO fit with m + m units, optional MaxLik fit; returns metrics."""
    ds = measurement.generate_dataset(rho, n_steps)
    bases = measurement.all_basis_unitaries(n_steps)
    params, report = training.fit_ndo(
        ds, bases, 2 * (n_steps + 1), m, m, seed=seed,
        warmup_iters=args.max_iters, polish_iters=args.max_iters,
        grad_tol=args.grad_tol, target=rho,
    )
    out = {
        "fidelity_ndo": report.fidelity,
        "purity_error_ndo": report.purity_error,
        "purity_ndo": report.purity,
    }
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
            res = _fit_instance(rho, n, _network_size(config.noise), args, seed=args.seed + 7 * s)
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
    n = 5
    rows = []
    for db in DELTA_BETA_PRESET:
        config = walk.WalkConfig(n, (np.pi / 4,) * n, noise="dephasing", delta_beta=db)
        rho = walk.evolve(config)
        fids, purs = [], []
        for s in range(args.samples):
            res = _fit_instance(rho, n, _network_size(config.noise), args,
                                run_maxlik=False, seed=args.seed + 13 * s)
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


def _reproduce_fig5(args, out_dir: Path) -> dict:
    n = args.steps
    csv_path = out_dir / "fig5_cost.csv"
    reports = _compare_optimizers(args, walk.WalkConfig(n, (np.pi / 4,) * n), csv_path)
    gd_level = reports["gd"].final_cost
    summary = {"gd_final_cost": gd_level, "csv": str(csv_path)}
    for name, report in reports.items():
        reached = next((i for i, c in enumerate(report.costs) if c <= gd_level), None)
        summary[f"{name}_iters_to_gd_level"] = reached if reached is not None else "not reached"
        summary[f"{name}_final_cost"] = report.final_cost
    return summary


REPRODUCE_PRESETS = {"fig3": _reproduce_fig3, "fig4": _reproduce_fig4, "fig5": _reproduce_fig5}


def cmd_reproduce(args) -> int:
    for flag, value in (("--samples", args.samples), ("--max-steps", args.max_steps)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    out_dir = Path(args.out_dir or f"reproduce_{args.preset}")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = REPRODUCE_PRESETS[args.preset](args, out_dir)
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key}: {value}\n")
    _emit(args, summary)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_fit_flags(sp, max_iters: int, seed_help: str | None = None) -> None:
    """--grad-tol/--max-iters/--seed of the subcommands that run an optimizer."""
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=max_iters)
    sp.add_argument("--seed", type=int, default=0, help=seed_help)


def _add_size_flags(sp, help_fmt: str | None = None) -> None:
    """--hidden/--ancillary; `help_fmt` is formatted with the kind of unit."""
    for flag, unit in (("--hidden", "hidden"), ("--ancillary", "ancilla")):
        sp.add_argument(flag, type=int, help=help_fmt.format(unit) if help_fmt else None)


def _add_dataset_flags(sp, steps_help: str | None = None, csv_help: str | None = None) -> None:
    """The input and report flags of the subcommands that fit a dataset."""
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--steps", type=int, help=steps_help)
    sp.add_argument("--report", help="training report JSON to write")
    sp.add_argument("--report-csv", help=csv_help)
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

    sp = add("train", cmd_train, "fit the network ansatz to a dataset")
    _add_dataset_flags(sp, steps_help="expected N (checked against the dataset)",
                       csv_help="per-iteration trace CSV to write")
    _add_fit_flags(sp, max_iters=2000)
    _add_size_flags(sp, "{} units (default 10; 15 for open noise)")
    sp.add_argument("--optimizer", choices=training.OPTIMIZERS, default="gngd")
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

    sp = add("bench-opt", cmd_bench_opt, "compare all four optimizers on one dataset")
    _add_walk_flags(sp)
    _add_size_flags(sp)
    _add_fit_flags(sp, max_iters=200, seed_help="seed of the shared initialization")
    sp.add_argument("--out", required=True, help="combined cost-trace CSV")

    sp = add("reproduce", cmd_reproduce, "desk-scale reruns of the reported figures")
    sp.add_argument("preset", choices=tuple(REPRODUCE_PRESETS))
    sp.add_argument("--max-steps", type=int, default=5, help="fig3: largest N")
    sp.add_argument("--samples", type=int, default=5, help="instances per scenario point")
    sp.add_argument("--steps", type=int, default=10, help="fig5: walk length")
    _add_size_flags(sp, "fig5: {} units (default 10)")
    _add_fit_flags(sp, max_iters=300)
    sp.add_argument("--out-dir", help="report directory (default reproduce_<preset>)")

    return parser, subs.choices


def _apply_config(parser, registry, argv, args):
    """Re-parse with config-file values injected ahead of the explicit flags.

    Inserting the file values as tokens right after the subcommand lets
    argparse's last-occurrence rule give explicit flags precedence.
    """
    values = fileio.read_json(args.config, "config file")
    by_dest = {
        action.dest: action
        for action in registry[args.command]._actions
        if action.option_strings
    }
    tokens = []
    for key, value in values.items():
        action = by_dest.get(key.replace("-", "_"))
        if action is None or key.replace("-", "_") == "config":
            raise ValueError(f"config file sets unknown flag {key!r} for {args.command!r}")
        if isinstance(action, argparse._StoreTrueAction):
            if value:
                tokens.append(action.option_strings[0])
        else:
            tokens.extend([action.option_strings[0], str(value)])
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _apply_config(parser, registry, argv, args)
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
