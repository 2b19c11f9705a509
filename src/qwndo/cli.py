"""Command-line front end: simulate walks, build datasets, fit states, benchmark.

Exit codes: 0 success, 1 domain or runtime error, 2 usage error. All angles
are radians. Any subcommand accepts --config FILE (JSON mapping long flag
names to values); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
    sp.add_argument("--json", action="store_true", help="emit the summary as JSON")


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
    sp.add_argument("--dephasing-mode", choices=walk.DEPHASING_MODES, default="analytic")
    sp.add_argument("--mc-samples", type=int, default=100_000)
    sp.add_argument("--p", type=float, default=0.0, help="depolarizing probability")
    sp.add_argument("--seed", type=int, default=0)


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
    return walk.WalkConfig(
        n_steps=args.steps,
        coin_angles=angles,
        noise=args.noise,
        w_s=args.w_s,
        w_l=args.w_l,
        delta_beta=args.delta_beta,
        dephasing_mode=args.dephasing_mode,
        mc_samples=args.mc_samples,
        p=args.p,
        seed=args.seed,
    )


def _network_sizes(args) -> tuple[int, int]:
    """Hidden/ancillary defaults: 10, or 15 when the noise flag implies an open walk."""
    default = 15 if getattr(args, "noise", "none") in OPEN_NOISE else 10
    hidden = args.hidden if args.hidden is not None else default
    ancillary = args.ancillary if args.ancillary is not None else default
    return hidden, ancillary


def _train_config(args, optimizer: str | None = None) -> training.TrainConfig:
    return training.TrainConfig(
        optimizer=optimizer or args.optimizer,
        grad_tol=args.grad_tol,
        max_iters=args.max_iters,
        metric_eps=args.metric_eps,
        init_scale=args.init_scale,
        seed=args.seed,
    )


def _check_steps(flag_steps, file_steps: int, what: str) -> None:
    if flag_steps is not None and flag_steps != file_steps:
        raise ValueError(f"--steps says N={flag_steps} but {what} has N={file_steps}")


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
    ds = measurement.load_dataset(args.dataset)
    _check_steps(args.steps, ds.n_steps, f"dataset {args.dataset}")
    bases = measurement.all_basis_unitaries(ds.n_steps)
    d = 2 * (ds.n_steps + 1)
    m_h, m_a = _network_sizes(args)
    target = None
    if args.target:
        target, _ = fileio.load_state(args.target)
    config = _train_config(args)
    init = ndo.init_params(d, m_h, m_a, scale=config.init_scale, seed=config.seed)
    params, report = training.optimize(config, ds, bases, init, target=target)
    if args.checkpoint:
        ndo.save_checkpoint(params, args.checkpoint)
    if args.report:
        report.save_json(args.report)
    if args.report_csv:
        report.save_csv(args.report_csv)
    summary = {
        "optimizer": config.optimizer,
        "hidden": m_h,
        "ancillary": m_a,
        "iterations": report.iterations,
        "termination": report.termination,
        "final_cost": report.final_cost,
        "final_grad_norm": report.final_grad_norm,
    }
    if target is not None:
        summary.update(fidelity=report.fidelity, purity=report.purity,
                       purity_error=report.purity_error)
    _emit(args, summary)
    return 0


def cmd_maxlik(args) -> int:
    ds = measurement.load_dataset(args.dataset)
    _check_steps(args.steps, ds.n_steps, f"dataset {args.dataset}")
    bases = measurement.all_basis_unitaries(ds.n_steps)
    target = None
    if args.target:
        target, _ = fileio.load_state(args.target)
    rho, report = maxlik.maxlik_fit(
        ds, bases, seed=args.seed, grad_tol=args.grad_tol,
        max_iters=args.max_iters, target=target,
    )
    if args.out_state:
        fileio.save_state(rho, args.out_state, n_steps=ds.n_steps)
    if args.report:
        report.save_json(args.report)
    if args.report_csv:
        report.save_csv(args.report_csv)
    summary = {
        "iterations": report.iterations,
        "termination": report.termination,
        "final_cost": report.final_cost,
        "final_grad_norm": report.final_grad_norm,
        "purity": metrics.purity(rho),
    }
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


def _run_all_optimizers(ds, bases, init, base_config, csv_path, target=None):
    """Same init through every optimizer, cost traces to `csv_path`; returns {name: report}."""
    reports = {}
    for name in training.OPTIMIZERS:
        config = dataclasses.replace(base_config, optimizer=name)
        _, report = training.optimize(config, ds, bases, init, target=target)
        reports[name] = report
    rows = [(i, name, c) for name, report in reports.items() for i, c in enumerate(report.costs)]
    fileio.write_csv(csv_path, ["iter", "optimizer", "cost"], rows)
    return reports


def cmd_bench_opt(args) -> int:
    config = _walk_config(args)
    rho = walk.evolve(config)
    ds = measurement.generate_dataset(rho, config.n_steps)
    bases = measurement.all_basis_unitaries(config.n_steps)
    m_h, m_a = _network_sizes(args)
    train_config = _train_config(args, optimizer="gngd")
    init = ndo.init_params(2 * (config.n_steps + 1), m_h, m_a,
                           scale=train_config.init_scale, seed=args.seed)
    reports = _run_all_optimizers(ds, bases, init, train_config, args.out, target=rho)
    summary = {"bench_csv": args.out}
    for name, report in reports.items():
        summary[f"{name}_iterations"] = report.iterations
        summary[f"{name}_final_cost"] = report.final_cost
        summary[f"{name}_fidelity"] = report.fidelity
    _emit(args, summary)
    return 0


def _fit_instance(rho, n_steps, m_h, m_a, args, run_maxlik=True, seed=0):
    """Exact dataset from rho, NDO fit, optional MaxLik fit; returns metric dict."""
    ds = measurement.generate_dataset(rho, n_steps)
    bases = measurement.all_basis_unitaries(n_steps)
    params, report = training.fit_ndo(
        ds, bases, 2 * (n_steps + 1), m_h, m_a, seed=seed,
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
            m = 15 if scenario == "dephasing" else 10
            res = _fit_instance(rho, n, m, m, args, seed=args.seed + 7 * s)
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
            res = _fit_instance(rho, n, 15, 15, args, run_maxlik=False, seed=args.seed + 13 * s)
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
    n = 30 if args.full else args.steps
    if args.full and (args.hidden is None or args.ancillary is None):
        raise ValueError("--full requires explicit --hidden and --ancillary")
    m_h = args.hidden if args.hidden is not None else 10
    m_a = args.ancillary if args.ancillary is not None else 10
    config = walk.WalkConfig(n, (np.pi / 4,) * n)
    rho = walk.evolve(config)
    ds = measurement.generate_dataset(rho, n)
    bases = measurement.all_basis_unitaries(n)
    base_config = training.TrainConfig(
        optimizer="gngd", grad_tol=args.grad_tol, max_iters=args.max_iters, seed=args.seed,
    )
    init = ndo.init_params(2 * (n + 1), m_h, m_a, scale=base_config.init_scale, seed=args.seed)
    reports = _run_all_optimizers(ds, bases, init, base_config, out_dir / "fig5_cost.csv")
    gd_level = reports["gd"].final_cost
    summary = {"gd_final_cost": gd_level, "csv": str(out_dir / "fig5_cost.csv")}
    for name, report in reports.items():
        reached = next((i for i, c in enumerate(report.costs) if c <= gd_level), None)
        summary[f"{name}_iters_to_gd_level"] = reached if reached is not None else "not reached"
        summary[f"{name}_final_cost"] = report.final_cost
    return summary


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir or f"reproduce_{args.preset}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.preset == "fig3":
        summary = _reproduce_fig3(args, out_dir)
    elif args.preset == "fig4":
        summary = _reproduce_fig4(args, out_dir)
    else:
        summary = _reproduce_fig5(args, out_dir)
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key}: {value}\n")
    _emit(args, summary)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="qwndo",
        description="Open quantum-walk simulation and neural-density-operator tomography "
                    "(all angles in radians)",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    sp = subs.add_parser("simulate", help="evolve a walk and write the final state")
    _add_walk_flags(sp)
    sp.add_argument("--out", help="state file to write")
    sp.add_argument("--marginal-csv", help="CSV of the position marginal")
    _add_common(sp)
    sp.set_defaults(handler=cmd_simulate)
    registry["simulate"] = sp

    sp = subs.add_parser("gen-data", help="measure a state file in every basis")
    sp.add_argument("--steps", type=int, help="expected N (checked against the state file)")
    sp.add_argument("--from-state", required=True, help="state file to measure")
    sp.add_argument("--shots", type=int, help="multinomial sample size (default: exact)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="dataset file to write")
    _add_common(sp)
    sp.set_defaults(handler=cmd_gen_data)
    registry["gen-data"] = sp

    sp = subs.add_parser("train", help="fit the network ansatz to a dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--steps", type=int, help="expected N (checked against the dataset)")
    sp.add_argument("--optimizer", choices=training.OPTIMIZERS, default="gngd")
    sp.add_argument("--hidden", type=int, help="hidden units (default 10; 15 for open noise)")
    sp.add_argument("--ancillary", type=int, help="ancilla units (default 10; 15 for open noise)")
    sp.add_argument("--noise", choices=walk.NOISE_KINDS, default="none",
                    help="walk noise the dataset came from; sets size defaults only")
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=2000)
    sp.add_argument("--metric-eps", type=float, default=1e-6)
    sp.add_argument("--init-scale", type=float, default=0.01)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--checkpoint", help="parameter checkpoint file to write")
    sp.add_argument("--report", help="training report JSON to write")
    sp.add_argument("--report-csv", help="per-iteration trace CSV to write")
    sp.add_argument("--target", help="reference state file for final metrics")
    _add_common(sp)
    sp.set_defaults(handler=cmd_train)
    registry["train"] = sp

    sp = subs.add_parser("maxlik", help="maximum-likelihood fit of a dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-state", help="reconstructed state file to write")
    sp.add_argument("--report", help="training report JSON to write")
    sp.add_argument("--report-csv")
    sp.add_argument("--target", help="reference state file for final metrics")
    _add_common(sp)
    sp.set_defaults(handler=cmd_maxlik)
    registry["maxlik"] = sp

    sp = subs.add_parser("evaluate", help="metrics of a reconstruction vs a reference")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", help="network checkpoint to evaluate")
    group.add_argument("--state", help="state file to evaluate")
    sp.add_argument("--reference", help="reference state file")
    sp.add_argument("--dataset", help="dataset for the classical similarity")
    _add_common(sp)
    sp.set_defaults(handler=cmd_evaluate)
    registry["evaluate"] = sp

    sp = subs.add_parser("bench-opt", help="compare all four optimizers on one dataset")
    _add_walk_flags(sp)
    sp.add_argument("--hidden", type=int)
    sp.add_argument("--ancillary", type=int)
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=200)
    sp.add_argument("--metric-eps", type=float, default=1e-6)
    sp.add_argument("--init-scale", type=float, default=0.01)
    sp.add_argument("--out", required=True, help="combined cost-trace CSV")
    _add_common(sp)
    sp.set_defaults(handler=cmd_bench_opt)
    registry["bench-opt"] = sp

    sp = subs.add_parser("reproduce", help="desk-scale reruns of the reported figures")
    sp.add_argument("preset", choices=("fig3", "fig4", "fig5"))
    sp.add_argument("--max-steps", type=int, default=5, help="fig3: largest N")
    sp.add_argument("--samples", type=int, default=5, help="instances per scenario point")
    sp.add_argument("--steps", type=int, default=10, help="fig5: walk length")
    sp.add_argument("--full", action="store_true", help="fig5: paper-scale N=30 run")
    sp.add_argument("--hidden", type=int, help="fig5: hidden units (required with --full)")
    sp.add_argument("--ancillary", type=int, help="fig5: ancilla units (required with --full)")
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=300)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", help="report directory (default reproduce_<preset>)")
    _add_common(sp)
    sp.set_defaults(handler=cmd_reproduce)
    registry["reproduce"] = sp

    return parser, registry


def _apply_config(parser, registry, argv, args):
    """Re-parse with config-file values injected ahead of the explicit flags.

    Inserting the file values as tokens right after the subcommand lets
    argparse's last-occurrence rule give explicit flags precedence.
    """
    with open(args.config, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object of flag values")
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
