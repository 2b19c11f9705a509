"""End-to-end CLI contracts: exit codes, files, determinism."""

import json

import numpy as np
import pytest

from qwndo import cli, fileio, measurement, ndo


def run(argv):
    return cli.main(argv)


def read_csv_header(path):
    return path.read_text().splitlines()[0]


@pytest.fixture
def hadamard_state(tmp_path):
    path = tmp_path / "rho.state"
    assert run([
        "simulate", "--steps", "2", "--alpha", "0.7853981633974483",
        "--noise", "none", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture
def small_dataset(tmp_path, hadamard_state):
    path = tmp_path / "ds.json"
    assert run([
        "gen-data", "--steps", "2", "--from-state", str(hadamard_state),
        "--out", str(path),
    ]) == 0
    return path


class TestSimulate:
    def test_writes_state_and_marginal(self, tmp_path, capsys):
        out = tmp_path / "rho.state"
        csv = tmp_path / "pos.csv"
        code = run([
            "simulate", "--steps", "5", "--alpha", "0.7853981634",
            "--noise", "none", "--out", str(out), "--marginal-csv", str(csv),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        purity = float([ln for ln in summary.splitlines() if ln.startswith("purity:")][0].split()[1])
        assert abs(purity - 1.0) <= 1e-10
        assert read_csv_header(csv) == "site,probability"
        rho, n_steps = fileio.load_state(out)
        assert n_steps == 5 and rho.shape == (12, 12)

    def test_full_dephasing_binomial_csv(self, tmp_path):
        import math

        csv = tmp_path / "pos.csv"
        code = run([
            "simulate", "--steps", "5", "--noise", "dephasing",
            "--delta-beta", "3.14159265358979", "--marginal-csv", str(csv),
        ])
        assert code == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        probs = np.array([float(r[1]) for r in rows])
        expected = np.array([math.comb(5, l) for l in range(6)]) / 32.0
        np.testing.assert_allclose(probs, expected, atol=1e-9)

    def test_zero_steps_initial_state(self, tmp_path):
        out = tmp_path / "rho0.state"
        assert run(["simulate", "--steps", "0", "--out", str(out)]) == 0
        rho, _ = fileio.load_state(out)
        assert rho[0, 1] == pytest.approx(-0.5j)

    def test_json_summary(self, capsys):
        assert run(["simulate", "--steps", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_steps"] == 1 and doc["dim"] == 4

    def test_domain_error_exit_one(self, capsys):
        assert run(["simulate", "--steps", "2", "--noise", "dephasing", "--delta-beta", "9.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--steps", "2", "--alpha", "0.1", "--disordered-seed", "3"])
        assert exc.value.code == 2

    def test_deterministic_state_files(self, tmp_path):
        a, b = tmp_path / "a.state", tmp_path / "b.state"
        for p in (a, b):
            run(["simulate", "--steps", "3", "--disordered-seed", "4", "--noise",
                 "dephasing", "--delta-beta", "1.0", "--dephasing-mode", "monte_carlo",
                 "--mc-samples", "2000", "--seed", "9", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()


class TestGenData:
    def test_basis_count(self, small_dataset):
        ds = measurement.load_dataset(small_dataset)
        assert ds.probs.shape == (7, 6)

    def test_n5_has_13_bases(self, tmp_path):
        state = tmp_path / "five.state"
        run(["simulate", "--steps", "5", "--out", str(state)])
        out = tmp_path / "ds5.json"
        assert run(["gen-data", "--from-state", str(state), "--out", str(out)]) == 0
        assert measurement.load_dataset(out).probs.shape == (13, 12)

    def test_steps_mismatch_exit_one(self, tmp_path, hadamard_state, capsys):
        out = tmp_path / "ds.json"
        code = run(["gen-data", "--steps", "4", "--from-state", str(hadamard_state), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "4" in err and "2" in err

    def test_shot_mode_deterministic(self, tmp_path, hadamard_state):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            run(["gen-data", "--from-state", str(hadamard_state), "--shots", "500",
                 "--seed", "3", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()


class TestTrainAndEvaluate:
    def test_train_writes_outputs(self, tmp_path, small_dataset, hadamard_state, capsys):
        ckpt = tmp_path / "fit.ckpt"
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code = run([
            "train", "--dataset", str(small_dataset), "--optimizer", "gngd",
            "--hidden", "4", "--ancillary", "4", "--max-iters", "150",
            "--checkpoint", str(ckpt), "--report", str(report),
            "--report-csv", str(trace), "--target", str(hadamard_state), "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["termination"] in ("grad_tol", "max_iters")
        assert summary["fidelity"] > 0.99
        params = ndo.load_checkpoint(ckpt)
        assert params.dim == 6 and params.m_h == 4
        doc = json.loads(report.read_text())
        assert doc["iterations"] <= 150
        assert read_csv_header(trace) == "iter,cost,grad_norm,step,millis"

    def test_train_steps_mismatch(self, small_dataset, capsys):
        assert run(["train", "--dataset", str(small_dataset), "--steps", "3",
                    "--max-iters", "5"]) == 1
        assert "N=3" in capsys.readouterr().err

    def test_network_size_defaults(self, small_dataset, capsys):
        assert run(["train", "--dataset", str(small_dataset), "--max-iters", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hidden"] == 10 and doc["ancillary"] == 10
        assert run(["train", "--dataset", str(small_dataset), "--noise", "dephasing",
                    "--max-iters", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hidden"] == 15 and doc["ancillary"] == 15

    def test_evaluate_checkpoint(self, tmp_path, small_dataset, hadamard_state, capsys):
        ckpt = tmp_path / "fit.ckpt"
        run(["train", "--dataset", str(small_dataset), "--hidden", "4", "--ancillary", "4",
             "--max-iters", "150", "--checkpoint", str(ckpt)])
        capsys.readouterr()  # drop the train summary
        code = run([
            "evaluate", "--checkpoint", str(ckpt), "--reference", str(hadamard_state),
            "--dataset", str(small_dataset), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelity"] > 0.99
        assert doc["similarity"] > 0.999
        assert 0 < doc["purity"] <= 1.0 + 1e-9

    def test_evaluate_dataset_mismatch_names_state_file(self, tmp_path, hadamard_state, capsys):
        ds = tmp_path / "ds1.json"
        measurement.save_dataset(measurement.generate_dataset(np.eye(4) / 4, 1), ds)
        code = run(["evaluate", "--state", str(hadamard_state), "--dataset", str(ds)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"state file {hadamard_state} has N=2 but dataset {ds} has N=1" in err
        assert "--steps" not in err

    def test_evaluate_non_physical_reference(self, tmp_path, hadamard_state, capsys):
        bad = tmp_path / "bad.state"
        fileio.save_state(np.diag([2.0, -1.0, 0.0, 0.0, 0.0, 0.0]), bad, n_steps=2)
        code = run(["evaluate", "--state", str(hadamard_state), "--reference", str(bad)])
        assert code == 1
        assert "not PSD" in capsys.readouterr().err

    def test_maxlik_round_trip(self, tmp_path, small_dataset, hadamard_state, capsys):
        out = tmp_path / "ml.state"
        code = run([
            "maxlik", "--dataset", str(small_dataset), "--max-iters", "400",
            "--out-state", str(out), "--target", str(hadamard_state), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelity"] > 0.95
        rho, n_steps = fileio.load_state(out)
        assert n_steps == 2
        assert abs(np.trace(rho) - 1) < 1e-9

    def test_config_file_defaults_and_override(self, tmp_path, small_dataset, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"hidden": 3, "ancillary": 5, "max-iters": 2}))
        assert run(["train", "--dataset", str(small_dataset), "--config", str(config),
                    "--hidden", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hidden"] == 6  # flag wins
        assert doc["ancillary"] == 5  # config fills the gap
        assert doc["iterations"] <= 2

    def test_config_file_unknown_key(self, tmp_path, small_dataset, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"no-such-flag": 1}))
        assert run(["train", "--dataset", str(small_dataset), "--config", str(config)]) == 1
        assert "no-such-flag" in capsys.readouterr().err


class TestBenchOpt:
    def test_four_monotone_columns(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run([
            "bench-opt", "--steps", "1", "--noise", "dephasing", "--delta-beta", "1.5708",
            "--seed", "7", "--hidden", "3", "--ancillary", "3", "--max-iters", "40",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,optimizer,cost"
        by_opt = {}
        for line in lines[1:]:
            i, name, c = line.split(",")
            by_opt.setdefault(name, []).append(float(c))
        assert set(by_opt) == {"gd", "cg", "lbfgs", "gngd"}
        for name, costs in by_opt.items():
            assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:])), name
        assert min(by_opt["gngd"]) <= min(costs[-1] for costs in by_opt.values()) + 1e-12


class TestReproduce:
    def test_fig4_six_rows(self, tmp_path, capsys):
        out_dir = tmp_path / "fig4"
        code = run([
            "reproduce", "fig4", "--samples", "1", "--max-iters", "60",
            "--out-dir", str(out_dir), "--json",
        ])
        assert code == 0
        csv = out_dir / "fig4_purity.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "delta_beta,purity_theory,purity_ndo,fidelity_ndo"
        assert len(lines) == 7
        deltas = [float(line.split(",")[0]) for line in lines[1:]]
        np.testing.assert_allclose(
            deltas, [0, np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi], atol=1e-12
        )
        assert (out_dir / "summary.txt").exists()

    def test_fig3_structure(self, tmp_path):
        out_dir = tmp_path / "fig3"
        code = run([
            "reproduce", "fig3", "--max-steps", "1", "--samples", "1",
            "--max-iters", "60", "--out-dir", str(out_dir),
        ])
        assert code == 0
        lines = (out_dir / "fig3_fidelity.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,n_steps,sample,fidelity_ndo")
        assert len(lines) > 1

    def test_fig5_structure_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "fig5"
        code = run([
            "reproduce", "fig5", "--steps", "1", "--hidden", "3", "--ancillary", "3",
            "--max-iters", "30", "--out-dir", str(out_dir), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "gd_final_cost" in doc
        lines = (out_dir / "fig5_cost.csv").read_text().splitlines()
        assert lines[0] == "iter,optimizer,cost"

    def test_fig5_full_requires_sizes(self, capsys):
        assert run(["reproduce", "fig5", "--full"]) == 1
        assert "--hidden" in capsys.readouterr().err
