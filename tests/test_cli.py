"""End-to-end CLI contracts: exit codes, files, determinism."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qwndo import cli, fileio, maxlik, measurement, metrics, ndo, training, walk


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

    @pytest.mark.parametrize("flag", ["--w-s", "--w-l"])
    def test_nan_mixing_weight_exit_one(self, tmp_path, capsys, flag):
        out = tmp_path / "m.state"
        assert run(["simulate", "--steps", "2", "--noise", "mixing", flag, "nan",
                    "--out", str(out)]) == 1
        assert "w_s, w_l" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--steps", "2", "--alpha", "0.1", "--disordered-seed", "3"])
        assert exc.value.code == 2

    def test_deterministic_state_files(self, tmp_path):
        a, b = tmp_path / "a.state", tmp_path / "b.state"
        for p in (a, b):
            run(["simulate", "--steps", "3", "--disordered-seed", "4", "--noise",
                 "dephasing", "--delta-beta", "1.0", "--out", str(p)])
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
            "train", "--dataset", str(small_dataset),
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
        assert doc["optimizer"] == summary["optimizer"] == "lbfgs+gngd"
        assert doc["iterations"] <= 2 * 150  # --max-iters caps each phase
        assert read_csv_header(trace) == "iter,cost,grad_norm,step,millis"

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_train_grad_tol_not_finite_positive_exit_one(self, tmp_path, small_dataset, capsys, value):
        ckpt = tmp_path / "fit.ckpt"
        assert run(["train", "--dataset", str(small_dataset), "--grad-tol", value,
                    "--max-iters", "2", "--checkpoint", str(ckpt)]) == 1
        assert "grad_tol must be finite and > 0" in capsys.readouterr().err
        assert not ckpt.exists()

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

    @pytest.mark.parametrize("units", [("--hidden", "0"), ("--ancillary", "0")])
    def test_evaluate_checkpoint_with_an_empty_layer(self, tmp_path, small_dataset, units):
        ckpt = tmp_path / "fit.ckpt"
        assert run(["train", "--dataset", str(small_dataset), *units,
                    "--max-iters", "3", "--checkpoint", str(ckpt)]) == 0
        assert run(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(small_dataset)]) == 0

    def test_evaluate_dataset_mismatch_names_state_file(self, tmp_path, hadamard_state, capsys):
        ds = tmp_path / "ds1.json"
        measurement.save_dataset(measurement.generate_dataset(np.eye(4) / 4, 1), ds)
        code = run(["evaluate", "--state", str(hadamard_state), "--dataset", str(ds)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"state file {hadamard_state} has N=2 but dataset {ds} has N=1" in err
        assert "--steps" not in err

    def test_evaluate_odd_checkpoint_against_dataset_names_both_files(self, tmp_path, capsys):
        """dim 3 is no 2(N+1): it matches no dataset, also not one at N = dim // 2 - 1 = 0."""
        ckpt, ds = tmp_path / "odd.ckpt", tmp_path / "ds0.json"
        ndo.save_checkpoint(ndo.init_params(3, 1, 1), ckpt)
        measurement.save_dataset(measurement.generate_dataset(np.eye(2) / 2, 0), ds)
        assert run(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(ds)]) == 1
        err = capsys.readouterr().err
        assert f"error: checkpoint {ckpt} has dimension 3 but dataset {ds} has N=0, dimension 2" in err

    @pytest.mark.parametrize("kind", ["state", "checkpoint"])
    def test_evaluate_reference_of_another_dimension_names_both_files(
            self, tmp_path, hadamard_state, capsys, kind):
        """An N=1 state or a dim-4 checkpoint against the N=2 reference."""
        if kind == "state":
            path = tmp_path / "n1.state"
            fileio.save_state(np.eye(4) / 4, path)
            source = f"state file {path} has N=1"
        else:
            path = tmp_path / "d4.ckpt"
            ndo.save_checkpoint(ndo.init_params(4, 1, 1), path)
            source = f"checkpoint {path} has dimension 4"
        assert run(["evaluate", f"--{kind}", str(path), "--reference", str(hadamard_state)]) == 1
        err = capsys.readouterr().err
        assert f"error: {source} but reference {hadamard_state} has N=2, dimension 6" in err

    @pytest.mark.parametrize("command,output", [("train", "--checkpoint"), ("maxlik", "--out-state")])
    def test_fit_target_of_another_n_fails_before_fitting(
            self, tmp_path, small_dataset, monkeypatch, capsys, command, output):
        """An N=1 --target against the N=2 dataset exits 1 before any optimizer
        runs, naming both files and writing nothing."""
        def no_fit(*args, **kwargs):
            raise AssertionError("an optimizer ran")

        # maxlik binds minimize_vector by name
        monkeypatch.setattr(training, "minimize_vector", no_fit)
        monkeypatch.setattr(maxlik, "minimize_vector", no_fit)
        target, out, report = tmp_path / "n1.state", tmp_path / "fit.out", tmp_path / "report.json"
        fileio.save_state(np.eye(4) / 4, target)
        code = run([command, "--dataset", str(small_dataset), "--target", str(target),
                    output, str(out), "--report", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(target) in err and str(small_dataset) in err
        assert not out.exists() and not report.exists()

    def test_evaluate_non_physical_reference(self, tmp_path, hadamard_state, capsys):
        bad = tmp_path / "bad.state"
        fileio.save_state(np.diag([2.0, -1.0, 0.0, 0.0, 0.0, 0.0]), bad)
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
        assert doc["iterations"] <= 4  # 2 per phase

    @pytest.mark.parametrize(
        "key", ["no-such-flag", "metric-eps", "init-scale", "mc-samples", "optimizer"])
    def test_config_file_unknown_key(self, tmp_path, small_dataset, capsys, key):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: 1}))
        assert run(["train", "--dataset", str(small_dataset), "--config", str(config)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("values,key,message", [
        ({"steps": "abc"}, "steps", "invalid int value: 'abc'"),
        ({"max-iters": 2.5}, "max-iters", "invalid int value: '2.5'"),
        ({"grad-tol": True}, "grad-tol", "to true, not a JSON string or number"),
        ({"hidden": None}, "hidden", "to null, not a JSON string or number"),
        ({"noise": "bogus"}, "noise", "invalid choice: 'bogus'"),
        ({"json": "no"}, "json", 'to "no", not a JSON boolean'),
        ({"json": 1}, "json", "to 1, not a JSON boolean"),
    ])
    def test_config_file_bad_value_exit_one(self, tmp_path, small_dataset, capsys,
                                            values, key, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(values))
        ckpt = tmp_path / "fit.ckpt"
        assert run(["train", "--dataset", str(small_dataset), "--max-iters", "2",
                    "--config", str(config), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} sets {key!r}")
        assert message in err
        assert not ckpt.exists()

    def test_config_file_json_false_keeps_text_summary(self, tmp_path, small_dataset, capsys):
        config = tmp_path / "text.json"
        config.write_text(json.dumps({"json": False, "max-iters": 2, "noise": "dephasing"}))
        assert run(["train", "--dataset", str(small_dataset), "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("optimizer: lbfgs+gngd\n") and "hidden: 15\n" in out

    def test_config_key_yields_to_explicit_flag_of_its_group(self, tmp_path):
        config = tmp_path / "walk.json"
        config.write_text(json.dumps({"alpha": 0.5}))
        out, ref = tmp_path / "config.state", tmp_path / "flags.state"
        argv = ["simulate", "--steps", "2", "--angles", "0.1,0.2"]
        assert run(argv + ["--config", str(config), "--out", str(out)]) == 0
        assert run(argv + ["--out", str(ref)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_config_sets_two_flags_of_one_group_exit_one(self, tmp_path, capsys):
        config = tmp_path / "walk.json"
        config.write_text(json.dumps({"alpha": 0.5, "angles": "0.1,0.2"}))
        assert run(["simulate", "--steps", "2", "--config", str(config)]) == 1
        assert "both 'alpha' and 'angles'" in capsys.readouterr().err

    def test_required_flag_from_config(self, tmp_path, capsys):
        config = tmp_path / "walk.json"
        config.write_text(json.dumps({"steps": 2}))
        assert run(["simulate", "--config", str(config), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_steps"] == 2
        with pytest.raises(SystemExit) as exc:  # still required without the file
            run(["simulate", "--json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--steps", "--report-csv"])
    def test_train_and_maxlik_help_the_same_dataset_flags(self, capsys, flag):
        def help_text(command):
            with pytest.raises(SystemExit) as exc:
                run([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            entry = re.search(rf"^  {flag} \S+(.*?)(?=^  -|\Z)", out, re.M | re.S)
            return " ".join(entry.group(1).split())

        text = help_text("train")
        assert text and help_text("maxlik") == text

    def test_help_marks_required_flags(self, capsys):
        # --config is read after a parse in which no flag is required
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "-h"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert " --steps STEPS" in usage and "[--steps STEPS]" not in usage

    def test_required_group_member_from_config(self, tmp_path, hadamard_state, capsys):
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"state": str(hadamard_state)}))
        assert run(["evaluate", "--config", str(config), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["purity"] > 0.99

    def test_removed_flag_is_usage_error(self, small_dataset):
        for flag, value in (("--metric-eps", "1e-3"), ("--optimizer", "gngd")):
            with pytest.raises(SystemExit) as exc:
                run(["train", "--dataset", str(small_dataset), flag, value])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "role,content",
        [(role, content)
         for role in ("state", "reference", "checkpoint", "dataset", "config")
         for content in ("5", "[]", "null", '"text"')]
        + [("checkpoint", '{"format_version": 1, "dim": 6, "m_h": 1, "m_a": 1, "arrays": 7}'),
           pytest.param("state", "[" * 100000 + "]" * 100000, id="state-deeply-nested")],
    )
    def test_malformed_file_exit_one(self, tmp_path, hadamard_state, capsys, role, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv, kind = {
            "state": (["evaluate", "--state", str(bad)], "state file"),
            "reference": (["evaluate", "--state", str(hadamard_state), "--reference", str(bad)],
                          "state file"),
            "checkpoint": (["evaluate", "--checkpoint", str(bad)], "checkpoint"),
            "dataset": (["train", "--dataset", str(bad)], "dataset"),
            "config": (["simulate", "--steps", "1", "--config", str(bad)], "config file"),
        }[role]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} {bad}: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "role,field,value",
        [("checkpoint", "u_lam", None), ("checkpoint", "u_lam", 5),
         ("checkpoint", "u_lam", {"a": 1}), ("checkpoint", "u_lam", [[1.0, 2.0], [3.0]]),
         ("state", "im", {"a": 1})],
    )
    def test_malformed_array_exit_one(self, tmp_path, hadamard_state, capsys, role, field, value):
        bad = tmp_path / "bad.json"
        if role == "checkpoint":
            ndo.save_checkpoint(ndo.init_params(6, 1, 1), bad)
            doc = json.loads(bad.read_text())
            doc["arrays"][field] = value
        else:
            doc = json.loads(hadamard_state.read_text())
            doc[field] = value
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", f"--{role}", str(bad)]) == 1
        err = capsys.readouterr().err
        kind = "checkpoint" if role == "checkpoint" else "state file"
        assert err.startswith(f"error: {kind} {bad}: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0.5", True, None])
    @pytest.mark.parametrize("kind,field", [("state file", "re"), ("state file", "im"),
                                            ("dataset", "probs"), ("checkpoint", "b_lam")])
    def test_non_number_in_array_names_file_and_field(self, tmp_path, hadamard_state, small_dataset,
                                                       capsys, kind, field, value):
        """A string, boolean or null entry is no number, although np.array reads
        "0.5" and true as 0.5 and 1.0, and null as nan."""
        bad = tmp_path / "bad.json"
        if kind == "checkpoint":
            ndo.save_checkpoint(ndo.init_params(6, 1, 1), bad)
            doc = json.loads(bad.read_text())
            row, named = doc["arrays"][field], f"array {field}"
        elif kind == "dataset":
            doc = json.loads(small_dataset.read_text())
            row, named = doc["bases"][2][field], f"basis n=2: {field!r}"
        else:
            doc = json.loads(hadamard_state.read_text())
            row, named = doc[field][1], f"field {field!r}"
        row[0] = value
        bad.write_text(json.dumps(doc))
        argv = {"state file": ["--state", str(bad)],
                "dataset": ["--state", str(hadamard_state), "--dataset", str(bad)],
                "checkpoint": ["--checkpoint", str(bad)]}[kind]
        assert run(["evaluate", *argv]) == 1
        assert capsys.readouterr().err == f"error: {kind} {bad}: {named} is not a numeric array\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(format_version=2), "unsupported format_version 2"),
        (lambda doc: doc["bases"].append(doc["bases"][0]), "duplicate basis n=0"),
    ], ids=["format_version", "duplicate"])
    def test_dataset_error_names_the_dataset(self, tmp_path, hadamard_state, small_dataset, capsys,
                                             edit, message):
        doc = json.loads(small_dataset.read_text())
        edit(doc)
        bad = tmp_path / "bad.ds"
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", "--state", str(hadamard_state), "--dataset", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: dataset {bad}: {message}\n"

    def test_non_physical_reference_names_the_reference(self, tmp_path, hadamard_state, capsys):
        bad = tmp_path / "bad.state"
        fileio.save_state(np.diag([2.0, -1.0, 0.0, 0.0, 0.0, 0.0]), bad)
        assert run(["evaluate", "--state", str(hadamard_state), "--reference", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: state file {bad}: not PSD: ")
        assert str(hadamard_state) not in err


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

    def test_iterations_to_gd_level(self, tmp_path, capsys):
        """Fig. 5's statistic: each optimizer's first iteration at or below GD's final cost."""
        out = tmp_path / "fig5_cost.csv"
        code = run([
            "bench-opt", "--steps", "1", "--hidden", "3", "--ancillary", "3",
            "--max-iters", "30", "--out", str(out), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,optimizer,cost"
        costs = {}
        for line in lines[1:]:
            _, name, c = line.split(",")
            costs.setdefault(name, []).append(float(c))
        gd_level = costs["gd"][-1]
        assert doc["gd_final_cost"] == gd_level
        for name in ("gd", "cg", "lbfgs", "gngd"):
            first = next((i for i, c in enumerate(costs[name]) if c <= gd_level), "not reached")
            assert doc[f"{name}_iters_to_gd_level"] == first, name

    @pytest.mark.parametrize("flag,value,message", [
        ("--hidden", "-1", "--hidden must be >= 0, got -1"),
        ("--ancillary", "-2", "--ancillary must be >= 0, got -2"),
        ("--steps", "-1", "--steps must be >= 0, got -1"),
        ("--angles", "0.1,abc", "--angles '0.1,abc': could not convert string to float: 'abc'"),
    ])
    def test_bad_input_exit_one_before_out(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench.csv"
        assert run(["bench-opt", "--steps", "1", flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_fig4_fits_at_max_steps(self, tmp_path):
        """--max-steps sets fig4's N: each row's theory purity is the N=1 dephasing walk's."""
        out_dir = tmp_path / "fig4"
        assert run(["reproduce", "fig4", "--max-steps", "1", "--samples", "1", "--max-iters", "20",
                    "--out-dir", str(out_dir)]) == 0
        rows = [line.split(",") for line in (out_dir / "fig4_purity.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(cli.DELTA_BETA_PRESET)
        for row, db in zip(rows, cli.DELTA_BETA_PRESET):
            rho = walk.evolve(walk.WalkConfig(1, (np.pi / 4,), noise="dephasing", delta_beta=db))
            assert rho.shape == (4, 4)
            assert float(row[1]) == metrics.purity(rho)

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

    @pytest.mark.parametrize("preset,flag,value", [
        ("fig4", "--max-iters", "0"), ("fig3", "--grad-tol", "0"),
    ])
    def test_bad_input_exit_one_before_out_dir(self, tmp_path, capsys, preset, flag, value):
        out_dir = tmp_path / "r5"
        code = run(["reproduce", preset, "--max-steps", "1", "--samples", "1",
                    flag, value, "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [["fig5"], ["fig3", "--hidden", "3"]])
    def test_fig5_and_its_flags_are_usage_errors(self, tmp_path, argv):
        """Fig. 5 is `bench-opt`; `reproduce` has no fig5 preset and none of its flags."""
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["reproduce", *argv, "--max-steps", "1", "--samples", "1", "--max-iters", "2",
                 "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("preset,flag", [("fig4", "--samples"), ("fig3", "--max-steps")])
    def test_count_below_one_exit_one(self, tmp_path, capsys, preset, flag):
        out_dir = tmp_path / "out"
        assert run(["reproduce", preset, flag, "0", "--out-dir", str(out_dir)]) == 1
        assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["simulate", "--noise", "none", "--p", "0.5"], "--p"),
        (["simulate", "--noise", "dephasing", "--w-s", "0.5"], "--w-s"),
        (["simulate", "--noise", "depolarizing", "--w-l", "0.2"], "--w-l"),
        (["simulate", "--noise", "mixing", "--w-s", "0.3", "--delta-beta", "1.0"], "--delta-beta"),
        (["bench-opt", "--noise", "none", "--p", "0.3", "--hidden", "2", "--ancillary", "2"], "--p"),
    ],
)
def test_channel_flag_of_another_noise_exit_one(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run([*argv, "--steps", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} applies only to --noise ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["train", "--hidden", "-1"], "--hidden", -1),
        (["bench-opt", "--steps", "1", "--ancillary", "-2"], "--ancillary", -2),
        (["bench-opt", "--steps", "1", "--hidden", "-1"], "--hidden", -1),
        (["train", "--seed", "-2"], "--seed", -2),
        (["maxlik", "--seed", "-2"], "--seed", -2),
        (["bench-opt", "--steps", "1", "--seed", "-1"], "--seed", -1),
        (["reproduce", "fig4", "--seed", "-1"], "--seed", -1),
        (["simulate", "--steps", "2", "--disordered-seed", "-1"], "--disordered-seed", -1),
        (["simulate", "--steps", "-1"], "--steps", -1),
        (["gen-data", "--seed", "-3"], "--seed", -3),
    ],
)
def test_negative_count_or_seed_exit_one(tmp_path, capsys, hadamard_state, small_dataset,
                                         argv, flag, value):
    out = tmp_path / "out"
    extra = {
        "train": ["--dataset", str(small_dataset), "--checkpoint", str(out)],
        "maxlik": ["--dataset", str(small_dataset), "--out-state", str(out)],
        "bench-opt": ["--out", str(out)],
        "reproduce": ["--out-dir", str(out)],
        "simulate": ["--out", str(out)],
        "gen-data": ["--from-state", str(hadamard_state), "--out", str(out)],
    }[argv[0]]
    assert run([*argv, *extra]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,flag", [("seed", "--seed"), ("disordered-seed", "--disordered-seed")])
def test_negative_seed_in_config_exit_one(tmp_path, capsys, key, flag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: -4}))
    out = tmp_path / "out"
    assert run(["bench-opt", "--steps", "1", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -4\n"
    assert not out.exists()


def readme_commands():
    """Every `qwndo ...` command in the README's bash blocks, as argument lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qwndo ")]


def test_readme_commands_parse():
    commands = readme_commands()
    parser, registry = cli.build_parser()
    assert {argv[0] for argv in commands} == set(registry)
    for argv in commands:
        parser.parse_args(argv)  # SystemExit(2) on an unknown or malformed flag


def test_readme_train_beats_maxlik(tmp_path, monkeypatch, capsys):
    """The README's simulate, gen-data, train and maxlik lines, run as written:
    the NDO fit reaches at least MaxLik's fidelity on the same dataset."""
    monkeypatch.chdir(tmp_path)
    fits = {}
    for argv in readme_commands():
        if argv[0] in ("simulate", "gen-data", "train", "maxlik"):
            assert run([*argv, "--json"]) == 0
            fits[argv[0]] = json.loads(capsys.readouterr().out)
    report = json.loads((tmp_path / "report.json").read_text())
    assert fits["train"]["optimizer"] == report["optimizer"] == "lbfgs+gngd"
    assert fits["train"]["fidelity"] >= fits["maxlik"]["fidelity"]


NOISE = ["none", "mixing", "dephasing", "depolarizing"]
WALK_FLAGS = {
    "steps": (("--steps",), None, None, True),
    "alpha": (("--alpha",), None, None, False),
    "angles": (("--angles",), None, None, False),
    "disordered_seed": (("--disordered-seed",), None, None, False),
    "noise": (("--noise",), "none", NOISE, False),
    "w_s": (("--w-s",), 0.0, None, False),
    "w_l": (("--w-l",), 0.0, None, False),
    "delta_beta": (("--delta-beta",), 0.0, None, False),
    "p": (("--p",), 0.0, None, False),
}
COMMON_FLAGS = {
    "config": (("--config",), None, None, False),
    "json": (("--json",), False, None, False),
}

# dest: (option strings, default, choices, required) of every subcommand option
CLI_SURFACE = {
    "simulate": {
        **WALK_FLAGS,
        "out": (("--out",), None, None, False),
        "marginal_csv": (("--marginal-csv",), None, None, False),
        **COMMON_FLAGS,
    },
    "gen-data": {
        "steps": (("--steps",), None, None, False),
        "from_state": (("--from-state",), None, None, True),
        "shots": (("--shots",), None, None, False),
        "seed": (("--seed",), 0, None, False),
        "out": (("--out",), None, None, True),
        **COMMON_FLAGS,
    },
    "train": {
        "dataset": (("--dataset",), None, None, True),
        "steps": (("--steps",), None, None, False),
        "hidden": (("--hidden",), None, None, False),
        "ancillary": (("--ancillary",), None, None, False),
        "noise": (("--noise",), "none", NOISE, False),
        "grad_tol": (("--grad-tol",), 1e-08, None, False),
        "max_iters": (("--max-iters",), 2000, None, False),
        "seed": (("--seed",), 0, None, False),
        "checkpoint": (("--checkpoint",), None, None, False),
        "report": (("--report",), None, None, False),
        "report_csv": (("--report-csv",), None, None, False),
        "target": (("--target",), None, None, False),
        **COMMON_FLAGS,
    },
    "maxlik": {
        "dataset": (("--dataset",), None, None, True),
        "steps": (("--steps",), None, None, False),
        "grad_tol": (("--grad-tol",), 1e-08, None, False),
        "max_iters": (("--max-iters",), 2000, None, False),
        "seed": (("--seed",), 0, None, False),
        "out_state": (("--out-state",), None, None, False),
        "report": (("--report",), None, None, False),
        "report_csv": (("--report-csv",), None, None, False),
        "target": (("--target",), None, None, False),
        **COMMON_FLAGS,
    },
    "evaluate": {
        "checkpoint": (("--checkpoint",), None, None, False),
        "state": (("--state",), None, None, False),
        "reference": (("--reference",), None, None, False),
        "dataset": (("--dataset",), None, None, False),
        **COMMON_FLAGS,
    },
    "bench-opt": {
        **WALK_FLAGS,
        "hidden": (("--hidden",), None, None, False),
        "ancillary": (("--ancillary",), None, None, False),
        "grad_tol": (("--grad-tol",), 1e-08, None, False),
        "max_iters": (("--max-iters",), 200, None, False),
        "seed": (("--seed",), 0, None, False),
        "out": (("--out",), None, None, True),
        **COMMON_FLAGS,
    },
    "reproduce": {
        "preset": ((), None, ["fig3", "fig4"], True),
        "max_steps": (("--max-steps",), 5, None, False),
        "samples": (("--samples",), 5, None, False),
        "grad_tol": (("--grad-tol",), 1e-08, None, False),
        "max_iters": (("--max-iters",), 300, None, False),
        "seed": (("--seed",), 0, None, False),
        "out_dir": (("--out-dir",), None, None, False),
        **COMMON_FLAGS,
    },
}

# (subcommand, dests, required) of every mutually exclusive group
CLI_GROUPS = {
    ("simulate", ("alpha", "angles", "disordered_seed"), False),
    ("bench-opt", ("alpha", "angles", "disordered_seed"), False),
    ("evaluate", ("checkpoint", "state"), True),
}


def test_cli_surface_snapshot():
    _, registry = cli.build_parser()
    surface = {
        name: {
            a.dest: (tuple(a.option_strings), a.default,
                     None if a.choices is None else list(a.choices), a.required)
            for a in sp._actions if a.dest != "help"
        }
        for name, sp in registry.items()
    }
    assert surface == CLI_SURFACE
    groups = {
        (name, tuple(sorted(a.dest for a in g._group_actions)), g.required)
        for name, sp in registry.items() for g in sp._mutually_exclusive_groups
    }
    assert groups == CLI_GROUPS
