"""Smoke test of the benchmark harness at tiny sizes (seconds, not minutes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qwndo import training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def outputs():
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = run_bench(name, trace)
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = proc.stdout.strip().splitlines()
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(outputs, trace):
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in NAMES:
        lines = outputs[name, trace]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in listed]
        table = {line.split()[1]: line.split()[2:] for line in lines[:-1] if line.startswith("# ")}
        for m in listed:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)), (name, m["name"])
            assert table[m["name"]][1] == m["unit"], (name, m["name"])
        for m in SPEC["end_to_end"] if not trace else ():
            assert result["metrics"][m["name"]]["value"] != 0, (name, m["name"])


def test_layer_totals_within_traced_wall(outputs):
    for name in NAMES:
        metrics = json.loads(outputs[name, 1][-1])["metrics"]
        wall = metrics["trace.wall_s"]["value"]
        for key, entry in metrics.items():
            if key.endswith(".total_s") or key.endswith(".self_s"):
                assert 0.0 <= entry["value"] <= wall, (name, key)


def test_failed_checks_count(monkeypatch):
    wl = workloads.build("maxlik-n10", 0, tiny=True)
    real_op = wl.op

    def faulty(i):
        if i == 0:
            raise RuntimeError("injected")
        out = real_op(i)
        if i == 1:
            out.rho = out.rho + 0.1j * np.triu(np.ones_like(out.rho), 1)  # not Hermitian
        if i == 2:
            out.costs = out.costs + [out.costs[-1] + 1.0]  # cost rises
        return out

    monkeypatch.setattr(wl, "op", faulty)
    records = worker.run_ops(wl, 0.0, lambda name: nullcontext())
    assert [r["failed"] for r in records] == [True, True, True] + [False] * (wl.n_ops - 3)
    assert run.tally(records) == {"attempted": wl.n_ops, "failed": 3,
                                  "failed_frac": 3 / wl.n_ops, "correct": False}


def test_healthy_op_passes_checks():
    wl = workloads.build("recon-n5", 0, tiny=True)
    quality, problems = worker.check_op(wl.op(0))
    assert problems == []
    assert 0.0 <= quality["fidelity"] <= 1.0


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(training, "gram")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="training.gram"):
        tracer.install()
    tracer.uninstall()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("recon-n5", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_git_commit_from_packed_refs(tmp_path, monkeypatch):
    sha = "0123456789abcdef0123456789abcdef01234567"
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{sha} refs/heads/main\n")
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    assert worker._git_commit() == sha
    monkeypatch.setattr(worker, "ROOT", tmp_path / "not-a-checkout")
    assert worker._git_commit() is None


def test_corrected_op_s_scales_by_reference_and_takes_median():
    ref = run.REF_S
    records = [{"op": 0, "op_s": 2.0, "ref_s": ref}, {"op": 1, "op_s": 5.0, "ref_s": 2 * ref},
               {"op": 0, "op_s": 3.4, "ref_s": 1.7 * ref}, {"op": 1, "op_s": 2.5, "ref_s": ref},
               {"op": 0, "op_s": 9.0, "ref_s": ref}]
    assert run.corrected_op_s(records) == pytest.approx([2.0, 2.5])
