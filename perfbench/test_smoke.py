"""Smoke test of the benchmark: every workload at its minimal length (one pass).

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It takes a few minutes: one pass of ``eps_sweep`` alone is about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = ("solver.newton_iters", "solver.rows", "attacks.candidates.count", "distrib.stationary_law.calls")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(proc: subprocess.CompletedProcess, expected: list) -> dict:
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert f"{m['name']} = " in proc.stdout
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_its_unit(workload):
    out = assert_metrics(bench(workload, 0), BENCH["end_to_end"])
    assert out["correct"]
    assert all(out["metrics"][m]["value"] > 0 for m in out["metrics"])
    traced = assert_metrics(bench(workload, 1), BENCH["per_layer"])
    assert traced["correct"]


def test_traced_counters_repeat_exactly():
    first, second = (result(bench("grid", 1))["metrics"] for _ in range(2))
    for name in COUNTERS:
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_gate_catches_shifted_reference():
    out = result(bench("grid", 0))
    assert out["correct"] and out["failed"] == 0
    run_dir = ROOT / "perfbench" / "out" / "grid-seed0-trace0"
    doc = json.loads((run_dir / "pass.json").read_text())
    records = json.loads((run_dir / "worker.json").read_text())["records"]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for key, fields in reference["ops"].items():
        if key.endswith("|0.3|10"):
            fields["exceedance_probability"] += 1e-5
    failures, mismatches, compared = gate.evaluate(doc, records, reference)
    assert compared == len(records)
    assert mismatches == len(failures) == len(records)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
