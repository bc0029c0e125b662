"""A one-second traced benchmark run ends with a strict-JSON result line
that reports every per-layer metric BENCHMARK.json names, and no other."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def traced_run_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    # a per-layer function that is missing or no longer loaded drops its metrics
    assert set(result["metrics"]) == PER_LAYER
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    return result


def test_traced_oracle_run_ends_with_strict_json_result():
    result = traced_run_result("oracle")
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["tables", "states"])
def test_traced_solver_run_ends_with_strict_json_result(workload):
    result = traced_run_result(workload)
    assert result["correct"] is True
    assert result["failed"] == 0
