"""A one-second traced benchmark run ends with a strict-JSON result line."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def traced_run_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)


def test_traced_oracle_run_ends_with_strict_json_result():
    result = traced_run_result("oracle")
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["tables", "states"])
def test_traced_solver_run_ends_with_strict_json_result(workload):
    result = traced_run_result(workload)
    assert result["correct"] is True
    assert result["failed"] == 0
