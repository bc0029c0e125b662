"""A one-second traced benchmark run ends with a strict-JSON result line."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_traced_oracle_run_ends_with_strict_json_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
