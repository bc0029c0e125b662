"""Outputs of record: stdout, stderr and exit code of the CLI, byte for byte.

Each argv below is replayed through ``kgyukawa.cli.main`` and compared
with ``tests/data/cli_outputs.json``.  A change that alters an output on
purpose re-records the file and names the change:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from kgyukawa.cli import main

DATA = Path(__file__).with_name("data") / "cli_outputs.json"

BASE = ["--v0", "0.2", "--s0", "0.1", "--a", "0.05", "--mass", "1"]
STATE = ["--n", "2", "--l", "1", "--dim", "3"]
GRID = ["--n-range", "1:2", "--l-range", "0:1", "--dim-range", "3:4"]
# no_bound_state, complex_channel and error cells in one table
MIXED = ["--v0", "0.8", "--s0", "0", "--a", "0.3",
         "--n-range", "0:2", "--l-range", "0:1", "--dim-range", "3:5"]
# rows whose exact value underflows, so rel_err is empty
UNDERFLOW = ["--v0", "1", "--a", "1", "--r-min", "0.1", "--r-max", "900", "--points", "30"]
PER_COMMAND = {
    "solve": ["solve", *BASE, *STATE],
    "table": ["table", *BASE, *GRID],
    "table-mixed": ["table", *MIXED],
    "degeneracy": ["degeneracy", "--v0", "0.2", "--beta", "1", "--a", "0.05", *GRID],
    # the paper's grid: n 1:3, l 0:2, D 3:10 by default
    "degeneracy-paper-grid": ["degeneracy", *BASE],
    # up partners below D = 2 and down partners below l = 0 are skipped
    "degeneracy-to-d2": ["degeneracy", "--v0", "0.2", "--beta", "-1", "--a", "0.05",
                         "--n-range", "1:2", "--l-range", "0:1", "--dim-range", "2:3"],
    "wavefunction": ["wavefunction", *BASE, *STATE, "--points", "30"],
    "potential": ["potential", "--v0", "1.41421356", "--a", "0.0707106781", "--points", "40"],
    "potential-underflow": ["potential", *UNDERFLOW],
    "oracle": ["oracle", *BASE, "--points", "2000"],
    "oracle-mismatch": ["oracle", "--v0", "0.2", "--s0", "0.2", "--a", "0.05",
                        "--points", "2000", "--mode", "both"],
}
LIMITS = ["limits", "--v0", "0.02", "--s0", "0.02", "--a", "0.002"]
ERROR_PATHS = {
    "degeneracy-violated": ["degeneracy", *BASE, "--n-range", "1", "--l-range", "0",
                            "--dim-range", "3:4", "--max-delta", "-1"],
    "degeneracy-n-zero": ["degeneracy", *BASE, "--n-range", "0:1"],
    # a coarse-grid closure root that the doubled grid misses near it
    "oracle-coarse-root": ["oracle", "--v0", "0.3311599339879335", "--s0", "0.34926292809854287",
                           "--a", "0.025432968458688518", "--n", "1", "--l", "1", "--dim", "3",
                           "--points", "200"],
    "limits-bad-sequence": ["limits", "--v0", "0.1", "--s0", "0.1", "--a", "0.002",
                            "--a-sequence", "0.1,x"],
    "table-error-row": ["table", *BASE, "--n-range", "0:1", "--l-range", "0",
                        "--dim-range", "3"],
    "solve-tiny-a": ["solve", "--v0", "0.2", "--s0", "0.1", "--a", "1e-150"],
    "solve-a-overflows": ["solve", "--v0", "0.2", "--s0", "0.1", "--a", "1e-300"],
    "limits-a-overflows": ["limits", "--v0", "0.02", "--s0", "0.02", "--a", "0.002",
                           "--a-sequence", "1e-300"],
    "solve-huge-equal-couplings": ["solve", "--v0", "1e200", "--s0", "1e200", "--a", "0.05"],
    "solve-huge-scalar-coupling": ["solve", "--v0", "0", "--s0", "1e200", "--a", "0.05"],
    "wavefunction-0-points": ["wavefunction", *BASE, "--points", "0"],
    "wavefunction-negative-points": ["wavefunction", *BASE, "--points", "-5"],
    "wavefunction-1-point": ["wavefunction", *BASE, "--points", "1"],
    "potential-zero-a": ["potential", "--v0", "0.2", "--a", "0"],
    "potential-negative-a": ["potential", "--v0", "0.2", "--a", "-1"],
    "potential-nan-v0": ["potential", "--v0", "nan", "--a", "0.05"],
    # potential reads --v0 and --a alone and takes no other coupling
    "potential-mass": ["potential", "--v0", "0.2", "--a", "0.05", "--mass", "1"],
    "solve-no-bound-state": ["solve", "--v0", "0.2", "--s0", "0.1", "--a", "5"],
    "solve-complex-channel": ["solve", "--v0", "5", "--s0", "0", "--a", "0.05"],
    "solve-missing-a": ["solve", "--v0", "0.2", "--s0", "0.1"],
    "table-bad-range": ["table", *BASE, "--n-range", "3:1"],
    # the down partner would have d = 2**53 + 1, past the domain, and is
    # skipped; the state itself has no bound state there
    "degeneracy-partner-past-2-53": ["degeneracy", "--v0", "0.2", "--s0", "0.1", "--a", "0.05",
                                     "--n-range", "1", "--l-range", "1",
                                     "--dim-range", "9007199254740991"],
}
ARGVS = {
    **{f"{name}-{fmt}": [*argv, "--format", fmt]
       for name, argv in PER_COMMAND.items() for fmt in ("csv", "json")},
    # limits prints text lines and takes no --format
    "limits-csv": LIMITS,
    "limits-json": [*LIMITS, "--format", "json"],
    **ERROR_PATHS,
}


def record(argv) -> dict:
    """Exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_recorded_argvs_are_the_listed_ones():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert {name: rec["argv"] for name, rec in recorded.items()} == ARGVS


@pytest.mark.parametrize("name", ARGVS)
def test_output_is_the_recorded_one(name):
    want = json.loads(DATA.read_text(encoding="utf-8"))[name]
    assert record(want["argv"]) == want


if __name__ == "__main__":
    outputs = {name: record(argv) for name, argv in ARGVS.items()}
    DATA.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
