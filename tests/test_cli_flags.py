"""Every flag a command takes changes what it prints: for each command and
each flag it takes but --out and --config (which have tests of their
own), two valid values of the flag give a different exit code, stdout or
stderr.  A flag that no code reads fails here; retire it instead."""
import contextlib
import functools
import io
import itertools

import pytest

from kgyukawa.cli import FLAGS, main

COUPLINGS = {"--v0": "0.2", "--s0": "0.1", "--a": "0.05"}
CELL = {"--n-range": "1", "--l-range": "0", "--dim-range": "3"}
# each command's smallest argv: one state or cell, short grids
BASES = {
    "solve": COUPLINGS,
    "table": {**COUPLINGS, **CELL},
    # l = 1, whose down partner (n, 0, D + 2) makes one row
    "degeneracy": {**COUPLINGS, **CELL, "--l-range": "1"},
    "wavefunction": {**COUPLINGS, "--points": "200"},
    "potential": {"--v0": "0.2", "--a": "0.05", "--points": "200"},
    "oracle": {**COUPLINGS, "--points": "2000"},
    "limits": {"--v0": "0.02", "--s0": "0.02", "--a": "0.002", "--a-sequence": "0.002"},
}
# two valid values of each flag
VALUES = {
    "--v0": ("0.2", "0.3"), "--s0": ("0.1", "0.05"), "--beta": ("0.5", "-0.5"),
    "--a": ("0.05", "0.04"), "--mass": ("1", "2"), "--format": ("csv", "json"),
    "--n": ("1", "2"), "--l": ("0", "1"), "--dim": ("3", "4"),
    "--n-range": ("1", "2"), "--l-range": ("0", "1"), "--dim-range": ("3", "4"),
    "--mode": ("approximated", "exact"),
    "--points": ("200", "2000"), "--r-min": ("0.1", "0.2"), "--r-max": ("20", "10"),
    "--a-sequence": ("0.002", "0.001"),
}
CHECKED = [(command, flag) for command, flags in FLAGS.items() for flag in flags
           if flag not in ("--out", "--config")]


@functools.cache
def outcome(command: str, *flags: tuple) -> tuple:
    """Exit code, stdout and stderr of one CLI run with the (flag, value)
    pairs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *itertools.chain.from_iterable(flags)])
    return code, out.getvalue(), err.getvalue()


def test_every_flag_taken_is_checked():
    assert set(BASES) == set(FLAGS)
    assert {flag for _, flag in CHECKED} == set(VALUES)


@pytest.mark.parametrize("command, flag", CHECKED, ids=[" ".join(c) for c in CHECKED])
def test_flag_changes_the_output(command, flag):
    # --beta stands in for --s0, which may not be given with it
    base = {k: v for k, v in BASES[command].items()
            if k != flag and not (flag == "--beta" and k == "--s0")}
    first, second = (outcome(command, *{**base, flag: value}.items()) for value in VALUES[flag])
    assert first != second, f"{command}: {flag} {VALUES[flag][0]} and {VALUES[flag][1]} agree"
