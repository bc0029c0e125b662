"""A seeded sweep of the CLI over edge-of-range inputs.

Each argv draws its reals and integers from small sets of edge values
(zeros, subnormals, near-overflow magnitudes, negatives, integers past
2**53) and runs through ``kgyukawa.cli.main`` with warnings raised as
errors.  Every run must return an exit code in 0-3 without raising,
print at most one line on stderr, and print no nan or inf when it
exits 0.

Sizes stay small, since a large size allocates gigabytes: every range
names a single value, and ``--points`` comes from POINTS, whose values
build no grid of more than 20 points: each is at most 20 (below the 100
that ``oracle`` takes), above 2**53, which every command rejects, or
2**53 itself, whose 64 PiB grid no host holds, so it is refused at once
(a MemoryError, exit 3).  So a second sweep, of valid ``oracle`` argvs
at 100 points, reaches the eigensolver.
"""
import contextlib
import io
import itertools
import random
import re
import warnings

from kgyukawa.cli import FLAGS, main
from kgyukawa.oracle import _tridiag

REALS = (0.0, -0.0, 1e-320, 1e-300, 1e-160, 1e-12, 0.05, 0.2, 1.0, 5.0, 1e12, 1e160,
         1e300, 1.7e308, -0.2, -1e300)
INTEGERS = (0, 1, 2, 3, -1, 200, 2**53, 10**20, 10**400)
POINTS = (0, 1, 2, 20, -1, 2**53, 2**53 + 1, 10**20, 10**400)
COMMANDS = ("solve", "limits", "table", "degeneracy", "wavefunction", "potential", "oracle")
ALWAYS_GIVEN = {"--v0", "--a", "--s0", "--beta", "--format", "--points"}
SWEEP_SIZE = 840
SEED = 2012
NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


def draw(rng: random.Random) -> list[str]:
    """One argv of a random command over the flags it takes but --out,
    --config and one of --s0 and --beta, every value drawn from REALS,
    INTEGERS or POINTS."""
    command = rng.choice(COMMANDS)

    def real():
        return repr(rng.choice(REALS))

    def integer():
        return str(rng.choice(INTEGERS))

    values = {
        **dict.fromkeys(("--v0", "--s0", "--beta", "--a", "--mass", "--r-min", "--r-max",
                         "--a-sequence"), real),
        **dict.fromkeys(("--n", "--l", "--dim", "--n-range", "--l-range", "--dim-range"),
                        integer),
        "--format": lambda: rng.choice(("csv", "json")),
        "--mode": lambda: rng.choice(("approximated", "exact", "both")),
        "--points": lambda: str(rng.choice(POINTS)),
    }
    left_out = {"--out", "--config", rng.choice(("--s0", "--beta"))}
    argv = [command]
    for flag in FLAGS[command]:
        # each optional flag is given half the time, so that more runs get
        # past the input checks
        if flag not in left_out and (flag in ALWAYS_GIVEN or rng.random() < 0.5):
            argv += [flag, values[flag]()]
    return argv


def failure(argv, codes=(0, 1, 2, 3)) -> str:
    """Why one run breaks the rule, with exit codes, or '' when it keeps
    it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except Exception as exc:  # any escape, warnings included, is the failure
        return f"raised {type(exc).__name__}: {exc}"
    if code not in codes:
        return f"exit code {code!r}"
    if code == 0 and NON_FINITE.search(out.getvalue()):
        return "exit 0 with a non-finite value in stdout"
    lines = err.getvalue().count("\n")
    if lines > 1:
        return f"{lines} lines on stderr"
    return ""


def sweep(seed: int, size: int) -> list[str]:
    rng = random.Random(seed)
    argvs = [draw(rng) for _ in range(size)]
    return [f"{' '.join(argv)[:300]}: {why[:200]}" for argv in argvs if (why := failure(argv))]


def test_cli_sweep_exits_typed_and_prints_finite_values():
    failures = sweep(SEED, SWEEP_SIZE)
    assert not failures, f"{len(failures)} of {SWEEP_SIZE} argvs:\n" + "\n".join(failures[:20])


# valid oracle argvs, with screening down to 1e-300 and masses across the
# admitted range: each builds its matrices, or fails typed
ORACLE_ARGVS = [["oracle", "--v0", "0.2", "--s0", s0, "--a", a, "--mass", mass, "--l", l,
                 "--points", "100", "--mode", "both"]
                for s0, a, mass, l in itertools.product(
                    ("0.1", "0.2", "-0.2"), ("1e-300", "1e-160", "1e-12", "0.05"),
                    ("1e-150", "1e-12", "1", "1e14", "1e150"), ("0", "1"))]


def test_oracle_sweep_over_valid_inputs_exits_typed(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return _tridiag(*args)

    monkeypatch.setattr("kgyukawa.oracle._tridiag", counted)
    failures = [f"{' '.join(argv)}: {why[:200]}" for argv in ORACLE_ARGVS
                if (why := failure(argv, codes=(0, 2, 3)))]
    assert not failures, (f"{len(failures)} of {len(ORACLE_ARGVS)} argvs:\n"
                          + "\n".join(failures[:20]))
    # the sweep goes hollow if the runs stop before the eigensolver
    assert len(built) >= 200
