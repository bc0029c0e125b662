"""Workload inputs made from a seed, and the checks on the program's outputs.

Nothing here imports kgyukawa, so the checks can be tested on made-up
outputs.  Each check returns a list of failure reasons; empty means correct.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import reference as ref

MASS = 1.0
ENERGY_TOL = 1e-10  # program energy vs closed-form quadratic
EXIT_OK = 0
EXIT_NO_SOLUTION = 2

# --- tables: the paper's three published tables -------------------------

TABLE_SETS = ((0.2, 0.1), (0.2, 0.2), (0.2, -0.2))  # (v0, s0)
TABLE_A = 0.05
TABLE_N = (1, 2, 3)
TABLE_L = (0, 1, 2)
TABLE_D = tuple(range(3, 11))
TABLE_CELLS = len(TABLE_N) * len(TABLE_L) * len(TABLE_D)

_STATUS = {"no_bound_state": ref.NO_STATE, "complex_channel": ref.COMPLEX_CHANNEL}


def table_argv(v0: float, s0: float) -> list[str]:
    return [
        "table", "--v0", repr(v0), "--s0", repr(s0), "--a", repr(TABLE_A),
        "--mass", repr(MASS), "--n-range", "1:3", "--l-range", "0:2",
        "--dim-range", "3:10", "--format", "json",
    ]


def table_cycle(rng: random.Random) -> list[tuple[float, float]]:
    """The three parameter sets in a seeded order."""
    sets = list(TABLE_SETS)
    rng.shuffle(sets)
    return sets


def check_table(v0: float, s0: float, code: int, stdout: str) -> list[str]:
    """Every cell against the closed form to 1e-10, and the printed cells
    against the published tables to 1e-7.  One reason per failed cell."""
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"] * TABLE_CELLS
    try:
        rows = {(int(r["dim"]), int(r["n"]), int(r["l"])): r for r in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable table output: {exc}"] * TABLE_CELLS
    failures = []
    for d in TABLE_D:
        for n in TABLE_N:
            for l in TABLE_L:
                cell = f"(n,l,D)=({n},{l},{d})"
                row = rows.get((d, n, l))
                if row is None:
                    failures.append(f"{cell} missing")
                    continue
                want = ref.closed_form(v0, s0, TABLE_A, MASS, n, l, d, ref.PUBLISHED_BRANCH)
                if isinstance(want, str):
                    if _STATUS.get(row.get("status")) != want:
                        failures.append(f"{cell} status {row.get('status')}, expected {want}")
                    continue
                got = row.get("energy")
                if row.get("status") != "ok" or got is None:
                    failures.append(f"{cell} status {row.get('status')}, expected {want!r}")
                    continue
                if not abs(got - want) <= ENERGY_TOL:
                    failures.append(f"{cell} energy {got!r}, closed form {want!r}")
                    continue
                published = ref.published_energy(v0, s0, d, n, l)
                if published is not None and not abs(got - published) <= ref.PUBLISHED_TOL:
                    failures.append(f"{cell} energy {got!r}, published {published!r}")
    return failures


# --- states: a seeded stream of single-state CLI requests ----------------

# each block of STATES_BLOCK requests holds this many limits requests, at
# seeded positions, so every block carries the same mix of commands
STATES_BLOCK = 10
LIMITS_PER_BLOCK = 2
# the CLI's default --a-sequence, which the limits requests leave unset
LIMITS_A_SEQUENCE = (0.002, 0.001, 0.0005)


@dataclass(frozen=True)
class StateRequest:
    command: str  # "solve" or "limits"
    v0: float
    beta: float
    a: float
    n: int
    l: int
    d: int

    def argv(self) -> list[str]:
        out = [
            self.command, "--v0", repr(self.v0), "--beta", repr(self.beta),
            "--a", repr(self.a), "--mass", repr(MASS),
            "--n", str(self.n), "--l", str(self.l), "--dim", str(self.d),
        ]
        if self.command == "solve":
            out += ["--format", "json"]
        return out


def state_block(rng: random.Random) -> list[StateRequest]:
    """STATES_BLOCK seeded requests; no two requests share inputs.

    solve draws v0 in [0.05, 0.3], a in [0.01, 0.1]; limits draws small
    couplings, v0 in [0.05, 0.15] and a in [0.0005, 0.005].  Both draw
    beta in [-1, 1], n <= 3, l <= 2 and D in 2..10.
    """
    commands = ["limits"] * LIMITS_PER_BLOCK + ["solve"] * (STATES_BLOCK - LIMITS_PER_BLOCK)
    rng.shuffle(commands)
    block = []
    for command in commands:
        if command == "limits":
            v0, a = rng.uniform(0.05, 0.15), rng.uniform(0.0005, 0.005)
        else:
            v0, a = rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.1)
        block.append(StateRequest(
            command, v0, rng.uniform(-1.0, 1.0), a,
            rng.randint(1, 3), rng.randint(0, 2), rng.randint(2, 10),
        ))
    return block


def expected_state(req: StateRequest):
    """Closed-form answer: the energy (solve), the decaying-branch energy
    per screening value (limits), or the outcome string when there is none."""
    s0 = req.beta * req.v0
    if req.command == "solve":
        return ref.closed_form(req.v0, s0, req.a, MASS, req.n, req.l, req.d,
                               ref.PUBLISHED_BRANCH)
    energies = []
    for a in LIMITS_A_SEQUENCE:
        # the relativistic side of the limit halves both couplings
        e = ref.closed_form(req.v0 / 2.0, s0 / 2.0, a, MASS, req.n, req.l, req.d,
                            ref.DECAYING_BRANCH)
        if isinstance(e, str):
            return e
        energies.append(e)
    return energies


def _close(got: float, want: float, rel: float = 1e-8) -> bool:
    """Within the 9 significant digits the CLI prints."""
    return abs(got - want) <= rel * abs(want) + 1e-15


def _check_no_solution(want, code: int, stderr: str) -> list[str]:
    if code != EXIT_NO_SOLUTION:
        return [f"exit code {code}, expected {EXIT_NO_SOLUTION} ({want})"]
    kind = ref.COMPLEX_CHANNEL if "ComplexChannel" in stderr else ref.NO_STATE
    if kind != want:
        return [f"reported {kind}, expected {want}: {stderr.strip()}"]
    return []


def _check_limits(req: StateRequest, want: list, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    rows = [ln for ln in lines if ln.startswith("a = ")]
    if len(rows) != len(LIMITS_A_SEQUENCE):
        return [f"{len(rows)} convergence rows, expected {len(LIMITS_A_SEQUENCE)}"]
    failures = []
    try:
        head = {k.strip(): float(v) for k, v in (ln.split(" = ", 1) for ln in lines[:2])}
        if not _close(head["nonrelativistic energy"],
                      ref.nonrel_energy(MASS, req.v0, req.a, req.n, req.l, req.d)):
            failures.append(f"nonrelativistic energy {head['nonrelativistic energy']!r}")
        if not _close(head["coulomb energy (a=0)"],
                      ref.nonrel_energy(MASS, req.v0, 0.0, req.n, req.l, req.d)):
            failures.append(f"coulomb energy {head['coulomb energy (a=0)']!r}")
        for row, a, e_rel in zip(rows, LIMITS_A_SEQUENCE, want):
            fields = dict(part.split(" = ", 1) for part in row.split(": ", 1)[1].split(", "))
            got = MASS + float(fields["E_rel - M"])  # 9 significant digits of E - M
            if not abs(got - e_rel) <= ENERGY_TOL:
                failures.append(f"a={a}: E_rel {got!r}, closed form {e_rel!r}")
            e_nr = ref.nonrel_energy(MASS, req.v0, a, req.n, req.l, req.d)
            if not _close(float(fields["E_nonrel"]), e_nr):
                failures.append(f"a={a}: E_nonrel {fields['E_nonrel']}, expected {e_nr!r}")
    except (ValueError, KeyError, IndexError) as exc:
        failures.append(f"unparsable limits output: {exc!r}")
    return failures


def check_state(req: StateRequest, code: int, stdout: str, stderr: str) -> list[str]:
    want = expected_state(req)
    if isinstance(want, str):
        return _check_no_solution(want, code, stderr)
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}: {stderr.strip()}"]
    if req.command == "limits":
        return _check_limits(req, want, stdout)
    try:
        got = float(json.loads(stdout)["energy"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable solve output: {exc!r}"]
    if not abs(got - want) <= ENERGY_TOL:
        return [f"energy {got!r}, closed form {want!r}"]
    return []


# --- oracle: decaying-branch states through the finite-difference solver --

ORACLE_V0 = 0.2
ORACLE_A = 0.05
ORACLE_QN = (1, 0, 3)  # (n, l, D)
ORACLE_EIGEN_INDEX = 1
ORACLE_GRID = (1e-4, 400.0, 2000)  # RadialGrid(r_min, r_max, points)
ORACLE_HALF_WIDTH = 5e-3
ORACLE_SCAN_POINTS = 11
ORACLE_MODES = ("approximated", "exact")


def oracle_reference(beta: float) -> float:
    """Closed-form decaying-branch energy, checked against the rounded
    value the benchmark stores."""
    n, l, d = ORACLE_QN
    e = ref.closed_form(ORACLE_V0, beta * ORACLE_V0, ORACLE_A, MASS, n, l, d,
                        ref.DECAYING_BRANCH)
    if isinstance(e, str) or abs(e - ref.ORACLE_STATES[beta]) > 1e-8:
        raise ValueError(f"closed form {e!r} disagrees with stored {ref.ORACLE_STATES[beta]}")
    return e


def oracle_cycle(rng: random.Random) -> list[tuple[float, str]]:
    """Both states in both modes, in a seeded order."""
    ops = [(beta, mode) for beta in sorted(ref.ORACLE_STATES) for mode in ORACLE_MODES]
    rng.shuffle(ops)
    return ops


def check_oracle(beta: float, mode: str, richardson: float) -> list[str]:
    """Approximated mode must reach the closed form to 5e-5; exact mode
    must stay within 2e-3 of it, the gap between the two equations."""
    want = oracle_reference(beta)
    tol = ref.ORACLE_RICHARDSON_TOL if mode == "approximated" else ref.ORACLE_MODE_GAP_MAX
    if not (math.isfinite(richardson) and abs(richardson - want) <= tol):
        return [f"Richardson estimate {richardson!r}, closed form {want!r}, tolerance {tol}"]
    return []
