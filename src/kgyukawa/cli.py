"""Command-line interface: single-state solve, table reproduction,
degeneracy scan, wavefunction export, potential comparison, eigensolver
cross-check and limit checks, with CSV or JSON output.

Exit codes: 0 success, 1 invalid input, 2 no solution / physics error,
3 internal numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import (
    _NO_SOLUTION,
    DomainError,
    KgYukawaError,
    NoRootInBracket,
    NonFinite,
    NormalizationFailure,
    _finite,
)
from .limits import NonRelParams, coulomb_energy, nonrel_energy, nonrel_limit_of_relativistic
from .oracle import DEFAULT_ORACLE_POINTS, cross_validate
from .params import PARTNER_SHIFT, ParticleParams, PotentialParams, QuantumNumbers
from .potentials import profile
from .solver import (
    DEFAULT_WF_POINTS,
    count_nodes,
    default_radial_grid,
    radial_wavefunction,
    solve_energy,
    solve_table,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_NUMERIC_FAILURE = 3


def fmt_energy(x: Optional[float]) -> str:
    """Energies print with 8 decimal places (table convention); a missing
    one prints empty."""
    if x is None:
        return ""
    return f"{x:.8f}"


def fmt_num(x: Optional[float]) -> str:
    """Locale-independent 9-significant-digit formatting for other columns."""
    if x is None:
        return ""
    return f"{x:.9g}"


def _as_is(x):
    return x


# Each command's fields in output order, with the formatter that prints
# each one in CSV and text output.
SOLVE_FIELDS = {"energy": fmt_energy, "epsilon": fmt_energy, "residual": fmt_num,
                "iterations": _as_is}
TABLE_COLUMNS = {"dim": _as_is, "n": _as_is, "l": _as_is, "energy": fmt_energy,
                 "residual": fmt_num, "status": _as_is}
DEGENERACY_COLUMNS = {"dim": _as_is, "n": _as_is, "l": _as_is, "direction": _as_is,
                      "partner_dim": _as_is, "partner_l": _as_is, "energy": fmt_energy,
                      "partner_energy": fmt_energy, "delta": fmt_num}
WAVEFUNCTION_COLUMNS = {"r": fmt_num, "R": fmt_num}
POTENTIAL_COLUMNS = {"r": fmt_num, "exact": fmt_num, "approx": fmt_num, "abs_err": fmt_num,
                     "rel_err": fmt_num}
ORACLE_COLUMNS = {"mode": _as_is, "e_solver": fmt_energy, "status": _as_is,
                  "eigen_index": _as_is, "e_oracle": fmt_energy, "richardson": fmt_energy,
                  "delta": fmt_num, "nearest_root": fmt_energy, "nearest_delta": fmt_num}


def _record(obj, fields) -> dict:
    """The named attributes of obj, in order."""
    return {name: getattr(obj, name) for name in fields}


def _formatted(columns: dict, records) -> list[dict]:
    """Each record as printed: every value through its column's formatter."""
    return [{name: fmt(rec[name]) for name, fmt in columns.items()} for rec in records]


def _inputs(params: dict) -> tuple[PotentialParams, ParticleParams, Optional[QuantumNumbers]]:
    """Couplings, particle and, for the single-state commands, the state
    (None for the grid commands) from the command's flags."""
    v0, s0, beta, a = params["v0"], params["s0"], params["beta"], params["a"]
    if (s0 is None) == (beta is None):
        raise DomainError("exactly one of --s0 or --beta must be given")
    if beta is not None:
        pp = PotentialParams.from_beta(v0=v0, beta=beta, a=a)
    else:
        pp = PotentialParams(v0=v0, s0=s0, a=a)
    mp = ParticleParams(mass=params["mass"])
    qn = QuantumNumbers(n=params["n"], l=params["l"], d=params["dim"]) if "n" in params else None
    return pp, mp, qn


def parse_range(spec: str) -> list[int]:
    """A range flag's value: '3:10' (inclusive) or '1,2,3' or a single integer."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            try:
                return list(range(lo, hi + 1))
            except MemoryError:  # Python's own, which carries no text
                raise MemoryError(f"cannot hold the {hi - lo + 1} values of range {spec!r}") from None
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse range {spec!r}; use LO:HI or a,b,c") from None
    if not values:
        raise DomainError(f"range {spec!r} names no value")
    return values


def _emit(params: dict, columns, records, payload=None):
    """Write to --out or stdout: under --format json the payload, or else
    the records themselves; otherwise CSV, the formatted records under the
    column names, or text lines when columns is None.  An --out that
    cannot be written is invalid input."""
    if params.get("format") == "json":  # limits takes no --format
        text = json.dumps(records if payload is None else payload, indent=2) + "\n"
    elif columns is None:
        text = "".join(line + "\n" for line in records)
    else:
        buf = io.StringIO()
        rows = (row.values() for row in _formatted(columns, records))
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        text = buf.getvalue()
    if params["out"]:
        try:
            Path(params["out"]).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write {params['out']}: {exc}") from exc
    else:
        sys.stdout.write(text)


# The commands are private, so that perfbench's tracer, which spans the
# public functions, counts their time as main's own.

def _solve(params):
    """Solve a single (n, l, D) state and print energy diagnostics."""
    record = _record(solve_energy(*_inputs(params)), SOLVE_FIELDS)
    lines = [f"{name} = {fmt(record[name])}" for name, fmt in SOLVE_FIELDS.items()]
    _emit(params, None, lines, record)


def _table(params):
    """Solve an energy grid over D x n x l and emit it as CSV/JSON."""
    pp, mp, _ = _inputs(params)
    cells = solve_table(pp, mp, params["cells"])
    _emit(params, TABLE_COLUMNS, [_record(c, TABLE_COLUMNS) for c in cells])


def _degeneracy(params):
    """Check interdimensional partner energies (n, l+-1, D-+2)."""
    pp, mp, _ = _inputs(params)
    max_delta = _finite(params["max_delta"], "--max-delta")
    cells = params["cells"]
    # the states, then per direction a copy whose cell i is the partner of
    # state i: one table, so each K is solved once
    table = solve_table(pp, mp, cells + [(d + dd, n, l + dl) for dl, dd in PARTNER_SHIFT.values()
                                         for d, n, l in cells])
    states, *partners = (table[i:i + len(cells)] for i in range(0, len(table), len(cells)))
    for cell in states:
        if cell.status == "error":  # an invalid n, l or D, or couplings too large
            raise DomainError(cell.message)
    records = []
    for state, *pair in zip(states, *partners):
        for direction, partner in zip(PARTNER_SHIFT, pair):
            # a partner shares the state's K, so its cell is an error only
            # where it leaves the domain of (n, l, d)
            if state.status == partner.status == "ok":
                records.append(dict(zip(DEGENERACY_COLUMNS, (
                    state.dim, state.n, state.l, direction, partner.dim, partner.l,
                    state.energy, partner.energy, abs(state.energy - partner.energy)))))
    worst = max((rec["delta"] for rec in records), default=0.0)
    payload = {"rows": _formatted(DEGENERACY_COLUMNS, records), "max_delta": worst}
    _emit(params, DEGENERACY_COLUMNS, records, payload)
    print(f"max |delta| = {fmt_num(worst)}", file=sys.stderr)
    if worst > max_delta:
        raise NoRootInBracket(f"degeneracy violated: max |delta| = {worst}")


def _wavefunction(params):
    """Export the normalized radial wavefunction as (r, R) samples."""
    pp, mp, qn = _inputs(params)
    sol = solve_energy(pp, mp, qn)
    wf = radial_wavefunction(sol, pp, mp, qn, default_radial_grid(sol.epsilon, params["points"]))
    nodes = count_nodes(wf)
    payload = {
        "energy": sol.energy,
        "jacobi_alpha": wf.jacobi_alpha,
        "jacobi_beta": wf.jacobi_beta,
        "norm": wf.norm,
        "nodes": nodes,
        "samples": wf.samples.tolist(),
    }
    records = (dict(zip(WAVEFUNCTION_COLUMNS, sample)) for sample in payload["samples"])
    _emit(params, WAVEFUNCTION_COLUMNS, records, payload)
    print(f"nodes = {nodes}", file=sys.stderr)


def _potential(params):
    """Tabulate the exact potential against its exponential approximant."""
    prof = profile(params["v0"], params["a"], params["r_min"], params["r_max"], params["points"])
    values = [getattr(prof, name).tolist() for name in POTENTIAL_COLUMNS]
    # rel_err is NaN where the exact value is too small for one
    values[-1] = [None if math.isnan(x) else x for x in values[-1]]
    records = [dict(zip(POTENTIAL_COLUMNS, row)) for row in zip(*values)]
    _emit(params, POTENTIAL_COLUMNS, records)


def _oracle(params):
    """Cross-check the quantization-equation energy against the
    finite-difference eigensolver."""
    pp, mp, qn = _inputs(params)
    modes = ["approximated", "exact"] if params["mode"] == "both" else [params["mode"]]
    results = [cross_validate(pp, mp, qn, mode=mode, points=params["points"]) for mode in modes]
    records = [_record(c, ORACLE_COLUMNS) for c in results]
    _emit(params, ORACLE_COLUMNS, records, _formatted(ORACLE_COLUMNS, records))
    if any(c.status != "validated" for c in results):
        raise NoRootInBracket("eigensolver did not validate the solver energy; see output")


def _limits(params):
    """Print Schrodinger/Coulomb limit energies and the relativistic
    convergence report."""
    pp, mp, qn = _inputs(params)
    spec = params["a_sequence"]
    try:
        a_seq = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse --a-sequence {spec!r}") from None
    if not a_seq:
        raise DomainError(f"--a-sequence {spec!r} names no value")
    nr = NonRelParams(mu=mp.mass, v0=pp.v0, a=pp.a)
    lines = [
        f"nonrelativistic energy = {fmt_num(nonrel_energy(nr, qn))}",
        f"coulomb energy (a=0) = {fmt_num(coulomb_energy(nr, qn))}",
    ]
    report = nonrel_limit_of_relativistic(pp, mp, qn, a_seq)
    for row in report.rows:
        lines.append(
            f"a = {fmt_num(row.a)}: E_rel = {fmt_energy(row.e_relativistic)}, "
            f"E_rel - M = {fmt_num(row.e_relativistic - mp.mass)}, "
            f"E_nonrel = {fmt_num(row.e_nonrelativistic)}, gap = {fmt_num(row.gap)}"
        )
    _emit(params, None, lines)


# Each group of flags maps a flag to its add_argument keywords; every flag
# takes one value.
COMMON_FLAGS = {
    "--v0": dict(type=float, help="Vector strength (required)."),
    "--s0": dict(type=float, help="Scalar strength."),
    "--beta": dict(type=float, help="Mixing ratio s0/v0 (alternative to --s0)."),
    "--a": dict(type=float, help="Screening parameter (fm^-1, required)."),
    "--mass": dict(type=float, default=1.0, help="Rest mass M (fm^-1)."),
    "--format": dict(choices=("csv", "json"), default="csv", help="Structured output format."),
    "--out": dict(help="Output file (default stdout)."),
    "--config": dict(help="JSON file mirroring the flags; flags override it."),
}


def _common_flags(*left_out: str) -> dict:
    """COMMON_FLAGS in their order, but for the ones left out."""
    return {flag: kwargs for flag, kwargs in COMMON_FLAGS.items() if flag not in left_out}


STATE_FLAGS = {"--n": dict(type=int, default=1), "--l": dict(type=int, default=0),
               "--dim": dict(type=int, default=3)}
GRID_FLAGS = {"--n-range": dict(default="1:3"), "--l-range": dict(default="0:2"),
              "--dim-range": dict(default="3:10")}
# each command: its function and every flag it takes but --help
COMMANDS = {
    "solve": (_solve, {**COMMON_FLAGS, **STATE_FLAGS}),
    "table": (_table, {**COMMON_FLAGS, **GRID_FLAGS}),
    "degeneracy": (_degeneracy, {**COMMON_FLAGS, **GRID_FLAGS, "--max-delta": dict(
        type=float, default=1e-10, help="Acceptance threshold on |E - E_partner|.")}),
    "wavefunction": (_wavefunction, {**COMMON_FLAGS, **STATE_FLAGS,
                                     "--points": dict(type=int, default=DEFAULT_WF_POINTS)}),
    # the Yukawa term alone: no scalar coupling, mass or state
    "potential": (_potential, {**_common_flags("--s0", "--beta", "--mass"),
                               "--r-min": dict(type=float, default=0.1),
                               "--r-max": dict(type=float, default=20.0),
                               "--points": dict(type=int, default=400)}),
    "oracle": (_oracle, {**COMMON_FLAGS, **STATE_FLAGS,
                         "--mode": dict(choices=("approximated", "exact", "both"),
                                        default="approximated"),
                         "--points": dict(type=int, default=DEFAULT_ORACLE_POINTS)}),
    # text lines only: no --format
    "limits": (_limits, {**_common_flags("--format"), **STATE_FLAGS, "--a-sequence": dict(
        default="0.002,0.001,0.0005",
        help="Comma-separated screening values for the convergence report.")}),
}
FLAGS = {name: flags for name, (_, flags) in COMMANDS.items()}
METAVARS = {float: "FLOAT", int: "INTEGER", None: "TEXT"}


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with exit code 1 and an 'error: ' line."""

    def error(self, message):
        self.exit(EXIT_INVALID_INPUT, f"error: {message}\n")


def _parser() -> _Parser:
    """One subparser per command; --help and --version are the only
    other flags (no -h, no abbreviations)."""
    parser = _Parser(prog="kgyukawa", usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
                     description="Bound states of the D-dimensional Klein-Gordon equation "
                     "with scalar/vector Yukawa couplings.", add_help=False,
                     allow_abbrev=False)
    parser.add_argument("--version", action="version", help="Show the version and exit.",
                        version=f"%(prog)s, version {__version__}")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                     required=True, prog="kgyukawa")
    for name, (run, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  usage="%(prog)s [OPTIONS]", add_help=False,
                                  allow_abbrev=False)
        for flag, kwargs in FLAGS[name].items():
            text = kwargs.get("help", "")
            if "default" in kwargs:
                text += " [default: %(default)s]"
            metavar = None if "choices" in kwargs else METAVARS[kwargs.get("type")]
            sub.add_argument(flag, **dict(kwargs, help=text, metavar=metavar))
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


PARSER = _parser()


def _bind_values(args: list[str]) -> list[str]:
    """args with each flag of the command joined to the token after it as
    --flag=value: a flag's value is that token whatever it looks like
    (--s0 -1e-05, --beta -inf, --n-range -1:2), where argparse takes a
    token that starts with '-' for a flag unless it is a plain negative
    number."""
    if not args or args[0] not in COMMANDS:
        return args
    bound, rest = args[:1], iter(args[1:])
    for token in rest:
        if token == "--":  # the end of the flags; no command takes a token after it
            tail = list(rest)
            return bound + (["--", *tail] if tail else [])
        value = next(rest, None) if token in FLAGS[args[0]] else None
        bound.append(token if value is None else f"{token}={value}")
    return bound


def _config_args(command: str, path: str) -> list[str]:
    """The JSON object in path as --flag=value tokens, read as if typed:
    keys are flag names with dashes as underscores (other keys and null
    values are ignored), and a value that is no string is written as
    JSON, so that 2.7 is no integer."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config {path} must hold a JSON object")
    flags = {flag[2:].replace("-", "_"): flag for flag in FLAGS[command] if flag != "--config"}
    return [f"{flags[key]}={value if isinstance(value, str) else json.dumps(value)}"
            for key, value in data.items() if key in flags and value is not None]


def _parse(args: list[str]) -> dict:
    """The command's flags by name, a grid command's three ranges as one
    list of (d, n, l) cells, "cells", over D, then n, then l.  A flag not
    on the command line takes its --config value, or else its default;
    --v0 and --a must get a value from one of the first two."""
    args = _bind_values(args)
    params = vars(PARSER.parse_args(args))
    if params["config"] is not None:
        config = _config_args(params["command"], params["config"])
        params = vars(PARSER.parse_args([args[0], *config, *args[1:]]))
    if "n_range" in params:
        n, l, d = (parse_range(params.pop(name)) for name in ("n_range", "l_range", "dim_range"))
        params["cells"] = list(itertools.product(d, n, l))
    for name in ("v0", "a"):
        if params[name] is None:
            PARSER.error(f"Missing option '--{name}'.")
    return params


def main(argv=None) -> int:
    """Entry point mapping typed errors onto the documented exit codes."""
    try:
        params = _parse(sys.argv[1:] if argv is None else list(argv))
        COMMANDS[params["command"]][0](params)
    except SystemExit as exc:  # from the parser: --help, --version or a rejected command line
        return exc.code
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except _NO_SOLUTION as exc:
        print(f"no solution: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (NonFinite, NormalizationFailure) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except MemoryError as exc:  # an admitted size the host cannot hold, such as --points 2**53
        print(f"numeric failure: MemoryError: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except KgYukawaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
