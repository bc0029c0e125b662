"""Command-line interface: single-state solve, table reproduction,
degeneracy scan, wavefunction export, potential comparison, eigensolver
cross-check and limit checks, with CSV or JSON output.

Exit codes: 0 success, 1 invalid input, 2 no solution / physics error,
3 internal numeric failure.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional

import click

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
from .params import ParticleParams, PotentialParams, QuantumNumbers, degeneracy_partner
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


def _load_config(ctx: click.Context, _param, path: Optional[str]) -> None:
    """Eager --config callback: the JSON object becomes the command's
    default_map, so its keys (flag names, dashes as underscores) fill in
    every flag not given on the command line."""
    if path is None:
        return
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config {path} must hold a JSON object")
    # read each value as if typed after its flag, so that 2.7 is no integer
    ctx.default_map = {
        k: v if v is None or isinstance(v, str) else json.dumps(v) for k, v in data.items()
    }


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


def parse_range(_ctx, _param, spec: str) -> list[int]:
    """Range-flag callback: '3:10' (inclusive) or '1,2,3' or a single integer."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in spec:
            return [int(tok) for tok in spec.split(",") if tok.strip()]
        return [int(spec)]
    except ValueError:
        raise DomainError(f"cannot parse range {spec!r}; use LO:HI or a,b,c") from None


def _emit(params: dict, columns, records, payload=None):
    """Write to --out or stdout: under --format json the payload, or else
    the records themselves; otherwise CSV, the formatted records under the
    column names, or text lines when columns is None (text under either
    format if no payload)."""
    if params["format"] == "json" and (payload is not None or columns is not None):
        text = json.dumps(records if payload is None else payload, indent=2) + "\n"
    elif columns is None:
        text = "".join(line + "\n" for line in records)
    else:
        buf = io.StringIO()
        rows = (row.values() for row in _formatted(columns, records))
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        text = buf.getvalue()
    if params["out"]:
        Path(params["out"]).write_text(text, encoding="utf-8")
    else:
        # an explicit file keeps click from caching, and never freeing, the stream
        click.echo(text, nl=False, file=sys.stdout)


def common_options(f):
    f = click.option("--config", type=str, default=None, is_eager=True, expose_value=False,
                     callback=_load_config,
                     help="JSON file mirroring the flags; flags override it.")(f)
    f = click.option("--out", "out", type=str, default=None, help="Output file (default stdout).")(f)
    f = click.option("--format", type=click.Choice(["csv", "json"]), default="csv",
                     help="Structured output format.")(f)
    f = click.option("--mass", type=float, default=1.0, show_default=True, help="Rest mass M (fm^-1).")(f)
    f = click.option("--a", "a", type=float, required=True, help="Screening parameter (fm^-1).")(f)
    f = click.option("--beta", type=float, default=None, help="Mixing ratio s0/v0 (alternative to --s0).")(f)
    f = click.option("--s0", type=float, default=None, help="Scalar strength.")(f)
    f = click.option("--v0", type=float, required=True, help="Vector strength.")(f)
    return f


def state_options(f):
    f = click.option("--dim", type=int, default=3, show_default=True)(f)
    f = click.option("--l", "l", type=int, default=0, show_default=True)(f)
    f = click.option("--n", "n", type=int, default=1, show_default=True)(f)
    return f


def grid_options(f):
    f = click.option("--dim-range", default="3:10", show_default=True, callback=parse_range)(f)
    f = click.option("--l-range", default="0:2", show_default=True, callback=parse_range)(f)
    f = click.option("--n-range", default="1:3", show_default=True, callback=parse_range)(f)
    return f


@click.group()
@click.version_option(package_name="kgyukawa")
def cli():
    """Bound states of the D-dimensional Klein-Gordon equation with
    scalar/vector Yukawa couplings."""


@cli.command()
@common_options
@state_options
@click.pass_context
def solve(ctx, **_kw):
    """Solve a single (n, l, D) state and print energy diagnostics."""
    record = _record(solve_energy(*_inputs(ctx.params)), SOLVE_FIELDS)
    lines = [f"{name} = {fmt(record[name])}" for name, fmt in SOLVE_FIELDS.items()]
    _emit(ctx.params, None, lines, record)


@cli.command()
@common_options
@grid_options
@click.pass_context
def table(ctx, **_kw):
    """Solve an energy grid over D x n x l and emit it as CSV/JSON."""
    pp, mp, _ = _inputs(ctx.params)
    cells = solve_table(pp, mp, ctx.params["n_range"], ctx.params["l_range"],
                        ctx.params["dim_range"])
    _emit(ctx.params, TABLE_COLUMNS, [_record(c, TABLE_COLUMNS) for c in cells])


@cli.command()
@common_options
@grid_options
@click.option("--max-delta", type=float, default=1e-10, show_default=True,
              help="Acceptance threshold on |E - E_partner|.")
@click.pass_context
def degeneracy(ctx, **_kw):
    """Check interdimensional partner energies (n, l+-1, D-+2)."""
    pp, mp, _ = _inputs(ctx.params)
    max_delta = _finite(ctx.params["max_delta"], "--max-delta")

    def solved(qn, direction=None):
        """qn, or its partner going direction, with its energy; (None, None)
        when the partner leaves the domain or the state has no solution."""
        try:
            state = qn if direction is None else degeneracy_partner(qn, direction)
            return state, solve_energy(pp, mp, state).energy
        except _NO_SOLUTION:
            return None, None

    records = []
    worst = 0.0
    for d in ctx.params["dim_range"]:
        for n in ctx.params["n_range"]:
            for l in ctx.params["l_range"]:
                qn, e = solved(QuantumNumbers(n=n, l=l, d=d))
                if qn is None:
                    continue
                for direction in ("up", "down"):
                    partner, e_p = solved(qn, direction)
                    if partner is None:
                        continue
                    delta = abs(e - e_p)
                    worst = max(worst, delta)
                    records.append(dict(zip(
                        DEGENERACY_COLUMNS,
                        (d, n, l, direction, partner.d, partner.l, e, e_p, delta),
                    )))
    payload = {"rows": _formatted(DEGENERACY_COLUMNS, records), "max_delta": worst}
    _emit(ctx.params, DEGENERACY_COLUMNS, records, payload)
    click.echo(f"max |delta| = {fmt_num(worst)}", file=sys.stderr)
    if worst > max_delta:
        raise NoRootInBracket(f"degeneracy violated: max |delta| = {worst}")


@cli.command()
@common_options
@state_options
@click.option("--points", type=int, default=DEFAULT_WF_POINTS, show_default=True)
@click.pass_context
def wavefunction(ctx, **_kw):
    """Export the normalized radial wavefunction as (r, R) samples."""
    pp, mp, qn = _inputs(ctx.params)
    sol = solve_energy(pp, mp, qn)
    wf = radial_wavefunction(sol, pp, mp, qn, default_radial_grid(sol.epsilon, ctx.params["points"]))
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
    _emit(ctx.params, WAVEFUNCTION_COLUMNS, records, payload)
    click.echo(f"nodes = {nodes}", file=sys.stderr)


@cli.command()
@common_options
@click.option("--r-min", type=float, default=0.1, show_default=True)
@click.option("--r-max", type=float, default=20.0, show_default=True)
@click.option("--points", type=int, default=400, show_default=True)
@click.pass_context
def potential(ctx, **_kw):
    """Tabulate the exact potential against its exponential approximant."""
    v0, a = ctx.params["v0"], ctx.params["a"]
    prof = profile(v0, a, ctx.params["r_min"], ctx.params["r_max"], ctx.params["points"])
    values = [getattr(prof, name).tolist() for name in POTENTIAL_COLUMNS]
    # rel_err is NaN where the exact value is too small for one
    values[-1] = [None if math.isnan(x) else x for x in values[-1]]
    records = [dict(zip(POTENTIAL_COLUMNS, row)) for row in zip(*values)]
    _emit(ctx.params, POTENTIAL_COLUMNS, records)


@cli.command()
@common_options
@state_options
@click.option("--mode", type=click.Choice(["approximated", "exact", "both"]),
              default="approximated", show_default=True)
@click.option("--points", type=int, default=DEFAULT_ORACLE_POINTS, show_default=True)
@click.pass_context
def oracle(ctx, **_kw):
    """Cross-check the quantization-equation energy against the
    finite-difference eigensolver."""
    pp, mp, qn = _inputs(ctx.params)
    modes = ["approximated", "exact"] if ctx.params["mode"] == "both" else [ctx.params["mode"]]
    results = [cross_validate(pp, mp, qn, mode=mode, points=ctx.params["points"]) for mode in modes]
    records = [_record(c, ORACLE_COLUMNS) for c in results]
    _emit(ctx.params, ORACLE_COLUMNS, records, _formatted(ORACLE_COLUMNS, records))
    if any(c.status != "validated" for c in results):
        raise NoRootInBracket("eigensolver did not validate the solver energy; see output")


@cli.command()
@common_options
@state_options
@click.option("--a-sequence", type=str, default="0.002,0.001,0.0005", show_default=True,
              help="Comma-separated screening values for the convergence report.")
@click.pass_context
def limits(ctx, **_kw):
    """Print Schrodinger/Coulomb limit energies and the relativistic
    convergence report."""
    pp, mp, qn = _inputs(ctx.params)
    try:
        a_seq = [float(tok) for tok in ctx.params["a_sequence"].split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse --a-sequence {ctx.params['a_sequence']!r}") from None
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
    _emit(ctx.params, None, lines)


def main(argv=None) -> int:
    """Entry point mapping typed errors onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return EXIT_INVALID_INPUT
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except DomainError as exc:
        click.echo(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except _NO_SOLUTION as exc:
        click.echo(f"no solution: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (NonFinite, NormalizationFailure) as exc:
        click.echo(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except KgYukawaError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
