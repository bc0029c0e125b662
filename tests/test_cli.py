"""Command-line surface: output formats, config handling, exit codes."""
import contextlib
import csv
import gc
import io
import json
import re
import weakref

import pytest

import kgyukawa
from kgyukawa import (
    ComplexChannel,
    KgYukawaError,
    NoRootInBracket,
    NonFinite,
    NormalizationFailure,
)
from kgyukawa.cli import FLAGS, main
from kgyukawa.solver import solve_energy

BASE = ["--v0", "0.2", "--s0", "0.1", "--a", "0.05", "--mass", "1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_table_value(capsys):
    code, out, _ = run(capsys, ["solve", *BASE, "--n", "1", "--l", "0", "--dim", "3"])
    assert code == 0
    assert "-0.98885705" in out
    assert "epsilon" in out and "residual" in out and "iterations" in out


def test_solve_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["solve", *BASE, "--n", "1", "--l", "0", "--dim", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == pytest.approx(-0.98885705, abs=1e-7)


def test_invalid_screening_is_input_error(capsys):
    code, _, err = run(capsys, ["solve", "--v0", "0.2", "--s0", "0.1", "--a", "0",
                                "--mass", "1", "--n", "1", "--l", "0", "--dim", "3"])
    assert code == 1
    assert "invalid input" in err


def test_s0_and_beta_are_exclusive(capsys):
    code, _, err = run(capsys, ["solve", "--v0", "0.2", "--s0", "0.1", "--beta", "0.5",
                                "--a", "0.05"])
    assert code == 1
    assert "exactly one" in err
    code, _, err = run(capsys, ["solve", "--v0", "0.2", "--a", "0.05"])
    assert code == 1


def test_beta_flag_equivalent_to_s0(capsys):
    code, out_beta, _ = run(capsys, ["solve", *["--v0", "0.2", "--beta", "0.5",
                                                "--a", "0.05", "--mass", "1"],
                                     "--n", "1", "--l", "0", "--dim", "3"])
    assert code == 0
    assert "-0.98885705" in out_beta


def test_overstrong_coupling_is_physics_error(capsys):
    code, _, err = run(capsys, ["solve", "--v0", "5", "--s0", "0", "--a", "0.05",
                                "--mass", "1", "--n", "1", "--l", "0", "--dim", "3"])
    assert code == 2
    assert "ComplexChannel" in err


def test_no_bound_state_is_physics_error(capsys):
    code, _, err = run(capsys, ["solve", "--v0", "0.2", "--s0", "0.1", "--a", "5",
                                "--mass", "1", "--n", "1", "--l", "0", "--dim", "3"])
    assert code == 2
    assert "NoRootInBracket" in err


def test_unknown_flag_is_input_error(capsys):
    code, _, _ = run(capsys, ["solve", "--does-not-exist", "1"])
    assert code == 1


def test_table_csv_shape_and_values(capsys):
    code, out, _ = run(capsys, [
        "table", *BASE, "--n-range", "1:2", "--l-range", "0:1", "--dim-range", "3:4",
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert set(rows[0]) == {"dim", "n", "l", "energy", "residual", "status"}
    first = rows[0]
    assert (first["dim"], first["n"], first["l"]) == ("3", "1", "0")
    assert first["energy"] == "-0.98885705"
    assert first["status"] == "ok"


def test_table_no_bound_state_rows_exit_zero(capsys):
    code, out, _ = run(capsys, [
        "table", "--v0", "0.2", "--s0", "0.1", "--a", "5", "--mass", "1",
        "--n-range", "1", "--l-range", "0", "--dim-range", "3",
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "no_bound_state"
    assert rows[0]["energy"] == ""


def test_redirected_streams_are_freed():
    # perfbench and the output tests redirect both streams on every call,
    # so a stream the command line keeps a reference to is never freed
    refs = []
    for argv, want in (
        (["solve", *BASE], 0),
        (["solve", "--v0", "0.2", "--s0", "0.1", "--a", "5.0", "--mass", "1"], 2),
        (["--help"], 0),
        (["solve", "--help"], 0),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == want
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() is None for r in refs] == [True] * len(refs)


def test_table_json(capsys):
    code, out, _ = run(capsys, [
        "table", *BASE, "--format", "json",
        "--n-range", "1", "--l-range", "0", "--dim-range", "3",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["energy"] == pytest.approx(-0.98885705, abs=1e-7)


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "v0": 0.2, "s0": 0.2, "a": 0.05, "mass": 1.0,
        "n": 1, "l": 0, "dim": 3,
    }))
    code, out, _ = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    assert "-0.99503719" in out  # config values used
    code, out, _ = run(capsys, ["solve", "--config", str(cfg), "--s0", "0.1"])
    assert code == 0
    assert "-0.98885705" in out  # flag overrides config


def test_config_supplies_every_flag(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"v0": 1.41421356, "a": 0.0707106781, "points": 40,
                               "format": "json"}))
    code, out, _ = run(capsys, ["potential", "--config", str(cfg)])
    assert code == 0
    assert len(json.loads(out)) == 40
    code, out, _ = run(capsys, ["potential", "--config", str(cfg), "--format", "csv"])
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 40


@pytest.mark.parametrize("command, ignored", [("potential", {"s0": 0.1, "mass": 2.0}),
                                              ("limits", {"format": "json"})])
def test_config_key_of_a_flag_not_taken_is_ignored(capsys, tmp_path, command, ignored):
    taken = {"v0": 0.02, "a": 0.002, **({"s0": 0.02} if command == "limits" else {})}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**taken, **ignored}))
    flags = [tok for key, value in taken.items() for tok in (f"--{key}", str(value))]
    assert run(capsys, [command, "--config", str(cfg)]) == run(capsys, [command, *flags])


@pytest.mark.parametrize("bad", [{"v0": "abc"}, {"n": 2.7}])
def test_config_value_of_wrong_type_is_input_error(capsys, tmp_path, bad):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"v0": 0.2, "s0": 0.1, "a": 0.05, **bad}))
    code, _, err = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 1
    assert "invalid" in err.lower()


def test_config_invalid_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, ["solve", "--config", str(bad)])
    assert code == 1


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, [
        "table", *BASE, "--n-range", "1", "--l-range", "0", "--dim-range", "3",
        "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    assert "-0.98885705" in target.read_text()


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_out_that_cannot_be_written_is_input_error(capsys, tmp_path, where):
    # each escaped as a FileNotFoundError or IsADirectoryError traceback
    target = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, ["solve", *BASE, "--out", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith(f"invalid input: cannot write {target}: ")
    assert err.count("\n") == 1


def test_degeneracy_command(capsys):
    code, out, err = run(capsys, [
        "degeneracy", "--v0", "0.2", "--s0", "0.2", "--a", "0.05", "--mass", "1",
        "--n-range", "1:2", "--l-range", "0:1", "--dim-range", "3:5",
    ])
    assert code == 0
    assert "max |delta|" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert all(float(r["delta"]) <= 1e-10 for r in rows)


@pytest.mark.parametrize("beta, most", [("0.5", 36), ("1", 16), ("-1", 16)])
def test_paper_grid_degeneracy_solves_each_table_once(monkeypatch, capsys, beta, most):
    # the states and their partners are one table, and a partner shares its
    # state's K, so each distinct K is solved once; three tables took 99
    # and 45, and solving each state and each partner apart took 183
    calls = []

    def counted(pp, mp, qn, *args):
        calls.append(qn)
        return solve_energy(pp, mp, qn, *args)

    monkeypatch.setattr("kgyukawa.solver.solve_energy", counted)
    monkeypatch.setattr("kgyukawa.cli.solve_energy", counted)
    code, out, _ = run(capsys, ["degeneracy", "--v0", "0.2", "--beta", beta, "--a", "0.05"])
    assert code == 0
    assert len(out.splitlines()) > 1
    assert len(calls) <= most


@pytest.mark.parametrize("s0", ["0.1", "0.2", "-0.2"])
def test_paper_grid_partners_share_their_state_energy(capsys, s0):
    # a partner (n, l+-1, D-+2) has its state's float K, so the per-K memo
    # hands it the same solution: every delta is exactly 0, and the
    # --max-delta verdict fires only for a negative threshold
    code, out, err = run(capsys, ["degeneracy", "--v0", "0.2", "--s0", s0, "--a", "0.05",
                                  "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 111
    assert payload["max_delta"] == 0.0
    assert all(float(row["delta"]) == 0.0 for row in payload["rows"])
    assert err == "max |delta| = 0\n"


def test_wavefunction_csv_and_node_report(capsys):
    code, out, err = run(capsys, [
        "wavefunction", *BASE, "--n", "2", "--l", "0", "--dim", "3", "--points", "512",
    ])
    assert code == 0
    assert "nodes = 2" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0]) == {"r", "R"}
    assert len(rows) == 512


def test_wavefunction_at_zero_lambda(capsys):
    # D = 2, l = 0 and s0 = v0 give Lambda = 0 exactly
    code, out, err = run(capsys, [
        "wavefunction", "--v0", "0.1", "--s0", "0.1", "--a", "0.02",
        "--n", "1", "--l", "0", "--dim", "2", "--format", "json",
    ])
    assert code == 0
    assert err == "nodes = 1\n"
    payload = json.loads(out)
    assert payload["jacobi_beta"] == 0.0
    assert payload["nodes"] == 1


def test_potential_csv_headers(capsys):
    code, out, _ = run(capsys, [
        "potential", "--v0", "1.41421356", "--a", "0.0707106781",
        "--r-min", "0.1", "--r-max", "20", "--points", "40",
    ])
    assert code == 0
    reader = csv.reader(io.StringIO(out))
    assert next(reader) == ["r", "exact", "approx", "abs_err", "rel_err"]
    assert len(list(reader)) == 40


def test_limits_command(capsys):
    code, out, _ = run(capsys, [
        "limits", "--v0", "0.02", "--s0", "0.02", "--a", "0.002", "--mass", "1",
        "--n", "1", "--l", "0", "--dim", "3", "--a-sequence", "0.002",
    ])
    assert code == 0
    assert "nonrelativistic energy" in out
    assert "coulomb energy" in out
    assert "gap" in out


def test_oracle_command_labels_branch_mismatch(capsys):
    code, out, err = run(capsys, [
        "oracle", "--v0", "0.2", "--s0", "0.2", "--a", "0.05", "--mass", "1",
        "--n", "1", "--l", "0", "--dim", "3", "--points", "2000",
    ])
    # the eigensolver does not confirm the table-branch energy: labeled, exit 2
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "no_root_in_bracket"
    assert rows[0]["nearest_root"] != ""


COMMANDS = ("solve", "table", "degeneracy", "wavefunction", "potential", "oracle", "limits")


@pytest.mark.parametrize("missing", ["--v0", "--a"])
@pytest.mark.parametrize("command", COMMANDS)
def test_v0_and_a_are_required(capsys, command, missing):
    flags = {flag: value for flag, value in {"--v0": "0.2", "--s0": "0.1", "--a": "0.05"}.items()
             if flag in FLAGS[command] and flag != missing}
    code, out, err = run(capsys, [command, *(tok for kv in flags.items() for tok in kv)])
    assert code == 1
    assert out == ""
    assert missing in err


@pytest.mark.parametrize("flag, spec", [("--n-range", "3:1"), ("--dim-range", "x")])
@pytest.mark.parametrize("command", ["table", "degeneracy"])
def test_bad_range_is_input_error(capsys, command, flag, spec):
    code, out, err = run(capsys, [command, *BASE, flag, spec])
    assert code == 1
    assert out == ""
    assert "cannot parse range" in err


def test_degeneracy_json_carries_the_csv_rows(capsys):
    argv = ["degeneracy", "--v0", "0.2", "--s0", "0.2", "--a", "0.05",
            "--n-range", "1:2", "--l-range", "0:1", "--dim-range", "3:5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out)))
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "max_delta"}
    assert len(csv_rows[0]) == 9
    assert [{k: str(v) for k, v in row.items()} for row in payload["rows"]] == csv_rows
    assert payload["max_delta"] == pytest.approx(max(float(r["delta"]) for r in csv_rows), rel=1e-8)


ORACLE_HEADER = ["mode", "e_solver", "status", "eigen_index", "e_oracle", "richardson",
                 "delta", "nearest_root", "nearest_delta"]


@pytest.mark.parametrize("argv, code, check", [
    (["oracle", *BASE, "--points", "2000", "--format", "json"], 2,
     lambda out, err: [list(row) for row in json.loads(out)] == [ORACLE_HEADER]),
    (["degeneracy", *BASE, "--n-range", "1", "--l-range", "0", "--dim-range", "3:4",
      "--max-delta", "-1"], 2,
     lambda out, err: "degeneracy violated" in err),
    (["limits", "--v0", "0.1", "--s0", "0.1", "--a", "0.002", "--a-sequence", "0.1,x"], 1,
     lambda out, err: out == "" and "cannot parse --a-sequence" in err),
    (["table", *BASE, "--n-range", "0:1", "--l-range", "0", "--dim-range", "3"], 0,
     lambda out, err: "3,0,0,,,error" in out.splitlines()),
    (["solve", "--v0", "0.2", "--s0", "0.1", "--a", "1e-150"], 0,
     lambda out, err: "energy = -0.99871617" in out and err == ""),
    # the residual has no (M/a)^2 terms, so even a = 1e-300 overflows nothing
    (["solve", "--v0", "0.2", "--s0", "0.1", "--a", "1e-300"], 0,
     lambda out, err: "energy = -0.99871617" in out and err == ""),
    (["limits", "--v0", "0.02", "--s0", "0.02", "--a", "0.002", "--a-sequence", "1e-300"], 0,
     lambda out, err: "E_rel - M = -4.999875e-05" in out and err == ""),
    (["solve", "--v0", "1e200", "--s0", "1e200", "--a", "0.05"], 1,
     lambda out, err: out == "" and "invalid input: couplings v0 = 1e+200, s0 = 1e+200" in err),
    (["solve", "--v0", "0", "--s0", "1e200", "--a", "0.05"], 1,
     lambda out, err: out == "" and "invalid input: couplings v0 = 0.0, s0 = 1e+200" in err),
    (["wavefunction", *BASE, "--points", "0"], 1,
     lambda out, err: out == "" and "invalid input: points must be >= 2" in err),
    (["wavefunction", *BASE, "--points", "-5"], 1,
     lambda out, err: out == "" and "invalid input: points must be >= 2" in err),
    (["wavefunction", *BASE, "--points", "1"], 1,
     lambda out, err: out == "" and "invalid input: points must be >= 2" in err),
    (["potential", "--v0", "0.2", "--a", "0"], 1,
     lambda out, err: out == "" and "invalid input: screening parameter a" in err),
    (["potential", "--v0", "0.2", "--a", "-1"], 1,
     lambda out, err: out == "" and "invalid input: screening parameter a" in err),
    (["potential", "--v0", "nan", "--a", "0.05"], 1,
     lambda out, err: out == "" and "invalid input: strength must be finite" in err),
    # printed a nan row and three inf rows, exit 0
    (["potential", "--v0", "1", "--a", "0.1", "--r-max", "inf", "--points", "4"], 1,
     lambda out, err: out == "" and "invalid input: need 0 < r_min < r_max < inf" in err),
    # 2a*strength overflowed and met exp(-2ar) = 0 as NaN, exit 3
    (["potential", "--v0", "1e12", "--a", "1e300", "--points", "3"], 0,
     lambda out, err: err == "" and [row[1:4] for row in csv.reader(io.StringIO(out))][1:]
     == [["-0", "-0", "0"]] * 3),
    # a NaN threshold switched the check off, exit 0
    (["degeneracy", *BASE, "--n-range", "1", "--l-range", "0", "--dim-range", "3:4",
      "--max-delta", "nan"], 1,
     lambda out, err: out == "" and "invalid input: --max-delta must be finite, got nan" in err),
], ids=["oracle-json", "degeneracy-violated", "limits-bad-sequence", "table-error-row",
        "solve-tiny-a", "solve-a-overflows", "limits-a-overflows", "solve-huge-equal-couplings",
        "solve-huge-scalar-coupling", "wavefunction-0-points",
        "wavefunction-negative-points", "wavefunction-1-point", "potential-zero-a",
        "potential-negative-a", "potential-nan-v0", "potential-infinite-r-max",
        "potential-approximant-overflows-to-zero", "degeneracy-nan-max-delta"])
def test_rarely_taken_paths(capsys, argv, code, check):
    got, out, err = run(capsys, argv)
    assert got == code
    assert check(out, err)


@pytest.mark.parametrize("argv, code, message", [
    (["solve", *BASE, "--n", str(10**160)], 1, "invalid input: n must be <= 2**53, got 1000"),
    (["limits", *BASE, "--n", str(10**160)], 1, "invalid input: n must be <= 2**53, got 1000"),
    (["wavefunction", *BASE, "--dim", str(10**200), "--points", "20"], 1,
     "invalid input: d must be <= 2**53, got 1000"),
    (["oracle", *BASE, "--l", str(2**53 + 1)], 1,
     f"invalid input: l must be <= 2**53, got {2**53 + 1}\n"),
    (["degeneracy", *BASE, "--dim-range", str(10**200)], 1,
     "invalid input: d must be <= 2**53, got 1000"),
    (["limits", "--v0", "1e200", "--s0", "0", "--a", "0.05"], 3,
     "numeric failure: NonFinite: nonrelativistic energy for QuantumNumbers(n=1, l=0, d=3) "
     "is not finite: -inf\n"),
    (["limits", "--v0", "1e-160", "--beta", "1e160", "--a", "1.7e308", "--l", "3"], 3,
     "numeric failure: NonFinite: nonrelativistic energy"),
    (["solve", *BASE, "--mass", "1e160"], 1, "invalid input: mass must lie in about"),
    (["solve", "--v0", "0.2", "--s0", "0.1", "--a", "1e-302", "--mass", "1e-300"], 1,
     "invalid input: mass must lie in about"),
    (["potential", "--v0", "0.2", "--a", "0.05", "--points", str(10**20)], 1,
     f"invalid input: points must be <= 2**53, got {10**20}\n"),
    (["oracle", *BASE, "--points", str(10**20)], 1,
     f"invalid input: points must be <= 2**53, got {10**20}\n"),
    (["wavefunction", *BASE, "--points", str(10**400)], 1,
     f"invalid input: points must be <= 2**53, got {10**400}\n"),
    (["wavefunction", *BASE, "--points", str(2**53 + 1)], 1,
     f"invalid input: points must be <= 2**53, got {2**53 + 1}\n"),
    # sizes the ceiling admits but no host holds: 64 PiB, refused at once
    (["potential", "--v0", "0.2", "--a", "0.05", "--points", str(2**53)], 3,
     "numeric failure: MemoryError: "),
    (["wavefunction", *BASE, "--points", str(2**53)], 3, "numeric failure: MemoryError: "),
    (["oracle", *BASE, "--points", str(2**53)], 3, "numeric failure: MemoryError: "),
    (["table", *BASE, "--n-range", f"1:{2**53}"], 3, "numeric failure: MemoryError: "),
], ids=["solve-huge-n", "limits-huge-n", "wavefunction-huge-dim", "oracle-l-past-2**53",
        "degeneracy-huge-dim-range", "limits-huge-v0", "limits-infinite-energy",
        "solve-huge-mass", "solve-tiny-mass", "potential-points-10**20",
        "oracle-points-10**20", "wavefunction-points-10**400", "wavefunction-points-2**53+1",
        "potential-points-2**53", "wavefunction-points-2**53", "oracle-points-2**53",
        "table-n-range-to-2**53"])
def test_inputs_past_float_range_are_typed_errors(capsys, argv, code, message):
    # each escaped as an untyped OverflowError, ValueError or MemoryError,
    # printed -inf with exit 0, or solved to a wrong energy
    got, out, err = run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith(message)
    if message.endswith("MemoryError: "):
        # Python's own MemoryError has no text: the line must say what failed
        assert err[len(message):].strip()


@pytest.mark.parametrize("error, code, message", [
    (NoRootInBracket("none"), 2, "no solution: NoRootInBracket: none"),
    (ComplexChannel("complex"), 2, "no solution: ComplexChannel: complex"),
    (MemoryError("64 PiB"), 3, "numeric failure: MemoryError: 64 PiB"),
    (NonFinite("overflow"), 3, "numeric failure: NonFinite: overflow"),
    (NormalizationFailure("integral is nan"), 3,
     "numeric failure: NormalizationFailure: integral is nan"),
    (KgYukawaError("unclassified"), 3, "error: KgYukawaError: unclassified"),
])
def test_library_errors_map_onto_exit_codes(capsys, monkeypatch, error, code, message):
    # no input reaches the exit-3 handlers through a working solver
    def fail(*_args):
        raise error

    monkeypatch.setattr("kgyukawa.cli.solve_energy", fail)
    assert run(capsys, ["solve", *BASE]) == (code, "", message + "\n")


def test_version_needs_no_installed_metadata(capsys):
    assert run(capsys, ["--version"]) == (0, f"kgyukawa, version {kgyukawa.__version__}\n", "")


STATE_DEFAULTS = {"--n": "1", "--l": "0", "--dim": "3"}
GRID_DEFAULTS = {"--n-range": "1:3", "--l-range": "0:2", "--dim-range": "3:10"}
# each command's flags besides the common ones, with the defaults --help shows
HELP_DEFAULTS = {
    "solve": STATE_DEFAULTS,
    "table": GRID_DEFAULTS,
    "degeneracy": {**GRID_DEFAULTS, "--max-delta": "1e-10"},
    "wavefunction": {**STATE_DEFAULTS, "--points": "4096"},
    "potential": {"--r-min": "0.1", "--r-max": "20.0", "--points": "400"},
    "oracle": {**STATE_DEFAULTS, "--mode": "approximated", "--points": "16000"},
    "limits": {**STATE_DEFAULTS, "--a-sequence": "0.002,0.001,0.0005"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_documents_its_flags(capsys, command):
    code, out, _ = run(capsys, [command, "--help"])
    assert code == 0
    # one block per flag: its line and the lines its help wraps onto
    blocks = {block.split()[0]: " ".join(block.split())
              for block in re.split(r"\n  (?=--)", out)[1:]}
    assert list(blocks) == [*FLAGS[command], "--help"]
    assert set(HELP_DEFAULTS[command]) <= set(blocks)
    for flag, default in {"--mass": "1.0", "--format": "csv", **HELP_DEFAULTS[command]}.items():
        if flag in blocks:
            assert f"[default: {default}]" in blocks[flag]


@pytest.mark.parametrize("argv, err", [
    (["table", *BASE, "--n-range", ","], "invalid input: range ',' names no value\n"),
    (["degeneracy", *BASE, "--l-range", " , "], "invalid input: range ',' names no value\n"),
    (["limits", *BASE, "--a-sequence", ","], "invalid input: --a-sequence ',' names no value\n"),
    (["limits", *BASE, "--a-sequence", ""], "invalid input: --a-sequence '' names no value\n"),
], ids=["table", "degeneracy", "limits", "limits-blank"])
def test_empty_range_or_sequence_is_input_error(capsys, argv, err):
    assert run(capsys, argv) == (1, "", err)


SOLVED = "energy = -0.98885705\nepsilon = 0.14886819\nresidual = 1.2057022e-12\niterations = 31\n"


@pytest.mark.parametrize("argv, code, out, err", [
    # a value that starts with '-' binds to its flag, whatever follows the '-'
    (["solve", "--v0", "0.2", "--s0", "-1e-05", "--a", "0.05"], 0,
     "energy = -0.97999387\nepsilon = 0.19902765\nresidual = 5.78870285e-13\niterations = 31\n",
     ""),
    (["solve", "--v0", "0.2", "--beta", "-0.5", "--a", "0.05"], 0,
     "energy = -0.96866036\nepsilon = 0.24838902\nresidual = 1.68309811e-13\niterations = 31\n",
     ""),
    (["solve", "--v0", "0.2", "--beta", "-inf", "--a", "0.05"], 1, "",
     "invalid input: s0 must be finite, got -inf\n"),
    (["table", *BASE, "--n-range", "-1:2", "--l-range", "0", "--dim-range", "3"], 0,
     "dim,n,l,energy,residual,status\n3,-1,0,,,error\n3,0,0,,,error\n"
     "3,1,0,-0.98885705,1.2057022e-12,ok\n3,2,0,-0.98338741,4.68958206e-13,ok\n", ""),
    (["solve", "--v0", "0.2", "--s0", "--a", "0.05"], 1, "",
     "error: argument --s0: invalid float value: '--a'\n"),
    (["solve", "--v0=0.2", "--s0", "0.1", "--a", "0.05"], 0, SOLVED, ""),
    (["solve", "--v0", "0.3", *BASE], 0, SOLVED, ""),
    (["solve", *BASE, "--mas", "1"], 1, "", "error: unrecognized arguments: --mas 1\n"),
    (["solve", *BASE, "--"], 0, SOLVED, ""),
    (["solve", *BASE, "--", "--n", "2"], 1, "", "error: unrecognized arguments: -- --n 2\n"),
], ids=["s0-exponent", "beta-negative", "beta-minus-inf", "range-negative", "flag-as-value",
        "equals", "repeated-last-wins", "no-abbreviation", "end-of-flags",
        "flag-after-end-of-flags"])
def test_edge_tokens_parse_as_before(capsys, argv, code, out, err):
    assert run(capsys, argv) == (code, out, err)
