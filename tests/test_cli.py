"""Command-line surface: output formats, config handling, exit codes."""
import contextlib
import csv
import gc
import io
import json
import weakref

import pytest

from kgyukawa import (
    ComplexChannel,
    KgYukawaError,
    NoRootInBracket,
    NonFinite,
    NormalizationFailure,
    OutOfDomain,
)
from kgyukawa.cli import main

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
    # click.echo without an explicit file caches each redirected stream
    # under a value that refers back to it, so the stream is never freed
    refs = []
    for argv, want in (
        (["solve", *BASE], 0),
        (["solve", "--v0", "0.2", "--s0", "0.1", "--a", "5.0", "--mass", "1"], 2),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == want
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() is None for r in refs] == [True] * 4


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
    flags = {"--v0": "0.2", "--s0": "0.1", "--a": "0.05"}
    del flags[missing]
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
    # a NaN threshold switched the check off, exit 0
    (["degeneracy", *BASE, "--n-range", "1", "--l-range", "0", "--dim-range", "3:4",
      "--max-delta", "nan"], 1,
     lambda out, err: out == "" and "invalid input: --max-delta must be finite, got nan" in err),
], ids=["oracle-json", "degeneracy-violated", "limits-bad-sequence", "table-error-row",
        "solve-tiny-a", "solve-a-overflows", "limits-a-overflows", "solve-huge-equal-couplings",
        "solve-huge-scalar-coupling", "wavefunction-0-points",
        "wavefunction-negative-points", "wavefunction-1-point", "potential-zero-a",
        "potential-negative-a", "potential-nan-v0", "potential-infinite-r-max",
        "degeneracy-nan-max-delta"])
def test_rarely_taken_paths(capsys, argv, code, check):
    got, out, err = run(capsys, argv)
    assert got == code
    assert check(out, err)


@pytest.mark.parametrize("error, code, message", [
    (NoRootInBracket("none"), 2, "no solution: NoRootInBracket: none"),
    (ComplexChannel("complex"), 2, "no solution: ComplexChannel: complex"),
    (OutOfDomain("outside"), 2, "no solution: OutOfDomain: outside"),
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
