"""Tests of the benchmark's own checks, inputs and tracer.

Run with ``python3 -m pytest perfbench``; they do not import kgyukawa
except for the tracer test.
"""
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads as wl
import speed
from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def table_output(v0, s0, shift=0.0):
    """What `kgyukawa table --format json` prints when every cell is right."""
    rows = []
    for d in wl.TABLE_D:
        for n in wl.TABLE_N:
            for l in wl.TABLE_L:
                e = ref.closed_form(v0, s0, wl.TABLE_A, wl.MASS, n, l, d, ref.PUBLISHED_BRANCH)
                rows.append({"dim": d, "n": n, "l": l, "energy": e, "residual": 0.0,
                             "status": "ok"})
    rows[0]["energy"] += shift
    return json.dumps(rows)


def test_closed_form_reproduces_published_tables():
    for (v0, s0) in ref.PUBLISHED:
        for d, (n, l) in itertools.product(ref.DIMS, ref.NL_COLUMNS):
            got = ref.closed_form(v0, s0, 0.05, 1.0, n, l, d, ref.PUBLISHED_BRANCH)
            assert abs(got - ref.published_energy(v0, s0, d, n, l)) <= ref.PUBLISHED_TOL


def test_closed_form_outcomes():
    # kappa = 0 with |beta| < 1 has a complex channel
    assert ref.closed_form(0.2, 0.1, 0.05, 1.0, 1, 0, 2, ref.PUBLISHED_BRANCH) == \
        ref.COMPLEX_CHANNEL
    # the decaying branch of beta = -1 binds nothing
    assert ref.closed_form(0.2, -0.2, 0.05, 1.0, 1, 0, 3, ref.DECAYING_BRANCH) == ref.NO_STATE
    for beta, energy in ref.ORACLE_STATES.items():
        assert wl.oracle_reference(beta) == pytest.approx(energy, abs=1e-8)


def test_table_check_accepts_correct_output():
    assert wl.check_table(0.2, 0.1, 0, table_output(0.2, 0.1)) == []


def test_table_check_flags_shifted_energy_and_exit_code():
    failures = wl.check_table(0.2, 0.1, 0, table_output(0.2, 0.1, shift=1e-6))
    assert len(failures) == 1 and "closed form" in failures[0]
    assert len(wl.check_table(0.2, 0.1, 2, table_output(0.2, 0.1))) == wl.TABLE_CELLS


def test_state_check_flags_shifted_energy_and_exit_code():
    req = wl.StateRequest("solve", 0.2, 0.5, 0.05, 1, 0, 3)
    energy = wl.expected_state(req)
    good = json.dumps({"energy": energy})
    assert wl.check_state(req, 0, good, "") == []
    assert wl.check_state(req, 0, json.dumps({"energy": energy + 1e-6}), "")
    assert wl.check_state(req, 2, "", "no solution: NoRootInBracket: x")
    assert wl.check_state(req, 1, good, "")


def test_state_check_no_solution_kinds():
    req = wl.StateRequest("solve", 0.2, 0.5, 0.05, 1, 0, 2)
    assert wl.expected_state(req) == ref.COMPLEX_CHANNEL
    assert wl.check_state(req, 2, "", "no solution: ComplexChannel: x") == []
    assert wl.check_state(req, 2, "", "no solution: NoRootInBracket: x")
    assert wl.check_state(req, 0, json.dumps({"energy": -0.9}), "")


def test_limits_check_flags_shifted_energy():
    req = wl.StateRequest("limits", 0.04, 1.0, 0.002, 1, 0, 3)
    want = wl.expected_state(req)
    assert isinstance(want, list)

    def output(shift):
        lines = [
            f"nonrelativistic energy = {ref.nonrel_energy(1.0, 0.04, 0.002, 1, 0, 3):.9g}",
            f"coulomb energy (a=0) = {ref.nonrel_energy(1.0, 0.04, 0.0, 1, 0, 3):.9g}",
        ]
        for a, e in zip(wl.LIMITS_A_SEQUENCE, want):
            e_nr = ref.nonrel_energy(1.0, 0.04, a, 1, 0, 3)
            lines.append(f"a = {a:.9g}: E_rel = {e + shift:.8f}, "
                         f"E_rel - M = {e + shift - 1.0:.9g}, E_nonrel = {e_nr:.9g}, gap = 0")
        return "\n".join(lines) + "\n"

    assert wl.check_state(req, 0, output(0.0), "") == []
    assert len(wl.check_state(req, 0, output(1e-6), "")) == len(wl.LIMITS_A_SEQUENCE)
    assert wl.check_state(req, 3, output(0.0), "")


def test_oracle_check_tolerances():
    e = ref.ORACLE_STATES[1.0]
    assert wl.check_oracle(1.0, "approximated", e + 1e-6) == []
    assert wl.check_oracle(1.0, "approximated", e + 1e-4)
    assert wl.check_oracle(1.0, "exact", e - 1e-3) == []
    assert wl.check_oracle(1.0, "exact", e - 3e-3)
    assert wl.check_oracle(1.0, "exact", float("nan"))


def test_seed_fixes_request_list():
    def requests(seed):
        rng = random.Random(seed)
        return [req for _ in range(20) for req in wl.state_block(rng)]

    first = requests(7)
    assert first == requests(7)
    assert first != requests(8)
    assert len({(r.v0, r.beta, r.a) for r in first}) == len(first)
    assert sum(r.command == "limits" for r in first) == 20 * wl.LIMITS_PER_BLOCK
    assert wl.table_cycle(random.Random(3)) == wl.table_cycle(random.Random(3))
    assert wl.oracle_cycle(random.Random(3)) == wl.oracle_cycle(random.Random(3))


def test_speed_scale_uses_samples_around_the_operation():
    sampler = speed.SpeedSampler()
    sampler.times = [0.5, 1.5, 2.5, 3.5, 10.0]
    sampler.loops = [1e-3, 1e-3, 2e-3, 2e-3, 4e-3]
    # a long operation is scaled by the samples inside it
    assert sampler.mean_loop(2.0, 4.0) == pytest.approx(2e-3)
    assert sampler.scale(2.0, 4.0) == pytest.approx(speed.REFERENCE_S / 2e-3)
    # a short one by the samples in MIN_WINDOW_S around its middle
    assert sampler.mean_loop(1.0, 1.01) == pytest.approx(1e-3)
    assert sampler.mean_loop(3.0, 3.01) == pytest.approx(2e-3)
    # and by the next sample when none is that close
    assert sampler.mean_loop(6.5, 6.6) == pytest.approx(4e-3)
    assert sampler.mean_loop(20.0, 20.1) == pytest.approx(4e-3)


def test_speed_sampler_takes_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.loops) >= 2 and sampler.spent >= sum(sampler.loops)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_wraps_every_alias_and_computes_self_time():
    sys.path.insert(0, str(SRC))
    try:
        import kgyukawa
        import kgyukawa.cli
        import kgyukawa.solver
    finally:
        sys.path.remove(str(SRC))
    original = kgyukawa.solver.channel_constant
    pp = kgyukawa.PotentialParams(v0=0.2, s0=0.1, a=0.05)
    mp = kgyukawa.ParticleParams(mass=1.0)
    qn = kgyukawa.QuantumNumbers(n=1, l=0, d=3)
    tracer = Tracer()
    with tracer:
        assert kgyukawa.solver.solve_energy is kgyukawa.cli.solve_energy
        assert kgyukawa.solver.solve_energy is kgyukawa.solve_energy
        assert kgyukawa.solver.solve_energy.__wrapped__ is not None
        kgyukawa.cli.solve_energy(pp, mp, qn)
    assert kgyukawa.solver.channel_constant is original
    assert tracer.calls["solver.solve_energy"] == 1
    assert tracer.calls["solver.energy_equation_residual"] > 1
    outer = tracer.busy["solver.solve_energy"]
    inner = sum(s[2] - s[1] for s in tracer.spans if s[3] >= 0
                and tracer.spans[s[3]][0] == "solver.solve_energy")
    assert tracer.self_time["solver.solve_energy"] == pytest.approx(outer - inner)
    assert all(s is not None for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = Tracer()
    names = {"solver.energy_equation_residual"} | {
        f"{layer}.{fn}" for layer, fn in (
            ("cli", "main"), ("solver", "solve_table"), ("solver", "solve_energy"),
            ("rootfind", "sign_change_brackets"), ("rootfind", "bisect"),
            ("nu", "energy_relation_residual"), ("limits", "nonrel_limit_of_relativistic"),
            ("oracle", "oracle_energy"), ("oracle", "eigenvalue_k"),
            ("oracle", "effective_ode_coefficient"))}
    metrics, absent = run._layer_metrics(tracer, names)
    assert absent == []
    emitted = dict(metrics, **{f"{m}.self_s": {"unit": "s"} for m in run.LAYER_MODULES},
                   **{"trace.overhead_ratio": {"unit": "ratio"}})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in emitted.items()}
    # a function a later version deletes is reported absent, not failed
    metrics, absent = run._layer_metrics(tracer, names - {"rootfind.bisect"})
    assert "rootfind.bisect.calls" in absent and "rootfind.bisect.calls" not in metrics
