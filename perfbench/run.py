"""Benchmark of the kgyukawa command line and oracle.

    python3 perfbench/run.py --workload {tables,states,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  One process, one client, closed loop, no threads.  Workloads:

- tables: ``kgyukawa table`` over n 1..3, l 0..2, D 3..10 for the
  paper's three (v0, s0) sets at a = 0.05, M = 1 (216 cells a cycle).
  Almost all solver/rootfind work, and its cells share work because the
  energy depends on (l, D) only through D+2l.
- states: a seeded stream of single-state ``solve`` and ``limits``
  requests sharing no inputs, so nothing is reused between requests;
  some draws have no state or a complex channel (exit code 2).
- oracle: ``oracle_energy`` on two decaying-branch states in approximated
  and exact mode on a 2000-point grid; oracle work only.

Operations run in whole cycles (tables: three invocations; oracle: four
calls; states: ten requests, two of them limits) while the next cycle is
expected to end within --seconds, and at least one cycle runs, so every
run of a seed times the same mix.  Every output is checked against the
closed-form quadratic and the published tables (perfbench/reference.py).

--trace 0 prints the end-to-end metrics: setup_s, the median over seven
fresh interpreters of the time to import kgyukawa.cli; scaled_ops_per_s,
the median over cycles of correct operations (table cells, requests,
oracle calls) per second of operation time; scaled_latency_p50_s, the
median operation time (a table invocation for tables);
scaled_latency_tail_s, the highest percentile with ten samples beyond it,
or the maximum below 20 samples; peak_rss_mib.  The scaled_ metrics scale
each operation's time to a reference host speed, from the speed sampled
while the operation ran (perfbench/speed.py), because the speed of a
shared host drifts too far between runs for raw times to compare; the raw
times are in the report.
--trace 1 runs a fixed list of operations untraced and then traced, and
prints the per-layer metrics from spans recorded around every public
kgyukawa function.  The last line of stdout is the JSON result; a report
with the environment, sample counts and any failures with their inputs
precedes it and is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads as wl
from spans import Tracer, public_functions
from speed import SpeedSampler, calibration_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
PROBE_REPEATS = 5
PROBE_LOOP = 10_000
TRACE_CYCLES = {"tables": 1, "states": 20, "oracle": 1}
# the solver keeps a bisected root only when the NU quantization
# residual is below this (kgyukawa.solver._NU_CONSISTENCY_TOL)
NU_ACCEPT_TOL = 1e-8

LAYER_MODULES = ("cli", "solver", "rootfind", "nu", "limits", "oracle")
END_TO_END_UNITS = {
    "setup_s": "s", "scaled_ops_per_s": "1/s", "scaled_latency_p50_s": "s",
    "scaled_latency_tail_s": "s", "peak_rss_mib": "MiB",
}


class Workload:
    """Runs one operation of a workload and checks it.

    run(op) returns (units, failure reasons); units is the number of
    operations it completed (table cells for a table invocation).
    """

    def __init__(self, name: str, seed: int):
        import kgyukawa
        import kgyukawa.cli

        self.name = name
        self.units_per_op = wl.TABLE_CELLS if name == "tables" else 1
        self.kg = kgyukawa
        self.cli = kgyukawa.cli
        self.rng = random.Random(seed)
        if name == "oracle":
            n, l, d = wl.ORACLE_QN
            self.mp = kgyukawa.ParticleParams(mass=wl.MASS)
            self.qn = kgyukawa.QuantumNumbers(n=n, l=l, d=d)
            self.grid = kgyukawa.RadialGrid(*wl.ORACLE_GRID)
            self.refs = {beta: wl.oracle_reference(beta) for beta in reference.ORACLE_STATES}

    def cycle(self) -> list:
        if self.name == "tables":
            return wl.table_cycle(self.rng)
        if self.name == "oracle":
            return wl.oracle_cycle(self.rng)
        return wl.state_block(self.rng)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)  # attribute lookup, so tracing sees it
        return code, out.getvalue(), err.getvalue()

    def run(self, op) -> tuple[int, list[str]]:
        if self.name == "tables":
            code, out, _ = self._cli(wl.table_argv(*op))
            return wl.TABLE_CELLS, wl.check_table(op[0], op[1], code, out)
        if self.name == "states":
            code, out, err = self._cli(op.argv())
            return 1, wl.check_state(op, code, out, err)
        beta, mode = op
        center = self.refs[beta]
        res = self.kg.oracle.oracle_energy(
            self.kg.PotentialParams.from_beta(v0=wl.ORACLE_V0, beta=beta, a=wl.ORACLE_A),
            self.mp, self.qn, self.grid, mode, eigen_index=wl.ORACLE_EIGEN_INDEX,
            bracket=(center - wl.ORACLE_HALF_WIDTH, center + wl.ORACLE_HALF_WIDTH),
            scan_points=wl.ORACLE_SCAN_POINTS,
        )
        return 1, wl.check_oracle(beta, mode, res.richardson_estimate)

    def describe(self, op) -> str:
        """The inputs of one operation, as a failure report names them."""
        if self.name == "tables":
            return "kgyukawa " + " ".join(wl.table_argv(*op))
        if self.name == "states":
            return "kgyukawa " + " ".join(op.argv())
        return f"oracle_energy(beta={op[0]}, mode={op[1]})"


class Tally:
    """Latency samples, completed units and failures with their inputs.

    With a sampler, the time its handler took during an operation is left
    out of the operation's latency.
    """

    def __init__(self, sampler: SpeedSampler | None = None):
        self.sampler = sampler
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []  # (start, end) per operation
        self.correct: list[int] = []  # correct units per operation
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def run(self, workload: Workload, op):
        spent = self.sampler.spent if self.sampler else 0.0
        start = time.perf_counter()
        try:
            units, reasons = workload.run(op)
        except Exception as exc:  # any exception is a failed operation
            units = workload.units_per_op
            reasons = [f"{type(exc).__name__}: {exc}"] * units
        end = time.perf_counter()
        if self.sampler:
            spent = self.sampler.spent - spent
        self.latencies.append(end - start - spent)
        self.intervals.append((start, end))
        self.correct.append(units - len(reasons))
        self.attempted += units
        self.failed += len(reasons)
        if reasons:
            self.failures.append({"inputs": workload.describe(op), "reasons": reasons[:5],
                                  "failed_units": len(reasons)})


def measure(workload: Workload, seconds: float, tally: Tally) -> list[range]:
    """Whole cycles while the next one is expected to fit; returns the
    indices of each cycle's operations in the tally."""
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        first = len(tally.latencies)
        for op in workload.cycle():
            tally.run(workload, op)
        now = time.perf_counter()
        cycles.append(range(first, len(tally.latencies)))
        if (now - start) + (now - began) > seconds:
            return cycles


def cycle_rates(cycles: list[range], correct: list[int], latencies: list[float]) -> list[float]:
    """Correct operations per second of operation time, one rate a cycle."""
    return [sum(correct[i] for i in c) / sum(latencies[i] for i in c) for c in cycles]


def run_fixed(workload: Workload, ops: list, tally: Tally) -> float:
    start = time.perf_counter()
    for op in ops:
        tally.run(workload, op)
    return time.perf_counter() - start


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it; below 20
    samples (where that is under p50) the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
                "beyond": 10, "samples": n}
    return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}


def measure_setup() -> list[float]:
    """Seconds a fresh interpreter takes to import kgyukawa.cli."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import kgyukawa.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run writes bytecode caches
        proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cpu_probe() -> float:
    """Median seconds of the calibration loop over PROBE_LOOP numpy
    scalars.  Recorded before and after a run, it shows how fast the
    machine ran meanwhile; tenants sharing the host move it, and the load
    average inside does not."""
    import numpy as np

    values = np.linspace(-1.0, 1.0, PROBE_LOOP)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        calibration_loop(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a source checkout without git history has no commit
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgyukawa").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def end_to_end(workload: Workload, seconds: float, report: dict) -> tuple[Tally, dict]:
    setup = measure_setup()
    sampler = SpeedSampler()
    tally = Tally(sampler)
    start = time.perf_counter()
    with sampler:
        cycles = measure(workload, seconds, tally)
    wall = time.perf_counter() - start
    scales = [sampler.scale(*interval) for interval in tally.intervals]
    scaled = [lat * k for lat, k in zip(tally.latencies, scales)]
    tail_info = tail(scaled)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "scaled_ops_per_s": statistics.median(cycle_rates(cycles, tally.correct, scaled)),
        "scaled_latency_p50_s": statistics.median(scaled),
        "scaled_latency_tail_s": tail_info["value"],
        "peak_rss_mib": rss_kib / 1024.0,
    }
    report.update({
        "setup_samples_s": setup,
        "wall_s": wall,
        "cycles": len(cycles),
        "latency_samples": len(tally.latencies),
        "latency_unit": "table invocation" if workload.name == "tables" else "operation",
        "latency_tail": tail_info,
        "raw_ops_per_s": statistics.median(cycle_rates(cycles, tally.correct, tally.latencies)),
        "raw_latency_p50_s": statistics.median(tally.latencies),
        "raw_latency_tail": tail(tally.latencies),
        "speed_samples": len(sampler.loops),
        "speed_loop_quartiles_s": statistics.quantiles(sampler.loops, n=4),
        "speed_scale_median": statistics.median(scales),
        "sampler_overhead_s": sampler.spent,
        "failed_ratio": tally.failed / tally.attempted,
    })
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_metrics(tracer: Tracer, present: set) -> tuple[dict, list]:
    """Per-layer metrics named in BENCHMARK.json; functions the program no
    longer has are listed as absent instead of reported."""
    metrics, absent = {}, []

    def put(name, value, unit, needs):
        if needs <= present:
            metrics[name] = {"value": value, "unit": unit}
        else:
            absent.append(name)

    def fn(name, *fields):
        for field in fields:
            if field == "calls":
                put(f"{name}.calls", tracer.calls.get(name, 0), "count", {name})
            elif field == "busy_s":
                put(f"{name}.busy_s", tracer.busy.get(name, 0.0), "s", {name})
            else:
                put(f"{name}.self_s", tracer.self_time.get(name, 0.0), "s", {name})

    fn("cli.main", "self_s")
    fn("solver.solve_table", "busy_s")
    fn("solver.solve_energy", "calls", "busy_s")
    fn("rootfind.sign_change_brackets", "busy_s")
    fn("rootfind.bisect", "calls", "busy_s")
    fn("nu.energy_relation_residual", "calls", "busy_s")
    fn("limits.nonrel_limit_of_relativistic", "busy_s")
    fn("oracle.oracle_energy", "calls", "busy_s")
    fn("oracle.eigenvalue_k", "calls", "busy_s")
    fn("oracle.effective_ode_coefficient", "busy_s")

    def ratio(num, den):
        return num / den if den else 0.0

    solves = tracer.calls.get("solver.solve_energy", 0)
    put("solver.residual_evals_per_solve",
        ratio(sum(tracer.per_call_counts("solver.energy_equation_residual",
                                      "solver.solve_energy")),
              solves),
        "count", {"solver.solve_energy", "solver.energy_equation_residual"})
    put("solver.accepted_root_ratio",
        ratio(tracer.accepted.get("nu.energy_relation_residual", 0),
              sum(tracer.per_call_counts("rootfind.bisect", "solver.solve_energy"))),
        "ratio", {"solver.solve_energy", "rootfind.bisect", "nu.energy_relation_residual"})
    states = tracer.calls.get("oracle.oracle_energy", 0)
    put("oracle.eigensolves_per_state",
        ratio(sum(tracer.per_call_counts("oracle.eigenvalue_k", "oracle.oracle_energy")), states),
        "count", {"oracle.oracle_energy", "oracle.eigenvalue_k"})
    scans = tracer.per_call_counts("rootfind.sign_change_brackets", "oracle.oracle_energy")
    put("oracle.closure_scans_per_state", ratio(sum(scans), states), "count",
        {"oracle.oracle_energy", "rootfind.sign_change_brackets"})
    put("oracle.fallback_rescans", sum(1 for s in scans if s > 2), "count",
        {"oracle.oracle_energy", "rootfind.sign_change_brackets"})
    return metrics, absent


def traced(workload: Workload, report: dict) -> tuple[Tally, dict, Tracer]:
    ops = [op for _ in range(TRACE_CYCLES[workload.name]) for op in workload.cycle()]
    present = set(public_functions())
    tally = Tally()
    untraced_wall = run_fixed(workload, ops, tally)
    tracer = Tracer(observers={"nu.energy_relation_residual": lambda r: abs(r) <= NU_ACCEPT_TOL})
    with tracer:
        traced_wall = run_fixed(workload, ops, tally)
    metrics, absent = _layer_metrics(tracer, present)

    modules: dict[str, float] = {}
    for name, value in tracer.self_time.items():
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + value
    modules["benchmark"] = traced_wall - sum(
        s[2] - s[1] for s in tracer.spans if s[3] == -1)
    for module in LAYER_MODULES:
        metrics[f"{module}.self_s"] = {"value": modules.get(module, 0.0), "unit": "s"}
    overhead = traced_wall / untraced_wall - 1.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    dominant = max(modules, key=modules.get)
    report.update({
        "trace_ops": len(ops),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "tracing_overhead": overhead,
        "spans": len(tracer.spans),
        "module_self_s": modules,
        "module_share_of_wall": {k: v / traced_wall for k, v in modules.items()},
        "dominant_layer": dominant,
        "dominant_share": modules[dominant] / traced_wall,
        "absent_metrics": absent,
        "functions": {name: {"calls": tracer.calls[name], "busy_s": tracer.busy.get(name, 0.0),
                             "self_s": tracer.self_time[name]} for name in sorted(tracer.calls)},
    })
    return tally, metrics, tracer


def print_report(report: dict, metrics: dict):
    print(f"# kgyukawa benchmark: {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}")
    print("# environment: " + json.dumps(report["environment"], sort_keys=True))
    print(f"# load average before {report['loadavg_before']} after {report['loadavg_after']}")
    print(f"# cpu probe before {report['cpu_probe_before_s']:.4f} s "
          f"after {report['cpu_probe_after_s']:.4f} s")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for key in ("latency_samples", "latency_unit", "latency_tail", "raw_ops_per_s",
                "raw_latency_p50_s", "raw_latency_tail", "speed_samples", "speed_loop_quartiles_s",
                "speed_scale_median", "sampler_overhead_s", "failed_ratio", "wall_s", "cycles",
                "tracing_overhead", "dominant_layer", "dominant_share", "module_share_of_wall",
                "absent_metrics"):
        if key in report:
            print(f"#   {key}: {json.dumps(report[key])}")
    print(f"#   attempted {report['attempted']}, failed {report['failed']}")
    for failure in report["failures"]:
        print(f"#   FAILED {failure['inputs']}: {failure['reasons']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kgyukawa" / "cli.py").is_file():
        print(f"error: no kgyukawa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "loadavg_before": os.getloadavg(), "cpu_probe_before_s": cpu_probe()}
    workload = Workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        tally, metrics, tracer = traced(workload, report)
    else:
        tally, metrics = end_to_end(workload, args.seconds, report)
    report.update({"loadavg_after": os.getloadavg(), "cpu_probe_after_s": cpu_probe(),
                   "attempted": tally.attempted,
                   "failed": tally.failed, "failures": tally.failures, "metrics": metrics})

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.json"), {"workload": args.workload,
                                                       "seed": args.seed})
    print_report(report, metrics)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
