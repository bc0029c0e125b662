"""Timings of kgyukawa's layers, written to a BENCH_<n>.json file.

    PYTHONPATH=src python bench/layers.py --repeats 21 --out BENCH_<n>.json

The package is imported from the path Python finds it on, so pointing
PYTHONPATH at another checkout's src times that tree.  Each repeat calls
every layer once, in a fixed order, so a drift of the host's speed hits
all layers alike; a warm-up round runs first and is not recorded.  Each
layer reports the median and quartiles of its repeats, in seconds.

Most layers run in process.  The "process." layers run a whole
``kgyukawa`` command as a new process of the same interpreter, with the
imported tree first on its PYTHONPATH; they skip the warm-up round, since
a process starts cold whatever ran before it.

With --parent FILE, a file this script wrote for the parent tree on the
same host, the output also holds that file's layers under "parent" and
each layer's median ratio, this tree over the parent.

The state is (v0, s0, a) = (0.2, 0.1, 0.05) at (n, l, D) = (1, 0, 3) and
M = 1, except for the no-state solve and the limits request, which use
the halved couplings (0.05, -0.05, 0.002) of
``kgyukawa limits --v0 0.1 --beta -1 --a 0.002 --n 1 --l 0 --dim 3``,
whose decaying branch has no state.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import kgyukawa
from kgyukawa import (
    NoRootInBracket,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    RadialGrid,
    eigenvalue_k,
    oracle_energy,
    radial_wavefunction,
    solve_energy,
    solve_table,
)
from kgyukawa.cli import main as cli_main
from kgyukawa.oracle import _closure_root

MP = ParticleParams(mass=1.0)
PP = PotentialParams(v0=0.2, s0=0.1, a=0.05)
QN = QuantumNumbers(n=1, l=0, d=3)
NO_STATE_PP = PotentialParams(v0=0.05, s0=-0.05, a=0.002)
NO_STATE_LIMITS = ["limits", "--v0", "0.1", "--beta", "-1", "--a", "0.002",
                   "--n", "1", "--l", "0", "--dim", "3"]
# the published tables' three (v0, s0) sets at a = 0.05, over n, l in
# (1,0), (2,0), (2,1), (3,0), (3,1), (3,2) and D = 3..10: 144 cells
TABLE_SETS = [PotentialParams(v0=0.2, s0=s0, a=0.05) for s0 in (0.1, 0.2, -0.2)]
TABLE_CELLS = [(d, n, l) for d in range(3, 11)
               for n, l in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))]
ORACLE_GRID = RadialGrid(r_min=1e-4, r_max=400.0, points=16000)
# the oracle's decaying-branch state k = n = 1 and a +-5e-3 bracket around it
ORACLE_INDEX = 1
ORACLE_HALF_WIDTH = 5e-3
ORACLE_SCAN_POINTS = 11
# whole commands, each with the exit code it must give: one solve, the
# 72-cell default grid and the oracle at 2000 points, whose published
# energy has no closure root next to it
PROCESSES = {
    "process.solve": (["solve", "--v0", "0.2", "--s0", "0.1", "--a", "0.05"], 0),
    "process.table.72": (["table", "--v0", "0.2", "--s0", "0.1", "--a", "0.05"], 0),
    "process.oracle.2000": (["oracle", "--v0", "0.2", "--s0", "0.1", "--a", "0.05",
                             "--points", "2000"], 2),
}


def _no_state_solve():
    try:
        solve_energy(NO_STATE_PP, MP, QN, "decaying")
    except NoRootInBracket:
        return
    raise AssertionError("the no-state example has a state")


def _no_state_limits():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(NO_STATE_LIMITS)
    if code != 2:
        raise AssertionError(f"limits exited {code}, not 2")


def _process(args: list[str], want: int):
    """Run ``kgyukawa args`` as a process of this interpreter on the
    imported tree; its output is discarded."""
    src = str(Path(kgyukawa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "kgyukawa.cli", *args],
                          env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    if proc.returncode != want:
        raise AssertionError(f"kgyukawa {' '.join(args)} exited {proc.returncode}, not {want}")


def layers() -> dict:
    """Name -> a no-argument callable running that layer once, in the
    order a round calls them.  A layer runs faster right after one that
    warmed the caches it uses, so the two no-state layers, which scan at
    one tree and not at another, come right after the solves they follow
    in a round and before the table, which barely feels it."""
    published = solve_energy(PP, MP, QN)
    decaying = solve_energy(PP, MP, QN, "decaying").energy
    bracket = (decaying - ORACLE_HALF_WIDTH, decaying + ORACLE_HALF_WIDTH)
    return {
        "solver.solve_energy.published": lambda: solve_energy(PP, MP, QN),
        "solver.solve_energy.decaying": lambda: solve_energy(PP, MP, QN, "decaying"),
        "solver.solve_energy.decaying_no_state": _no_state_solve,
        "cli.limits.no_state": _no_state_limits,
        "solver.solve_table.reference_144": lambda: [solve_table(pp, MP, TABLE_CELLS)
                                                     for pp in TABLE_SETS],
        "solver.radial_wavefunction.4096": lambda: radial_wavefunction(published, PP, MP, QN),
        "oracle.eigenvalue_k.16000": lambda: eigenvalue_k(decaying, PP, MP, QN, ORACLE_GRID,
                                                          "approximated", ORACLE_INDEX),
        "oracle.closure_root.16000": lambda: _closure_root(PP, MP, QN, ORACLE_GRID, "approximated",
                                                           ORACLE_INDEX, bracket,
                                                           ORACLE_SCAN_POINTS),
        "oracle.oracle_energy.16000": lambda: oracle_energy(PP, MP, QN, ORACLE_GRID, "approximated",
                                                            ORACLE_INDEX, bracket,
                                                            ORACLE_SCAN_POINTS),
        **{name: functools.partial(_process, *command) for name, command in PROCESSES.items()},
    }


def measure(repeats: int) -> dict:
    """Median and quartiles, in seconds, of each layer over repeats rounds."""
    calls = layers()
    times = {name: [] for name in calls}
    for round_ in range(repeats + 1):  # round 0 warms up
        for name, call in calls.items():
            if not round_ and name in PROCESSES:
                continue
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            if round_:
                times[name].append(elapsed)
    out = {}
    for name, samples in times.items():
        q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                          if len(samples) > 1 else samples * 3)
        out[name] = {"median_s": median, "q1_s": q1, "q3_s": q3}
    return out


def environment() -> dict:
    """Python and numpy versions, numba presence, cores, and the measured
    tree: its git commit (None outside a checkout) and a digest of its
    sources."""
    package = Path(kgyukawa.__file__).resolve().parent
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--out", type=Path, help="write the JSON here (default: stdout)")
    parser.add_argument("--parent", type=Path,
                        help="a file this script wrote for the parent tree, to compare with")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    result = {"environment": environment(), "repeats": args.repeats,
              "layers": measure(args.repeats)}
    if args.parent:
        parent = json.loads(args.parent.read_text())
        result["parent"] = {"environment": parent["environment"], "repeats": parent["repeats"],
                            "layers": parent["layers"]}
        result["median_ratio_to_parent"] = {
            name: layer["median_s"] / parent["layers"][name]["median_s"]
            for name, layer in result["layers"].items() if name in parent["layers"]}
    text = json.dumps(result, indent=2, allow_nan=False) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
