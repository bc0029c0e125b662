"""bench/layers.py, run in process with one repeat, writes a record of
every layer with finite timings (about 1.3 s, most of it the three
``kgyukawa`` processes)."""
import importlib.util
import json
import math
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
LAYERS = {
    "solver.solve_energy.published", "solver.solve_energy.decaying",
    "solver.solve_energy.decaying_no_state", "solver.solve_table.reference_144",
    "solver.radial_wavefunction.4096", "oracle.eigenvalue_k.16000",
    "oracle.closure_root.16000", "oracle.oracle_energy.16000", "cli.limits.no_state",
    "process.solve", "process.table.72", "process.oracle.2000",
}


def _load():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_script_writes_finite_timings_of_every_layer(tmp_path, monkeypatch):
    layers = _load()
    out = tmp_path / "bench.json"
    assert layers.main(["--repeats", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"environment", "repeats", "layers"}
    assert set(result["environment"]) == {"python", "numpy", "numba_present", "cpu_count",
                                          "commit", "source_sha256"}
    assert set(result["layers"]) == LAYERS
    for name, stats in result["layers"].items():
        assert set(stats) == {"median_s", "q1_s", "q3_s"}, name
        assert all(math.isfinite(v) and v > 0.0 for v in stats.values()), name
        assert stats["q1_s"] <= stats["median_s"] <= stats["q3_s"], name

    # a second record, read back as the parent's, adds a finite ratio per
    # layer; it reuses the first one's timings rather than measure again
    monkeypatch.setattr(layers, "measure", lambda repeats: result["layers"])
    again = tmp_path / "again.json"
    assert layers.main(["--repeats", "1", "--out", str(again), "--parent", str(out)]) == 0
    compared = json.loads(again.read_text())
    assert compared["parent"]["layers"] == result["layers"]
    ratios = compared["median_ratio_to_parent"]
    assert set(ratios) == LAYERS and all(math.isfinite(r) and r > 0.0 for r in ratios.values())
