"""bench/layers.py, run in process with one repeat, writes a record of
every layer with finite timings, of each process layer's peak RSS and of
the counted work (about 1.3 s, most of it the three ``kgyukawa``
processes)."""
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
COUNTED = {"solver.solve_energy.published": "residual_values",
           "solver.solve_energy.decaying": "residual_values",
           "solver.solve_energy.decaying_no_state": "residual_values",
           "oracle.oracle_energy.16000": "sturm_counts"}


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
    assert set(result) == {"environment", "repeats", "layers", "counts"}
    assert set(result["environment"]) == {"python", "numpy", "numba_present", "cpu_count",
                                          "commit", "source_sha256"}
    assert set(result["layers"]) == LAYERS
    for name, stats in result["layers"].items():
        peak = {"peak_rss_mib"} if name.startswith("process.") else set()
        assert set(stats) == {"median_s", "q1_s", "q3_s", *peak}, name
        assert all(math.isfinite(v) and v > 0.0 for v in stats.values()), name
        assert stats["q1_s"] <= stats["median_s"] <= stats["q3_s"], name
    # the residual values of each energy solve and the Sturm counts of the
    # oracle; the no-state branch is proven empty from three values
    assert ({name: set(counts) for name, counts in result["counts"].items()}
            == {name: {what} for name, what in COUNTED.items()})
    for name, what in COUNTED.items():
        count = result["counts"][name][what]
        assert isinstance(count, int) and count > 0, name
    assert result["counts"]["solver.solve_energy.decaying_no_state"]["residual_values"] == 3

    # a second record, read back as the parent's, adds a finite ratio per
    # layer; it reuses the first one's timings and counts rather than measure again
    monkeypatch.setattr(layers, "measure", lambda repeats: result["layers"])
    monkeypatch.setattr(layers, "count_work", lambda: result["counts"])
    again = tmp_path / "again.json"
    assert layers.main(["--repeats", "1", "--out", str(again), "--parent", str(out)]) == 0
    compared = json.loads(again.read_text())
    assert compared["parent"]["layers"] == result["layers"]
    ratios = compared["median_ratio_to_parent"]
    assert set(ratios) == LAYERS and all(math.isfinite(r) and r > 0.0 for r in ratios.values())
