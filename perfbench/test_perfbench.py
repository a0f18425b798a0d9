"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from hopfdiag import models, spectrum  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "spin_critical": {"j_values": 200, "gammas": [0.0, 0.8],
                      "cloud_points": 50},
    "diagram_io": {"cloud_points": 500, "raster": [10, 10],
                   "boundary_bins": 20, "curve_samples": 64},
    "verify": workloads.SIZES["verify"],
}
SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted(workload, trace):
    record = run.run(workload, seed=3, seconds=0, trace=bool(trace),
                     size=TINY[workload], setup_repeats=1)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        value = record["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["failures"]
    assert record["correct"] is True
    assert record["provenance"]["inputs"]


def test_layer_split():
    """The per-J solve runs on spin_critical and never on diagram_io."""
    spin = run.run("spin_critical", 3, 0, True, TINY["spin_critical"])
    diag = run.run("diagram_io", 3, 0, True, TINY["diagram_io"])
    calls = "models.jc_reduced_critical_values.calls"
    assert spin["metrics"][calls]["value"] == 2 * 200
    assert diag["metrics"][calls]["value"] == 0
    assert diag["metrics"]["spectrum.write_cloud_csv.bytes"]["value"] > 0


def _flip_after(monkeypatch, module, name, path_arg):
    """Make module.name flip one byte of the file it just wrote."""
    original = getattr(module, name)

    def write_then_flip(*args):
        original(*args)
        path = Path(args[path_arg])
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

    monkeypatch.setattr(module, name, write_then_flip)


@pytest.mark.parametrize("workload,writer", [
    ("diagram_io", "write_cloud_csv"),
    ("diagram_io", "write_curve_csv"),
    ("diagram_io", "write_diagram_json"),
    ("spin_critical", "write_jc_critical_csv"),
])
def test_flipped_byte_is_a_failed_operation(monkeypatch, workload, writer):
    _flip_after(monkeypatch, spectrum, writer, 1)
    record = run.run(workload, 3, 0, False, TINY[workload], setup_repeats=1)
    assert record["failed"] >= 1
    assert record["correct"] is False
    assert any("csv" in m or "json" in m for m in record["failures"])


def test_raised_error_is_a_failed_operation(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(spectrum, "boundary", broken)
    record = run.run("diagram_io", 3, 0, False, TINY["diagram_io"],
                     setup_repeats=1)
    assert record["failed"] == 1
    assert "boom" in record["failures"][0]


@pytest.mark.parametrize("gamma,j,plus,minus", [
    (0.0, 0.0, 1, 1), (0.8, 0.0, 1, 1), (0.8, 3.0, 1, 1), (0.8, 2.5, 3, 1),
    (0.8, 1.0, 2, 1), (0.8, -1.0, 0, 0),
])
def test_reference_counts(gamma, j, plus, minus):
    ref = workloads.reference_critical_points(gamma, j)
    assert sum(s == 1 for _, s in ref) == plus
    assert sum(s == -1 for _, s in ref) == minus
    rows = models.jc_reduced_critical_values(models.PolyG(gamma), j)
    assert workloads.check_critical_rows(gamma, j, rows, ref) is None


def test_reference_finds_the_fold_window():
    g = models.PolyG(0.8)
    inside = [j for j in (1.2, 1.4, 1.6, 1.8, 2.0)
              if sum(s == 1 for _, s in
                     workloads.reference_critical_points(0.8, j)) == 3]
    assert inside
    for j in inside:
        rows = models.jc_reduced_critical_values(g, j)
        assert workloads.check_critical_rows(
            0.8, j, rows, workloads.reference_critical_points(0.8, j)) is None


def test_check_rejects_a_moved_critical_point():
    g = models.PolyG(0.8)
    rows = models.jc_reduced_critical_values(g, 0.5)
    moved = [models.CriticalValuePoint(J=r.J, H=r.H, z_at=r.z_at + 1e-6,
                                       branch=r.branch, kind=r.kind)
             for r in rows]
    ref = workloads.reference_critical_points(0.8, 0.5)
    assert "off by" in workloads.check_critical_rows(0.8, 0.5, moved, ref)


class _Layer:
    """Stands in for a module whose functions call each other through it."""


def test_self_time_excludes_children():
    import time

    layer = _Layer()
    layer.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        layer.inner()

    layer.outer = outer
    tracer = Tracer()
    tracer.patch(layer, "inner", tracer.traced("layer.inner", layer.inner))
    tracer.patch(layer, "outer", tracer.traced("layer.outer", layer.outer))
    with tracer.active():
        layer.outer()
    s = tracer.summary()
    assert s["layer.outer"]["calls"] == s["layer.inner"]["calls"] == 1
    assert s["layer.outer"]["busy_s"] >= 0.03
    assert 0.01 <= s["layer.outer"]["self_s"] < 0.02
    assert s["layer.outer"]["self_s"] + s["layer.inner"]["busy_s"] == \
        pytest.approx(s["layer.outer"]["busy_s"])
    assert layer.outer is outer  # patches undone


def test_warnings_are_counted_per_function():
    import numpy as np

    layer = _Layer()
    layer.divide = lambda: np.float64(1.0) / np.float64(0.0)
    tracer = Tracer()
    tracer.patch(layer, "divide", tracer.traced("layer.divide", layer.divide))
    with tracer.active():
        layer.divide()
        layer.divide()
    assert tracer.warnings["layer.divide"] == 2


def test_fails_without_sources():
    """A directory with only BENCHMARK.json and perfbench/ is refused."""
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) == set(TINY)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(metric_names) == len(set(metric_names))
    assert all(len(n) <= 64 for n in metric_names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
