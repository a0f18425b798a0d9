"""Smoke tests: both sweep scripts run end to end at small sizes, and every
file they write reads back through the ``spectrum`` readers."""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hopfdiag import spectrum

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, code: int = 0):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:       # one line naming the script, no traceback
        assert proc.stderr.startswith(name + ": ")
        assert proc.stderr.count("\n") == 1, proc.stderr


def test_spin_oscillator_sweep(tmp_path):
    run_script("spin_oscillator_sweep.py", "--out-dir", str(tmp_path),
               "--samples", "2000", "--j-steps", "11")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(["linearization_scan.csv"] + [
        f"{tag}_{kind}.csv" for tag in ("undeformed", "deformed")
        for kind in ("critical", "cloud", "raster")])

    scan = (tmp_path / "linearization_scan.csv").read_text().splitlines()
    assert scan[0] == "gamma,a,b,type" and len(scan) == 202
    # gamma is a plain decimal, not the repr of a numpy scalar
    assert [float(row.split(",")[0]) for row in scan[1:]] == \
        np.linspace(0.0, 1.0, 201).tolist()
    for tag, seed in (("undeformed", 0), ("deformed", 1)):
        assert spectrum.read_jc_critical_csv(tmp_path / f"{tag}_critical.csv")
        cloud = spectrum.read_cloud_csv(tmp_path / f"{tag}_cloud.csv")
        assert (cloud.count, cloud.seed) == (2000, seed)
        raster = spectrum.read_raster_csv(tmp_path / f"{tag}_raster.csv")
        assert raster == spectrum.rasterize(cloud, 200, 200)


def test_normal_form_sweep(tmp_path):
    run_script("normal_form_sweep.py", "--out-dir", str(tmp_path),
               "--samples", "64")
    tags = [f"nu{n}_D{d}" for n in "pm" for d in ("p1", "m2")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{t}_{kind}" for t in tags for kind in ("curve.csv", "diagram.json"))
    for tag in tags:
        diagram = spectrum.read_diagram_json(tmp_path / f"{tag}_diagram.json")
        rows = spectrum.read_curve_csv(tmp_path / f"{tag}_curve.csv")
        assert rows == [p for seg in diagram.segments for p in seg.points]


@pytest.mark.parametrize("name, args", [
    ("spin_oscillator_sweep.py", ["--samples", "0"]),
    ("spin_oscillator_sweep.py", ["--samples", "-5"]),
    ("spin_oscillator_sweep.py", ["--seed", "-1"]),
    ("spin_oscillator_sweep.py", ["--j-steps", "0"]),
    # a size too large to allocate
    ("spin_oscillator_sweep.py", ["--samples", str(10**15), "--j-steps", "3"]),
    ("normal_form_sweep.py", ["--samples", "3"]),
])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, name, args):
    out = tmp_path / "out"
    run_script(name, "--out-dir", str(out), *args, code=2)
    assert not out.exists()


@pytest.mark.parametrize("name, args", [
    ("spin_oscillator_sweep.py", ["--samples", "50", "--j-steps", "3"]),
    ("normal_form_sweep.py", ["--samples", "16"]),
])
def test_unwritable_out_dir_exits_3(tmp_path, name, args):
    (tmp_path / "file").write_text("")
    run_script(name, "--out-dir", str(tmp_path / "file" / "out"), *args,
               code=3)
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
