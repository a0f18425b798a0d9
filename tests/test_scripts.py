"""Smoke tests: both sweep scripts run end to end at small sizes, and every
file they write reads back through the ``spectrum`` readers.  A script is
run with RuntimeWarnings as errors, and its ``--help`` keeps its text and
exits 3 when stdout cannot take it."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hopfdiag import spectrum

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def script(name: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(SCRIPTS / name), *args], stderr=subprocess.PIPE,
                          text=True, timeout=120, **kwargs)


def run_script(name: str, *args: str, code: int = 0):
    proc = script(name, *args, stdout=subprocess.PIPE)
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


# each script's whole --help at 80 columns
HELP = {
    "normal_form_sweep.py": """\
usage: normal_form_sweep.py [-h] [--out-dir OUT_DIR] [--samples SAMPLES]

Emit critical-value diagrams of the Hopf normal form over a parameter grid.
Covers the standard picture: omega = 1, sigma = 1, nu in {-1/2, +1/2}, D in
{1, -2} (both regimes, both unfolding directions). Each combination produces
<out>/nu<+->_D<+->_curve.csv and ..._diagram.json in the formats documented in
hopfdiag.spectrum. Exit codes as for the hopfdiag CLI: 0 success, 2 bad input
(nothing is written), 3 I/O failure.

options:
  -h, --help         show this help message and exit
  --out-dir OUT_DIR  output directory (default: out/normal_form)
  --samples SAMPLES  curve samples per diagram, >= 16 (default: 801)
""",
    "spin_oscillator_sweep.py": """\
usage: spin_oscillator_sweep.py [-h] [--out-dir OUT_DIR] [--j-steps J_STEPS]
                                [--samples SAMPLES] [--seed SEED]

Emit the deformed spin-oscillator datasets. Three artifacts: - a linearization
scan over gamma (type transition at gamma = 1/2), - the undeformed (gamma = 0)
bifurcation data: critical values per J plus a sampled image cloud and its
rasterization, - the post-bifurcation configuration gamma = 4/5: the loop of
hyperbolic / elliptic critical values over a J window, plus cloud and raster.
Exit codes as for the hopfdiag CLI: 0 success, 2 bad input (nothing is
written), 3 I/O failure.

options:
  -h, --help         show this help message and exit
  --out-dir OUT_DIR  output directory (default: out/spin_oscillator)
  --j-steps J_STEPS  J grid size, >= 1 (default: 401)
  --samples SAMPLES  cloud sample count, >= 1 (default: 200000)
  --seed SEED        RNG seed, >= 0 (default: 0)
""",
}


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_text(name):
    proc = script(name, "--help", stdout=subprocess.PIPE,
                  env=dict(os.environ, COLUMNS="80"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == HELP[name]


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", sorted(HELP))
def test_help_into_a_closed_or_full_stdout_exits_3(name, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = script(name, "--help", stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"{name}: [Errno 32] Broken pipe"]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = script(name, "--help", stdout=full, env=env)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"{name}: [Errno 28] No space left on device"]
