"""The benchmark's workloads: inputs from a seed, the timed work, and checks.

Each workload is three functions:

- ``inputs(seed, size)`` builds everything the work needs; the same seed
  gives the same inputs.
- ``run(inputs, work_dir)`` is the timed part.  It calls hopfdiag through
  its modules (``models.jc_reduced_critical_values``, ``spectrum.boundary``,
  ...), so a tracer that replaces those module attributes sees every call.
  An operation that raises is recorded as a ``Failure`` and the run goes on.
- ``check(inputs, outputs)`` is untimed.  It compares every output with an
  independent reference and returns a ``Tally`` of operations attempted and
  failed.

Why these three workloads: ``spin_critical`` is almost all the per-J critical
solve (``models.jc_reduced_critical_values`` at 2000 cells) and almost no
file I/O; ``diagram_io`` is the spectrum codecs, ``boundary`` and normal-form
diagram assembly and never calls the per-J solve; ``verify`` is the
acceptance suite as users and CI run it, with a few very fine per-J solves,
torus counting and the cubic root oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hopfdiag  # noqa: E402
from hopfdiag import cli, hopf, models, spectrum  # noqa: E402

# Default sizes.  Tests pass smaller ones; the benchmark always uses these.
SIZES = {
    "spin_critical": {"j_values": 1000, "gammas": [0.0, 0.8],
                      "cloud_points": 1000},
    "diagram_io": {"cloud_points": 200_000, "raster": [200, 200],
                   "boundary_bins": 2000, "curve_samples": 801},
    "verify": {"criteria": 14},
}

J_RANGE = (-1.0, 3.2)
# J = +-1 carry the pole equilibrium values; J = -0.999 is a fixed point just
# above -1 where the per-J solve is known to leak a divide-by-zero warning.
FIXED_J = (-1.0, -0.999, 1.0)
DIAGRAM_GAMMA = 0.8
NORMAL_FORMS = [(nu, big_d) for nu in (0.5, -0.5) for big_d in (1.0, -2.0)]

Z_TOL = 1e-9    # |z - z_ref| for a returned critical point
H_TOL = 1e-9    # |H - h(z_ref)| for its critical value
IMAG_TOL = 1e-7  # polynomial roots with a larger imaginary part are complex


class Failure:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


def attempt(fn, *args):
    """fn(*args), or a Failure if it raises; the run must go on either way."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return Failure(exc)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {why}" if why else name)

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[:20 - len(self.messages)])


def judge(tally: Tally, name: str, test, *args):
    """Record one operation whose check is ``test(*args)``.

    ``test`` returns an error string or None; if it raises (for example on a
    Failure input), the operation counts as failed with that exception.
    """
    failures = [a for a in args if isinstance(a, Failure)]
    try:
        why = repr(failures[0]) if failures else test(*args)
    except Exception as exc:  # noqa: BLE001 - a broken output is a failure
        why = f"{type(exc).__name__}: {exc}"
    tally.record(name, why is None, why or "")


# ---------------------------------------------------------------------------
# independent reference for the spin-oscillator critical points


def reference_critical_points(gamma: float, j: float) -> list[tuple[float, int]]:
    """Interior critical points (z, branch sign) of h_pm at momentum ``j``.

    Independent of the grid scan in ``models``: squaring h_pm'(z) = 0, i.e.
    sb (3z^2 - 2Jz - 1) = -4 gamma z R(z), gives the polynomial

        p_J(z) = (3z^2 - 2Jz - 1)^2 - 32 gamma^2 z^2 (1 - z^2)(J - z),

    whose real roots in (-1, min(J, 1)) are the critical z; the branch is
    sb = -sign(gamma z (3z^2 - 2Jz - 1)).  At gamma = 0, p_J is a square and
    each root of 3z^2 - 2Jz - 1 is critical on both branches.  At J = 1 the
    double root z = 1 is divided out exactly.
    """
    if j <= -1.0:
        return []
    hi = min(j, 1.0)
    if gamma == 0.0:
        s = math.sqrt(j * j + 3.0)
        zs = [z for z in ((j - s) / 3.0, (j + s) / 3.0) if -1.0 < z < hi]
        return sorted((z, sb) for z in zs for sb in (1, -1))
    g2 = 32.0 * gamma * gamma
    if j == 1.0:
        coeffs = [-g2, 9.0 - g2, 6.0, 1.0]
    else:
        coeffs = [-g2, 9.0 + g2 * j, g2 - 12.0 * j, 4.0 * j * j - 6.0 - g2 * j,
                  4.0 * j, 1.0]
    roots = np.roots(coeffs)
    zs = roots[np.abs(roots.imag) <= IMAG_TOL].real
    deriv = np.polyder(coeffs)
    for _ in range(2):  # Newton polish
        slope = np.polyval(deriv, zs)
        step = np.where(slope != 0.0, np.polyval(coeffs, zs) / np.where(
            slope != 0.0, slope, 1.0), 0.0)
        zs = zs - step
    out = []
    for z in zs:
        z = float(z)
        if -1.0 < z < hi:
            a = 3.0 * z * z - 2.0 * j * z - 1.0
            out.append((z, -int(np.sign(gamma * z * a))))
    return sorted(out)


def reference_value(gamma: float, j: float, z: float, sb: int) -> float:
    """h_pm(z) = sb sqrt(2 (J - z)(1 - z^2)) / 2 + gamma z^2."""
    return sb * math.sqrt(max(0.0, 2.0 * (j - z) * (1.0 - z * z))) / 2.0 \
        + gamma * z * z


def reference_kind(gamma: float, j: float, z: float, sb: int):
    """Kind of a critical point from the sign of h_pm''(z).

    With G(z) = 2 (J - z)(1 - z^2) and R = sqrt(G):
    h'' = sb (G'' / (2R) - G'^2 / (4R^3)) / 2 + 2 gamma.  A maximum of h+ or
    a minimum of h- is elliptic, the other extremum hyperbolic.
    """
    g = 2.0 * (j - z) * (1.0 - z * z)
    g1 = 2.0 * (3.0 * z * z - 2.0 * j * z - 1.0)
    g2 = 4.0 * (3.0 * z - j)
    r = math.sqrt(g)
    h2 = sb * (g2 / (2.0 * r) - g1 * g1 / (4.0 * r ** 3)) / 2.0 + 2.0 * gamma
    if abs(h2) < models.CUSP_TOL:
        return models.CriticalKind.CUSP
    if sb * h2 < 0.0:
        return models.CriticalKind.TRANSVERSALLY_ELLIPTIC
    return models.CriticalKind.TRANSVERSALLY_HYPERBOLIC


def critical_mismatch(gamma: float, j: float, rows, ref=None):
    """(error string or None, largest |z - z_ref|) for one per-J result."""
    if isinstance(rows, Failure):
        return repr(rows), 0.0
    if ref is None:
        ref = reference_critical_points(gamma, j)
    interior = [r for r in rows if r.branch is not None]
    worst = 0.0
    for sb, branch in ((1, models.Branch.PLUS), (-1, models.Branch.MINUS)):
        got = sorted(r.z_at for r in interior if r.branch is branch)
        want = sorted(z for z, s in ref if s == sb)
        if len(got) != len(want):
            return (f"{branch.value} branch has {len(got)} points, "
                    f"reference {len(want)}"), worst
        for z, zr in zip(got, want):
            worst = max(worst, abs(z - zr))
    return None, worst


def check_critical_rows(gamma: float, j: float, rows, ref) -> str | None:
    """Every row of one per-J result against the reference and the row rules."""
    why, worst = critical_mismatch(gamma, j, rows, ref)
    if why is not None:
        return why
    if worst > Z_TOL:
        return f"critical z off by {worst:.3g} > {Z_TOL}"
    for r in rows:
        if r.J != j:
            return f"row J = {r.J!r} at J = {j!r}"
        if r.branch is None:
            continue
        sb = 1 if r.branch is models.Branch.PLUS else -1
        zr = min((z for z, s in ref if s == sb), key=lambda z: abs(z - r.z_at))
        err = abs(r.H - reference_value(gamma, j, zr, sb))
        if err > H_TOL:
            return f"H off by {err:.3g} > {H_TOL} at z = {r.z_at!r}"
        want = reference_kind(gamma, j, zr, sb)
        if r.kind is not want:
            return (f"{r.branch.value} point at z = {r.z_at!r} is "
                    f"{r.kind.value}, reference {want.value}")
    eq = [r for r in rows if r.kind is models.CriticalKind.EQUILIBRIUM_VALUE]
    if j in (1.0, -1.0):
        if len(eq) != 1 or eq[0].branch is not None or eq[0].z_at != j \
                or eq[0].H != gamma:
            return f"pole row at J = {j!r} missing or inexact: {eq}"
    elif eq:
        return f"pole row at J = {j!r}"
    plus = [r for r in rows if r.branch is models.Branch.PLUS]
    if len(plus) == 3 and sum(
            r.kind is models.CriticalKind.TRANSVERSALLY_HYPERBOLIC
            for r in plus) != 1:
        return "three-point plus branch without exactly one H value"
    return None


# ---------------------------------------------------------------------------
# spin_critical


def spin_critical_inputs(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    n_random = max(0, size["j_values"] - len(FIXED_J))
    js = np.concatenate([rng.uniform(*J_RANGE, n_random), FIXED_J])
    return {"seed": seed, "gammas": list(size["gammas"]),
            "js": [float(j) for j in np.sort(js)],
            "cloud_points": size["cloud_points"]}


def spin_critical_run(inputs: dict, work_dir: Path) -> dict:
    out = {}
    for gamma in inputs["gammas"]:
        g = models.PolyG(gamma)
        per_j = [attempt(models.jc_reduced_critical_values, g, j)
                 for j in inputs["js"]]
        rows = [r for res in per_j if not isinstance(res, Failure) for r in res]
        cloud = attempt(models.jc_spectrum_sample, g, inputs["cloud_points"],
                        J_RANGE[1], inputs["seed"])
        crit_path = work_dir / f"spin_{gamma}_critical.csv"
        cloud_path = work_dir / f"spin_{gamma}_cloud.csv"
        # a failed write leaves no file, so its read-back fails too
        attempt(spectrum.write_jc_critical_csv, rows, crit_path)
        attempt(spectrum.write_cloud_csv, cloud, cloud_path)
        out[gamma] = {
            "per_j": per_j, "rows": rows, "cloud": cloud,
            "critical_read": attempt(spectrum.read_jc_critical_csv, crit_path),
            "cloud_read": attempt(spectrum.read_cloud_csv, cloud_path),
        }
    return out


def _same_critical_rows(rows, read) -> str | None:
    if len(read) != len(rows):
        return f"read {len(read)} rows, wrote {len(rows)}"
    for r, back in zip(rows, read):
        branch = r.branch.value if r.branch is not None else "none"
        if (back.J, back.H, back.z, back.branch, back.kind) != \
                (r.J, r.H, r.z_at, branch, r.kind.value):
            return f"row {back} differs from {r}"
    return None


def _same_cloud(cloud, read) -> str | None:
    return None if read == cloud else "cloud read back differs"


def spin_critical_check(inputs: dict, outputs: dict, refs: dict) -> Tally:
    """``refs`` caches the reference per (gamma, J) across iterations."""
    tally = Tally()
    for gamma, res in outputs.items():
        for j, rows in zip(inputs["js"], res["per_j"]):
            key = (gamma, j)
            if key not in refs:
                refs[key] = reference_critical_points(gamma, j)
            judge(tally, f"critical gamma={gamma} J={j!r}",
                  check_critical_rows, gamma, j, rows, refs[key])
        if gamma != 0.0:
            windows = sum(
                1 for rows in res["per_j"] if not isinstance(rows, Failure)
                and sum(r.branch is models.Branch.PLUS for r in rows) == 3)
            tally.record(f"fold window gamma={gamma}", windows > 0,
                         "no J with a three-point plus branch")
        judge(tally, f"critical csv gamma={gamma}", _same_critical_rows,
              res["rows"], res["critical_read"])
        judge(tally, f"cloud csv gamma={gamma}", _same_cloud, res["cloud"],
              res["cloud_read"])
    return tally


# ---------------------------------------------------------------------------
# diagram_io


def diagram_io_inputs(seed: int, size: dict) -> dict:
    return {"seed": seed, "gamma": DIAGRAM_GAMMA, **size}


def diagram_io_run(inputs: dict, work_dir: Path) -> dict:
    g = models.PolyG(inputs["gamma"])
    cloud = attempt(models.jc_spectrum_sample, g, inputs["cloud_points"],
                    J_RANGE[1], inputs["seed"])
    grid = attempt(spectrum.rasterize, cloud, *inputs["raster"])
    env = attempt(spectrum.boundary, cloud, inputs["boundary_bins"])
    cloud_path = work_dir / "cloud.csv"
    raster_path = work_dir / "raster.csv"
    # a failed write leaves no file, so its read-back fails too
    attempt(spectrum.write_cloud_csv, cloud, cloud_path)
    attempt(spectrum.write_raster_csv, grid, raster_path)
    out = {
        "cloud": cloud, "grid": grid, "boundary": env,
        "cloud_read": attempt(spectrum.read_cloud_csv, cloud_path),
        "raster_read": attempt(read_raster_csv, raster_path),
        "diagrams": [],
    }
    for nu, big_d in NORMAL_FORMS:
        params = hopf.HopfParams(omega=1.0, sigma=1, nu=nu, D=big_d)
        diagram = attempt(spectrum.assemble_hopf_diagram, params,
                          inputs["curve_samples"])
        curve_path = work_dir / f"nu{nu}_D{big_d}_curve.csv"
        json_path = work_dir / f"nu{nu}_D{big_d}_diagram.json"
        attempt(spectrum.write_curve_csv, diagram, curve_path)
        attempt(spectrum.write_diagram_json, diagram, json_path)
        out["diagrams"].append({
            "params": params, "diagram": diagram,
            "curve_read": attempt(spectrum.read_curve_csv, curve_path),
            "json_read": attempt(spectrum.read_diagram_json, json_path),
        })
    return out


def read_raster_csv(path) -> np.ndarray:
    """Rows (J, H, count) of a raster CSV; hopfdiag has no reader for it."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "J,H,count":
            raise ValueError(f"unexpected raster CSV header: {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    if any(len(r) != 3 for r in rows):
        raise ValueError("raster CSV row without three fields")
    return np.array([(float(j), float(h), int(c)) for j, h, c in rows],
                    dtype=float).reshape(-1, 3)


def _check_cloud(inputs, cloud) -> str | None:
    if cloud.count != inputs["cloud_points"] or cloud.seed != inputs["seed"]:
        return f"cloud has {cloud.count} points, seed {cloud.seed}"
    if not np.all(np.isfinite(cloud.points)):
        return "cloud has non-finite points"
    return None


def _check_grid(cloud, grid) -> str | None:
    n_j, n_h = grid.counts.shape
    total = int(grid.counts.sum())
    if total != cloud.count:
        return f"raster counts sum to {total}, cloud has {cloud.count}"
    j_min, j_max, h_min, h_max = cloud.bounds
    ji = np.minimum(((cloud.points[:, 0] - j_min) / (j_max - j_min) * n_j)
                    .astype(int), n_j - 1)
    hi = np.minimum(((cloud.points[:, 1] - h_min) / (h_max - h_min) * n_h)
                    .astype(int), n_h - 1)
    want = np.bincount(ji * n_h + hi, minlength=n_j * n_h).reshape(n_j, n_h)
    if not np.array_equal(want, grid.counts):
        return "raster counts differ from a direct histogram"
    return None


def _check_boundary(cloud, env, bins) -> str | None:
    j_min, j_max, _, _ = cloud.bounds
    span = j_max - j_min
    idx = np.minimum(((cloud.points[:, 0] - j_min) / span * bins).astype(int),
                     bins - 1)
    h = cloud.points[:, 1]
    lo = np.full(bins, np.inf)
    hi = np.full(bins, -np.inf)
    np.minimum.at(lo, idx, h)
    np.maximum.at(hi, idx, h)
    full = np.flatnonzero(np.isfinite(lo))
    got = np.array(env, dtype=float).reshape(-1, 3)
    if got.shape[0] != full.size:
        return f"{got.shape[0]} envelope bins, {full.size} occupied"
    centers = j_min + (full + 0.5) * span / bins
    pos = np.searchsorted(full, idx)
    inside = (got[pos, 1] <= h) & (h <= got[pos, 2])
    if not inside.all():
        return f"{int((~inside).sum())} points outside the envelope"
    if not (np.allclose(got[:, 0], centers, rtol=0.0, atol=1e-12)
            and np.array_equal(got[:, 1], lo[full])
            and np.array_equal(got[:, 2], hi[full])):
        return "envelope is not the per-bin min/max"
    return None


def _check_raster_read(grid, read) -> str | None:
    n_j, n_h = grid.counts.shape
    want = np.column_stack([np.repeat(grid.j_centers, n_h),
                            np.tile(grid.h_centers, n_j),
                            grid.counts.ravel()])
    return None if np.array_equal(read, want) else "raster read back differs"


def _diagram_points(diagram):
    return [p for seg in diagram.segments for p in seg.points]


def _check_diagram(params, diagram) -> str | None:
    if diagram.params != params:
        return "diagram for other parameters"
    if params.nu > 0.0 and len(diagram.segments) != 3:
        return f"{len(diagram.segments)} segments for nu > 0"
    bad = [p for p in _diagram_points(diagram) if not p.d >= 0.0]
    return f"{len(bad)} inadmissible samples kept" if bad else None


def _same_curve(diagram, read) -> str | None:
    return None if read == _diagram_points(diagram) else "curve CSV differs"


def _same_diagram(diagram, read) -> str | None:
    return None if read == diagram else "diagram JSON differs"


def diagram_io_check(inputs: dict, outputs: dict, refs: dict) -> Tally:
    tally = Tally()
    cloud, grid = outputs["cloud"], outputs["grid"]
    judge(tally, "sample", _check_cloud, inputs, cloud)
    judge(tally, "rasterize", _check_grid, cloud, grid)
    judge(tally, "boundary", _check_boundary, cloud, outputs["boundary"],
          inputs["boundary_bins"])
    judge(tally, "cloud csv", _same_cloud, cloud, outputs["cloud_read"])
    judge(tally, "raster csv", _check_raster_read, grid, outputs["raster_read"])
    for d in outputs["diagrams"]:
        tag = f"nu={d['params'].nu} D={d['params'].D}"
        judge(tally, f"assemble {tag}", _check_diagram, d["params"],
              d["diagram"])
        judge(tally, f"curve csv {tag}", _same_curve, d["diagram"],
              d["curve_read"])
        judge(tally, f"diagram json {tag}", _same_diagram, d["diagram"],
              d["json_read"])
    return tally


# ---------------------------------------------------------------------------
# verify


def verify_inputs(seed: int, size: dict) -> dict:
    # The acceptance suite has fixed inputs; the seed only names the run.
    return {"seed": seed, "argv": ["verify", "--json"], **size}


def verify_run(inputs: dict, work_dir: Path) -> dict:
    # criterion 14 writes through tempfile: keep that inside the work dir
    saved, tempfile.tempdir = tempfile.tempdir, str(work_dir)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = attempt(cli.main, inputs["argv"])
    finally:
        tempfile.tempdir = saved
    return {"rc": rc, "stdout": buf.getvalue()}


def verify_check(inputs: dict, outputs: dict, refs: dict) -> Tally:
    tally = Tally()
    n = inputs["criteria"]
    rc = outputs["rc"]
    try:
        report = json.loads(outputs["stdout"])
    except ValueError as exc:
        report = None
        why = f"{rc!r}; unreadable report: {exc}"
    if not isinstance(report, list) or len(report) != n:
        for k in range(1, n + 1):
            tally.record(f"criterion {k:02d}", False,
                         why if report is None else "report has wrong shape")
        return tally
    for r in report:
        tally.record(f"criterion {r['number']:02d} {r['name']}",
                     bool(r["passed"]), r["detail"])
    want_rc = 0 if all(r["passed"] for r in report) else 1
    if rc != want_rc:
        tally.record("exit code", False, f"verify exited {rc!r}, "
                     f"expected {want_rc}")
    return tally


WORKLOADS = {
    "spin_critical": (spin_critical_inputs, spin_critical_run,
                      spin_critical_check),
    "diagram_io": (diagram_io_inputs, diagram_io_run, diagram_io_check),
    "verify": (verify_inputs, verify_run, verify_check),
}


def input_sizes(name: str, inputs: dict) -> dict:
    """The sizes to record in provenance (no bulky input arrays)."""
    sizes = {k: v for k, v in inputs.items() if k not in ("js", "argv")}
    if "js" in inputs:
        sizes["j_values"] = len(inputs["js"])
    return sizes


def versions() -> dict:
    return {"hopfdiag": hopfdiag.__version__, "numpy": np.__version__,
            "python": sys.version.split()[0]}
