"""Assembly and serialization of bifurcation diagrams.

File formats (all floats as shortest round-trip decimals, '\\n' newlines):
 - curve CSV:        header ``s,J,H,z_double,hessdet,kind``, kind in {E,H,CUSP,END}
 - jc critical CSV:  header ``J,H,z,branch,kind``, branch in {plus,minus,none},
                     kind in {E,H,CUSP,EQ}
 - cloud CSV:        ``# seed=<s> count=<n>`` comment, then header ``J,H``;
                     the reader checks ``count=`` against the rows it reads
 - raster CSV:       header ``J,H,count`` (cell centers)
 - diagram JSON:     {params, regime, cusps, endpoints, slopes, anchor,
                      equilibrium, segments}

Inadmissible curve regions are emitted as explicit gaps, never interpolated.
Cloud points are finite: ``SpectrumCloud`` refuses NaN and infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hopf
from .hopf import CurveSample, HopfParams, Regime, SegmentKind

MIN_DIAGRAM_SAMPLES = 16
MIN_SEGMENT_SAMPLES = 5
_CLOUD_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class SpectrumCloud:
    """Sampled momentum-map image: (J, H) points plus provenance metadata."""

    points: np.ndarray   # shape (n, 2)
    seed: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if not np.isfinite(pts).all():
            raise ValueError("cloud points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def bounds(self) -> tuple[float, float, float, float] | None:
        """(J_min, J_max, H_min, H_max), or None for an empty cloud."""
        if self.count == 0:
            return None
        j, h = self.points[:, 0], self.points[:, 1]
        return float(j.min()), float(j.max()), float(h.min()), float(h.max())

    def __eq__(self, other):
        return (isinstance(other, SpectrumCloud) and self.seed == other.seed
                and self.points.shape == other.points.shape
                and bool(np.array_equal(self.points, other.points)))


@dataclass(frozen=True)
class SpecialPoint:
    s: float
    J: float
    H: float


@dataclass
class DiagramSegment:
    """One smooth piece of the critical-value curve.

    ``kind`` labels the interior (shared cusp/endpoint samples carry their
    own kinds); ``gaps`` records s-intervals dropped as inadmissible.
    """

    kind: SegmentKind
    points: list[CurveSample] = field(default_factory=list)
    gaps: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Diagram:
    params: HopfParams
    regime: Regime
    cusps: list[SpecialPoint]
    endpoints: list[SpecialPoint]
    slopes: tuple[float, float] | None
    anchor: tuple[float, float]
    equilibrium: tuple[float, float]
    segments: list[DiagramSegment]


def _segment_samples(params: HopfParams, s_values, interior_kind: SegmentKind,
                     snap_ends: bool) -> DiagramSegment:
    seg = DiagramSegment(kind=interior_kind)
    dropped: list[float] = []
    last = len(s_values) - 1
    for i, s in enumerate(s_values):
        sample = hopf.critical_curve_point(params, float(s))
        if snap_ends and i in (0, last) and sample.kind is SegmentKind.EQUILIBRIUM_ENDPOINT:
            sample = CurveSample(s=float(s), J=0.0, H=0.0, d=0.0,
                                 det2=sample.det2, kind=sample.kind)
        if sample.d < 0.0:
            dropped.append(float(s))
            continue
        seg.points.append(sample)
    if dropped:
        seg.gaps.append((min(dropped), max(dropped)))
    if len(seg.points) < 2:
        if seg.points:
            seg.gaps = [(float(s_values[0]), float(s_values[-1]))]
        seg.points = []
    return seg


def assemble_hopf_diagram(params: HopfParams, samples: int) -> Diagram:
    """Three-segment critical-value diagram of the normal form.

    Segments are split at the cusps and share the cusp/endpoint samples;
    the endpoint samples are snapped to the exact equilibrium value (0, 0).
    For nu <= 0 there is no curve and only the equilibrium value remains.
    """
    if samples < MIN_DIAGRAM_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_DIAGRAM_SAMPLES}")
    anchor = (0.0, hopf.curve_h(params, 0.0))
    reg = hopf.regime(params)
    if params.nu <= 0.0:
        return Diagram(params=params, regime=reg, cusps=[], endpoints=[],
                       slopes=None, anchor=anchor, equilibrium=(0.0, 0.0),
                       segments=[])

    s_end = math.sqrt(params.nu)
    s_cusp = math.sqrt(params.nu / 3.0)
    len_outer = s_end - s_cusp
    total = 2.0 * len_outer + 2.0 * s_cusp
    n_mid = max(MIN_SEGMENT_SAMPLES, round(samples * 2.0 * s_cusp / total))
    if n_mid % 2 == 0:
        n_mid += 1              # odd count => the s = 0 anchor row is exact
    n_outer = max(MIN_SEGMENT_SAMPLES, (samples - n_mid) // 2)

    half = (n_mid + 1) // 2
    s_mid = np.concatenate([np.linspace(-s_cusp, 0.0, half),
                            np.linspace(0.0, s_cusp, half)[1:]])
    s_left = np.linspace(-s_end, -s_cusp, n_outer)
    s_right = np.linspace(s_cusp, s_end, n_outer)

    segments = [
        _segment_samples(params, s_left, SegmentKind.TRANSVERSALLY_ELLIPTIC, True),
        _segment_samples(params, s_mid, SegmentKind.TRANSVERSALLY_HYPERBOLIC, False),
        _segment_samples(params, s_right, SegmentKind.TRANSVERSALLY_ELLIPTIC, True),
    ]
    cusp_pts = [SpecialPoint(s=s, J=hopf.curve_j(params, s),
                             H=hopf.curve_h(params, s))
                for s in (-s_cusp, s_cusp)]
    end_pts = [SpecialPoint(s=-s_end, J=0.0, H=0.0),
               SpecialPoint(s=s_end, J=0.0, H=0.0)]
    return Diagram(params=params, regime=reg, cusps=cusp_pts,
                   endpoints=end_pts, slopes=hopf.origin_slopes(params),
                   anchor=anchor, equilibrium=(0.0, 0.0), segments=segments)


@dataclass(frozen=True)
class RasterGrid:
    counts: np.ndarray      # shape (nJ, nH), occupancy per cell
    j_centers: np.ndarray
    h_centers: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, RasterGrid)
                and bool(np.array_equal(self.counts, other.counts))
                and bool(np.array_equal(self.j_centers, other.j_centers))
                and bool(np.array_equal(self.h_centers, other.h_centers)))


def rasterize(cloud: SpectrumCloud, n_j: int, n_h: int) -> RasterGrid:
    """Occupancy counts on the bounds-aligned grid; counts sum to cloud.count."""
    if cloud.count == 0:
        raise ValueError("cannot rasterize an empty cloud")
    if n_j < 1 or n_h < 1:
        raise ValueError("grid sizes must be >= 1")
    j_min, j_max, h_min, h_max = cloud.bounds
    j_span = (j_max - j_min) or 1.0
    h_span = (h_max - h_min) or 1.0
    ji = np.minimum(((cloud.points[:, 0] - j_min) / j_span * n_j).astype(int),
                    n_j - 1)
    hi = np.minimum(((cloud.points[:, 1] - h_min) / h_span * n_h).astype(int),
                    n_h - 1)
    counts = np.zeros((n_j, n_h), dtype=int)
    np.add.at(counts, (ji, hi), 1)
    j_centers = j_min + (np.arange(n_j) + 0.5) * j_span / n_j
    h_centers = h_min + (np.arange(n_h) + 0.5) * h_span / n_h
    return RasterGrid(counts=counts, j_centers=j_centers, h_centers=h_centers)


def boundary(cloud: SpectrumCloud, bins: int) -> list[tuple[float, float, float]]:
    """Per-J-bin (J_center, H_min, H_max) envelope; empty bins are omitted."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if cloud.count == 0:
        return []
    j_min, j_max, _, _ = cloud.bounds
    span = (j_max - j_min) or 1.0
    idx = np.minimum(((cloud.points[:, 0] - j_min) / span * bins).astype(int),
                     bins - 1)
    h_lo, h_hi = np.full(bins, np.inf), np.full(bins, -np.inf)
    np.minimum.at(h_lo, idx, cloud.points[:, 1])
    np.maximum.at(h_hi, idx, cloud.points[:, 1])
    full = np.flatnonzero(np.bincount(idx, minlength=bins))
    with np.errstate(over="ignore"):    # inf, silently, as scalar floats give
        centers = j_min + (full + 0.5) * span / bins
    return list(zip(centers.tolist(), h_lo[full].tolist(), h_hi[full].tolist()))


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def write_curve_csv(diagram: Diagram, path):
    lines = ["s,J,H,z_double,hessdet,kind"]
    for seg in diagram.segments:
        for p in seg.points:
            lines.append(",".join([_fmt(p.s), _fmt(p.J), _fmt(p.H),
                                   _fmt(p.d), _fmt(p.det2), p.kind.value]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path) -> list[CurveSample]:
    out = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "s,J,H,z_double,hessdet,kind":
            raise ValueError(f"unexpected curve CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            s, j, h, d, det2, kind = line.split(",")
            out.append(CurveSample(s=float(s), J=float(j), H=float(h),
                                   d=float(d), det2=float(det2),
                                   kind=SegmentKind(kind)))
    return out


def write_jc_critical_csv(points, path):
    """jc critical CSV from objects with J, H, z_at, branch, kind attributes."""
    lines = ["J,H,z,branch,kind"]
    for p in points:
        branch = p.branch.value if p.branch is not None else "none"
        lines.append(",".join([_fmt(p.J), _fmt(p.H), _fmt(p.z_at),
                               branch, p.kind.value]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class JCCriticalRow:
    J: float
    H: float
    z: float
    branch: str
    kind: str


def read_jc_critical_csv(path) -> list[JCCriticalRow]:
    out = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "J,H,z,branch,kind":
            raise ValueError(f"unexpected jc critical CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            j, h, z, branch, kind = line.split(",")
            out.append(JCCriticalRow(J=float(j), H=float(h), z=float(z),
                                     branch=branch, kind=kind))
    return out


def write_cloud_csv(cloud: SpectrumCloud, path):
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={cloud.seed} count={cloud.count}\nJ,H\n")
        for start in range(0, cloud.count, _CLOUD_CHUNK_ROWS):
            rows = cloud.points[start:start + _CLOUD_CHUNK_ROWS].tolist()
            fh.write("".join([f"{j!r},{h!r}\n" for j, h in rows]))


def read_cloud_csv(path) -> SpectrumCloud:
    """Cloud CSV reader; a bad row or a ``count=`` mismatch is a ValueError."""
    seed, count, chunks = 0, None, []
    with open(path) as fh:
        while lines := fh.readlines(1 << 20):
            rows = []
            for line in lines:
                line = line.strip()
                if not line or line == "J,H":
                    continue
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if tok.startswith("seed="):
                            seed = int(tok[5:])
                        elif tok.startswith("count="):
                            count = int(tok[6:])
                    continue
                if line.count(",") != 1:
                    raise ValueError(f"cloud CSV row without two fields: {line!r}")
                rows.append(line)
            if rows:
                chunks.append(np.array(",".join(rows).split(","), dtype=float))
    pts = np.concatenate([np.empty(0), *chunks]).reshape(-1, 2)
    if count is not None and count != pts.shape[0]:
        raise ValueError(f"cloud CSV has {pts.shape[0]} rows, header says {count}")
    return SpectrumCloud(points=pts, seed=seed)


def write_raster_csv(grid: RasterGrid, path):
    j_text = [f"{j!r}" for j in grid.j_centers.tolist()]
    h_text = [f"{h!r}" for h in grid.h_centers.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("J,H,count\n")
        for j, row in zip(j_text, grid.counts.astype(int).tolist()):
            fh.write("".join([f"{j},{h},{c}\n" for h, c in zip(h_text, row)]))


def _sample_to_dict(p: CurveSample) -> dict:
    return {"s": p.s, "J": p.J, "H": p.H, "z_double": p.d,
            "hessdet": p.det2, "kind": p.kind.value}


def _sample_from_dict(d: dict) -> CurveSample:
    return CurveSample(s=d["s"], J=d["J"], H=d["H"], d=d["z_double"],
                       det2=d["hessdet"], kind=SegmentKind(d["kind"]))


def diagram_to_dict(diagram: Diagram) -> dict:
    pr = diagram.params
    return {
        "params": {"omega": pr.omega, "sigma": pr.sigma, "nu": pr.nu,
                   "D": pr.D, "unfold_a": pr.unfold_a, "unfold_b": pr.unfold_b,
                   "coeff_B": pr.coeff_B, "coeff_C": pr.coeff_C},
        "regime": diagram.regime.value,
        "cusps": [{"s": c.s, "J": c.J, "H": c.H} for c in diagram.cusps],
        "endpoints": [{"s": e.s, "J": e.J, "H": e.H} for e in diagram.endpoints],
        "slopes": list(diagram.slopes) if diagram.slopes is not None else None,
        "anchor": {"J": diagram.anchor[0], "H": diagram.anchor[1]},
        "equilibrium": {"J": diagram.equilibrium[0], "H": diagram.equilibrium[1]},
        "segments": [{"kind": seg.kind.value,
                      "points": [_sample_to_dict(p) for p in seg.points],
                      "gaps": [list(g) for g in seg.gaps]}
                     for seg in diagram.segments],
    }


def diagram_from_dict(data: dict) -> Diagram:
    pr = data["params"]
    params = HopfParams(omega=pr["omega"], sigma=pr["sigma"], nu=pr["nu"],
                        D=pr["D"], unfold_a=pr["unfold_a"],
                        unfold_b=pr["unfold_b"], coeff_B=pr["coeff_B"],
                        coeff_C=pr["coeff_C"])
    segments = [DiagramSegment(kind=SegmentKind(s["kind"]),
                               points=[_sample_from_dict(p) for p in s["points"]],
                               gaps=[tuple(g) for g in s["gaps"]])
                for s in data["segments"]]
    slopes = tuple(data["slopes"]) if data["slopes"] is not None else None
    return Diagram(
        params=params,
        regime=Regime(data["regime"]),
        cusps=[SpecialPoint(**c) for c in data["cusps"]],
        endpoints=[SpecialPoint(**e) for e in data["endpoints"]],
        slopes=slopes,
        anchor=(data["anchor"]["J"], data["anchor"]["H"]),
        equilibrium=(data["equilibrium"]["J"], data["equilibrium"]["H"]),
        segments=segments,
    )


def write_diagram_json(diagram: Diagram, path):
    with open(path, "w", newline="") as fh:
        json.dump(diagram_to_dict(diagram), fh, indent=1)
        fh.write("\n")


def read_diagram_json(path) -> Diagram:
    with open(path) as fh:
        return diagram_from_dict(json.load(fh))
