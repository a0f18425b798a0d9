"""Assembly and serialization of bifurcation diagrams.

Every CSV table goes through one codec (``_write_csv``/``_read_csv``): an
optional ``# k=v ...`` first line, the header line, then rows with exactly
the header's field count, floats as shortest round-trip decimals; a read
fault is a ValueError that names the file.  Tables (header; notes):
 - curve CSV:          ``s,J,H,z_double,hessdet,kind``, kind in {E,H,CUSP,END}
 - jc critical CSV:    ``J,H,z,branch,kind``, branch in {plus,minus,none},
                       kind in {E,H,CUSP,EQ}
 - cloud CSV:          ``J,H`` after ``# seed=<s> count=<n>``; the reader
                       checks ``count=`` against the rows it reads
 - raster CSV:         ``J,H,count``, one row per cell centre, J-major
 - jc-scan and linearization scan CSVs (written only):
                       ``gamma,a,b,type[,eig1,eig2,eig3,eig4]``
 - diagram JSON:       {params, regime, cusps, endpoints, slopes, anchor,
                        equilibrium, segments}, params = {omega, sigma, nu, D}

Inadmissible curve regions are emitted as explicit gaps, never interpolated.
Cloud points are finite: ``models.SpectrumCloud`` refuses NaN and infinity,
and ``write_jc_critical_csv`` refuses a non-finite J, H or z.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import hopf, symplin
from .hopf import CurveSample, HopfParams, Regime, SegmentKind
from .models import Branch, CriticalKind, SpectrumCloud

MIN_DIAGRAM_SAMPLES = 16
MIN_SEGMENT_SAMPLES = 5


@dataclass(frozen=True)
class SpecialPoint:
    s: float
    J: float
    H: float

    def __post_init__(self):
        symplin.finite_fields(self, "s", "J", "H")


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

    def __post_init__(self):
        optional = () if self.slopes is None else ("slopes",)
        for name in ("anchor", "equilibrium", *optional):
            setattr(self, name, _finite_pair(getattr(self, name), name))
        for seg in self.segments:
            seg.gaps = [_finite_pair(gap, "gaps") for gap in seg.gaps]
            if any(lo > hi for lo, hi in seg.gaps):
                raise ValueError(f"Diagram.gaps {seg.gaps!r} has a lo > hi")


def _finite_pair(pair, name: str) -> tuple[float, float]:
    if len(pair) != 2:
        raise ValueError(f"Diagram.{name} {pair!r} is not a pair")
    return tuple(symplin.finite_float(x, "Diagram", name) for x in pair)


def _segment_samples(params: HopfParams, s_values,
                     interior_kind: SegmentKind) -> DiagramSegment:
    """``hopf.critical_curve_point`` at each of the array ``s_values``; a
    sample with d < 0, outside the image z >= 0, is dropped, and the
    s-range of those dropped is the segment's gap."""
    seg = DiagramSegment(kind=interior_kind)
    dropped: list[float] = []
    for s in s_values.tolist():
        sample = hopf.critical_curve_point(params, s)
        if sample.d >= 0.0:
            seg.points.append(sample)
        else:
            dropped.append(s)
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
        _segment_samples(params, s_left, SegmentKind.TRANSVERSALLY_ELLIPTIC),
        _segment_samples(params, s_mid, SegmentKind.TRANSVERSALLY_HYPERBOLIC),
        _segment_samples(params, s_right, SegmentKind.TRANSVERSALLY_ELLIPTIC),
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


def _bins(x: np.ndarray, lo: float, hi: float, n: int):
    """Index of each x among n equal bins over [lo, hi] (a zero span counts
    as 1), and the bin centres lo + (k + 0.5) * span / n, inf where that
    overflows, as scalar floats would give."""
    span = (hi - lo) or 1.0
    if not math.isfinite(span):
        raise ValueError(f"span {lo!r} .. {hi!r} overflows a float")
    idx = np.minimum(((x - lo) / span * n).astype(int), n - 1)
    with np.errstate(over="ignore"):
        centers = lo + (np.arange(n) + 0.5) * span / n
    return idx, centers


def rasterize(cloud: SpectrumCloud, n_j: int, n_h: int) -> RasterGrid:
    """Occupancy counts on the bounds-aligned grid; counts sum to cloud.count."""
    if cloud.count == 0:
        raise ValueError("cannot rasterize an empty cloud")
    if n_j < 1 or n_h < 1:
        raise ValueError("grid sizes must be >= 1")
    j_min, j_max, h_min, h_max = cloud.bounds
    ji, j_centers = _bins(cloud.points[:, 0], j_min, j_max, n_j)
    hi, h_centers = _bins(cloud.points[:, 1], h_min, h_max, n_h)
    counts = np.bincount(ji * n_h + hi, minlength=n_j * n_h).reshape(n_j, n_h)
    return RasterGrid(counts=counts, j_centers=j_centers, h_centers=h_centers)


def boundary(cloud: SpectrumCloud, bins: int) -> list[tuple[float, float, float]]:
    """Per-J-bin (J_center, H_min, H_max) envelope; empty bins are omitted."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if cloud.count == 0:
        return []
    j_min, j_max, _, _ = cloud.bounds
    idx, centers = _bins(cloud.points[:, 0], j_min, j_max, bins)
    h_lo, h_hi = np.full(bins, np.inf), np.full(bins, -np.inf)
    np.minimum.at(h_lo, idx, cloud.points[:, 1])
    np.maximum.at(h_hi, idx, cloud.points[:, 1])
    full = np.flatnonzero(np.bincount(idx, minlength=bins))
    return list(zip(centers[full].tolist(), h_lo[full].tolist(),
                    h_hi[full].tolist()))


# ---------------------------------------------------------------------------
# serialization: one CSV codec for every table

_CURVE_HEADER = "s,J,H,z_double,hessdet,kind"
_JC_CRITICAL_HEADER = "J,H,z,branch,kind"
_CLOUD_HEADER = "J,H"
_RASTER_HEADER = "J,H,count"
_WRITE_ROWS = 8192          # lines per write call
_READ_BYTES = 1 << 20       # text per read call


def _fmt(x: float) -> str:
    return repr(float(x))


def fmt_complex(c: complex) -> str:
    """Shortest round-trip text of a complex number, e.g. ``0.5-1.0j``."""
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt(c.real)}{sign}{_fmt(abs(c.imag))}j"


def _write_csv(path, header: str, blocks, meta: dict | None = None):
    """Write ``# k=v ...`` if there is ``meta``, the header, then ``blocks``,
    each the text of up to 8192 whole lines, one write per block."""
    comment = [" ".join(["#"] + [f"{k}={v}" for k, v in meta.items()])] \
        if meta else []
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(comment + [header]) + "\n")
        fh.writelines(blocks)


def _blocks(rows):
    """Rows (tuples of field text) as blocks of 8192 lines."""
    lines = map(",".join, rows)
    while chunk := list(itertools.islice(lines, _WRITE_ROWS)):
        yield "\n".join(chunk) + "\n"


def _read_csv(path, header: str, parse, build):
    """Read a table written by ``_write_csv``: an optional ``# k=v ...``
    line (``meta``), ``header``, then rows with the header's field count,
    1 MiB at a time, each batch (its lines, newlines kept) through ``parse``.
    Returns ``build(meta, batches)``; every ValueError names the file."""
    commas = header.count(",")
    try:
        with open(path) as fh:
            line, line_no, meta = fh.readline(), 1, {}
            if line.startswith("#"):
                meta = dict(kv.split("=", 1) for kv in line[1:].split())
                line, line_no = fh.readline(), 2
            if line.rstrip("\n") != header:
                raise ValueError(f"header {line.rstrip()!r} is not {header!r}")
            batches = []
            while lines := fh.readlines(_READ_BYTES):
                fields = list(map(str.count, lines, itertools.repeat(",")))
                if fields.count(commas) != len(fields):   # a blank line has 0
                    i = next(i for i, n in enumerate(fields) if n != commas)
                    raise ValueError(f"line {line_no + 1 + i} has "
                                     f"{fields[i] + 1} fields, not {commas + 1}")
                batches.append(parse(lines))
                line_no += len(lines)
        return build(meta, batches)
    except ValueError as exc:   # loadtxt (and a parse) numbers rows from 0
        msg = re.sub(r"at row (\d+)(?=, column \d+\.$)",
                     lambda m: f"on line {line_no + 1 + int(m[1])}", str(exc))
        raise ValueError(f"{path}: {msg}") from None


def _floats(lines, usecols=None) -> np.ndarray:
    """Columns ``usecols`` (default all) by numpy's C reader, which, unlike
    float(), refuses "1_0"."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                      usecols=usecols)


def _finite_floats(lines, ncols: int) -> np.ndarray:
    """The first ``ncols`` columns; nan or inf is a fault "at row i, column c."."""
    nums = _floats(lines, range(ncols))
    bad = np.argwhere(~np.isfinite(nums))
    if bad.size:
        i, col = bad[0].tolist()
        raise ValueError(f"{lines[i].split(',')[col]!r} is not finite "
                         f"at row {i}, column {col + 1}.")
    return nums


def _concat(meta, batches) -> list:
    return [row for batch in batches for row in batch]


def write_curve_csv(diagram: Diagram, path):
    _write_csv(path, _CURVE_HEADER, _blocks(
        (_fmt(p.s), _fmt(p.J), _fmt(p.H), _fmt(p.d), _fmt(p.det2),
         p.kind.value) for seg in diagram.segments for p in seg.points))


def read_curve_csv(path) -> list[CurveSample]:
    """Curve rows; unknown kinds and non-finite numbers refused."""
    kinds = {k.value: k for k in SegmentKind}

    def parse(lines):    # a fault "at row i, column c." of this batch
        nums = _finite_floats(lines, 5).tolist()
        labels = [line.rstrip("\n").rsplit(",", 1)[1] for line in lines]
        if not kinds.keys() >= set(labels):
            i = next(i for i, k in enumerate(labels) if k not in kinds)
            raise ValueError(f"unknown kind {labels[i]!r} at row {i}, column 6.")
        return [CurveSample(*row, kinds[k]) for row, k in zip(nums, labels)]
    return _read_csv(path, _CURVE_HEADER, parse, _concat)


def write_jc_critical_csv(points, path):
    """jc critical CSV from objects with J, H, z_at, branch, kind attributes;
    each block is one ``%r`` (float repr) format of up to 8192 rows.  A
    non-finite J, H or z is a ValueError that names the row, raised before
    the file is opened."""
    rows, blocks = iter(points), []
    while chunk := list(itertools.islice(rows, _WRITE_ROWS)):
        fields = tuple(itertools.chain(*[
            (float(p.J), float(p.H), float(p.z_at),
             "none" if p.branch is None else p.branch._value_, p.kind._value_)
            for p in chunk]))
        if not all(map(math.isfinite, fields[0::5] + fields[1::5]
                       + fields[2::5])):
            i = next(i for i in range(0, len(fields), 5)
                     if not all(map(math.isfinite, fields[i:i + 3])))
            raise ValueError(f"points[{len(blocks) * _WRITE_ROWS + i // 5}] "
                             f"has (J, H, z) = {fields[i:i + 3]}; each must "
                             "be finite")
        blocks.append(("%r,%r,%r,%s,%s\n" * len(chunk)) % fields)
    _write_csv(path, _JC_CRITICAL_HEADER, blocks)


class JCCriticalRow(NamedTuple):
    J: float
    H: float
    z: float
    branch: str
    kind: str


def read_jc_critical_csv(path) -> list[JCCriticalRow]:
    """``JCCriticalRow`` named tuples, one per line, labels as text;
    unknown labels and non-finite numbers refused."""
    # each label's one string; the last field keeps its newline, except
    # perhaps on the last line
    branches = {v: v for v in ("none", *(b.value for b in Branch))}
    kinds = {k.value + end: k.value for k in CriticalKind for end in ("\n", "")}

    def parse(lines):    # a fault "at row i, column c." of this batch
        nums = _finite_floats(lines, 3)
        _, branch, kind = zip(*[line.rsplit(",", 2) for line in lines])
        branch, kind = list(map(branches.get, branch)), list(map(kinds.get, kind))
        if None in branch or None in kind:
            i = next(i for i, labels in enumerate(zip(branch, kind))
                     if None in labels)
            raise ValueError("unknown branch/kind {!r}/{!r} at row {}, column "
                             "4.".format(*lines[i].rstrip("\n").split(",")[3:], i))
        return list(map(JCCriticalRow, *nums.T.tolist(), branch, kind))
    return _read_csv(path, _JC_CRITICAL_HEADER, parse, _concat)


def write_cloud_csv(cloud: SpectrumCloud, path):
    """Each block is one ``%r`` (float repr) format of 8192 rows."""
    _write_csv(path, _CLOUD_HEADER, (
        ("%r,%r\n" * len(b)) % tuple(b.ravel().tolist()) for b in (
            cloud.points[i:i + _WRITE_ROWS]
            for i in range(0, cloud.count, _WRITE_ROWS))),
        {"seed": cloud.seed, "count": cloud.count})


def read_cloud_csv(path) -> SpectrumCloud:
    """Cloud CSV reader; ``count=``, when given, must match the rows read."""
    def build(meta, batches):
        pts = np.concatenate([np.empty((0, 2)), *batches])
        count = int(meta.get("count", len(pts)))
        if count != len(pts):
            raise ValueError(f"{len(pts)} rows, header says {count}")
        return SpectrumCloud(points=pts, seed=int(meta.get("seed", 0)))
    return _read_csv(path, _CLOUD_HEADER, _floats, build)


def write_raster_csv(grid: RasterGrid, path):
    """One row per cell, J-major, each centre formatted once."""
    j_text = [repr(j) for j in grid.j_centers.tolist()]
    h_text = [repr(h) for h in grid.h_centers.tolist()]
    counts = grid.counts.astype(int).tolist()
    _write_csv(path, _RASTER_HEADER, _blocks(
        (j, h, str(c)) for j, row in zip(j_text, counts)
        for h, c in zip(h_text, row)))


def read_raster_csv(path) -> RasterGrid:
    """Raster CSV reader.  A grid row ends where J changes, so J centres
    that coincide (a span below float spacing) read back merged."""
    def build(meta, batches):
        j, h, c = np.concatenate([np.empty((0, 3)), *batches]).T
        if j.size == 0:
            raise ValueError("no rows")
        n_h = int(np.argmax(j != j[0])) or j.size
        grid = RasterGrid(counts=c.astype(int).reshape(-1, n_h),
                          j_centers=j[::n_h], h_centers=h[:n_h])
        if not (np.array_equal(np.repeat(grid.j_centers, n_h), j)
                and np.array_equal(np.tile(grid.h_centers, j.size // n_h), h)
                and np.array_equal(grid.counts.ravel(), c) and c.min() >= 0):
            raise ValueError("rows are not a J-major grid of counts >= 0")
        return grid
    return _read_csv(path, _RASTER_HEADER, _floats, build)


def write_jc_scan_csv(rows, path):
    """jc-scan CSV from (gamma, QuarticCoeffs, type, eigenvalues) rows."""
    _write_csv(path, "gamma,a,b,type,eig1,eig2,eig3,eig4", _blocks(
        (_fmt(g), _fmt(q.a), _fmt(q.b), str(typ), *map(fmt_complex, eig))
        for g, q, typ, eig in rows))


def write_linearization_csv(rows, path):
    """Linearization scan CSV from (gamma, QuarticCoeffs, type) rows."""
    _write_csv(path, "gamma,a,b,type", _blocks(
        (_fmt(g), _fmt(q.a), _fmt(q.b), str(typ)) for g, q, typ in rows))


def _sample_to_dict(p: CurveSample) -> dict:
    return {"s": p.s, "J": p.J, "H": p.H, "z_double": p.d,
            "hessdet": p.det2, "kind": p.kind.value}


def _sample_from_dict(d: dict) -> CurveSample:
    return CurveSample(s=d["s"], J=d["J"], H=d["H"], d=d["z_double"],
                       det2=d["hessdet"], kind=SegmentKind(d["kind"]))


def diagram_to_dict(diagram: Diagram) -> dict:
    return {
        "params": asdict(diagram.params),
        "regime": diagram.regime.value,
        "cusps": [{"s": c.s, "J": c.J, "H": c.H} for c in diagram.cusps],
        "endpoints": [{"s": e.s, "J": e.J, "H": e.H} for e in diagram.endpoints],
        "slopes": diagram.slopes,
        "anchor": {"J": diagram.anchor[0], "H": diagram.anchor[1]},
        "equilibrium": {"J": diagram.equilibrium[0], "H": diagram.equilibrium[1]},
        "segments": [{"kind": seg.kind.value,
                      "points": [_sample_to_dict(p) for p in seg.points],
                      "gaps": seg.gaps}
                     for seg in diagram.segments],
    }


def diagram_from_dict(data: dict) -> Diagram:
    segments = [DiagramSegment(kind=SegmentKind(s["kind"]),
                               points=[_sample_from_dict(p) for p in s["points"]],
                               gaps=s["gaps"])
                for s in data["segments"]]
    return Diagram(
        params=HopfParams(**data["params"]),
        regime=Regime(data["regime"]),
        cusps=[SpecialPoint(**c) for c in data["cusps"]],
        endpoints=[SpecialPoint(**e) for e in data["endpoints"]],
        slopes=data["slopes"],
        anchor=(data["anchor"]["J"], data["anchor"]["H"]),
        equilibrium=(data["equilibrium"]["J"], data["equilibrium"]["H"]),
        segments=segments,
    )


def write_diagram_json(diagram: Diagram, path):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(diagram_to_dict(diagram), indent=1) + "\n")


def read_diagram_json(path) -> Diagram:
    """Diagram JSON reader; a file that is not a diagram (a missing key, a
    wrong type, ``params`` keys other than omega, sigma, nu and D, a value
    that a record refuses) is a ValueError naming it."""
    try:
        with open(path) as fh:
            return diagram_from_dict(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
