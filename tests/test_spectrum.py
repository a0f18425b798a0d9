import dataclasses
import json
import math
import os
import re
import signal
import threading
import time
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfdiag import hopf, models, spectrum
from hopfdiag.hopf import CurveSample, HopfParams, Regime, SegmentKind
from hopfdiag.models import Branch, CriticalKind, SpectrumCloud
from hopfdiag.spectrum import (Diagram, DiagramSegment, JCCriticalRow,
                               RasterGrid)

REF = HopfParams(omega=1.0, sigma=1, nu=0.5, D=-2.0)
SUPER = HopfParams(omega=1.0, sigma=1, nu=0.5, D=1.0)
EDGE_VALUES = [-0.0, 5e-324, 1e308, 1.0 / 3.0]


# Per-row reference implementations; the streamed writers and `boundary`
# must match them exactly.

def fmt(x) -> str:
    return repr(float(x))


def reference_curve_csv(diagram: Diagram) -> str:
    lines = ["s,J,H,z_double,hessdet,kind"]
    for seg in diagram.segments:
        for p in seg.points:
            lines.append(",".join([fmt(p.s), fmt(p.J), fmt(p.H), fmt(p.d),
                                   fmt(p.det2), p.kind.value]))
    return "\n".join(lines) + "\n"


def reference_jc_critical_csv(points) -> str:
    lines = ["J,H,z,branch,kind"]
    for p in points:
        branch = p.branch.value if p.branch is not None else "none"
        lines.append(",".join([fmt(p.J), fmt(p.H), fmt(p.z_at), branch,
                               p.kind.value]))
    return "\n".join(lines) + "\n"


def reference_cloud_csv(cloud: SpectrumCloud) -> str:
    lines = [f"# seed={cloud.seed} count={cloud.count}", "J,H"]
    for j, h in cloud.points:
        lines.append(f"{fmt(j)},{fmt(h)}")
    return "\n".join(lines) + "\n"


def reference_raster_csv(grid: RasterGrid) -> str:
    lines = ["J,H,count"]
    for i, j in np.ndindex(grid.counts.shape):
        lines.append(f"{fmt(grid.j_centers[i])},{fmt(grid.h_centers[j])},"
                     f"{int(grid.counts[i, j])}")
    return "\n".join(lines) + "\n"


def reference_boundary(cloud: SpectrumCloud, bins: int):
    if cloud.count == 0:
        return []
    j_min, j_max, _, _ = cloud.bounds
    span = (j_max - j_min) or 1.0
    idx = np.minimum(((cloud.points[:, 0] - j_min) / span * bins).astype(int),
                     bins - 1)
    out = []
    for b in range(bins):
        mask = idx == b
        if mask.any():
            h = cloud.points[mask, 1]
            out.append((float(j_min + (b + 0.5) * span / bins),
                        float(h.min()), float(h.max())))
    return out


def reference_raster_counts(cloud: SpectrumCloud, n_j: int, n_h: int):
    """Occupancy by one np.add.at per point."""
    j_min, j_max, h_min, h_max = cloud.bounds
    counts = np.zeros((n_j, n_h), dtype=int)
    for j, h in cloud.points.tolist():
        cell = [min(int((x - lo) / ((hi - lo) or 1.0) * n), n - 1)
                for x, lo, hi, n in ((j, j_min, j_max, n_j),
                                     (h, h_min, h_max, n_h))]
        np.add.at(counts, tuple(cell), 1)
    return counts


def reference_segment(params: HopfParams, s_values, kind: SegmentKind):
    """Curve samples by the earlier rule, from the closed forms one s at a
    time: keep a sample on the equilibrium stratum or with double root
    >= 0, and snap the stratum's samples to the exact (J, H, d) = 0."""
    points, gaps, dropped = [], [], []
    for s in map(float, s_values):
        sample = CurveSample(s, hopf.curve_j(params, s),
                             hopf.curve_h(params, s),
                             hopf.double_root(params, s),
                             hopf.hessian_det2(params, s),
                             hopf.segment_kind(params, s))
        if not (sample.kind is SegmentKind.EQUILIBRIUM_ENDPOINT
                or sample.d >= 0.0):
            dropped.append(s)
            continue
        if sample.kind is SegmentKind.EQUILIBRIUM_ENDPOINT:
            sample = replace(sample, J=0.0, H=0.0, d=0.0)
        points.append(sample)
    if dropped:
        gaps.append((min(dropped), max(dropped)))
    if len(points) < 2:
        if points:
            gaps = [(float(s_values[0]), float(s_values[-1]))]
        points = []
    return DiagramSegment(kind, tuple(points), tuple(gaps))


def seeded_cloud(n: int, seed: int) -> SpectrumCloud:
    """n points over many decades, led by the edge values in both columns."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    pts[:len(EDGE_VALUES), 0] = EDGE_VALUES
    pts[:len(EDGE_VALUES), 1] = EDGE_VALUES[::-1]
    return SpectrumCloud(points=pts, seed=seed)


def bit_pattern_cloud(n: int, seed: int) -> SpectrumCloud:
    """n points from random 64-bit patterns: every finite exponent, a
    quarter subnormal, and -0.0, 0.0 and the extreme finite values."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, (n, 2), dtype=np.uint64, endpoint=False)
    bits[::4] &= np.uint64(0x800F_FFFF_FFFF_FFFF)     # zero exponent
    pts = bits.view(np.float64).copy()
    pts[~np.isfinite(pts)] = -0.0
    pts[:3] = [[-0.0, 0.0], [5e-324, -5e-324], [1.7976931348623157e308,
                                                 -2.2250738585072014e-308]]
    return SpectrumCloud(points=pts, seed=seed)


def seeded_values(n: int, seed: int) -> list[float]:
    """n floats over many decades, led by the edge values."""
    return seeded_cloud(n, seed).points[:, 0].tolist()


def seeded_diagram(n: int, seed: int) -> Diagram:
    """n curve samples with arbitrary finite fields, in two segments."""
    vals = seeded_values(5 * n, seed)
    kinds = list(SegmentKind)
    pts = [CurveSample(*vals[5 * i:5 * i + 5], kind=kinds[i % len(kinds)])
           for i in range(n)]
    segs = [DiagramSegment(SegmentKind.TRANSVERSALLY_ELLIPTIC, pts[:n // 3]),
            DiagramSegment(SegmentKind.TRANSVERSALLY_HYPERBOLIC, pts[n // 3:])]
    return Diagram(REF, segs)


def seeded_critical_points(n: int, seed: int):
    """n objects shaped like models.CriticalValuePoint, all branches and
    kinds."""
    vals = seeded_values(3 * n, seed)
    branches = [Branch.PLUS, Branch.MINUS, None]
    kinds = list(CriticalKind)
    return [types.SimpleNamespace(J=vals[3 * i], H=vals[3 * i + 1],
                                  z_at=vals[3 * i + 2],
                                  branch=branches[i % 3],
                                  kind=kinds[i % len(kinds)])
            for i in range(n)]


def critical_rows(points) -> list[JCCriticalRow]:
    return [JCCriticalRow(p.J, p.H, p.z_at,
                          p.branch.value if p.branch is not None else "none",
                          p.kind.value) for p in points]


@pytest.mark.parametrize("row, fields", [
    (models.CriticalValuePoint(1.0, 0.5, 0.25, Branch.PLUS,
                               CriticalKind.TRANSVERSALLY_ELLIPTIC),
     ("J", "H", "z_at", "branch", "kind")),
    (JCCriticalRow(1.0, 0.5, 0.25, "plus", "E"),
     ("J", "H", "z", "branch", "kind"))])
def test_critical_rows_are_named_tuples(row, fields):
    assert type(row)._fields == fields
    assert row == tuple(getattr(row, name) for name in fields)
    with pytest.raises(AttributeError):
        row.J = 2.0
    assert {row: 1}[row] == 1 and hash(row) == hash(tuple(row))
    copy = row._replace(J=2.0)
    assert (copy.J, row.J) == (2.0, 1.0) and copy[1:] == row[1:]


def seeded_raster(seed: int) -> RasterGrid:
    """97 x 89 = 8633 cells, more rows than one write."""
    cloud = models.jc_spectrum_sample(models.PolyG(0.8), 5000, 3.2, seed)
    return spectrum.rasterize(cloud, 97, 89)


# format: (writer, reader, value, the value read back, per-row reference)
FORMATS = {
    "curve": (spectrum.write_curve_csv, spectrum.read_curve_csv,
              lambda: seeded_diagram(8192 + 1, 5),
              lambda d: [p for seg in d.segments for p in seg.points],
              reference_curve_csv),
    "jc_critical": (spectrum.write_jc_critical_csv,
                    spectrum.read_jc_critical_csv,
                    lambda: seeded_critical_points(8192 + 1, 6),
                    critical_rows, reference_jc_critical_csv),
    "cloud": (spectrum.write_cloud_csv, spectrum.read_cloud_csv,
              lambda: seeded_cloud(8192 + 1, 7), lambda c: c,
              reference_cloud_csv),
    "raster": (spectrum.write_raster_csv, spectrum.read_raster_csv,
               lambda: seeded_raster(8), lambda g: g, reference_raster_csv),
}


@pytest.mark.parametrize("name", FORMATS)
def test_csv_format(tmp_path, name):
    """Each format round-trips through the one codec and matches its per-row
    reference; a bad header, a bad field count and, for the cloud, a wrong
    ``count=`` are ValueErrors that name the file."""
    write, read, make, expected, reference = FORMATS[name]
    value = make()
    path = tmp_path / f"{name}.csv"
    write(value, path)
    text = path.read_text()
    assert text == reference(value)
    assert read(path) == expected(value)

    lines = text.splitlines(keepends=True)
    at = 1 if lines[0].startswith("#") else 0
    names_file = re.escape(str(path))
    faults = {"header": lines[:at] + ["x,y\n"] + lines[at + 1:],
              "fields": lines[:-1] + [lines[-1].rstrip("\n") + ",1\n"],
              "blank": lines[:at + 2] + ["\n"] + lines[at + 2:]}
    if name == "cloud":
        faults["count"] = lines[:-1]
    for fault, bad in faults.items():
        path.write_text("".join(bad))
        with pytest.raises(ValueError, match=names_file):
            read(path)


class TestAssemble:
    @pytest.mark.parametrize("big_d", [1.0, -2.0])
    @pytest.mark.parametrize("nu", [1e-13, 1e-11, 1e-9, 0.5])
    def test_kept_samples_are_the_admissible_ones(self, nu, big_d):
        # one rule: a sample is critical_curve_point's, kept iff d >= 0,
        # and one on the equilibrium stratum is the exact equilibrium value
        params = HopfParams(omega=1.0, sigma=1, nu=nu, D=big_d)
        diagram = spectrum.assemble_hopf_diagram(params, 64)
        for p in (p for seg in diagram.segments for p in seg.points):
            assert p == hopf.critical_curve_point(params, p.s)
            assert p.d >= 0.0
            if p.kind is SegmentKind.EQUILIBRIUM_ENDPOINT:
                assert (p.J, p.H, p.d) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("nu", [1e-12, 1e-300])
    def test_strata_at_tiny_nu(self, nu):
        # the stratum tolerance is relative to nu: END only at +-sqrt(nu),
        # CUSP only at +-sqrt(nu/3), and the s = 0 anchor is hyperbolic
        params = HopfParams(omega=1.0, sigma=1, nu=nu, D=-2.0)
        diagram = spectrum.assemble_hopf_diagram(params, 64)
        ends, cusps = math.sqrt(nu), math.sqrt(nu / 3.0)
        kinds = {p.s: p.kind for seg in diagram.segments for p in seg.points}
        assert {s for s, k in kinds.items()
                if k is SegmentKind.EQUILIBRIUM_ENDPOINT} == {-ends, ends}
        assert {s for s, k in kinds.items()
                if k is SegmentKind.CUSP} == {-cusps, cusps}
        assert kinds[0.0] is SegmentKind.TRANSVERSALLY_HYPERBOLIC
        assert set(kinds.values()) == set(SegmentKind)

    def test_subnormal_nu_is_all_equilibrium(self):
        # below the smallest normal float nu keeps no relative precision,
        # so the tolerance stops shrinking: the whole curve is the
        # equilibrium value, not a mix of rounding-made labels
        params = HopfParams(omega=1.0, sigma=1, nu=5e-324, D=-2.0)
        diagram = spectrum.assemble_hopf_diagram(params, 64)
        points = [p for seg in diagram.segments for p in seg.points]
        assert points and all(p.kind is SegmentKind.EQUILIBRIUM_ENDPOINT
                              for p in points)

    def test_reference_diagram(self):
        d = spectrum.assemble_hopf_diagram(REF, 400)
        assert d.regime is Regime.SUBCRITICAL
        assert [seg.kind for seg in d.segments] == [
            SegmentKind.TRANSVERSALLY_ELLIPTIC,
            SegmentKind.TRANSVERSALLY_HYPERBOLIC,
            SegmentKind.TRANSVERSALLY_ELLIPTIC,
        ]
        assert d.anchor == (0.0, 0.015625)
        assert [round(c.s, 5) for c in d.cusps] == [-0.40825, 0.40825]
        assert all(e.J == 0.0 and e.H == 0.0 for e in d.endpoints)
        assert d.slopes == hopf.origin_slopes(REF)
        # the exact s = 0 anchor row is present in the hyperbolic segment
        mid = d.segments[1]
        zero = [p for p in mid.points if p.s == 0.0]
        assert len(zero) == 1
        assert (zero[0].J, zero[0].H) == (0.0, 0.015625)
        assert zero[0].kind is SegmentKind.TRANSVERSALLY_HYPERBOLIC

    def test_segments_share_cusp_and_endpoint_samples(self):
        d = spectrum.assemble_hopf_diagram(REF, 100)
        left, mid, right = d.segments
        assert left.points[0].kind is SegmentKind.EQUILIBRIUM_ENDPOINT
        assert left.points[-1].kind is SegmentKind.CUSP
        assert mid.points[0].s == left.points[-1].s
        assert mid.points[-1].s == right.points[0].s
        assert right.points[-1].kind is SegmentKind.EQUILIBRIUM_ENDPOINT

    def test_kinds_agree_with_segment_kind(self):
        d = spectrum.assemble_hopf_diagram(REF, 128)
        for seg in d.segments:
            for p in seg.points:
                assert p.kind is hopf.segment_kind(REF, p.s)

    def test_points_monotone_in_s(self):
        d = spectrum.assemble_hopf_diagram(REF, 77)
        for seg in d.segments:
            ss = [p.s for p in seg.points]
            assert ss == sorted(ss)

    def test_negative_nu_has_no_curve(self):
        d = spectrum.assemble_hopf_diagram(
            HopfParams(omega=1.0, sigma=1, nu=-0.5, D=-2.0), 64)
        assert d.segments == () and d.cusps == () and d.endpoints == ()
        assert d.slopes is None
        assert d.equilibrium == (0.0, 0.0)
        assert d.regime is Regime.SUBCRITICAL

    def test_supercritical_segments_empty_with_gaps(self):
        d = spectrum.assemble_hopf_diagram(SUPER, 64)
        assert d.regime is Regime.SUPERCRITICAL
        for seg in d.segments:
            assert seg.points == ()
            assert len(seg.gaps) == 1
        assert d.anchor == (0.0, -0.03125)

    @pytest.mark.parametrize("n", [16, 17, 200, 801])
    @pytest.mark.parametrize("big_d", [1.0, -2.0])
    @pytest.mark.parametrize("nu", [1e-300, 1e-12, 0.5, 3.0])
    def test_segment_samples_equal_per_s_curve_points(self, nu, big_d, n):
        # critical_curve_point kept at d >= 0 gives the samples, kinds,
        # snaps and gaps of the earlier rule (reference_segment), on grids
        # through the endpoints and cusps and into the inadmissible side
        params = HopfParams(omega=1.0, sigma=1, nu=nu, D=big_d)
        s_end, s_cusp = math.sqrt(nu), math.sqrt(nu / 3.0)
        grids = [np.linspace(-s_end, -s_cusp, n), np.linspace(0.0, s_cusp, n),
                 np.linspace(-2.0 * s_end, 2.0 * s_end, n)]
        for s in grids:
            for kind in (SegmentKind.TRANSVERSALLY_ELLIPTIC,
                         SegmentKind.TRANSVERSALLY_HYPERBOLIC):
                seg = spectrum._segment_samples(params, s, kind)
                want = reference_segment(params, s, kind)
                assert seg == want
                assert repr(seg) == repr(want)      # -0.0 kept apart too

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            spectrum.assemble_hopf_diagram(REF, 8)

    def test_diagram_takes_params_and_segments_only(self):
        init = [f.name for f in dataclasses.fields(Diagram) if f.init]
        assert init == ["params", "segments"]
        with pytest.raises(TypeError):
            Diagram(REF, [], anchor=(0.0, 0.0))
        # the anchor H_c(0) = -nu^2/(8D) overflows
        with pytest.raises(ValueError, match=r"^Diagram\.anchor must be a "
                                             r"finite real number, got -inf$"):
            Diagram(HopfParams(omega=1.0, sigma=1, nu=-1e200, D=1.0), [])


class TestRasterize:
    def test_single_point(self):
        cloud = SpectrumCloud(points=np.array([[0.5, 1.5]]), seed=0)
        grid = spectrum.rasterize(cloud, 4, 4)
        assert grid.counts.sum() == 1
        assert (grid.counts == 1).sum() == 1

    def test_counts_sum(self):
        rng = np.random.default_rng(0)
        cloud = SpectrumCloud(points=rng.uniform(0, 1, (1234, 2)), seed=0)
        grid = spectrum.rasterize(cloud, 7, 5)
        assert grid.counts.sum() == 1234

    def test_uniform_cloud_is_flat(self):
        rng = np.random.default_rng(1)
        cloud = SpectrumCloud(points=rng.uniform(0, 1, (10_000, 2)), seed=1)
        grid = spectrum.rasterize(cloud, 10, 10)
        assert grid.counts.max() / grid.counts.min() < 2.0

    def test_line_cloud_occupies_diagonal_band(self):
        t = np.linspace(0.0, 1.0, 500)
        cloud = SpectrumCloud(points=np.column_stack([t, t]), seed=0)
        grid = spectrum.rasterize(cloud, 8, 8)
        occupied = np.argwhere(grid.counts > 0)
        assert np.all(np.abs(occupied[:, 0] - occupied[:, 1]) <= 1)

    def test_center_overflow_is_silent_inf(self):
        cloud = SpectrumCloud(points=[[0.0, 0.0], [1e308, 1.0]], seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = spectrum.rasterize(cloud, 200, 200)
        assert grid.counts[0, 0] == grid.counts[-1, -1] == 1
        assert grid.j_centers[-1] == math.inf
        # the centres boundary reports, from the same binning
        assert [r[0] for r in spectrum.boundary(cloud, 200)] == \
            grid.j_centers[[0, -1]].tolist()

    def test_empty_cloud_errors(self):
        with pytest.raises(ValueError):
            spectrum.rasterize(SpectrumCloud(points=np.empty((0, 2)), seed=0), 4, 4)

    @given(n_j=st.integers(1, 9), n_h=st.integers(1, 9),
           pts=st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.25, 3.0])
                                  | st.floats(-10.0, 10.0),
                                  st.sampled_from([-2.0, 0.0, 1.0])
                                  | st.floats(-10.0, 10.0)),
                        min_size=1, max_size=200),
           repeat=st.integers(1, 3), flat=st.sampled_from(["", "J", "H"]))
    def test_matches_per_point_reference(self, n_j, n_h, pts, repeat, flat):
        # duplicate points (each listed ``repeat`` times, and repeated
        # draws), zero spans and 1 x 1 grids
        pts = np.repeat(np.array(pts, dtype=float), repeat, axis=0)
        if flat:
            col = "JH".index(flat)
            pts[:, col] = pts[0, col]
        cloud = SpectrumCloud(points=pts, seed=0)
        grid = spectrum.rasterize(cloud, n_j, n_h)
        assert np.array_equal(grid.counts,
                              reference_raster_counts(cloud, n_j, n_h))
        assert grid.counts.dtype == np.dtype(int)
        assert grid.counts.shape == (n_j, n_h)

    def test_one_by_one_grid_counts_every_point(self):
        cloud = models.jc_spectrum_sample(models.PolyG(0.8), 3000, 3.2, 9)
        assert spectrum.rasterize(cloud, 1, 1).counts.tolist() == [[3000]]
        assert np.array_equal(spectrum.rasterize(cloud, 37, 23).counts,
                              reference_raster_counts(cloud, 37, 23))


class TestBoundary:
    def test_undeformed_envelope(self):
        cloud = models.jc_spectrum_sample(models.PolyG(0.0), 200_000, 2.0, seed=3)
        rows = spectrum.boundary(cloud, 80)
        center = min(rows, key=lambda r: abs(r[0]))
        assert abs(center[0]) < 0.05
        assert center[2] == pytest.approx(0.4387, abs=0.02)
        assert center[1] == pytest.approx(-0.4387, abs=0.02)

    def test_empty_cloud(self):
        assert spectrum.boundary(SpectrumCloud(points=np.empty((0, 2)),
                                               seed=0), 10) == []

    def test_single_bin_is_global_envelope(self):
        pts = np.array([[0.0, -1.0], [0.5, 2.0], [1.0, 0.5]])
        rows = spectrum.boundary(SpectrumCloud(points=pts, seed=0), 1)
        assert len(rows) == 1
        assert rows[0][1] == -1.0 and rows[0][2] == 2.0

    @given(bins=st.integers(1, 50),
           pts=st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.25, 3.0])
                                  | st.floats(-10.0, 10.0),
                                  st.floats(-10.0, 10.0)), max_size=200),
           flat=st.booleans())
    def test_matches_per_bin_reference(self, bins, pts, flat):
        pts = np.array(pts, dtype=float).reshape(-1, 2)
        if flat and len(pts):
            pts[:, 0] = pts[0, 0]      # zero J span
        cloud = SpectrumCloud(points=pts, seed=0)
        rows = spectrum.boundary(cloud, bins)
        assert rows == reference_boundary(cloud, bins)
        assert all(type(x) is float for row in rows for x in row)

    def test_span_overflow_is_a_value_error(self):
        cloud = SpectrumCloud(points=[[-1e308, 0.0], [1e308, 1.0]], seed=0)
        with pytest.raises(ValueError, match="overflows"):
            spectrum.boundary(cloud, 10)        # RuntimeWarnings are errors
        with pytest.raises(ValueError, match="overflows"):
            spectrum.rasterize(cloud, 10, 10)

    def test_center_overflow_is_silent_inf(self):
        cloud = SpectrumCloud(points=[[0.0, 0.0], [1e308, 1.0]], seed=0)
        rows = spectrum.boundary(cloud, 2000)     # RuntimeWarnings are errors
        assert rows == reference_boundary(cloud, 2000)
        assert rows[-1] == (math.inf, 1.0, 1.0)

    def test_centers_bit_identical_at_scale(self):
        cloud = models.jc_spectrum_sample(models.PolyG(0.8), 20_000, 3.2, 4)
        for bins in (1, 7, 2000):
            assert spectrum.boundary(cloud, bins) == \
                reference_boundary(cloud, bins)


class TestSerialization:
    def test_curve_csv_round_trip(self, tmp_path):
        d = spectrum.assemble_hopf_diagram(REF, 64)
        path = tmp_path / "curve.csv"
        spectrum.write_curve_csv(d, path)
        rows = spectrum.read_curve_csv(path)
        flat = [p for seg in d.segments for p in seg.points]
        assert rows == flat

    def test_diagram_json_round_trip(self, tmp_path):
        # the writer's sample template gives json's own text; SUPER's
        # segments are gaps alone, the last diagram has points and gaps
        diagrams = [spectrum.assemble_hopf_diagram(params, 48) for params in (
            REF, SUPER, HopfParams(omega=1.0, sigma=1, nu=-0.5, D=-2.0))]
        diagrams.append(Diagram(REF, [
            DiagramSegment(seg.kind, seg.points, ((-0.75, -0.5), (0.25, 0.5)))
            for seg in diagrams[0].segments]))
        for d in diagrams:
            path = tmp_path / "diagram.json"
            spectrum.write_diagram_json(d, path)
            assert spectrum.read_diagram_json(path) == d
            assert path.read_text() == json.dumps(
                spectrum.diagram_to_dict(d), indent=1) + "\n"

    def test_a_derived_diagram_field_cannot_be_set(self, tmp_path):
        # such a diagram would write a file that the reader refuses
        d = spectrum.assemble_hopf_diagram(REF, 48)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.anchor = (0.0, 0.5)
        path = tmp_path / "diagram.json"
        spectrum.write_diagram_json(d, path)
        assert spectrum.read_diagram_json(path) == d

    def test_a_diagram_segment_cannot_be_changed(self, tmp_path):
        # a segment changed after the checks could be written to a file
        # that the reader refuses (gaps [(1.0, 0.5)]: "has a lo > hi")
        d = spectrum.assemble_hopf_diagram(REF, 48)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.segments[0].gaps = [(1.0, 0.5)]
        assert type(d.segments) is type(d.cusps) is type(d.endpoints) is tuple
        assert all(type(seg.points) is type(seg.gaps) is tuple
                   for seg in d.segments)
        path = tmp_path / "diagram.json"
        spectrum.write_diagram_json(d, path)
        assert spectrum.read_diagram_json(path) == d
        # the diagram checks a copy and leaves the caller's segment alone
        mine = DiagramSegment(SegmentKind.TRANSVERSALLY_ELLIPTIC,
                              gaps=[[np.float32(0.25), 1]])
        got = Diagram(REF, [mine])
        assert mine.gaps == [[np.float32(0.25), 1]]
        assert got.segments == (DiagramSegment(
            SegmentKind.TRANSVERSALLY_ELLIPTIC, (), ((0.25, 1.0),)),)

    @pytest.mark.parametrize("fault", ["old_params", "missing_key",
                                       "wrong_type", "not_an_object",
                                       "truncated", "one_slope",
                                       "three_ended_gap", "nan_cusp",
                                       "infinite_anchor", "nan_gap",
                                       "string_gap", "reversed_gap",
                                       "bool_gap", "bool_sigma",
                                       "bool_slopes", "bool_anchor",
                                       "bool_cusp", "bool_hessdet",
                                       "edited_anchor", "flipped_regime",
                                       "dropped_cusp", "swapped_slopes",
                                       "tiny_equilibrium", "added_endpoints",
                                       "int_equilibrium", "reordered_anchor"])
    def test_diagram_reader_refuses_a_bad_file(self, tmp_path, fault):
        # "old_params": the four fixed-value keys that earlier versions
        # wrote under "params"; such a file is refused, not read.  The
        # faults from "edited_anchor" on are well-formed values that differ
        # from the writer's text for the file's params
        params = HopfParams(omega=1.0, sigma=1, nu=-0.5, D=-2.0) \
            if fault == "added_endpoints" else REF
        path = tmp_path / "diagram.json"
        spectrum.write_diagram_json(
            spectrum.assemble_hopf_diagram(params, 48), path)
        data = json.loads(path.read_text())
        if fault == "old_params":
            data["params"].update(unfold_a=0.0, unfold_b=1.0, coeff_B=0.0,
                                  coeff_C=0.0)
        elif fault == "missing_key":
            del data["anchor"]
        elif fault == "wrong_type":
            data["segments"][0]["points"][0]["J"] = "0.5"
        elif fault == "not_an_object":
            data = [data]
        elif fault == "one_slope":
            data["slopes"] = [1.0]
        elif fault == "three_ended_gap":
            data["segments"][0]["gaps"] = [[1, 2, 3]]
        elif fault == "nan_cusp":
            data["cusps"][0]["J"] = math.nan
        elif fault == "infinite_anchor":
            data["anchor"]["H"] = math.inf
        elif fault == "nan_gap":            # written back as NaN, not JSON
            data["segments"][0]["gaps"] = [[math.nan, 1.0]]
        elif fault == "string_gap":
            data["segments"][0]["gaps"] = [["a", "b"]]
        elif fault == "reversed_gap":
            data["segments"][0]["gaps"] = [[1.0, 0.5]]
        elif fault == "bool_gap":
            data["segments"][0]["gaps"] = [[False, True]]
        elif fault == "bool_sigma":
            data["params"]["sigma"] = True
        elif fault == "bool_slopes":
            data["slopes"] = [True, False]
        elif fault == "bool_anchor":
            data["anchor"]["H"] = True
        elif fault == "bool_cusp":
            data["cusps"][0]["J"] = True
        elif fault == "bool_hessdet":
            data["segments"][0]["points"][0]["hessdet"] = False
        elif fault == "edited_anchor":
            data["anchor"]["H"] = 0.25
        elif fault == "flipped_regime":
            data["regime"] = "supercritical"
        elif fault == "dropped_cusp":
            del data["cusps"][1]
        elif fault == "swapped_slopes":
            data["slopes"].reverse()
        elif fault == "tiny_equilibrium":
            data["equilibrium"]["H"] = 1e-300
        elif fault == "added_endpoints":
            data["endpoints"] = [{"s": -1.0, "J": 0.0, "H": 0.0},
                                 {"s": 1.0, "J": 0.0, "H": 0.0}]
        elif fault == "int_equilibrium":
            data["equilibrium"]["J"] = 0
        elif fault == "reordered_anchor":
            data["anchor"] = {"H": data["anchor"]["H"], "J": 0.0}
        text = json.dumps(data)
        path.write_text(text[:100] if fault == "truncated" else text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            spectrum.read_diagram_json(path)

    def test_cloud_csv_round_trip(self, tmp_path):
        cloud = models.jc_spectrum_sample(models.PolyG(0.7), 300, 1.5, seed=11)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert spectrum.read_cloud_csv(path) == cloud

    def test_cloud_points_are_read_only(self, tmp_path):
        # a NaN set after the checks would be written, and the reader
        # refuses the file
        cloud = models.jc_spectrum_sample(models.PolyG(0.7), 300, 1.5, seed=11)
        with pytest.raises(ValueError, match="read-only"):
            cloud.points[0, 0] = math.nan
        assert cloud.points.base is not None      # a view: the flag, no copy
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert spectrum.read_cloud_csv(path) == cloud

    def test_raster_arrays_are_read_only(self, tmp_path):
        # a count of -5 set after rasterize would be written, and the
        # reader refuses the file
        cloud = models.jc_spectrum_sample(models.PolyG(0.7), 300, 1.5, seed=11)
        grid = spectrum.rasterize(cloud, 6, 4)
        for array in (grid.counts, grid.j_centers, grid.h_centers):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = -5
        path = tmp_path / "raster.csv"
        spectrum.write_raster_csv(grid, path)
        assert spectrum.read_raster_csv(path) == grid
        # the grid holds read-only copies; the caller's arrays stay writable
        counts = np.arange(6).reshape(2, 3)
        RasterGrid(counts=counts, j_centers=np.zeros(2), h_centers=np.ones(3))
        assert counts.flags.writeable

    def test_cloud_takes_no_later_write_of_the_caller(self):
        # a NaN the caller writes after the checks would be written out
        pts = np.zeros((3, 2))
        cloud = SpectrumCloud(points=pts, seed=0)
        pts[0, 0] = math.nan
        assert np.isfinite(cloud.points).all()
        # a read-only view of a writable array is no protection either
        view = pts[1:].view()
        view.flags.writeable = False
        cloud = SpectrumCloud(points=view, seed=0)
        pts[1, 0] = math.nan
        assert np.isfinite(cloud.points).all()

    def test_raster_takes_no_later_write_of_the_caller(self):
        counts, centres = np.arange(6).reshape(2, 3), np.zeros(2)
        grid = RasterGrid(counts=counts, j_centers=centres,
                          h_centers=np.ones(3))
        counts[0, 0], centres[0] = -5, math.nan
        assert grid.counts[0, 0] == 0 and grid.j_centers[0] == 0.0
        # arrays that no one can write are kept, not copied
        sealed = np.arange(6)
        sealed.flags.writeable = False
        grid = RasterGrid(counts=sealed.reshape(2, 3), j_centers=centres,
                          h_centers=np.ones(3))
        assert grid.counts.base is sealed

    def test_jc_critical_csv_round_trip(self, tmp_path):
        pts = []
        for j in (0.0, 1.0, 1.5):
            pts.extend(models.jc_reduced_critical_values(models.PolyG(0.8), j))
        path = tmp_path / "critical.csv"
        spectrum.write_jc_critical_csv(pts, path)
        rows = spectrum.read_jc_critical_csv(path)
        assert len(rows) == len(pts)
        for row, p in zip(rows, pts):
            assert (row.J, row.H, row.z) == (p.J, p.H, p.z_at)
            assert row.kind == p.kind.value
            assert row.branch == (p.branch.value if p.branch else "none")

    @pytest.mark.parametrize("row", ["0.5,0.1,0.2,plts,Q",
                                     "0.5,0.1,0.2,plus,Q",
                                     "0.5,0.1,0.2,plts,E",
                                     "0.5,0.1,0.2,PLUS,E",
                                     "0.5,0.1,0.2,minus,",
                                     "0.5,0.1,0.2,plus ,E",
                                     "0.5,0.1,0.2,plus,E ",
                                     "0.5,0.1,0.2, none,EQ"])
    def test_jc_critical_reader_refuses_unknown_branch_or_kind(self, tmp_path,
                                                                row):
        path = tmp_path / "critical.csv"
        for end in ("\n", ""):      # the last line may lack its newline
            path.write_text("J,H,z,branch,kind\n0.5,0.1,0.2,plus,E\n" + row
                            + end)
            with pytest.raises(ValueError, match="critical.csv: unknown "
                                                 "branch/kind .* on line 3"):
                spectrum.read_jc_critical_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_jc_critical_reader_refuses_non_finite_numbers(self, tmp_path,
                                                           value, column):
        fields = ["0.5", "0.1", "0.3"]
        fields[column] = value
        path = tmp_path / "critical.csv"
        path.write_text("J,H,z,branch,kind\n0.5,0.1,0.2,plus,E\n"
                        + ",".join(fields) + ",plus,E\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {value!r} is not finite on line 3, "
                f"column {column + 1}.")):
            spectrum.read_jc_critical_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("0.5,0.1,0.2,0.3,0.4,Q", "unknown kind 'Q' on line 3, column 6."),
        ("0.5,0.1,0.2,0.3,0.4,", "unknown kind '' on line 3, column 6."),
        ("0.5,nan,0.2,0.3,0.4,E", "'nan' is not finite on line 3, column 2."),
        ("0.5,0.1,0.2,0.3,-1e400,H",
         "'-1e400' is not finite on line 3, column 5.")])
    def test_curve_reader_names_the_line_of_a_bad_row(self, tmp_path, row,
                                                      message):
        path = tmp_path / "curve.csv"
        path.write_text("s,J,H,z_double,hessdet,kind\n0.5,0.1,0.2,0.3,0.4,E\n"
                        + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            spectrum.read_curve_csv(path)

    def test_jc_critical_reader_numbers_a_fault_in_a_later_batch(self,
                                                               tmp_path):
        path = tmp_path / "critical.csv"
        spectrum.write_jc_critical_csv(seeded_critical_points(40_000, 3), path)
        lines = path.read_text().splitlines(keepends=True)
        at = 38_000                  # file line at + 1, past the first MiB
        assert len("".join(lines[:at])) > 1 << 20
        for bad, message in [("0.5,nan,0.3,plus,E", "'nan' is not finite"),
                             ("0.5,0.1,0.3,plts,Q", "'plts'/'Q'")]:
            path.write_text("".join(lines[:at] + [bad + "\n"]
                                    + lines[at + 1:]))
            with pytest.raises(ValueError, match=f"{message}.* on line "
                                                 f"{at + 1}, column \\d\\.$"):
                spectrum.read_jc_critical_csv(path)

    def test_jc_critical_writer_prints_any_number_type_as_float(self,
                                                               tmp_path):
        # numpy float64 and float32 scalars and ints print as float() makes
        # them, in blocks of 8192 rows, the pole's EQ row among them
        g = models.PolyG(0.8)
        pts = [p for rows in models.jc_critical_values(
            g, np.linspace(-1.0, 3.2, 4001)) for p in rows]
        assert len(pts) > 8192
        assert pts[0].kind is CriticalKind.EQUILIBRIUM_VALUE
        number_types = [float, np.float64, np.float32, lambda x: round(1e3 * x)]
        mixed = [p._replace(J=number_types[i % 4](p.J),
                            H=number_types[(i + 1) % 4](p.H),
                            z_at=number_types[(i + 2) % 4](p.z_at))
                 for i, p in enumerate(pts)]
        path = tmp_path / "critical.csv"
        spectrum.write_jc_critical_csv(mixed, path)
        assert path.read_text() == reference_jc_critical_csv(mixed)

    @pytest.mark.parametrize("field, bad, at", [
        ("J", math.nan, 0), ("H", math.inf, 8195), ("z_at", -math.inf, 8199)])
    def test_jc_critical_writer_refuses_a_non_finite_row(self, tmp_path,
                                                         field, bad, at):
        # the row is named by its index, also in the second block, and no
        # file is left
        pts = seeded_critical_points(8200, 11)
        pts[at] = types.SimpleNamespace(**{**vars(pts[at]), field: bad})
        path = tmp_path / "critical.csv"
        with pytest.raises(ValueError, match=rf"^points\[{at}\]\.{field} must "
                                             "be a finite real number, got "
                                             rf"{bad!r}$"):
            spectrum.write_jc_critical_csv(pts, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, big, at", [
        ("J", 10 ** 400, 3), ("z_at", -10 ** 400, 8196)],
        ids=["J-first-block", "z-second-block"])
    def test_jc_critical_writer_refuses_an_int_beyond_the_float_range(
            self, tmp_path, field, big, at):
        # refused as non-finite, not let out as an OverflowError, in the
        # first block and in the second, and no file is left
        pts = seeded_critical_points(8200, 13)
        pts[at] = types.SimpleNamespace(**{**vars(pts[at]), field: big})
        path = tmp_path / "critical.csv"
        with pytest.raises(ValueError, match=rf"^points\[{at}\]\.{field} must "
                                             "be a finite real number, got "
                                             rf"{big}$"):
            spectrum.write_jc_critical_csv(pts, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, bad, at", [
        ("J", True, 2), ("H", "0.5", 8192), ("z_at", np.True_, 8199)])
    def test_jc_critical_writer_refuses_what_the_number_rule_refuses(
            self, tmp_path, field, bad, at):
        # a bool or a numeric string is not a number, though float() takes
        # it; refused by symplin.finite_float, and no file is left
        pts = seeded_critical_points(8200, 17)
        pts[at] = types.SimpleNamespace(**{**vars(pts[at]), field: bad})
        path = tmp_path / "critical.csv"
        with pytest.raises(ValueError, match=rf"^points\[{at}\]\.{field} must "
                                             "be a finite real number, got "
                                             + re.escape(repr(bad)) + "$"):
            spectrum.write_jc_critical_csv(pts, path)
        assert not path.exists()

    @pytest.mark.parametrize("at, label", [
        (0, {"branch": "plus"}), (8195, {"kind": "E"}),
        (5, {"branch": CriticalKind.CUSP}), (8192, {"kind": Branch.PLUS}),
        (8199, {"branch": []}), (8197, {"z_at": None}),
        (3, {"branch": "plus", "kind": None})],
        ids=["text-branch", "text-kind", "kind-as-branch", "branch-as-kind",
             "list-branch", "no-z_at", "text-branch-no-kind"])
    def test_jc_critical_writer_refuses_a_row_without_its_labels(
            self, tmp_path, at, label):
        # a ValueError naming the row, in the first block and the second,
        # and no file is left; a field given as None is left out, and a
        # missing field is named before a wrong label
        pts = seeded_critical_points(8200, 19)
        fields = {**vars(pts[at]), **label}
        message = (" must have a Branch or None branch and a CriticalKind "
                   f"kind, got {fields['branch']!r} and {fields['kind']!r}")
        for name in ("z_at", "kind"):
            if fields[name] is None:
                del fields[name]
                message = (": 'types.SimpleNamespace' object has no "
                           f"attribute {name!r}")
        pts[at] = types.SimpleNamespace(**fields)
        path = tmp_path / "critical.csv"
        with pytest.raises(ValueError, match=rf"^points\[{at}\]"
                                             + re.escape(message) + "$"):
            spectrum.write_jc_critical_csv(pts, path)
        assert not path.exists()

    def test_jc_critical_writer_takes_a_generator(self, tmp_path):
        # the solver's rows as a generator are written as the list is; a NaN
        # H in the generator's second block is named by its index, before a
        # text branch in the row after it, and no file is left
        pts = [p for rows in models.jc_critical_values(
            models.PolyG(0.8), np.linspace(-1.0, 3.2, 4001)) for p in rows]
        at = 8192 + 5
        assert len(pts) > at
        listed, streamed = tmp_path / "listed.csv", tmp_path / "streamed.csv"
        spectrum.write_jc_critical_csv(pts, listed)
        spectrum.write_jc_critical_csv((p for p in pts), streamed)
        assert streamed.read_bytes() == listed.read_bytes()
        assert listed.read_text() == reference_jc_critical_csv(pts)
        streamed.unlink()
        with pytest.raises(ValueError, match=rf"^points\[{at}\]\.H must be a "
                                             "finite real number, got nan$"):
            spectrum.write_jc_critical_csv(
                (p._replace(H=math.nan) if i == at else
                 p._replace(branch="plus") if i == at + 1 else p
                 for i, p in enumerate(pts)), streamed)
        assert not streamed.exists()

    def test_jc_critical_writer_refuses_text_labels(self, tmp_path):
        # the solver's row with a text branch, and the reader's rows, whose
        # labels are text and whose z is not z_at
        path = tmp_path / "critical.csv"
        E = CriticalKind.TRANSVERSALLY_ELLIPTIC
        with pytest.raises(ValueError, match=r"^points\[0\] must have"):
            spectrum.write_jc_critical_csv(
                [models.CriticalValuePoint(0.5, 0.1, 0.2, "plus", E)], path)
        spectrum.write_jc_critical_csv(seeded_critical_points(3, 23), path)
        rows = spectrum.read_jc_critical_csv(path)
        path.unlink()
        with pytest.raises(ValueError, match=r"^points\[0\]: "
                                             "'JCCriticalRow' object has no "
                                             "attribute 'z_at'$"):
            spectrum.write_jc_critical_csv(rows, path)
        assert not path.exists()

    def test_jc_critical_reader_accepts_every_enum_value(self, tmp_path):
        path = tmp_path / "critical.csv"
        rows = [f"1.0,0.0,1.0,{b},{k.value}" for b in ("plus", "minus", "none")
                for k in CriticalKind]
        path.write_text("J,H,z,branch,kind\n" + "\n".join(rows) + "\n")
        got = spectrum.read_jc_critical_csv(path)
        assert [f"1.0,0.0,1.0,{r.branch},{r.kind}" for r in got] == rows

    def test_raster_csv_parses(self, tmp_path):
        cloud = models.jc_spectrum_sample(models.PolyG(0.0), 500, 2.0, seed=5)
        grid = spectrum.rasterize(cloud, 6, 6)
        path = tmp_path / "raster.csv"
        spectrum.write_raster_csv(grid, path)
        back = spectrum.read_raster_csv(path)
        assert back == grid and back.counts.sum() == cloud.count
        edge = RasterGrid(counts=np.arange(20).reshape(4, 5),
                          j_centers=np.array(EDGE_VALUES),
                          h_centers=np.array(EDGE_VALUES + [-1e-300]))
        spectrum.write_raster_csv(edge, path)
        assert spectrum.read_raster_csv(path) == edge
        # a centre that rasterize overflows to inf reads back as inf
        wide = spectrum.rasterize(
            SpectrumCloud(points=[[0.0, 0.0], [1e308, 1.0]], seed=0), 3, 2)
        assert wide.j_centers[-1] == math.inf
        spectrum.write_raster_csv(wide, path)
        assert spectrum.read_raster_csv(path) == wide

    @pytest.mark.parametrize("rows", ["0.0,0.0,1\n0.0,1.0,1\n1.0,1.0,1\n",
                                      "0.0,0.0,1\n1.0,1.0,1\n",
                                      "0.0,0.0,1.5\n", "0.0,0.0,-1\n", ""])
    def test_raster_reader_needs_a_grid_of_counts(self, tmp_path, rows):
        path = tmp_path / "raster.csv"
        path.write_text("J,H,count\n" + rows)
        with pytest.raises(ValueError, match="raster.csv"):
            spectrum.read_raster_csv(path)

    @pytest.mark.parametrize("count, message", [
        ("inf", "'inf' is not finite on line 3, column 3."),
        ("nan", "'nan' is not finite on line 3, column 3."),
        ("1e30", "rows are not a J-major grid of counts >= 0"),
        ("-1e30", "rows are not a J-major grid of counts >= 0")])
    def test_raster_reader_refuses_a_bad_count_without_warnings(
            self, tmp_path, count, message):
        path = tmp_path / "raster.csv"
        path.write_text(f"J,H,count\n0.5,0.5,1\n0.5,1.5,{count}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: {message}")):
                spectrum.read_raster_csv(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            spectrum.read_curve_csv(path)
        with pytest.raises(ValueError):
            spectrum.read_jc_critical_csv(path)

    def test_cloud_writer_matches_per_row_reference(self, tmp_path):
        cloud = seeded_cloud(2 * 8192 + 1, seed=17)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.read_text() == reference_cloud_csv(cloud)
        for n in (0, 1, len(EDGE_VALUES)):
            small = SpectrumCloud(points=cloud.points[:n], seed=3)
            spectrum.write_cloud_csv(small, path)
            assert path.read_text() == reference_cloud_csv(small)

    def test_raster_writer_matches_per_row_reference(self, tmp_path):
        path = tmp_path / "raster.csv"
        cloud = models.jc_spectrum_sample(models.PolyG(0.8), 2 * 8192 + 1,
                                          3.2, seed=2)
        grid = spectrum.rasterize(cloud, 37, 23)
        edge = RasterGrid(counts=np.arange(20).reshape(4, 5),
                          j_centers=np.array(EDGE_VALUES),
                          h_centers=np.array(EDGE_VALUES + [-1e-300]))
        for g in (grid, edge):
            spectrum.write_raster_csv(g, path)
            assert path.read_text() == reference_raster_csv(g)

    def test_read_larger_than_one_chunk(self, tmp_path):
        cloud = seeded_cloud(40_000, seed=23)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.stat().st_size > 1 << 20
        back = spectrum.read_cloud_csv(path)
        assert back == cloud
        assert np.array_equal(back.points.view(np.int64),
                              cloud.points.view(np.int64))   # keeps -0.0

    def test_bit_patterns_read_back_as_float_reads_them(self, tmp_path):
        # more than one read batch of random bit patterns, subnormals and
        # -0.0 among them: the same bits as written, and as float() reads
        cloud = bit_pattern_cloud(40_000, 29)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.stat().st_size > 1 << 20
        rows = path.read_text().splitlines()[2:]
        want = np.array([[float(f) for f in row.split(",")] for row in rows])
        back = spectrum.read_cloud_csv(path).points
        assert np.array_equal(back.view(np.int64), cloud.points.view(np.int64))
        assert np.array_equal(back.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad, message", [
        ("1.0,2.0,3.0", "has 3 fields, not 2"), ("1.0", "has 1 fields"),
        ("", "has 1 fields"), ("x,1.0", "'x'"), ("1.0,1_0", "'1_0'")])
    def test_fault_in_a_later_batch_names_the_file_line(self, tmp_path, bad,
                                                       message):
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(seeded_cloud(60_000, 31), path)
        lines = path.read_text().splitlines(keepends=True)
        at = 55_000                  # file line at + 1, in the second MiB
        assert len("".join(lines[:at])) > 1 << 20
        lines[at] = bad + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as info:
            spectrum.read_cloud_csv(path)
        prefix, text = f"{path}: ", str(info.value)
        assert text.startswith(prefix) and message in text
        assert f"line {at + 1}" in text and "row" not in text[len(prefix):]

    @pytest.mark.parametrize("read, good, bad", [
        (spectrum.read_cloud_csv, "J,H\n0.5,0.5", ["1_0,2.0", "1.0,0x1p3",
                                                   "  ", " , ", "\t,1.0",
                                                   "1.0, "]),
        (spectrum.read_raster_csv, "J,H,count\n0.5,0.5,1",
         ["0.5,1.5,1_0", "0x1p3,1.5,1", "  ", " , , ", "0.5,1.5, "]),
        (spectrum.read_curve_csv, "s,J,H,z_double,hessdet,kind\n"
         "0.5,0.1,0.2,0.3,0.4,E",
         ["0.5,1_0,0.2,0.3,0.4,E", "0x1p3,0.1,0.2,0.3,0.4,E",
          "0.5,0.1,x,0.3,0.4,H", "0.5,0.1,0.2,0.3, ,E"]),
        (spectrum.read_jc_critical_csv,
         "J,H,z,branch,kind\n0.5,0.1,0.2,plus,E",
         ["0.5,1_0,0.2,plus,E", "0.5,0.1,0x1p3,minus,H", "x,0.1,0.2,none,E",
          "0.5,,0.2,plus,E"])])
    def test_numeric_fields_stricter_than_float(self, tmp_path, read, good,
                                                bad):
        # float() takes "1_0" (as 10.0) and surrounding whitespace; the
        # numeric fields take neither an underscore nor an empty field
        assert float("1_0") == 10.0
        path = tmp_path / "table.csv"
        path.write_text(good + "\n")
        read(path)
        for row in bad:
            path.write_text(f"{good}\n{row}\n")
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}: "
                                                 ".*line 3"):
                read(path)

    def test_cloud_reader_checks_count(self, tmp_path):
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(seeded_cloud(5, seed=1), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))          # 3 of 5 rows left
        with pytest.raises(ValueError, match="header says 5"):
            spectrum.read_cloud_csv(path)
        path.write_text("# seed=4\nJ,H\n1.0,2.0\n")   # no count: not checked
        assert spectrum.read_cloud_csv(path).count == 1

    @pytest.mark.parametrize("comment", ["# seed=0 junk count=2",
                                         "# junk", "#seed=1 count=1 =x junk"])
    def test_cloud_reader_names_a_comment_token_without_equals(self, tmp_path,
                                                               comment):
        path = tmp_path / "cloud.csv"
        path.write_text(f"{comment}\nJ,H\n0.5,0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             ".*'junk'"):
            spectrum.read_cloud_csv(path)

    @pytest.mark.parametrize("rows", ["1.0", "1.0\n2.0", "1.0,2.0,3.0",
                                      "1.0,", ",", "1.0;2.0", "",
                                      "\n1.0,2.0"])
    def test_cloud_reader_needs_two_fields(self, tmp_path, rows):
        path = tmp_path / "cloud.csv"
        path.write_text(f"J,H\n0.5,0.5\n{rows}\n")   # no count= to check
        with pytest.raises(ValueError):
            spectrum.read_cloud_csv(path)

    def test_float_round_trip_is_exact(self, tmp_path):
        # shortest round-trip decimals survive write/read bit-exactly
        vals = [1.0 / 3.0, 0.1 + 0.2, math.pi, 5e-324, -0.0]
        pts = np.array([[v, -v] for v in vals])
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(SpectrumCloud(points=pts, seed=0), path)
        back = spectrum.read_cloud_csv(path)
        assert np.array_equal(back.points, pts)


class TestNonFiniteCloud:
    BAD = [[0.0, 1.0], [math.nan, 0.5], [1.0, 2.0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_refuses(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SpectrumCloud(points=np.array([[0.0, 0.0], [1.0, bad]]), seed=0)

    def test_boundary_and_rasterize_refuse_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                spectrum.boundary(SpectrumCloud(points=self.BAD, seed=0), 4)
            with pytest.raises(ValueError, match="finite"):
                spectrum.rasterize(SpectrumCloud(points=self.BAD, seed=0), 4, 4)

    @pytest.mark.parametrize("row", ["nan,1.0", "0.5,inf", "1e400,0.0"])
    def test_reader_refuses_without_warnings(self, tmp_path, row):
        path = tmp_path / "cloud.csv"
        path.write_text(f"# seed=0 count=2\nJ,H\n0.5,0.5\n{row}\n")
        # the field as written, its file line and its column
        col, bad = next((c, f) for c, f in enumerate(row.split(","), 1)
                        if not math.isfinite(float(f)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: {bad!r} is not finite on line 4, "
                    f"column {col}.")):
                spectrum.read_cloud_csv(path)


class ForkCounting:
    """A check that no child is left behind, at a given point of a test
    that takes the ``forks`` fixture (``conftest.py``)."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSplitCloudWriter(ForkCounting):
    """``write_cloud_csv`` on two CPUs in a process of one OS thread: a
    child forked before the file is opened formats the trailing half of the
    points; the bytes are those of the per-row reference, and no child is
    left behind."""
    ROWS = bit_pattern_cloud(5 * 8192 + 7, 43).points

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 2 * 8192,
                                   2 * 8192 + 1, 5 * 8192 + 7])
    def test_split_bytes_are_the_reference(self, tmp_path, forks, n):
        # a cloud of _SPLIT_ROWS points or more is split, with the same bytes
        cloud = SpectrumCloud(points=seeded_cloud(n + 4, n).points[:n], seed=n)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.read_bytes() == reference_cloud_csv(cloud).encode()
        assert len(forks) == (n >= spectrum._SPLIT_ROWS)
        self.assert_no_child_left()

    def test_split_keeps_every_bit_pattern(self, tmp_path, forks):
        cloud = SpectrumCloud(points=self.ROWS, seed=43)   # subnormals, -0.0
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.read_bytes() == reference_cloud_csv(cloud).encode()
        assert forks == [1]
        back = spectrum.read_cloud_csv(path).points
        assert np.array_equal(back.view(np.int64), self.ROWS.view(np.int64))

    def test_one_cpu_writes_in_process(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        cloud = SpectrumCloud(points=self.ROWS, seed=1)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.read_bytes() == reference_cloud_csv(cloud).encode()
        assert forks == []

    def test_a_second_thread_writes_in_process(self, tmp_path, forks):
        # no fork beside another thread, whose locks the child would copy
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            cloud = SpectrumCloud(points=self.ROWS, seed=6)
            path = tmp_path / "cloud.csv"
            spectrum.write_cloud_csv(cloud, path)
        finally:
            done.set()
            thread.join()
        assert path.read_bytes() == reference_cloud_csv(cloud).encode()
        assert forks == []

    def test_a_failed_fork_writes_in_process(self, tmp_path, forks,
                                             monkeypatch):
        def no_fork():
            forks.append(1)
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
        cloud = SpectrumCloud(points=self.ROWS, seed=2)
        path = tmp_path / "cloud.csv"
        spectrum.write_cloud_csv(cloud, path)
        assert path.read_bytes() == reference_cloud_csv(cloud).encode()
        assert forks == [1]

    def test_a_missing_directory_leaves_no_child(self, tmp_path, forks):
        # the child is forked before the open fails, then killed and reaped
        cloud = SpectrumCloud(points=self.ROWS, seed=3)
        with pytest.raises(FileNotFoundError):
            spectrum.write_cloud_csv(cloud, tmp_path / "missing" / "cloud.csv")
        assert forks == [1]
        self.assert_no_child_left()

    def test_a_failed_child_is_an_os_error(self, tmp_path, forks, monkeypatch):
        # the child cannot write its half: the short file is not a success
        def no_write(fd, data):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "write", no_write)
        path = tmp_path / "cloud.csv"
        with pytest.raises(OSError, match=re.escape(
                f"{path}: the process formatting the second half of the rows "
                "ended with exit code 1")):
            spectrum.write_cloud_csv(SpectrumCloud(points=self.ROWS, seed=4),
                                     path)
        self.assert_no_child_left()

    def test_an_exception_after_the_fork_ends_the_child(self, tmp_path,
                                                        monkeypatch):
        # as a KeyboardInterrupt that lands as os.fork returns: the
        # exception is the writer's, no file is opened, and the child dies
        # of a broken pipe; its pid is lost to the writer, which cannot
        # reap it, so this test does
        pids, fork = [], os.fork

        def warned():
            pid = fork()
            if pid:
                pids.append(pid)
                raise KeyboardInterrupt
            return pid
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "fork", warned)
        path = tmp_path / "cloud.csv"
        with pytest.raises(KeyboardInterrupt):
            spectrum.write_cloud_csv(SpectrumCloud(points=self.ROWS, seed=5),
                                     path)
        assert not path.exists()
        deadline = time.monotonic() + 30.0
        while not (done := os.waitpid(pids[0], os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pids[0], 9)
                os.waitpid(pids[0], 0)
                pytest.fail("the child still writes to a pipe no one reads")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 1
        self.assert_no_child_left()


def float_rows(text: str) -> np.ndarray:
    """The rows of a cloud CSV's text as ``float()`` reads each field."""
    return np.array([[float(f) for f in line.split(",")]
                     for line in text.splitlines()
                     if not line.startswith(("#", "J"))]).reshape(-1, 2)


def sized_cloud_text(n_bytes: int) -> str:
    """A cloud CSV of exactly ``n_bytes`` bytes, no ``count=``: seeded rows,
    then one row "0,1000...0" that pads it."""
    text, rows = ["J,H\n"], iter(reference_cloud_csv(
        seeded_cloud(n_bytes // 40, 61)).splitlines(keepends=True)[2:])
    size = 4
    while size + 100 < n_bytes:
        text.append(next(rows))
        size += len(text[-1])
    return "".join(text) + "0,1" + "0" * (n_bytes - size - 4) + "\n"


def planted(lines: list[str], bad: str | None, where: str) -> tuple[str,
                                                                   int]:
    """The text of ``lines`` (the comment and header first) with the fault
    line ``bad`` put at ``where``, and the file line it is on.  ``bad``
    replaces a row; None puts a copy of the row before it, one row too many.
    "quarter" and "deep" are 1/4 and 3/4 of the way in; "lead" is the last
    line that starts in the leading half of the file's bytes and "trail" the
    first in the trailing half, the last row rewritten as "0,1000...0" of a
    length that puts the halves' border there."""
    def put(k):
        return lines[:k] + [bad or lines[k]] + lines[k + (bad is not None):]
    if where in ("quarter", "deep"):
        k = len(lines) // 4 if where == "quarter" else 3 * len(lines) // 4
        return "".join(put(k)), k + 1
    sizes = [len(line) for line in lines]
    start, total = sum(sizes[:len(lines) // 4]), sum(sizes)
    for k in range(len(lines) // 4, 3 * len(lines) // 4):
        # the new file without its last row, and the last row's length
        # that makes its half (start + 1 or start) the border
        rest = (total - sizes[-1] + len(bad or lines[k])
                - (sizes[k] if bad is not None else 0))
        pad = 2 * (start + (where == "lead")) - rest
        if 4 <= pad <= 100:
            new = put(k)
            new[-1] = "0,1" + "0" * (pad - 4) + "\n"
            return "".join(new), k + 1
        start += sizes[k]
    raise AssertionError(where)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestSplitCloudReader(ForkCounting):
    """``read_cloud_csv`` on two CPUs in a process of one OS thread: a
    file of ``_SPLIT_BYTES`` or more is split, a child forked before the
    file is opened parsing the lines that start in the trailing half of its
    bytes.  The array is the one ``float()`` reads, every fault has the
    message of the in-process read, and no child is left behind."""
    CLOUD = bit_pattern_cloud(5 * 8192 + 7, 59)
    TEXT = reference_cloud_csv(CLOUD)
    ROWS = TEXT.partition("\n")[2]     # no count= to check the rows against

    def read_both_ways(self, path, monkeypatch, forks):
        """What the split read and the in-process read give or raise."""
        got = []
        for split in (True, False):
            if not split:
                monkeypatch.setattr(spectrum, "_may_fork", lambda: False)
            try:
                got.append(spectrum.read_cloud_csv(path).points)
            except ValueError as exc:
                got.append(str(exc))
        assert forks == [1]
        self.assert_no_child_left()
        return got

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_split_array_is_the_reference(self, tmp_path, forks, shift):
        # a file of _SPLIT_BYTES or more is split, with the same array
        n_bytes = spectrum._SPLIT_BYTES + shift
        text = sized_cloud_text(n_bytes)
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        assert path.stat().st_size == n_bytes
        back = spectrum.read_cloud_csv(path).points
        assert np.array_equal(back.view(np.int64),
                              float_rows(text).view(np.int64))
        assert len(forks) == (shift >= 0)
        self.assert_no_child_left()

    @pytest.mark.parametrize("how", ["split", "below the floor", "no fork"])
    def test_a_clean_file_is_parsed_once(self, tmp_path, forks, monkeypatch,
                                         how):
        # no fallback read: the parent parses its half, or the whole file,
        # once, and a split child exits with 0
        spans, read_csv = [], spectrum._read_csv

        def recorded(*args, span=None, **kwargs):
            spans.append(span)
            return read_csv(*args, span=span, **kwargs)
        monkeypatch.setattr(spectrum, "_read_csv", recorded)
        if how == "no fork":
            monkeypatch.setattr(spectrum, "_may_fork", lambda: False)
        text = (sized_cloud_text(spectrum._SPLIT_BYTES - 1)
                if how == "below the floor" else self.TEXT)
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        back = spectrum.read_cloud_csv(path).points
        assert np.array_equal(back.view(np.int64),
                              float_rows(text).view(np.int64))
        assert spans == ([(0, len(text) // 2)] if how == "split" else [None])
        assert forks == ([1] if how == "split" else [])
        self.assert_no_child_left()

    @pytest.mark.parametrize("where", ["lead", "trail"])
    def test_a_row_at_the_border_is_read_once(self, tmp_path, forks, where):
        # the last row of the leading half, or a row that starts at its end
        text = planted(self.ROWS.splitlines(keepends=True), "0.5,0.25\n",
                       where)[0]
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        back = spectrum.read_cloud_csv(path).points
        assert np.array_equal(back.view(np.int64),
                              float_rows(text).view(np.int64))
        assert forks == [1]
        self.assert_no_child_left()

    def test_split_keeps_every_bit_pattern(self, tmp_path, forks):
        path = tmp_path / "cloud.csv"
        path.write_text(self.TEXT)
        assert path.stat().st_size > spectrum._SPLIT_BYTES
        back = spectrum.read_cloud_csv(path)
        assert np.array_equal(back.points.view(np.int64),
                              self.CLOUD.points.view(np.int64))
        assert back.seed == 59 and not back.points.flags.writeable
        assert forks == [1]
        self.assert_no_child_left()

    @pytest.mark.parametrize("where", ["lead", "trail", "deep", "both"])
    @pytest.mark.parametrize("bad", ["\n", "1.0,2.0,3.0\n", "1_0,2.0\n",
                                     "0.5,nan\n", None],
                             ids=["blank", "fields", "1_0", "nan", "count"])
    def test_a_fault_has_the_in_process_message(self, tmp_path, forks,
                                                monkeypatch, bad, where):
        # None: a row too many for count=; in both halves, the first fault
        # is named
        lines = (self.ROWS if bad else self.TEXT).splitlines(keepends=True)
        text, line = planted(lines, bad, "quarter" if where == "both"
                             else where)
        if where == "both":
            text = planted(text.splitlines(keepends=True), bad, "deep")[0]
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        split, in_process = self.read_both_ways(path, monkeypatch, forks)
        assert split == in_process
        assert split.startswith(f"{path}: ")
        if bad is None:
            assert split.endswith(f"rows, header says {self.CLOUD.count}")
        else:
            assert f"line {line}" in split, split

    @pytest.mark.parametrize("death", ["exit", "kill"])
    def test_a_failed_child_gives_the_same_array(self, tmp_path, forks,
                                                 monkeypatch, death):
        # the child cannot send its rows: the file is read in-process
        def no_write(fd, data):
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "write", no_write)
        path = tmp_path / "cloud.csv"
        path.write_text(self.ROWS)
        back = spectrum.read_cloud_csv(path).points
        assert np.array_equal(back.view(np.int64),
                              self.CLOUD.points.view(np.int64))
        assert forks == [1]
        self.assert_no_child_left()

    @pytest.mark.parametrize("why", ["one CPU", "a second thread",
                                     "a failed fork", "a missing file"])
    def test_reads_in_process(self, tmp_path, forks, monkeypatch, why):
        path = tmp_path / "cloud.csv"
        path.write_text(self.TEXT)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if why == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        elif why == "a second thread":
            thread.start()      # its locks would be copied into the child
        elif why == "a failed fork":
            def no_fork():
                forks.append(1)
                raise OSError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", no_fork)
        try:
            if why == "a missing file":
                with pytest.raises(FileNotFoundError):
                    spectrum.read_cloud_csv(tmp_path / "missing.csv")
            else:
                back = spectrum.read_cloud_csv(path).points
                assert np.array_equal(back.view(np.int64),
                                      self.CLOUD.points.view(np.int64))
        finally:
            done.set()
            if thread.is_alive():
                thread.join(30.0)
        assert not thread.is_alive()
        assert forks == ([1] if why == "a failed fork" else [])
        self.assert_no_child_left()

    def test_an_exception_in_the_parent_ends_the_child(self, tmp_path, forks,
                                                       monkeypatch):
        # as a KeyboardInterrupt while the rows are received
        def interrupted(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(spectrum, "_joined", interrupted)
        path = tmp_path / "cloud.csv"
        path.write_text(self.TEXT)
        with pytest.raises(KeyboardInterrupt):
            spectrum.read_cloud_csv(path)
        assert forks == [1]
        self.assert_no_child_left()
