"""Assembly and serialization of bifurcation diagrams.

A CSV table is an optional ``# k=v ...`` line, the header, then rows of
the header's field count.  One writer, ``_write_csv``, formats each block
of 8192 rows, a flat field tuple, by one ``"%s,...,%s\\n"`` line (``str`` of
a float is its shortest round-trip repr).  One reader, ``_read_csv``,
checks each line's field count and parses 256 KiB batches of rows by
``np.loadtxt`` (``_parse_rows``) into structured arrays, floats then
labels, refusing a non-finite float or an unknown label; a read fault is
a ValueError naming the file and line.  A cloud of 8192 points or more
is written, and a cloud file of 1 MiB or more read, by two processes where
``os.sched_getaffinity`` lists two CPUs or more and the process is its one
OS thread: a child forked before the file is opened formats the trailing
half of the points, or parses the lines that start in the trailing half
of the bytes, and sends the text or the rows through a pipe; otherwise,
or if ``os.fork`` fails, all is done in-process.
 - curve CSV:          ``s,J,H,z_double,hessdet,kind``, kind in {E,H,CUSP,END}
 - jc critical CSV:    ``J,H,z,branch,kind``, branch in {plus,minus,none},
                       kind in {E,H,CUSP,EQ}
 - cloud CSV:          ``J,H`` after ``# seed=<s> count=<n>``; the reader
                       checks ``count=`` against the rows it reads
 - raster CSV:         ``J,H,count``, one row per cell, J-major, inf centres
 - jc-scan and linearization scan CSVs (written only):
                       ``gamma,a,b,type[,eig1,eig2,eig3,eig4]``
 - diagram JSON:       {params, regime, cusps, endpoints, slopes, anchor,
                        equilibrium, segments}; params = {omega, sigma, nu,
                        D} fix the six between, which the reader checks

Inadmissible curve regions are emitted as explicit gaps, never interpolated.
Cloud points are finite: ``models.SpectrumCloud`` refuses NaN and infinity,
and ``write_jc_critical_csv`` takes J, H and z by ``symplin.finite_float``,
a branch only as a ``Branch`` or None and a kind only as a ``CriticalKind``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field
from functools import partial
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


@dataclass(frozen=True)
class DiagramSegment:
    """One smooth piece of the critical-value curve.

    ``kind`` labels the interior (shared cusp/endpoint samples carry their
    own kinds); ``gaps`` records s-intervals dropped as inadmissible.
    """

    kind: SegmentKind
    points: tuple[CurveSample, ...] = ()
    gaps: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class Diagram:
    """The diagram of ``params``: the curve ``segments``, and the regime,
    cusps, endpoints, s = 0 anchor, equilibrium value (0, 0) and origin
    slopes that the params fix, computed and checked here in that order.
    Frozen, with frozen segments in tuples, so no field can be set apart
    from the params or the checks."""

    params: HopfParams
    regime: Regime = field(init=False)
    cusps: tuple[SpecialPoint, ...] = field(init=False)
    endpoints: tuple[SpecialPoint, ...] = field(init=False)
    slopes: tuple[float, float] | None = field(init=False)
    anchor: tuple[float, float] = field(init=False)
    equilibrium: tuple[float, float] = field(init=False)
    segments: tuple[DiagramSegment, ...]

    def __post_init__(self):
        p = self.params
        put = partial(object.__setattr__, self)
        put("regime", hopf.regime(p))
        put("cusps", tuple(SpecialPoint(s, hopf.curve_j(p, s), hopf.curve_h(p, s))
                           for s in hopf.cusps(p)))
        ends = [-math.sqrt(p.nu), math.sqrt(p.nu)] if p.nu > 0.0 else []
        put("endpoints", tuple(SpecialPoint(s, 0.0, 0.0) for s in ends))
        put("anchor", _finite_pair((0.0, hopf.curve_h(p, 0.0)), "anchor"))
        put("equilibrium", (0.0, 0.0))
        put("slopes", hopf.origin_slopes(p) if p.nu > 0.0 else None)
        segments = []
        for seg in self.segments:       # checked copies, the caller's kept
            gaps = [_finite_pair(gap, "gaps") for gap in seg.gaps]
            if any(lo > hi for lo, hi in gaps):
                raise ValueError(f"Diagram.gaps {gaps!r} has a lo > hi")
            segments.append(DiagramSegment(seg.kind, tuple(seg.points), tuple(gaps)))
        put("segments", tuple(segments))


def _finite_pair(pair, name: str) -> tuple[float, float]:
    if len(pair) != 2:
        raise ValueError(f"Diagram.{name} {pair!r} is not a pair")
    return tuple(symplin.finite_float(x, "Diagram", name) for x in pair)


def _segment_samples(params: HopfParams, s_values,
                     interior_kind: SegmentKind) -> DiagramSegment:
    """``hopf.critical_curve_point`` at each of the array ``s_values``; a
    sample with d < 0, outside the image z >= 0, is dropped, and the
    s-range of those dropped is the segment's gap.  A lone kept sample is
    dropped too, and the gap is then the whole s-range."""
    points, dropped = [], []
    for s in s_values.tolist():
        sample = hopf.critical_curve_point(params, s)
        if sample.d >= 0.0:
            points.append(sample)
        else:
            dropped.append(s)
    gaps = ((min(dropped), max(dropped)),) if dropped else ()
    if len(points) == 1:
        points, gaps = [], ((float(s_values[0]), float(s_values[-1])),)
    return DiagramSegment(interior_kind, tuple(points), gaps)


def assemble_hopf_diagram(params: HopfParams, samples: int) -> Diagram:
    """Three-segment critical-value diagram of the normal form.

    Segments are split at the cusps and share the cusp/endpoint samples;
    the endpoint samples are snapped to the exact equilibrium value (0, 0).
    For nu <= 0 there is no curve and only the equilibrium value remains.
    """
    samples = symplin.nonneg_int(samples, "assemble_hopf_diagram", "samples")
    if samples < MIN_DIAGRAM_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_DIAGRAM_SAMPLES}")
    if params.nu <= 0.0:
        return Diagram(params, ())

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

    segments = (
        _segment_samples(params, s_left, SegmentKind.TRANSVERSALLY_ELLIPTIC),
        _segment_samples(params, s_mid, SegmentKind.TRANSVERSALLY_HYPERBOLIC),
        _segment_samples(params, s_right, SegmentKind.TRANSVERSALLY_ELLIPTIC),
    )
    return Diagram(params, segments)


@dataclass(frozen=True)
class RasterGrid:
    counts: np.ndarray      # shape (nJ, nH), occupancy per cell
    j_centers: np.ndarray
    h_centers: np.ndarray

    def __post_init__(self):    # copies unless no one can write them
        for name in ("counts", "j_centers", "h_centers"):
            object.__setattr__(self, name,
                               symplin.read_only(np.asarray(getattr(self, name))))

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
    n_j = symplin.nonneg_int(n_j, "rasterize", "n_j")
    n_h = symplin.nonneg_int(n_h, "rasterize", "n_h")
    if cloud.count == 0:
        raise ValueError("cannot rasterize an empty cloud")
    if n_j < 1 or n_h < 1:
        raise ValueError("grid sizes must be >= 1")
    j_min, j_max, h_min, h_max = cloud.bounds
    ji, j_centers = _bins(cloud.points[:, 0], j_min, j_max, n_j)
    hi, h_centers = _bins(cloud.points[:, 1], h_min, h_max, n_h)
    counts = np.bincount(ji * n_h + hi, minlength=n_j * n_h)
    for a in (counts, j_centers, h_centers):
        a.flags.writeable = False       # held here alone: the grid keeps them
    return RasterGrid(counts=counts.reshape(n_j, n_h), j_centers=j_centers,
                      h_centers=h_centers)


def boundary(cloud: SpectrumCloud, bins: int) -> list[tuple[float, float, float]]:
    """Per-J-bin (J_center, H_min, H_max) envelope; empty bins are omitted."""
    bins = symplin.nonneg_int(bins, "boundary", "bins")
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
_JC_NUMBERS = ("J", "H", "z_at")    # the fields of a row's numbers
_CLOUD_HEADER = "J,H"
_RASTER_HEADER = "J,H,count"
_WRITE_ROWS = 8192          # rows per write call
_READ_BYTES = 1 << 18       # text per read call: 1 MiB read diagram_io's
                            # peak RSS about 2 MB higher
_PIPE_BYTES = 1 << 16       # text per pipe read, a Linux pipe's buffer
_SPLIT_ROWS = 8192          # fewest cloud points written by two processes:
                            # the split won 30/30 timed pairs at 8192 points
                            # and broke even near 3000-4096 (2 CPUs)
_SPLIT_BYTES = 1 << 20      # fewest cloud file bytes read by two processes:
                            # the split won 30/40 timed pairs at 1 MiB, 24-27
                            # at 512-768 KiB and 13 at 384 KiB (2 CPUs)


def fmt_complex(c: complex) -> str:
    """Shortest round-trip text of a complex number, e.g. ``0.5-1.0j``."""
    sign = "+" if c.imag >= 0 else "-"
    return f"{float(c.real)!r}{sign}{float(abs(c.imag))!r}j"


def _block_text(blocks, width: int):
    """The text of each of ``blocks``, a flat field tuple of up to 8192 rows
    of ``width`` fields, by one format."""
    line = ",".join(["%s"] * width) + "\n"
    return (line * (len(fields) // width) % fields for fields in blocks)


def _write_csv(path, header: str, blocks, meta: dict | None = None, tail=()):
    """Write ``# k=v ...`` if there is ``meta``, the header, the text of
    ``blocks``, each the flat field tuple of up to 8192 rows, then the text
    chunks of ``tail``."""
    comment = "".join(f" {k}={v}" for k, v in meta.items()) if meta else ""
    with open(path, "w", newline="") as fh:
        fh.write(f"#{comment}\n{header}\n" if comment else f"{header}\n")
        fh.writelines(_block_text(blocks, header.count(",") + 1))
        fh.writelines(tail)


def _blocks(rows):
    """Rows (tuples of fields) as flat field tuples of up to 8192 rows."""
    rows = iter(rows)
    while fields := tuple(itertools.chain.from_iterable(
            itertools.islice(rows, _WRITE_ROWS))):
        yield fields


def _read_csv(path, header: str, build, inf_ok=(), span=None, **labels):
    """Read a table written by ``_write_csv``: ``# k=v ...`` (``meta``) if
    there, ``header``, then 256 KiB batches of rows through ``_parse_rows``.
    ``labels`` lists the text allowed in each label column, the last ones;
    the others are floats, finite unless named in ``inf_ok``.  Returns
    ``build(meta, rows)``, ``rows`` a new array that nothing else holds; a
    ValueError names the file.  ``span``, byte offsets ``(start, stop)``,
    reads the file as ASCII and only the lines that start in it; from a
    ``start`` > 0 there is no comment or header, and lines count from it."""
    commas = header.count(",")
    dtype = np.dtype([(name, object if name in labels else float)
                      for name in header.split(",")])   # object: str whole
    (start, stop), line_no, meta = span or (0, math.inf), 0, {}
    try:
        with open(path, encoding=span and "ascii",   # offsets are bytes,
                  newline=span and "\n") as fh:       # or the defaults
            if start:       # from the first line that starts at or after it
                fh.seek(start - 1)
                fh.readline()
            else:
                line, line_no = fh.readline(), 1
                if line.startswith("#"):
                    pairs = [kv.partition("=") for kv in line[1:].split()]
                    if bad := [k for k, eq, _ in pairs if not eq]:
                        raise ValueError(f"comment token {bad[0]!r} is not k=v")
                    meta = {k: v for k, _, v in pairs}
                    line, line_no = fh.readline(), 2
                if line.rstrip("\n") != header:
                    raise ValueError(f"header {line.rstrip()!r} is not {header!r}")
            pos, batches = fh.tell() if span else 0, [np.empty(0, dtype)]
            while pos < stop and (lines := fh.readlines(min(stop - pos,
                                                             _READ_BYTES))):
                pos += sum(map(len, lines))
                if pos - len(lines[-1]) >= stop:    # read on past a line
                    lines.pop()                     # that ends at stop
                fields = list(map(str.count, lines, itertools.repeat(",")))
                if fields.count(commas) != len(fields):   # a blank line has 0
                    i = next(i for i, n in enumerate(fields) if n != commas)
                    raise ValueError(f"line {line_no + 1 + i} has "
                                     f"{fields[i] + 1} fields, not {commas + 1}")
                batches.append(_parse_rows(lines, dtype, inf_ok, labels))
                line_no += len(lines)
                del lines       # one batch's text at a time
            rows, batches = np.concatenate(batches), None
        return build(meta, rows)
    except ValueError as exc:   # loadtxt and _parse_rows number rows from 0
        msg = re.sub(r"at row (\d+)(?=, column \d+\.$)",
                     lambda m: f"on line {line_no + 1 + int(m[1])}", str(exc))
        raise ValueError(f"{path}: {msg}") from None


def _parse_rows(lines, dtype, inf_ok, labels: dict) -> np.ndarray:
    """One batch of rows as a ``dtype`` array by numpy's C reader (unlike
    float(), it refuses "1_0"); a non-finite float (outside ``inf_ok``) or
    an unknown label is a fault "at row i, column c."."""
    rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                      ndmin=1)
    floats = [name for name in dtype.names if name not in labels]
    ok = np.column_stack([np.isfinite(rows[n]) | (n in inf_ok) for n in floats])
    if not ok.all():
        i, col = np.argwhere(~ok)[0].tolist()
        field = lines[i].rstrip("\n").split(",")[col]
        raise ValueError(f"{field!r} is not finite at row {i}, column {col + 1}.")
    if labels:
        ok = np.column_stack([np.isin(rows[name], allowed)
                              for name, allowed in labels.items()])
        if not ok.all():
            i = np.argwhere(~ok)[0, 0]
            raise ValueError("unknown {} {} at row {}, column {}.".format(
                "/".join(labels), "/".join(repr(rows[n][i]) for n in labels),
                i, len(floats) + 1))
    return rows


def write_curve_csv(diagram: Diagram, path):
    _write_csv(path, _CURVE_HEADER, _blocks(
        (p.s, p.J, p.H, p.d, p.det2, p.kind.value)
        for seg in diagram.segments for p in seg.points))


def read_curve_csv(path) -> list[CurveSample]:
    """Curve rows; unknown kinds and non-finite numbers refused."""
    kinds = {k.value: k for k in SegmentKind}
    return _read_csv(path, _CURVE_HEADER, lambda meta, rows: [
        CurveSample(*row[:5], kinds[row[5]]) for row in rows.tolist()],
        kind=list(kinds))


_BRANCH_TEXT = {None: "none", **{b: b.value for b in Branch}}
_KIND_TEXT = {k: k.value for k in CriticalKind}


def _jc_fields(p) -> tuple:
    """A jc critical row, J, H and z as given, its labels as text: an
    AttributeError, KeyError or TypeError if ``p`` lacks a field or its
    branch is not a ``Branch`` or None or its kind not a ``CriticalKind``."""
    return (p.J, p.H, p.z_at, _BRANCH_TEXT[p.branch], _KIND_TEXT[p.kind])


def _jc_block(block) -> tuple | None:
    """The flat fields of ``block`` if each row is as the solver gives it,
    its J, H and z finite Python floats; else None."""
    try:
        fields = tuple(itertools.chain.from_iterable(map(_jc_fields, block)))
    except (AttributeError, KeyError, TypeError):
        return None
    numbers = fields[0::5] + fields[1::5] + fields[2::5]
    if {*map(type, numbers)} == {float} and all(map(math.isfinite, numbers)):
        return fields
    return None


def _jc_checked(p, name: str) -> tuple:
    """The fields of the row ``p``, named ``name``, by the number rule; a
    row that ``_jc_fields`` refuses is a ValueError."""
    try:
        fields = _jc_fields(p)
    except AttributeError as exc:
        raise ValueError(f"{name}: {exc}") from None
    except (KeyError, TypeError):
        raise ValueError(f"{name} must have a Branch or None branch and a "
                         f"CriticalKind kind, got {p.branch!r} and "
                         f"{p.kind!r}") from None
    return (*map(symplin.finite_float, fields[:3], itertools.repeat(name),
                 _JC_NUMBERS), *fields[3:])


def write_jc_critical_csv(points, path):
    """jc critical CSV from objects with J, H, z_at, branch (a ``Branch`` or
    None) and kind (a ``CriticalKind``) attributes, checked before the file
    is opened.  A block of 8192 rows not all as the solver gives them
    (``_jc_block``) goes row by row through ``_jc_checked``."""
    rows, blocks = iter(points), []
    while block := list(itertools.islice(rows, _WRITE_ROWS)):
        first = len(blocks) * _WRITE_ROWS
        blocks.append(_jc_block(block) or tuple(itertools.chain.from_iterable(
            _jc_checked(p, f"points[{first + i}]")
            for i, p in enumerate(block))))
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
    return _read_csv(path, _JC_CRITICAL_HEADER, lambda meta, rows: list(
        map(tuple.__new__, itertools.repeat(JCCriticalRow), rows.tolist())),
        branch=["none", *(b.value for b in Branch)],
        kind=[k.value for k in CriticalKind])


def write_cloud_csv(cloud: SpectrumCloud, path):
    """Blocks are sliced from the points array, never built row by row.
    A cloud of ``_SPLIT_ROWS`` points or more is written by two processes
    where ``_may_fork`` holds: a child forked before the file is opened
    formats the trailing half of the points into a pipe, which is copied
    into the file after the leading half, with the same bytes.  Otherwise,
    or if ``os.fork`` fails, every block is formatted here.  A child that
    does not exit with 0 is an OSError."""
    def blocks(points):
        return (tuple(points[i:i + _WRITE_ROWS].ravel().tolist())
                for i in range(0, len(points), _WRITE_ROWS))

    meta = {"seed": cloud.seed, "count": cloud.count}
    half = cloud.count // 2
    split = _forked(lambda: map(str.encode, list(_block_text(
        blocks(cloud.points[half:]), 2))), lambda fd: _write_csv(
        path, _CLOUD_HEADER, blocks(cloud.points[:half]), meta,
        map(bytes.decode, iter(partial(os.read, fd, _PIPE_BYTES), b"")))) \
        if cloud.count >= _SPLIT_ROWS and _may_fork() else None
    if split is None:
        _write_csv(path, _CLOUD_HEADER, blocks(cloud.points), meta)
    elif split[1]:
        raise OSError(f"{path}: the process formatting the second half of "
                      f"the rows ended with exit code {split[1]}")


def _may_fork() -> bool:
    """True where this process may run on two CPUs or more and is its one
    OS thread (Linux), so a forked child runs beside it and copies no
    thread's locks; Python >= 3.12 warns on a fork with more threads, and
    numpy's OpenBLAS starts one per CPU unless ``OPENBLAS_NUM_THREADS=1``."""
    try:
        return (len(os.sched_getaffinity(0)) > 1
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):
        return False


def _forked(work, run):
    """``(run(fd), status)``: a forked child runs ``work()`` and writes each
    bytes-like object it gives to a pipe whose read end ``fd`` this process
    passes to ``run``; ``status`` is the child's exit code, 0 once all is
    written.  The child ends by ``os._exit`` and never returns into the
    caller's frames; it is killed if ``run`` raises, and always reaped.
    None if ``os.fork`` fails with an OSError."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException as exc:    # a child forked all the same dies of EPIPE
        os.close(r)
        os.close(w)
        if isinstance(exc, OSError):
            return None
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for data in map(memoryview, work()):
                while data:
                    data = data[os.write(w, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        value = run(r)
    except BaseException:
        os.kill(pid, 9)                 # SIGKILL
        raise
    finally:
        os.close(r)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return value, status


def _joined(build, fd, meta, rows):
    """``build(meta, rows)``, ``rows`` grown in place by the rows that a
    child sends on ``fd``, their count as 8 bytes and then their bytes,
    read straight into it (a child cut short exits nonzero).  ``rows`` must
    be ``_read_csv``'s new array: a view of it would outlive the resize."""
    n = len(rows)
    rows.resize(n + int.from_bytes(os.read(fd, 8), "little"), refcheck=False)
    view = memoryview(rows[n:].view(np.uint8))
    while view and (got := os.readv(fd, [view])):
        view = view[got:]
    return build(meta, rows)


def read_cloud_csv(path) -> SpectrumCloud:
    """Cloud CSV reader; ``count=``, when given, must match the rows read.
    Where ``_may_fork`` holds, a child parses the lines that start in the
    trailing half of a file of ``_SPLIT_BYTES`` or more; after any fault or
    failure there, the file is read in-process, which names the fault."""
    def build(meta, rows):
        rows.flags.writeable = False    # held here alone: the cloud keeps it
        pts = rows.view(float).reshape(-1, 2)    # the same memory, no copy
        count = int(meta.get("count", len(pts)))
        if count != len(pts):
            raise ValueError(f"{len(pts)} rows, header says {count}")
        return SpectrumCloud(points=pts, seed=int(meta.get("seed", 0)))

    try:
        size = os.stat(os.fspath(path)).st_size
    except (OSError, TypeError, ValueError):
        size = 0                        # not split: the open raises as ever
    half, split = size // 2, None
    try:
        if size >= _SPLIT_BYTES and _may_fork():
            split = _forked(lambda: _read_csv(
                path, _CLOUD_HEADER, lambda meta, rows: (
                    len(rows).to_bytes(8, "little"), rows.view(np.uint8)),
                span=(half, math.inf)), lambda fd: _read_csv(
                path, _CLOUD_HEADER, partial(_joined, build, fd),
                span=(0, half)))
    except ValueError:
        pass                            # named by the read below
    if split and not split[1]:
        return split[0]
    return _read_csv(path, _CLOUD_HEADER, build)


def write_raster_csv(grid: RasterGrid, path):
    """One row per cell, J-major, each centre formatted once."""
    cells = itertools.product(map(repr, grid.j_centers.tolist()),
                              map(repr, grid.h_centers.tolist()))
    counts = grid.counts.astype(int).ravel().tolist()
    _write_csv(path, _RASTER_HEADER, _blocks(
        (j, h, c) for (j, h), c in zip(cells, counts)))


def read_raster_csv(path) -> RasterGrid:
    """Raster CSV reader.  A grid row ends where J changes, so J centres
    that coincide (a span below float spacing) read back merged."""
    def build(meta, rows):
        rows.flags.writeable = False    # held here alone: the grid keeps it
        j, h, c = rows["J"], rows["H"], rows["count"]
        if j.size == 0:
            raise ValueError("no rows")
        n_h = int(np.argmax(j != j[0])) or j.size
        counts = c.clip(-1, 2 ** 62).astype(int)   # refused below if clipped
        counts.flags.writeable = False
        grid = RasterGrid(counts=counts.reshape(-1, n_h),
                          j_centers=j[::n_h], h_centers=h[:n_h])
        if not (np.array_equal(np.repeat(grid.j_centers, n_h), j)
                and np.array_equal(np.tile(grid.h_centers, j.size // n_h), h)
                and np.array_equal(grid.counts.ravel(), c) and c.min() >= 0):
            raise ValueError("rows are not a J-major grid of counts >= 0")
        return grid
    return _read_csv(path, _RASTER_HEADER, build, inf_ok=("J", "H"))


def write_jc_scan_csv(rows, path):
    """jc-scan CSV from (gamma, QuarticCoeffs, type, eigenvalues) rows."""
    _write_csv(path, "gamma,a,b,type,eig1,eig2,eig3,eig4", _blocks(
        (float(g), q.a, q.b, typ, *map(fmt_complex, eig))
        for g, q, typ, eig in rows))


def write_linearization_csv(rows, path):
    """Linearization scan CSV from (gamma, QuarticCoeffs, type) rows."""
    _write_csv(path, "gamma,a,b,type", _blocks(
        (float(g), q.a, q.b, typ) for g, q, typ in rows))


def _sample_from_dict(d: dict) -> CurveSample:
    return CurveSample(s=d["s"], J=d["J"], H=d["H"], d=d["z_double"],
                       det2=d["hessdet"], kind=SegmentKind(d["kind"]))


def diagram_to_dict(diagram: Diagram, points=lambda seg: [
        {"s": p.s, "J": p.J, "H": p.H, "z_double": p.d, "hessdet": p.det2,
         "kind": p.kind.value} for p in seg.points]) -> dict:
    """JSON data; ``points(segment)`` is a segment's ``"points"`` value."""
    return {
        "params": asdict(diagram.params),
        "regime": diagram.regime.value,
        "cusps": [{"s": c.s, "J": c.J, "H": c.H} for c in diagram.cusps],
        "endpoints": [{"s": e.s, "J": e.J, "H": e.H} for e in diagram.endpoints],
        "slopes": diagram.slopes,
        "anchor": {"J": diagram.anchor[0], "H": diagram.anchor[1]},
        "equilibrium": {"J": diagram.equilibrium[0], "H": diagram.equilibrium[1]},
        "segments": [{"kind": seg.kind.value,
                      "points": points(seg),
                      "gaps": seg.gaps}
                     for seg in diagram.segments],
    }


def diagram_from_dict(data: dict) -> Diagram:
    """The diagram of ``params`` and ``segments``; each key between them,
    which the params fix, must have the JSON text the writer gives it."""
    segments = [DiagramSegment(kind=SegmentKind(s["kind"]),
                               points=[_sample_from_dict(p) for p in s["points"]],
                               gaps=s["gaps"])
                for s in data["segments"]]
    diagram = Diagram(HopfParams(**data["params"]), segments)
    fixed = diagram_to_dict(Diagram(diagram.params, []))
    for key in list(fixed)[1:-1]:           # regime .. equilibrium
        got, want = json.dumps(data[key]), json.dumps(fixed[key])
        if got != want:
            raise ValueError(f"{key} {got} is not {want}, as params give")
    return diagram


_SAMPLE_JSON = ("    {\n     \"s\": %r,\n     \"J\": %r,\n     \"H\": %r,\n"
                "     \"z_double\": %r,\n     \"hessdet\": %r,\n     \"kind\": %s\n    }")
_KIND_JSON = {k: json.dumps(k.value) for k in SegmentKind}


def write_diagram_json(diagram: Diagram, path):
    """``json.dumps(diagram_to_dict(diagram), indent=1)`` and a newline,
    with each curve sample, not CPython's pure-Python indenting encoder,
    formatted by ``_SAMPLE_JSON``: its floats are exact Python floats
    (``CurveSample``), whose ``%r`` is json's text."""
    head, *tails = json.dumps(diagram_to_dict(diagram, lambda seg: "\0"),
                              indent=1).split('"\\u0000"')
    parts = [head]
    for seg, tail in zip(diagram.segments, tails):
        parts += ["[\n" + ",\n".join([_SAMPLE_JSON % (
            p.s, p.J, p.H, p.d, p.det2, _KIND_JSON[p.kind])
            for p in seg.points]) + "\n   ]" if seg.points else "[]", tail]
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts) + "\n")


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
