"""Release gate: every criterion runs at its pinned tolerance.

Each test prints a one-line pass report; ``hopfdiag verify`` runs the same
functions from the command line.  ``run_all`` is tested on both paths: the
split, where a forked child runs the last criterion (two CPUs, one OS
thread), and one process; both give the same records, fail the same slow
criteria and raise the same errors, and the ``forks`` fixture checks that
no child is left behind.  The rule itself, ``spectrum._forked``, is tested
once for every site, ``run_all`` included, by ``test_two_core_rule`` in
``test_spectrum.py``: a failed gate, flush, fork or child, and an error or
interrupt in this process's share.
"""

import json
import os
import re
import time
import tracemalloc
import types

import numpy as np
import pytest

from hopfdiag import acceptance, cli, hopf, models, spectrum, symplin


@pytest.mark.parametrize("number, name, fn", acceptance.CRITERIA,
                         ids=[f"{n:02d}_{name.replace(' ', '_')}"
                              for n, name, _ in acceptance.CRITERIA])
def test_criterion(number, name, fn):
    detail = fn()   # raises AssertionError with a diagnostic on failure
    print(f"[{number:2d}] PASS {name}: {detail}")


@pytest.fixture(params=["split", "one process"])
def route(request, forks, monkeypatch):
    """``run_all``'s path; ``forked(route)`` is the forks it makes."""
    if request.param == "one process":
        monkeypatch.setattr(spectrum, "_may_fork", lambda: False)
    return request.param


def forked(route) -> list:
    return [1] if route == "split" else []


def records(results) -> list:
    return [(r.number, r.name, r.passed, r.detail) for r in results]


@pytest.mark.parametrize("there", [True, False], ids=["fail_there",
                                                       "fail_here"])
def test_run_all_aggregates(monkeypatch, route, forks, there):
    """run_all keeps the criteria's order, and an AssertionError becomes a
    failed record with the message as its detail, in the child (the last
    criterion) as here; stub criteria stand in for the real ones, which
    test_criterion runs."""
    def failing():
        raise AssertionError("residual 1e-3 >= 1e-10")

    criteria = [(7, "seven", lambda: "ok 7"), (5, "five", lambda: "ok 5")]
    criteria.insert(2 if there else 1, (2, "two", failing))
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    results = acceptance.run_all()
    assert records(results) == [
        (n, name, n != 2, "residual 1e-3 >= 1e-10" if n == 2 else f"ok {n}")
        for n, name, _ in criteria]
    assert all(r.seconds >= 0.0 for r in results)
    assert forks == forked(route)


@pytest.mark.parametrize("there", [True, False], ids=["raise_there",
                                                       "raise_here"])
def test_run_all_lets_other_errors_through(monkeypatch, route, forks, there):
    """The error is the one of the first criterion that raises, as in one
    process.  Here, no criterion runs after it, and the child's error, in
    the last criterion, gives way to it; a child that raises alone gives no
    report, and the last criterion raises again here, in its turn."""
    ran = []

    def broken():
        ran.append(os.getpid())
        raise ValueError("bug")

    def later():
        ran.append(os.getpid())
        raise TypeError("later bug")

    def fine():
        ran.append(os.getpid())
        return "ok"

    raise_there = [(1, "one", fine), (2, "two", fine), (3, "three", broken)]
    raise_here = [(1, "one", fine), (2, "two", broken), (3, "three", later),
                  (4, "four", later)]
    monkeypatch.setattr(acceptance, "CRITERIA",
                        raise_there if there else raise_here)
    with pytest.raises(ValueError, match="bug"):
        acceptance.run_all()
    assert ran == [os.getpid()] * (3 if there else 2)
    assert forks == forked(route)


@pytest.mark.parametrize("there", [True, False], ids=["slow_there",
                                                       "slow_here"])
def test_run_all_fails_a_slow_criterion(monkeypatch, route, forks, there):
    """A criterion that passes its checks in ``TIME_LIMITS[number]`` or
    longer fails with the time it took, in the child as here; one that
    fails a check keeps its own message however long it took, and a
    criterion without a limit is not timed out."""
    def slow():
        time.sleep(0.02)
        return "ok"

    def slow_failing():
        time.sleep(0.02)
        raise AssertionError("residual 1e-3 >= 1e-10")

    monkeypatch.setattr(acceptance, "TIME_LIMITS", {1: 0.01, 2: 0.01,
                                                    3: 10.0})
    criteria = [(3, "three", slow), (2, "two", slow_failing),
                (4, "four", slow)]
    criteria.insert(3 if there else 0, (1, "one", slow))
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    got = {r.number: r for r in acceptance.run_all()}
    assert [r.number for r in got.values()] == [n for n, _, _ in criteria]
    assert not got[1].passed and got[1].seconds >= 0.02
    assert re.fullmatch(r"took \d+\.\d{3}s >= 0\.01s", got[1].detail)
    assert (got[2].passed, got[2].detail) == (False,
                                              "residual 1e-3 >= 1e-10")
    assert got[3].passed and got[4].passed
    assert forks == forked(route)


@pytest.mark.parametrize("number, limit", [(1, 1.0), (12, 10.0)])
def test_criteria_1_and_12_fail_at_their_pinned_time_limits(monkeypatch,
                                                            number, limit):
    """On a clock that reads ``limit`` seconds across the criterion, the
    real criterion fails with the time it took; just under it, it passes."""
    ticks = iter([0.0, limit, 0.0, np.nextafter(limit, 0.0)])
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(
        perf_counter=lambda: next(ticks)))
    criterion = acceptance.CRITERIA[number - 1]
    late, in_time = (acceptance._record(*criterion) for _ in range(2))
    assert (late.number, late.passed) == (number, False)
    assert late.detail == f"took {limit:.3f}s >= {limit:g}s"
    assert in_time.passed


def untimed(record: dict) -> dict:
    """``record`` without its seconds."""
    return {k: v for k, v in record.items() if k != "seconds"}


def test_verify_reports_the_same_on_both_paths(monkeypatch, forks, capsys):
    """Two split runs and one run in one process report the same records
    apart from ``seconds``: no detail carries a time."""
    reports = []
    for split in (True, True, False):
        if not split:
            monkeypatch.setattr(spectrum, "_may_fork", lambda: False)
        code = cli.main(["verify", "--json"])
        report = json.loads(capsys.readouterr().out)
        reports.append((code, [untimed(r) for r in report]))
    assert reports[0] == reports[1] == reports[2]
    code, report = reports[0]
    assert code == 0 and [r["number"] for r in report] == list(range(1, 15))
    assert forks == [1, 1]


def _crossings_reference(p0, p1, poly) -> bool:
    """The per-segment orientation test, without bounding-box pruning."""
    a, b = poly[:-1], poly[1:]
    d, e = p1 - p0, b - a
    d1 = d[0] * (a[:, 1] - p0[1]) - d[1] * (a[:, 0] - p0[0])
    d2 = d[0] * (b[:, 1] - p0[1]) - d[1] * (b[:, 0] - p0[0])
    d3 = e[:, 0] * (p0[1] - a[:, 1]) - e[:, 1] * (p0[0] - a[:, 0])
    d4 = e[:, 0] * (p1[1] - a[:, 1]) - e[:, 1] * (p1[0] - a[:, 0])
    return bool(np.any((d1 * d2 <= 0) & (d3 * d4 <= 0)))


def test_polyline_crossings_matches_per_segment_reference():
    rng = np.random.default_rng(13)
    t = np.linspace(0.0, 2.0 * np.pi, 400)
    poly = np.column_stack([np.cos(3.0 * t), np.sin(2.0 * t)])
    p0 = rng.uniform(-1.2, 1.2, (300, 2))
    p1 = p0 + rng.uniform(-0.05, 0.05, (300, 2))
    got = acceptance._polyline_crossings(p0, p1, poly)
    want = [_crossings_reference(a, b, poly) for a, b in zip(p0, p1)]
    assert got.tolist() == want and 0 < sum(want) < len(want)


def test_criterion_13_sees_a_count_change_off_the_curves(monkeypatch):
    """A count that changes where no critical curve runs fails the check."""
    count = hopf.torus_count

    def shifted(params, j, h):
        n, unbounded = count(params, j, h)
        return n + (np.asarray(j) > 0.045), unbounded

    monkeypatch.setattr(hopf, "torus_count", shifted)
    with pytest.raises(AssertionError, match="away from the critical curves"):
        acceptance.criterion_13_torus_counts()


def test_criterion_12_sees_a_flipped_second_derivative(monkeypatch):
    """h'' of the wrong sign keeps the merging pair straddling 0, but the
    kinds the solver gave no longer match it."""
    second = models.branch_second_deriv
    monkeypatch.setattr(models, "branch_second_deriv",
                        lambda *args: -second(*args))
    with pytest.raises(AssertionError, match="merging pair kinds"):
        acceptance.criterion_12_post_hopf_loop()


def test_criterion_10_sees_one_bad_state(monkeypatch):
    """A gradient of H~ that is wrong at one state of 4,000 fails the check."""
    grad = models.jc_grad_Htilde
    bad = acceptance._random_states(1000, seed=102)[:, 617]

    def corrupted(state, g):
        out = np.array(grad(state, g))
        out[4] += np.all(state == bad[:, None], axis=0)
        return out

    monkeypatch.setattr(models, "jc_grad_Htilde", corrupted)
    with pytest.raises(AssertionError, match="J, H~"):
        acceptance.criterion_10_commutation()


def test_criterion_10_sees_one_nan_state(monkeypatch):
    """A NaN gradient at one state of the second gamma fails the check."""
    grad = models.jc_grad_Htilde
    bad = acceptance._random_states(1000, seed=101)[:, 388]

    def corrupted(state, g):
        out = np.array(grad(state, g))
        out[4, np.all(state == bad[:, None], axis=0)] = np.nan
        return out

    monkeypatch.setattr(models, "jc_grad_Htilde", corrupted)
    with pytest.raises(AssertionError, match="J, H~.* nan"):
        acceptance.criterion_10_commutation()


def test_criterion_03_sees_one_bad_determinant(monkeypatch):
    """A Hessian law that is wrong at one s of the grid fails the check."""
    det2 = hopf.hessian_det2
    bad = acceptance._s_grid(acceptance.REFERENCE_PARAMS)[123]

    def corrupted(params, s):
        return det2(params, s) + 1e-6 * (np.asarray(s) == bad)

    monkeypatch.setattr(hopf, "hessian_det2", corrupted)
    with pytest.raises(AssertionError, match="3s\\^2-nu"):
        acceptance.criterion_03_hessian_law()


def test_criterion_01_sees_one_bad_double_root(monkeypatch):
    """A double root that is wrong at one s of the grid fails the check."""
    double_root = hopf.double_root
    bad = acceptance._s_grid(acceptance.REFERENCE_PARAMS)[271]

    def corrupted(params, s):
        return double_root(params, s) + 1e-6 * (np.asarray(s) == bad)

    monkeypatch.setattr(hopf, "double_root", corrupted)
    with pytest.raises(AssertionError, match="double-root residual"):
        acceptance.criterion_01_discriminant_identity()


def test_criterion_04_sees_one_bad_tangent(monkeypatch):
    """A tangent that is wrong at one s of the grid fails the check."""
    tangent = hopf.curve_tangent
    bad = acceptance._s_grid(acceptance.REFERENCE_PARAMS)[57]

    def corrupted(params, s):
        dj, dh = tangent(params, s)
        return dj, dh + 1e-5 * (np.asarray(s) == bad)

    monkeypatch.setattr(hopf, "curve_tangent", corrupted)
    with pytest.raises(AssertionError, match="tangent FD mismatch"):
        acceptance.criterion_04_tangent_cusp_law()


def test_criterion_07_sees_one_bad_point(monkeypatch):
    """An invariant K1 that is wrong at one point of 2,000 fails the check."""
    k1 = symplin.k1
    calls = []

    def corrupted(p):
        out = np.array(k1(p), dtype=float)
        if not calls:
            out.flat[41] += 1e-9
        calls.append(1)
        return out

    monkeypatch.setattr(symplin, "k1", corrupted)
    with pytest.raises(AssertionError, match="conjugation"):
        acceptance.criterion_07_conjugation()


def test_criterion_07_sees_one_nan_point(monkeypatch):
    """A NaN invariant K1 at one point of the third parameter set fails the
    check: each set calls k1 three times, so the 7th call is its first."""
    k1 = symplin.k1
    calls = []

    def corrupted(p):
        out = np.array(k1(p), dtype=float)
        if len(calls) == 6:
            out.flat[41] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(symplin, "k1", corrupted)
    with pytest.raises(AssertionError, match="conjugation.* nan"):
        acceptance.criterion_07_conjugation()


def test_criterion_08_sees_one_nan_tuple(monkeypatch):
    """A NaN in one tuple of the last, partial block fails the check."""
    default_rng = np.random.default_rng
    column = 99_000
    assert column >= 100_000 // acceptance.REGION_BLOCK * acceptance.REGION_BLOCK

    class Planted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, *args):
            draw = self.rng.uniform(*args)
            draw[1, column] = np.nan
            return draw

    monkeypatch.setattr(np.random, "default_rng", Planted)
    with pytest.raises(AssertionError, match=r"alpha\^2\) off by nan"):
        acceptance.criterion_08_region_exclusion()


def _region_exclusion_reference(draw):
    """Criterion 8's counts and worst error over the whole draw at once."""
    w, al, ga, de = draw
    gd = ga * de
    a = (al * al + w * w - gd) ** 2
    b = 2.0 * (gd - al * al + w * w)
    parab = b * b / 4.0
    hh = (a > 0) & (a < parab) & (b < 0)
    rhs = 4.0 * w * w * (gd - al * al)
    scale = np.maximum.reduce([np.ones_like(a), a, np.abs(parab), np.abs(rhs)])
    rel = np.abs(parab - a - rhs) / scale
    return int(hh.sum()), int((a < 0).sum()), float(rel.max())


@pytest.mark.parametrize("block", [7, 8191, acceptance.REGION_BLOCK, 99_999,
                                   300_000])
@pytest.mark.parametrize("seed, width", [(8, 3.0), (81, 1e3)])
def test_region_exclusion_blocks_match_the_whole_array(block, seed, width,
                                                       monkeypatch):
    monkeypatch.setattr(acceptance, "REGION_BLOCK", block)
    draw = np.random.default_rng(seed).uniform(-width, width, (4, 100_000))
    got = acceptance._region_exclusion(draw)
    want = _region_exclusion_reference(draw)
    assert got == want and repr(got) == repr(want)
    assert got[2] > 0.0


def test_criterion_08_memory_budget():
    # the 4 x 10^5 draw and one block's temporaries; whole-array
    # temporaries peaked at about 4.6 times the draw
    tracemalloc.start()
    try:
        acceptance.criterion_08_region_exclusion()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4 * 100_000 * 8
