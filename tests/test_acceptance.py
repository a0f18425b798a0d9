"""Release gate: every criterion runs at its pinned tolerance.

Each test prints a one-line pass report; ``hopfdiag verify`` runs the same
functions from the command line.  ``run_all`` is tested on both paths: the
split, where a forked child runs the ``CHILD_CRITERIA`` (two CPUs, one OS
thread), and one process; both give the same records and raise the same
errors, and the ``forks`` fixture checks that no child is left behind.
"""

import json
import os
import re
import sys
import tempfile
import threading
import time
import tracemalloc

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


@pytest.mark.parametrize("child", [{2}, {5, 7}], ids=["fail_there",
                                                      "fail_here"])
def test_run_all_aggregates(monkeypatch, route, forks, child):
    """run_all keeps the criteria's order, and an AssertionError becomes a
    failed record with the message as its detail, in the child as here;
    stub criteria stand in for the real ones, which test_criterion runs."""
    def failing():
        raise AssertionError("residual 1e-3 >= 1e-10")

    monkeypatch.setattr(acceptance, "CHILD_CRITERIA", frozenset(child))
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (7, "seven", lambda: "ok 7"), (2, "two", failing),
        (5, "five", lambda: "ok 5")])
    results = acceptance.run_all()
    assert records(results) == [
        (7, "seven", True, "ok 7"),
        (2, "two", False, "residual 1e-3 >= 1e-10"),
        (5, "five", True, "ok 5")]
    assert all(r.seconds >= 0.0 for r in results)
    assert forks == forked(route)


@pytest.mark.parametrize("child", [{1}, {2}], ids=["raise_there",
                                                   "raise_here"])
def test_run_all_lets_other_errors_through(monkeypatch, route, forks, child):
    """The error is the one of the first criterion that raises, as in one
    process.  Here, no criterion runs after it; beside a child that raises,
    this process runs its own, and their error gives way."""
    ran = []

    def broken():
        raise ValueError("bug")

    def later():
        ran.append(os.getpid())
        raise TypeError("later bug")

    monkeypatch.setattr(acceptance, "CHILD_CRITERIA", frozenset(child))
    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "one", broken),
                                                 (2, "two", later),
                                                 (3, "three", later)])
    with pytest.raises(ValueError, match="bug"):
        acceptance.run_all()
    beside = route == "split" and child == {1}
    assert ran == [os.getpid()] * beside
    assert forks == forked(route)


def untimed(record: dict) -> dict:
    """``record`` without its seconds and the times in its detail."""
    return {k: re.sub(r"\b(in|scan) [\d.]+ ?m?s\b", r"\1 <time>", v)
            if k == "detail" else v for k, v in record.items()
            if k != "seconds"}


def test_verify_reports_the_same_on_both_paths(monkeypatch, forks, capsys):
    reports = []
    for split in (True, False):
        if not split:
            monkeypatch.setattr(spectrum, "_may_fork", lambda: False)
        code = cli.main(["verify", "--json"])
        report = json.loads(capsys.readouterr().out)
        reports.append((code, [untimed(r) for r in report]))
    assert reports[0] == reports[1]
    code, report = reports[0]
    assert code == 0 and [r["number"] for r in report] == list(range(1, 15))
    assert forks == [1]


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_a_failed_child_reruns_its_criteria_here(monkeypatch, forks, how):
    parent, ran = os.getpid(), []

    def fragile():
        if os.getpid() != parent:
            if how == "exit":
                os._exit(1)
            os.kill(os.getpid(), 9)     # SIGKILL
        ran.append(1)
        return "ran here"

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "one", lambda: "ok"),
                                                 (14, "fourteen", fragile)])
    assert records(acceptance.run_all()) == [(1, "one", True, "ok"),
                                             (14, "fourteen", True,
                                              "ran here")]
    assert ran == [1] and forks == [1]


CHILD_SET = [(3, "three", None), (14, "fourteen", None)]
WHOLE = [[3, "three", True, "ok", 0.5], [14, "fourteen", False, "no", 0.25]]


@pytest.mark.parametrize("report, whole", [
    (json.dumps(WHOLE), True),
    (json.dumps(WHOLE)[:-3], False),                  # short
    (b"", False),
    (b"\xff[", False),
    (json.dumps(WHOLE[:1]), False),                   # a record missing
    (json.dumps(WHOLE + WHOLE[1:]), False),           # one too many
    (json.dumps(WHOLE[::-1]), False),                 # out of order
    (json.dumps([WHOLE[0], [14, "four", False, "no", 0.25]]), False),
    (json.dumps([WHOLE[0], WHOLE[1][:4]]), False),    # a field missing
    (json.dumps({"3": WHOLE[0]}), False),
    (json.dumps([3, 14]), False),
])
def test_only_a_whole_child_report_is_taken(report, whole):
    got = acceptance._child_records(report, CHILD_SET)
    want = {3: acceptance.CriterionResult(*WHOLE[0]),
            14: acceptance.CriterionResult(*WHOLE[1])}
    assert got == (want if whole else {})


@pytest.mark.parametrize("why", ["one cpu", "second thread", "failed fork"])
def test_no_split_runs_in_process(monkeypatch, forks, why):
    if why == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    elif why == "failed fork":
        def no_fork():
            forks.append(1)
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
    pid = os.getpid()
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (1, "one", lambda: "ok"), (14, "fourteen", lambda: str(os.getpid()))])
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if why == "second thread":
        thread.start()
    try:
        results = acceptance.run_all()
    finally:
        done.set()
        if thread.is_alive():
            thread.join(10.0)
    assert records(results) == [(1, "one", True, "ok"),
                                (14, "fourteen", True, str(pid))]
    assert forks == ([1] if why == "failed fork" else [])


def test_an_interrupt_here_ends_the_child(monkeypatch, forks):
    parent = os.getpid()

    def interrupted():
        raise KeyboardInterrupt

    def slow():
        if os.getpid() != parent:
            time.sleep(60.0)
        return "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "one", interrupted),
                                                 (14, "fourteen", slow)])
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        acceptance.run_all()
    assert time.monotonic() - t0 < 30.0 and forks == [1]


def test_pending_output_is_written_once(monkeypatch, forks, tmp_path):
    """Text held in a block-buffered stdout is flushed before the fork, so
    the child's flush (in criterion 14's ``cli.main``) cannot repeat it."""
    path = tmp_path / "stdout.txt"
    monkeypatch.setattr(acceptance, "CRITERIA", [
        c for c in acceptance.CRITERIA if c[0] in (5, 14)])
    with open(path, "w", buffering=1 << 16) as out, \
            monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        out.write("pending\n")
        results = acceptance.run_all()
    assert path.read_text() == "pending\n"
    assert all(r.passed for r in results) and forks == [1]


def test_an_error_here_waits_for_the_child(monkeypatch, forks, tmp_path):
    """An error in this process is raised once the child has ended, so
    criterion 14 removes its temporary directory."""
    def broken():
        deadline = time.monotonic() + 30.0
        while not any(tmp_path.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.001)       # until criterion 14 has made it
        raise ValueError("bug")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (1, "one", broken), *acceptance.CRITERIA[13:]])
    with pytest.raises(ValueError, match="bug"):
        acceptance.run_all()
    assert list(tmp_path.iterdir()) == [] and forks == [1]


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
