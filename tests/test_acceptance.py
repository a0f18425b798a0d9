"""Release gate: every criterion runs at its pinned tolerance.

Each test prints a one-line pass report; ``hopfdiag verify`` runs the same
functions from the command line.
"""

import numpy as np
import pytest

from hopfdiag import acceptance, hopf


@pytest.mark.parametrize("number, name, fn", acceptance.CRITERIA,
                         ids=[f"{n:02d}_{name.replace(' ', '_')}"
                              for n, name, _ in acceptance.CRITERIA])
def test_criterion(number, name, fn):
    detail = fn()   # raises AssertionError with a diagnostic on failure
    print(f"[{number:2d}] PASS {name}: {detail}")


def test_run_all_aggregates(monkeypatch):
    """run_all keeps the criteria's order, and an AssertionError becomes a
    failed record with the message as its detail; stub criteria stand in
    for the real ones, which test_criterion runs."""
    def failing():
        raise AssertionError("residual 1e-3 >= 1e-10")

    monkeypatch.setattr(acceptance, "CRITERIA", [
        (7, "seven", lambda: "ok 7"), (2, "two", failing),
        (5, "five", lambda: "ok 5")])
    results = acceptance.run_all()
    assert [(r.number, r.name, r.passed, r.detail) for r in results] == [
        (7, "seven", True, "ok 7"),
        (2, "two", False, "residual 1e-3 >= 1e-10"),
        (5, "five", True, "ok 5")]
    assert all(r.seconds >= 0.0 for r in results)


def test_run_all_lets_other_errors_through(monkeypatch):
    def broken():
        raise ValueError("bug")

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "one", broken)])
    with pytest.raises(ValueError, match="bug"):
        acceptance.run_all()


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
