"""Release gate: every criterion runs at its pinned tolerance.

Each test prints a one-line pass report; ``hopfdiag verify`` runs the same
functions from the command line.
"""

import pytest

from hopfdiag import acceptance


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
