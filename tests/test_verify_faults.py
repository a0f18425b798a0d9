"""Planted faults in the shipped closed forms that ``verify`` must see.

Each entry monkeypatches one name that ``acceptance.run_all`` reaches, and
the run must fail at least one criterion.  The faults that no criterion
sees yet are strict xfails with their reason, so a check that closes one
turns its entry into an XPASS, which fails until the mark is taken off.
A fault that changes nothing that the function's callers rely on is
listed apart, with the reason, and must pass every criterion.
Each fault is planted on three routes: one process, the split (a forked
child runs ``CHILD_CRITERIA``), and a child that runs every criterion, so
the fault is caught whichever process runs the criterion that sees it.
One ``run_all`` takes about 65 ms in one process and 50 ms split (two
CPUs).
"""

import cmath
import dataclasses

import numpy as np
import pytest

from hopfdiag import acceptance, hopf, models, spectrum, symplin


def _eigen_closed_wide_root(q):
    """``symplin.eigen_closed`` with its discriminant root x 1.0001."""
    w = cmath.sqrt(complex(q.b * q.b / 4.0 - q.a)) * 1.0001
    out = []
    for s in (-q.b / 2.0 + w, -q.b / 2.0 - w):
        r = cmath.sqrt(s)
        out.extend([r, -r])
    return np.array(out, dtype=complex)


def _scaled(fn, factor):
    return lambda *args: tuple(v * factor for v in fn(*args))


def _times(fn, factor):
    return lambda *args: fn(*args) * factor


def _linearization_b_scaled(fn, factor):
    def fault(*args):
        q, typ = fn(*args)
        return symplin.QuarticCoeffs(a=q.a, b=q.b * factor), typ
    return fault


def _b_scaled(fn, factor):
    def fault(*args):
        q = fn(*args)
        return symplin.QuarticCoeffs(a=q.a, b=q.b * factor)
    return fault


def _gamma_scaled(htilde, factor):
    return dataclasses.replace(htilde, gamma=htilde.gamma * factor)


def _survivor(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


# (module, name, replacement from the shipped function)
FAULTS = {
    "eigen_closed_root": (symplin, "eigen_closed",
                          lambda shipped: _eigen_closed_wide_root),
    "branch_second_deriv_sign": (models, "branch_second_deriv",
                                 lambda shipped: lambda *a: -shipped(*a)),
    "curve_h_shift": (hopf, "curve_h",
                      lambda shipped: lambda *a: shipped(*a) + 1e-9),
    "build_htilde_gamma": (hopf, "build_htilde",
                           lambda shipped: lambda *a: _gamma_scaled(
                               shipped(*a), 1.0 + 1e-6)),
    "quartic_coeffs_b": (symplin, "quartic_coeffs",
                         lambda shipped: _b_scaled(shipped, 1.0 + 1e-6)),
    "origin_slopes_scale": (hopf, "origin_slopes",
                            lambda shipped: _scaled(shipped, 1.0 + 1e-6)),
    "fold_offsets_scale": (models, "fold_offsets",
                           lambda shipped: _scaled(shipped, 1.0 + 1e-6)),
    "regime_swapped": (hopf, "regime", lambda shipped: lambda p: (
        hopf.Regime.SUPERCRITICAL if shipped(p) is hopf.Regime.SUBCRITICAL
        else hopf.Regime.SUBCRITICAL)),
    "curve_j_scale": (hopf, "curve_j",
                      lambda shipped: _times(shipped, 1.0 + 1e-6)),
    "double_root_scale": (hopf, "double_root",
                          lambda shipped: _times(shipped, 1.0 + 1e-6)),
    "hessian_det2_sign": (hopf, "hessian_det2",
                          lambda shipped: _times(shipped, -1.0)),
    "curve_tangent_scale": (hopf, "curve_tangent",
                            lambda shipped: _scaled(shipped, 1.0 + 1e-6)),
    "cusps_scale": (hopf, "cusps", lambda shipped: lambda p: [
        s * (1.0 + 1e-6) for s in shipped(p)]),
    "equilibrium_eigenvalues_scale": (
        hopf, "equilibrium_eigenvalues",
        lambda shipped: _times(shipped, 1.0 + 1e-6)),
    "jc_linearization_b": (models, "jc_linearization",
                           lambda shipped: _linearization_b_scaled(
                               shipped, 1.0 + 1e-6)),
    "transformation_T_scale": (hopf, "transformation_T",
                               lambda shipped: _times(shipped, 1.0 + 1e-6)),
}
MARKS = {
    "fold_offsets_scale": _survivor(
        "criterion 12 places the folds only between grid points 0.0105 apart"),
    "curve_tangent_scale": _survivor(
        "criterion 4 holds the tangent to central differences at 1e-6 "
        "absolute, and |dH_c/ds| <= 0.43 on its grid, so the scale moves it "
        "by 4.3e-7 at most"),
}
# Faults that change no output of the shipped function that matters: no
# criterion can fail them, and each must pass verify, with the reason.
EQUIVALENT = {
    "transformation_T_sign": (
        hopf, "transformation_T", lambda shipped: _times(shipped, -1.0),
        "-T conjugates as T does: the invariants G1, G2, G3 and H~ are even "
        "in the point, and (-T)^t B (-T) = T^t B T"),
}


def _take(monkeypatch, route):
    """Run the criteria in one process, split, or all in the child."""
    if route == "one_process":
        monkeypatch.setattr(spectrum, "_may_fork", lambda: False)
    elif route == "all_in_child":
        monkeypatch.setattr(acceptance, "CHILD_CRITERIA", frozenset(
            number for number, _, _ in acceptance.CRITERIA))


@pytest.mark.parametrize("route", ["one_process", "split", "all_in_child"])
@pytest.mark.parametrize("fault", [
    pytest.param(name, marks=MARKS.get(name, ())) for name in FAULTS])
def test_verify_fails_a_criterion(monkeypatch, forks, fault, route):
    _take(monkeypatch, route)
    module, name, make = FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    failed = [r.number for r in acceptance.run_all() if not r.passed]
    assert forks == [1] * (route != "one_process")
    assert failed, f"{fault}: all {len(acceptance.CRITERIA)} criteria pass"


@pytest.mark.parametrize("route", ["one_process", "split", "all_in_child"])
@pytest.mark.parametrize("fault", list(EQUIVALENT))
def test_an_equivalent_fault_passes_verify(monkeypatch, forks, fault, route):
    _take(monkeypatch, route)
    module, name, make, _ = EQUIVALENT[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    results = acceptance.run_all()
    assert forks == [1] * (route != "one_process")
    assert [r.number for r in results if not r.passed] == []
