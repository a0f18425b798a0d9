"""Planted faults in the shipped closed forms that ``verify`` must see.

Each entry monkeypatches one name that ``acceptance.run_all`` reaches, and
the run must fail at least one criterion; every fault here is caught.  A
fault that changes nothing that the function's callers rely on is listed
apart, with the reason, and must pass every criterion.
Each fault is planted on two routes: one process, and the split, where a
forked child runs the last criterion, so the fault is caught whichever
process runs the criterion that sees it.  One ``run_all`` takes about
65 ms in one process and 50 ms split (two CPUs).
"""

import cmath
import dataclasses
import json

import numpy as np
import pytest

from hopfdiag import acceptance, cli, hopf, models, spectrum, symplin


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


_SPLIT_COLLISION = np.array([1j * (1.0 + 1e-6), -1j * (1.0 + 1e-6),
                             1j * (1.0 - 1e-6), -1j * (1.0 - 1e-6)])


def _split_at_the_collision(fn, collides):
    """``fn`` returning +-i(1 +- 1e-6) where ``collides`` holds of its
    argument: a split that moves the characteristic polynomial's
    coefficients by only about 2e-12, so that only the root-by-root match
    sees it."""
    return lambda arg: _SPLIT_COLLISION if collides(arg) else fn(arg)


def _pole_field_swapped(grad):
    """``models.jc_grad_Htilde`` with its y and u components swapped: the
    pole Jacobian's characteristic polynomial then has odd terms."""
    return lambda state, g: grad(state, g)[[0, 3, 2, 1, 4]]


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
    "fold_offsets_shrunk": (models, "fold_offsets",
                            lambda shipped: _scaled(shipped, 1.0 - 1e-6)),
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
    "jc_grad_Htilde_swap": (models, "jc_grad_Htilde", _pole_field_swapped),
    "linearization_hessian_scale": (
        hopf, "linearization_hessian",
        lambda shipped: _times(shipped, 1.0 + 1e-6)),
    "HESS_K1_scale": (symplin, "HESS_K1",
                      lambda shipped: shipped * (1.0 + 1e-6)),
    "equilibrium_eigenvalues_split": (
        hopf, "equilibrium_eigenvalues",
        lambda shipped: _split_at_the_collision(shipped, lambda p: p.nu == 0.0)),
    "eigen_closed_split": (
        symplin, "eigen_closed",
        lambda shipped: _split_at_the_collision(
            shipped, lambda q: q.b * q.b / 4.0 == q.a)),
}
# Faults that change no output of the shipped function that matters: no
# criterion can fail them, and each must pass verify, with the reason.
EQUIVALENT = {
    "transformation_T_sign": (
        hopf, "transformation_T", lambda shipped: _times(shipped, -1.0),
        "-T conjugates as T does: the invariants G1, G2, G3 and H~ are even "
        "in the point, and (-T)^t B (-T) = T^t B T"),
    "HESS_J1_sign": (
        symplin, "HESS_J1", lambda shipped: -shipped,
        "omega~ -> -omega~ maps the spectrum +-i(sqrt(nu) +- omega) onto "
        "itself, and criterion 7 evaluates symplin.j1, not its Hessian"),
}


def _take(monkeypatch, route):
    """Run the criteria in one process, or split."""
    if route == "one_process":
        monkeypatch.setattr(spectrum, "_may_fork", lambda: False)


@pytest.mark.parametrize("route", ["one_process", "split"])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_verify_fails_a_criterion(monkeypatch, forks, fault, route):
    _take(monkeypatch, route)
    module, name, make = FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    failed = [r.number for r in acceptance.run_all() if not r.passed]
    assert forks == [1] * (route != "one_process")
    assert failed, f"{fault}: all {len(acceptance.CRITERIA)} criteria pass"


@pytest.mark.parametrize("route", ["one_process", "split"])
@pytest.mark.parametrize("fault", list(EQUIVALENT))
def test_an_equivalent_fault_passes_verify(monkeypatch, forks, fault, route):
    _take(monkeypatch, route)
    module, name, make, _ = EQUIVALENT[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    results = acceptance.run_all()
    assert forks == [1] * (route != "one_process")
    assert [r.number for r in results if not r.passed] == []


@pytest.mark.parametrize("route", ["one_process", "split"])
def test_a_non_biquadratic_pole_jacobian_fails_criterion_9(
        monkeypatch, forks, capsys, route):
    # criterion 9 reports the odd terms as its own failure, and verify
    # exits 1, rather than raising out of run_all
    _take(monkeypatch, route)
    monkeypatch.setattr(models, "jc_grad_Htilde",
                        _pole_field_swapped(models.jc_grad_Htilde))
    assert cli.main(["verify", "--json"]) == 1
    assert forks == [1] * (route != "one_process")
    records = {r["number"]: r for r in json.loads(capsys.readouterr().out)}
    assert len(records) == len(acceptance.CRITERIA)
    assert not records[9]["passed"]
    assert "not biquadratic" in records[9]["detail"]
