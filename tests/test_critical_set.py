"""The spin-oscillator's per-J critical set against independent references.

- near the poles J = +-1: the real roots of the quintic p_J solved by mpmath
  at 60 digits (models docstring);
- elsewhere: the brute-force grid scan in ``oracle``;
- regressions: no rows at the pole itself, no RuntimeWarning next to J = -1.
"""

import warnings

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hopfdiag import models, oracle
from hopfdiag.models import Branch, CriticalKind, PolyG

NEAR_POLES = [-1.0 + 1e-9, -1.0 + 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9,
              1.0 - 1e-6, 1.0 + 1e-6]


def _rows(gamma, j):
    """(sb, z, kind) of the interior rows, sorted by branch then z."""
    pts = models.jc_reduced_critical_values(PolyG(gamma), j)
    return sorted((1 if p.branch is Branch.PLUS else -1, p.z_at, p.kind.value)
                  for p in pts if p.branch is not None)


def _mp_rows(gamma, j):
    """(sb, z, kind) from the roots of p_J at 60 digits, gamma != 0.

    At J = 1 the double root z = 1 (the pole) is divided out exactly.  The
    branch is sb = -sign(gamma z A), the kind the sign of h'' there.
    """
    with mp.workdps(60):
        big_j, g = mp.mpf(j), mp.mpf(gamma)
        k = 32 * g * g
        coeffs = [-k, 9 + k * big_j, k - 12 * big_j,
                  4 * big_j ** 2 - 6 - k * big_j, 4 * big_j, mp.mpf(1)]
        if j == 1.0:
            for _ in range(2):   # synthetic division by (z - 1)
                acc = [coeffs[0]]
                for c in coeffs[1:]:
                    acc.append(c + acc[-1])
                assert acc.pop() == 0
                coeffs = acc
        out = []
        for root in mp.polyroots(coeffs, maxsteps=2000, extraprec=600):
            z = mp.re(root)
            if abs(mp.im(root)) > mp.mpf(10) ** -30 \
                    or not -1.0 < float(z) < min(j, 1.0):
                continue
            a = 3 * z * z - 2 * big_j * z - 1
            sb = -int(mp.sign(g * z * a))
            rad = mp.sqrt(2 * (big_j - z) * (1 - z * z))
            h2 = sb * ((12 * z - 4 * big_j) / (4 * rad)
                       - 4 * a * a / (8 * rad ** 3)) + 2 * g
            if abs(h2) < models.CUSP_TOL:
                kind = CriticalKind.CUSP.value
            elif (h2 < 0) == (sb > 0):
                kind = CriticalKind.TRANSVERSALLY_ELLIPTIC.value
            else:
                kind = CriticalKind.TRANSVERSALLY_HYPERBOLIC.value
            out.append((sb, float(z), kind))
    return sorted(out)


def _assert_same(got, want, z_tol):
    assert [(sb, kind) for sb, _, kind in got] == \
        [(sb, kind) for sb, _, kind in want]
    for (_, z, _), (_, z_ref, _) in zip(got, want):
        assert abs(z - z_ref) <= z_tol, (z, z_ref)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.8, 1.5])
@pytest.mark.parametrize("j", NEAR_POLES)
def test_near_the_poles_matches_60_digit_roots(gamma, j):
    _assert_same(_rows(gamma, j), _mp_rows(gamma, j), 1e-12)


def test_no_pole_rows_at_the_hopf_parameter():
    # gamma = 1/2, J = 1: z = 1 is a triple root of p_J and is the pole itself
    pts = models.jc_reduced_critical_values(PolyG(0.5), 1.0)
    assert [p.kind for p in pts if p.branch is None] == \
        [CriticalKind.EQUILIBRIUM_VALUE]
    interior = [p for p in pts if p.branch is not None]
    assert len(interior) == 2
    assert all(p.z_at < 0.0 for p in interior)


def test_hyperbolic_point_born_at_the_pole_just_past_hopf():
    # gamma = 1/2 + 1e-9, J = 1: one plus-branch point has left the pole; it
    # is hyperbolic and sits at 1 - z = 4 (gamma - 1/2) + O((gamma - 1/2)^2)
    gamma = 0.500000001
    _assert_same(_rows(gamma, 1.0), _mp_rows(gamma, 1.0), 1e-12)
    pts = models.jc_reduced_critical_values(PolyG(gamma), 1.0)
    near = [p for p in pts if p.branch is Branch.PLUS and p.z_at > 0.5]
    assert len(near) == 1
    assert near[0].kind is CriticalKind.TRANSVERSALLY_HYPERBOLIC
    assert 1.0 - near[0].z_at == pytest.approx(4e-9, rel=1e-6)
    assert sum(p.branch is None for p in pts) == 1


@settings(max_examples=200)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=-0.99, max_value=3.5).filter(
           lambda j: abs(j - 1.0) > 1e-3))
def test_matches_the_grid_scan_oracle(gamma, j):
    want = sorted((sb, z, kind)
                  for z, sb, kind in oracle.spin_critical_scan(gamma, j))
    _assert_same(_rows(gamma, j), want, 1e-9)


@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_no_runtime_warning_next_to_the_south_pole(gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _rows(gamma, -0.999)
    want = sorted((sb, z, kind)
                  for z, sb, kind in oracle.spin_critical_scan(gamma, -0.999))
    assert len(got) == 2
    _assert_same(got, want, 1e-9)
