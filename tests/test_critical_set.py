"""The spin-oscillator's per-J critical set against independent references.

- near the poles J = +-1, next to the folds and at large J: the real
  roots of the quintic p_J solved by mpmath at 60 digits (models
  docstring);
- the fold values: the real roots of the sextic S_gamma(J), the
  discriminant of p_J in z, at 60 digits;
- elsewhere: the brute-force grid scan in ``brute_reference``;
- counts per branch change only at the folds and at J = +-1;
- row counts: the exact number of real roots of p_J in the domain, by
  Sturm sequences over the rationals in ``exact_reference``, on both
  solve paths, with each exception a root within half an ulp of an end;
- row z: the exact roots of p_J, isolated and refined over the rationals
  in ``exact_reference``, on both solve paths over a seeded subset of
  those pairs; relative accuracy at large J and small |z| is a known
  limit, held as strict xfails;
- regressions: no rows at the pole itself, no RuntimeWarning next to J = -1.
"""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfdiag import models
from hopfdiag.models import Branch, CriticalKind, PolyG
from brute_reference import spin_critical_scan
from exact_reference import exact_count, exact_roots

NEAR_POLES = [-1.0 + 1e-9, -1.0 + 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9,
              1.0 - 1e-6, 1.0 + 1e-6]


def _rows(gamma, j):
    """(sb, z, kind) of the interior rows, sorted by branch then z."""
    pts = models.jc_reduced_critical_values(PolyG(gamma), j)
    return sorted((1 if p.branch is Branch.PLUS else -1, p.z_at, p.kind.value)
                  for p in pts if p.branch is not None)


def _mp_real_roots(gamma, j):
    """The real roots of p_J at 60 digits, gamma != 0, as mpf.

    At J = 1 the double root z = 1 (the pole) is divided out exactly.
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
        return [mp.re(root) for root in
                mp.polyroots(coeffs, maxsteps=2000, extraprec=600)
                if abs(mp.im(root)) <= mp.mpf(10) ** -30]


def _mp_rows(gamma, j):
    """(sb, z, kind) from the roots of p_J at 60 digits, gamma != 0.

    The branch is sb = -sign(gamma z A), the kind the sign of h'' there.
    """
    with mp.workdps(60):
        big_j, g = mp.mpf(j), mp.mpf(gamma)
        out = []
        for z in _mp_real_roots(gamma, j):
            if not -1.0 < float(z) < min(j, 1.0):
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


@pytest.mark.parametrize("gamma", [0.3, 0.8, -0.8])
@pytest.mark.parametrize("j", [1e3, 1e6, 1e9, 4e12])
def test_large_j_points_hold_an_absolute_bound(gamma, j):
    # the z < 0 points, near -1/(2J), are solved in the chart x = 1 - z of
    # the pole z = 1, so z is good to one spacing of floats at 1, absolute:
    # by J = 4e12 that is a relative error near 1e-4, more than the plus
    # and minus points differ by, so only the per-branch bound is pinned
    got, want = _rows(gamma, j), _mp_rows(gamma, j)
    for sb in (1, -1):
        _assert_same([r for r in got if r[0] == sb],
                     [r for r in want if r[0] == sb], 2.0 ** -52)


def test_a_root_within_half_an_ulp_of_the_domain_end_is_dropped():
    # the known limit: at gamma = 123.4, J = 1 + 2**-52, p_J has four real
    # roots in (-1, 1) but the solve gives three rows, because the fourth,
    # 9.1e-22 below 1, rounds onto min(J, 1) = 1, which -1 < z < min(J, 1)
    # leaves out
    gamma, j = 123.4, 1.0 + 2.0 ** -52
    with mp.workdps(60):
        roots = sorted(z for z in _mp_real_roots(gamma, j) if -1 < z < 1)
        assert len(roots) == 4
        gap = min(j, 1.0) - roots[-1]
        assert 0 < gap < mp.mpf(2) ** -54       # half an ulp below 1
        assert 9.0e-22 < gap < 9.2e-22
    got = _rows(gamma, j)
    assert len(got) == 3 and float(roots[-1]) == 1.0
    assert sorted(z for _, z, _ in got) == pytest.approx(
        [float(z) for z in roots[:3]], abs=1e-12)


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
                  for z, sb, kind in spin_critical_scan(gamma, j))
    _assert_same(_rows(gamma, j), want, 1e-9)


@pytest.mark.parametrize("gamma", [0.0, 0.8])
def test_no_runtime_warning_next_to_the_south_pole(gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _rows(gamma, -0.999)
    want = sorted((sb, z, kind)
                  for z, sb, kind in spin_critical_scan(gamma, -0.999))
    assert len(got) == 2
    _assert_same(got, want, 1e-9)


def _mp_fold_values(gamma):
    """Real roots J > -1 of the sextic S_gamma(J) at 60 digits: the J at
    which two roots of p_J merge away from the poles."""
    with mp.workdps(60):
        g2 = mp.mpf(gamma) ** 2
        coeffs = [1024 * g2 ** 2, -(24576 * g2 ** 3 + 288 * g2),
                  196608 * g2 ** 4 + 12288 * g2 ** 2 + 27,
                  -(524288 * g2 ** 5 + 30720 * g2 ** 3 + 2304 * g2),
                  49152 * g2 ** 4 + 6528 * g2 ** 2 + 162,
                  -(43008 * g2 ** 3 + 2016 * g2),
                  110592 * g2 ** 4 + 2176 * g2 ** 2 + 243]
        roots = mp.polyroots(coeffs, maxsteps=500, extraprec=400)
        return sorted(mp.re(j) for j in roots
                      if abs(mp.im(j)) < mp.mpf(10) ** -40 and mp.re(j) > -1)


@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3])
def test_fold_offsets_keep_their_accuracy_next_to_hopf(delta):
    # both folds sit about 6 delta^(3/2) from J = 1, so J - 1 is compared
    gamma = 0.5 + delta
    got = models.fold_offsets(PolyG(gamma))
    want = _mp_fold_values(gamma)
    assert len(got) == len(want) == 2
    for r, j in zip(got, want):
        assert abs(r - float(j - 1)) <= 1e-9 * abs(float(j - 1))


@pytest.mark.parametrize("gamma, window", [(0.6, (0.905001, 1.281906)),
                                           (0.8, (0.736017, 2.677504)),
                                           (1.5, (0.468027, 13.531973))])
def test_fold_values_are_the_roots_of_the_sextic(gamma, window):
    got = [1.0 + r for r in models.fold_offsets(PolyG(gamma))]
    assert got == pytest.approx(window, abs=1e-6)
    assert got == pytest.approx([float(j) for j in _mp_fold_values(gamma)],
                                rel=1e-14)


@pytest.mark.parametrize("gamma", [10.0, 1000.0, -1e5])
def test_fold_values_for_large_gamma(gamma):
    # J_- -> 0 as gamma grows, where b^2 dwarfs 4 (t + 1)^2 c: the root
    # -c/q of fold_offsets avoids the cancellation of the textbook formula
    got = [1.0 + r for r in models.fold_offsets(PolyG(gamma))]
    assert got == pytest.approx([float(j) for j in _mp_fold_values(gamma)],
                                rel=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 0.3, 0.5, -0.5])
def test_no_fold_up_to_the_hopf_parameter(gamma):
    assert models.fold_offsets(PolyG(gamma)) == ()


def test_sextic_has_no_fold_value_before_hopf():
    assert _mp_fold_values(0.3) == []


@pytest.mark.parametrize("gamma", [0.51, 0.6, 0.8, 1.5, 10.0, -0.8])
@pytest.mark.parametrize("factor", [1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-6])
def test_next_to_the_folds_matches_60_digit_roots(gamma, factor):
    # two roots of p_J lie about sqrt(1e-9) apart at J_f (1 +- 1e-9), where
    # z is conditioned to about 1e-11.  At J_f itself, within float
    # rounding, the count is a known limit and is not tested
    for r in models.fold_offsets(PolyG(gamma)):
        j = (1.0 + r) * factor
        _assert_same(_rows(gamma, j), _mp_rows(gamma, j), 1e-10)


def _branch_counts(gamma, j):
    pts = models.jc_reduced_critical_values(PolyG(gamma), j)
    return [sum(p.branch is b for p in pts) for b in (Branch.PLUS,
                                                        Branch.MINUS)]


@settings(max_examples=300)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-1.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_counts_change_only_at_the_folds_and_the_poles(gamma, j0, u):
    # j1 is drawn from the same interval between consecutive walls as j0
    walls = [-1.0, 1.0] + [1.0 + r for r in models.fold_offsets(PolyG(gamma))]
    left = max(w for w in walls if w <= j0)
    right = min((w for w in walls if w > j0), default=20.0)
    j1 = left + u * (right - left)
    # within float rounding of a wall a count is a known limit
    assume(all(abs(j - w) > 1e-9 * max(1.0, abs(w))
               for j in (j0, j1) for w in walls))
    assert _branch_counts(gamma, j0) == _branch_counts(gamma, j1)


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _exact_pairs() -> list[tuple[float, float]]:
    """198 (gamma, J): 70 seeded over gamma in (-3, 3), J in (-1, 4); J
    = +-1 and 1 to 3 floats inside or past them at 8 gamma; the folds of 6
    gamma > 1/2 in size x (1 -+ 1e-9); and 40 seeded J in (-1, 3) at gamma
    in {1e-5, 3e-6, -1e-6, 1e-8, 1e-12, 0}."""
    rng = np.random.default_rng(1534)
    pairs = list(zip(rng.uniform(-3.0, 3.0, 70).tolist(),
                     rng.uniform(-1.0, 4.0, 70).tolist()))
    pairs += [(g, _ulps(pole, k)) for g in (0.0, 1e-6, 0.3, 0.5, -0.5, 0.8,
                                           -2.0, 123.4)
              for pole, k in ((-1.0, 0), (-1.0, 1), (-1.0, 3), (1.0, -2),
                              (1.0, -1), (1.0, 0), (1.0, 1), (1.0, 3))]
    pairs += [(g, (1.0 + offset) * factor)
              for g in (0.55, 0.8, -0.8, 1.3, 3.0, -7.5)
              for offset in models.fold_offsets(PolyG(g))
              for factor in (1.0 - 1e-9, 1.0 + 1e-9)]
    pairs += list(zip(rng.choice([1e-5, 3e-6, -1e-6, 1e-8, 1e-12, 0.0],
                                 40).tolist(),
                      rng.uniform(-1.0, 3.0, 40).tolist()))
    return pairs


# (gamma, J): the rows lost to roots within half an ulp of min(J, 1) and
# of -1, where no float lies between them and the end they round onto.
# J = -1 + 1 or 3 floats leaves a domain one or three floats wide.
_LOST_AT_THE_ENDS = {
    (0.0, _ulps(-1.0, 1)): (0, 2),      # the double root at gamma = 0
    **{(g, _ulps(-1.0, 1)): (1, 1) for g in (1e-6, 0.3, 0.5, -0.5, 0.8,
                                             -2.0, 123.4)},
    **{(g, _ulps(-1.0, 3)): (1, 1) for g in (0.5, -0.5, 0.8, -2.0, 123.4)},
    **{(g, _ulps(1.0, k)): (1, 0) for g in (0.8, -2.0, 123.4)
       for k in (-2, -1, 1)},
    **{(g, _ulps(1.0, 3)): (1, 0) for g in (-2.0, 123.4)},
}


def _near_the_ends(gamma, j) -> tuple[int, int]:
    """Roots of p_J within half an ulp of min(J, 1), and of -1, inside the
    domain: those that round onto that end."""
    top = min(j, 1.0)
    half_top = (Fraction(top) - Fraction(math.nextafter(top, -2.0))) / 2
    half_low = (Fraction(math.nextafter(-1.0, 2.0)) + 1) / 2
    return (exact_count(gamma, j, lo=Fraction(top) - half_top),
            exact_count(gamma, j, hi=Fraction(-1) + half_low))


def test_row_counts_are_the_exact_root_counts():
    # every distinct root in the open domain is one row, two at gamma = 0
    # (p_J = A^2 and each root serves both branches), on the per-J solve and
    # the grid solve alike; the exceptions are asserted case by case
    pairs = _exact_pairs()
    assert len(pairs) == len(set(pairs)) == 198
    grid = {}
    for g in {g for g, _ in pairs}:
        js = [j for h, j in pairs if h == g]
        grid.update(((g, j), rows) for j, rows in zip(
            js, models.jc_critical_values(PolyG(g), js)))
    for g, j in pairs:
        per_j = models.jc_reduced_critical_values(PolyG(g), j)
        counts = {sum(p.branch is not None for p in rows)
                  for rows in (per_j, grid[g, j])}
        double = 2 if g == 0.0 else 1
        lost = _LOST_AT_THE_ENDS.get((g, j), (0, 0))
        assert counts == {double * exact_count(g, j) - sum(lost)}, (g, j)
        if (g, j) in _LOST_AT_THE_ENDS:
            assert lost == tuple(double * n for n in _near_the_ends(g, j))
    assert set(_LOST_AT_THE_ENDS) <= set(pairs)


ROOT_DIGITS = 30
CHART_ULPS = 2     # measured worst 1.53 over all 198 pairs and both paths


def _z_errors(gamma, j):
    """(|z - root| / 2^-52, |root|, |x|) of each interior row of the per-J
    and the grid solve against the exact roots of p_J, matched in order of
    z; x = 1 - sigma z is the chart coordinate of the solve at the pole
    z = sigma nearer to J.  A root within half an ulp of an end rounds
    onto it and has no row."""
    top = min(j, 1.0)
    roots = sorted([r for r in exact_roots(gamma, j, ROOT_DIGITS)
                    if -1.0 < float(r) < top] * (2 if gamma == 0.0 else 1))
    sigma = 1 if j > 0.0 else -1
    errors = []
    for rows in (models.jc_reduced_critical_values(PolyG(gamma), j),
                 models.jc_critical_values(PolyG(gamma), [j])[0]):
        zs = sorted(p.z_at for p in rows if p.branch is not None)
        assert len(zs) == len(roots), (gamma, j)
        errors += [(abs(Fraction(z) - r) * 2 ** 52, abs(r), abs(1 - sigma * r))
                   for z, r in zip(zs, roots)]
    return errors


def test_row_z_is_within_a_few_ulps_of_the_exact_root():
    # a seeded half of the exact-count pairs, both solve paths: z within
    # CHART_ULPS ulps of the larger of |z| and the chart coordinate |x|,
    # so relative where |z| >= |x| (item 5 is the rest); at a fold value
    # times (1 -+ 1e-9) two roots about 3e-5 apart are conditioned to
    # about 1e-11, and are held to the 1e-10 of the 60-digit fold test
    pairs = _exact_pairs()
    rng = np.random.default_rng(3501)
    for k in sorted(rng.choice(len(pairs), 99, replace=False)):
        g, j = pairs[k]
        at_fold = any(abs(j - 1.0 - r) <= 2e-9 * (1.0 + r)
                      for r in models.fold_offsets(PolyG(g)))
        for err, z, x in _z_errors(g, j):
            if at_fold:
                assert err <= Fraction(1e-10) * 2 ** 52, (g, j)
            else:
                assert err <= CHART_ULPS * max(z, x), (g, j)


@pytest.mark.parametrize("gamma, j", [
    pytest.param(0.3, 1e10, marks=pytest.mark.xfail(
        strict=True, reason="item 5: z near -1/(2J) is solved in the chart "
        "of z = 1 and keeps about 1e-16 absolute error, 4.8e-7 relative")),
    pytest.param(0.3, 4e12, marks=pytest.mark.xfail(
        strict=True, reason="item 5: 8.9e-5 relative")),
    pytest.param(0.3, 1e16, marks=pytest.mark.xfail(
        strict=True, reason="item 5: both z print as 0.0, 1.0 relative")),
    pytest.param(123.4, 1.0, marks=pytest.mark.xfail(
        strict=True, reason="item 5 at J = 1: z = 0.0014 is solved in the "
        "chart of z = 1, 172 ulps relative")),
])
def test_row_z_is_within_a_few_ulps_relative(gamma, j):
    # the relative bound that item 5 is to reach everywhere
    for err, z, _ in _z_errors(gamma, j):
        assert err <= 4 * z, (gamma, j)
