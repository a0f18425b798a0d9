import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfdiag import hopf, oracle, spectrum, symplin
from hopfdiag.hopf import (EliassonParams, HopfParams, Regime, SegmentKind)
from brute_reference import fd_gradient
from eigen_reference import eig4, match_eigensets

REF = HopfParams(omega=1.0, sigma=1, nu=0.5, D=-2.0)
CURVE_SAMPLE_REFUSES = r"^CurveSample\.\w+ must be a finite real number, got "
SUPER = HopfParams(omega=1.0, sigma=1, nu=0.5, D=1.0)

coord = st.floats(min_value=-2.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False)


def zero_or_at_least(low, high):
    """0 or a float of either sign with modulus in [low, high]."""
    return st.one_of(st.just(0.0), st.floats(low, high),
                     st.floats(-high, -low))


def mp_torus_count(params: HopfParams, j, h) -> tuple[int, bool]:
    """Components of {z > 0 : Q(z) >= 0}, and whether one is unbounded, from
    the 50-digit roots of Q at the exact (j, h) given (floats or mpf).

    Roots within 1e-12 (relative, at least absolute) of each other are one
    root, and those at most 1e-20 are z = 0, outside z > 0.  The zeros of
    Q split (0, inf) into open intervals; a component is a maximal run of
    intervals with Q > 0 joined through the roots between them, and a root
    with Q < 0 on both sides is a component of its own.  Shares no code
    with ``hopf`` or ``oracle``."""
    with mp.workdps(50):
        j, h = mp.mpf(j), mp.mpf(h)
        coeffs = [-8 * params.sigma * mp.mpf(params.D), -4 * mp.mpf(params.nu),
                  4 * params.sigma * (h - mp.mpf(params.omega) * j), -j * j]
        tol = mp.mpf(10) ** -12
        nonzero = list(coeffs)
        while nonzero[-1] == 0:         # a root at z = 0, outside z > 0
            nonzero.pop()
        found = mp.polyroots(nonzero, maxsteps=200, extraprec=200) \
            if len(nonzero) > 1 else []
        real = sorted(mp.re(r) for r in found
                      if abs(mp.im(r)) <= tol * max(1, abs(r)))
        roots = []
        for r in real:
            if r > mp.mpf(10) ** -20 and not (
                    roots and r - roots[-1] <= tol * max(1, abs(r))):
                roots.append(r)
        ends = [mp.mpf(0)] + roots + [(roots[-1] if roots else 0) + 2]
        inside = []             # interval, root, interval, ..., interval
        for lo, hi in zip(ends, ends[1:]):
            inside += [mp.polyval(coeffs, (lo + hi) / 2) > 0, True]
        inside.pop()
        runs = sum(x and (k == 0 or not inside[k - 1])
                   for k, x in enumerate(inside))
        return runs, bool(coeffs[0] > 0)


def mp_curve_point(params: HopfParams, s: float):
    """(J_c(s), H_c(s)) at 50 digits: a point where Q has a double root."""
    with mp.workdps(50):
        s, nu = mp.mpf(s), mp.mpf(params.nu)
        return (s * (s * s - nu) / (2 * params.D),
                (s * s - nu) * (nu + 4 * s * params.omega + 3 * s * s)
                / (8 * params.D))


class TestParams:
    @pytest.mark.parametrize("field", ["omega", "nu", "D"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, bad):
        fields = dict(omega=1.0, sigma=1, nu=0.5, D=-2.0)
        with pytest.raises(ValueError, match="finite"):
            HopfParams(**{**fields, field: bad})

    def test_validation(self):
        with pytest.raises(ValueError):
            HopfParams(omega=0.0, sigma=1, nu=0.1, D=1.0)
        with pytest.raises(ValueError):
            HopfParams(omega=1.0, sigma=2, nu=0.1, D=1.0)
        with pytest.raises(ValueError):
            HopfParams(omega=1.0, sigma=1, nu=0.1, D=0.0)

    @pytest.mark.parametrize("sigma", [True, False])
    def test_rejects_bool_sigma(self, sigma):
        # True == 1, but a diagram file would read and write it as true
        with pytest.raises(ValueError, match="sigma"):
            HopfParams(omega=1.0, sigma=sigma, nu=0.5, D=-2.0)

    def test_stores_numpy_scalars_as_floats(self):
        # a numpy nu would overflow the curve with a RuntimeWarning; as a
        # float it is the one-line ValueError of a Python float nu
        params = HopfParams(omega=np.float64(1.0), sigma=1,
                            nu=np.float64(1e100), D=np.float32(1e-30))
        assert [type(v) for v in (params.omega, params.nu, params.D)] == \
            [float] * 3
        assert params == HopfParams(1.0, 1, 1e100, float(np.float32(1e-30)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=CURVE_SAMPLE_REFUSES):
                spectrum.assemble_hopf_diagram(
                    HopfParams(1.0, 1, np.float64(1e100), 1e-300), 64)

    def test_eliasson_constructor(self):
        e = EliassonParams(omega_t=1.0, alpha_t=2.0, delta=1.0)
        assert e.gamma_hat == 4.0
        assert e.sigma == 1
        assert EliassonParams(1.0, 1.0, -2.0).sigma == -1
        with pytest.raises(ValueError):
            EliassonParams(omega_t=0.0, alpha_t=1.0, delta=1.0)

    @pytest.mark.parametrize("vals", [(1.0, 1e155, 1.0), (1.0, 1.0, 1e-310),
                                      (1.0, 1e-170, 1.0)])
    def test_eliasson_gamma_hat_overflow_and_underflow(self, vals):
        with pytest.raises(ValueError, match="gamma_hat"):
            EliassonParams(*vals)

    def test_eliasson_gamma_hat_near_the_limits(self):
        assert EliassonParams(1.0, 1e154, 1.0).gamma_hat == 1e154 * 1e154
        assert EliassonParams(1.0, 1e-160, 1e-10).gamma_hat == \
            1e-160 * 1e-160 / 1e-10

    @pytest.mark.parametrize("delta", [1e-170, 1e155])
    def test_htilde_delta_square_overflow_and_underflow(self, delta):
        with pytest.raises(ValueError, match="delta"):
            hopf.HtildeCoeffs(1.0, 1.0, 1.0, delta, 1.0)

    @pytest.mark.parametrize("at", range(5))
    def test_htilde_rejects_non_finite(self, at):
        vals = [1.0] * 5
        vals[at] = math.nan
        with pytest.raises(ValueError, match="finite"):
            hopf.HtildeCoeffs(*vals)

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_eliasson_rejects_non_finite(self, at, bad):
        vals = [1.0, 1.0, 1.0]
        vals[at] = bad
        with pytest.raises(ValueError, match="finite"):
            EliassonParams(*vals)

    @pytest.mark.parametrize("at", range(5))
    def test_curve_sample_rejects_non_finite(self, at):
        vals = [0.1, 0.2, 0.3, 0.4, 0.5]
        vals[at] = math.inf if at % 2 else math.nan
        with pytest.raises(ValueError, match=CURVE_SAMPLE_REFUSES):
            hopf.CurveSample(*vals, kind=SegmentKind.TRANSVERSALLY_ELLIPTIC)

    @pytest.mark.parametrize("field, value", [("nu", 1e308), ("omega", 1e308)])
    def test_overflowing_curve_is_refused(self, field, value):
        params = HopfParams(**{"omega": 1.0, "sigma": 1, "nu": 0.5, "D": -2.0,
                               field: value})
        with pytest.raises(ValueError, match=CURVE_SAMPLE_REFUSES):
            spectrum.assemble_hopf_diagram(params, 400)


class TestGammas:
    """The invariants G1, G2, G3 are symplin's J1, K2, K1."""

    @staticmethod
    def gammas(p):
        return symplin.j1(p), symplin.k2(p), symplin.k1(p)

    def test_origin(self):
        assert self.gammas((0.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_unit_point(self):
        assert self.gammas((1.0, 0.0, 0.0, 1.0)) == (1.0, 0.5, 0.5)

    @given(coord, coord, coord, coord)
    def test_polar_identity(self, x, y, xi, eta):
        # G1^2 + (x xi + y eta)^2 = 4 G2 G3, i.e. G2 = z p_z^2 + J^2/(4z)
        g1, g2, g3 = self.gammas((x, y, xi, eta))
        assert g2 >= 0.0 and g3 >= 0.0
        j2 = x * xi + y * eta
        assert g1 * g1 + j2 * j2 == pytest.approx(4.0 * g2 * g3, abs=1e-12)


class TestReducedHamiltonian:
    def test_arithmetic_value(self):
        assert hopf.reduced_hamiltonian(1.0, 0.0, 0.0, REF) == -3.5

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            hopf.reduced_hamiltonian(0.0, 0.0, 0.1, REF)
        with pytest.raises(ValueError):
            hopf.reduced_hamiltonian(-0.5, 0.0, 0.1, REF)

    def test_rejects_one_nonpositive_z_in_an_array(self):
        z = np.array([0.3, 1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            hopf.reduced_hamiltonian(z, np.zeros(4), 0.1, REF)
        assert hopf.reduced_hamiltonian(z + 1.0, 0.0, 0.0, REF).shape == (4,)

    def test_pure_quartic_term(self):
        params = HopfParams(omega=1.0, sigma=1, nu=0.0, D=-2.0)
        for z in (0.25, 1.0, 2.0):
            assert hopf.reduced_hamiltonian(z, 0.0, 0.0, params) == \
                pytest.approx(2.0 * params.D * z * z)

    def test_curve_consistency(self):
        # H at (z = d(s), p_z = 0, J = J_c(s)) reproduces H_c(s)
        for s in np.linspace(-0.6, 0.6, 25):
            c = hopf.critical_curve_point(REF, float(s))
            if c.d <= 0.0:
                continue
            val = hopf.reduced_hamiltonian(c.d, 0.0, c.J, REF)
            assert val == pytest.approx(c.H, abs=1e-12)


class TestQPoly:
    def test_zero_energy_roots(self):
        q = oracle.Poly(hopf.q_coeffs(0.0, 0.0, REF))
        roots = sorted(r.real for r in oracle.cubic_roots(q))
        # {0, 0, -nu/(2 sigma D)} = {0, 0, 1/8}
        assert np.allclose(roots, [0.0, 0.0, 0.125], atol=1e-7)

    def test_positive_roots_example(self):
        q = oracle.Poly(hopf.q_coeffs(0.0, 1.0 / 128.0, REF))
        roots = sorted(r.real for r in oracle.cubic_roots(q))
        assert roots[1] == pytest.approx(0.018305826175840777, abs=1e-9)
        assert roots[2] == pytest.approx(0.10669417382415923, abs=1e-9)

    @given(st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
           coord, coord)
    def test_energy_surface_identity(self, z, p_z, j):
        # Q(z) = 4 z^2 p_z^2 whenever H is the reduced Hamiltonian value
        h = hopf.reduced_hamiltonian(z, p_z, j, REF)
        q = oracle.Poly(hopf.q_coeffs(j, h, REF))
        assert q(z) == pytest.approx(4.0 * z * z * p_z * p_z,
                                     abs=1e-10 * q.scale)


class TestCriticalCurve:
    def test_endpoints_map_to_origin(self):
        for s in (math.sqrt(REF.nu), -math.sqrt(REF.nu)):
            c = hopf.critical_curve_point(REF, s)
            assert abs(c.J) < 1e-12 and abs(c.H) < 1e-12
            assert c.kind is SegmentKind.EQUILIBRIUM_ENDPOINT

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("big_d", [1.0, -2.0])
    @pytest.mark.parametrize("nu", [5e-324, 1e-300, 1e-12, 0.5, 3.0])
    def test_endpoints_are_exactly_the_equilibrium(self, nu, big_d, sigma):
        # fl(sqrt(nu))^2 - nu is a rounding residue of either sign, so the
        # closed forms give J, H, d of order 1e-17 * nu, or -0.0; the
        # sample carries the exact equilibrium value
        params = HopfParams(omega=1.0, sigma=sigma, nu=nu, D=big_d)
        for s in (math.sqrt(nu), -math.sqrt(nu)):
            c = hopf.critical_curve_point(params, s)
            assert c.kind is SegmentKind.EQUILIBRIUM_ENDPOINT
            assert repr((c.J, c.H, c.d)) == "(0.0, 0.0, 0.0)"
            assert (c.s, c.det2) == (s, hopf.hessian_det2(params, s))

    def test_anchor_at_s_zero(self):
        c = hopf.critical_curve_point(REF, 0.0)
        assert (c.J, c.H) == (0.0, 0.015625)
        assert c.kind is SegmentKind.TRANSVERSALLY_HYPERBOLIC

    def test_cusp_sample(self):
        c = hopf.critical_curve_point(REF, math.sqrt(1.0 / 6.0))
        assert c.J == pytest.approx(0.034020690871988594, abs=1e-9)
        assert c.H == pytest.approx(0.05485402420532193, abs=1e-9)
        assert c.d == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert abs(c.det2) < 1e-12
        assert c.kind is SegmentKind.CUSP

    def test_double_root_invariant(self):
        root = math.sqrt(REF.nu)
        for s in np.linspace(-root, root, 101):
            c = hopf.critical_curve_point(REF, float(s))
            q = oracle.Poly(hopf.q_coeffs(c.J, c.H, REF))
            assert abs(q(c.d)) < 1e-10 * q.scale
            assert abs(q.deriv()(c.d)) < 1e-10 * q.scale


class TestTangent:
    def test_at_zero(self):
        assert hopf.curve_tangent(REF, 0.0) == (0.125, 0.125)

    def test_at_generic_point(self):
        dj, dh = hopf.curve_tangent(REF, 0.6)
        assert dj == pytest.approx(-0.145, abs=1e-12)
        assert dh == pytest.approx(-0.232, abs=1e-12)

    def test_vanishes_at_cusps_only(self):
        for s in hopf.cusps(REF):
            dj, dh = hopf.curve_tangent(REF, s)
            assert max(abs(dj), abs(dh)) < 1e-12
        dj, _ = hopf.curve_tangent(REF, 0.3)
        assert abs(dj) > 1e-3

    def test_matches_finite_differences(self):
        h = hopf.TANGENT_FD_STEP
        for s in np.linspace(-0.7, 0.7, 29):
            dj, dh = hopf.curve_tangent(REF, float(s))
            fd_j = (hopf.curve_j(REF, s + h) - hopf.curve_j(REF, s - h)) / (2 * h)
            fd_h = (hopf.curve_h(REF, s + h) - hopf.curve_h(REF, s - h)) / (2 * h)
            assert dj == pytest.approx(fd_j, abs=1e-6)
            assert dh == pytest.approx(fd_h, abs=1e-6)


class TestCuspsAndKinds:
    def test_cusp_parameters(self):
        got = hopf.cusps(REF)
        assert np.allclose(got, [-0.4082482904638631, 0.4082482904638631])
        assert hopf.cusps(HopfParams(omega=1, sigma=1, nu=0.0, D=1.0)) == []
        assert hopf.cusps(HopfParams(omega=1, sigma=1, nu=-0.25, D=1.0)) == []

    def test_segment_kinds(self):
        assert hopf.segment_kind(REF, 0.0) is SegmentKind.TRANSVERSALLY_HYPERBOLIC
        assert hopf.hessian_det2(REF, 0.0) == -1.0
        assert hopf.segment_kind(REF, 0.6) is SegmentKind.TRANSVERSALLY_ELLIPTIC
        assert hopf.hessian_det2(REF, 0.6) == pytest.approx(1.16)
        assert hopf.segment_kind(REF, math.sqrt(1 / 6)) is SegmentKind.CUSP
        assert hopf.segment_kind(REF, math.sqrt(0.5)) is \
            SegmentKind.EQUILIBRIUM_ENDPOINT

    def test_fd_hessian_matches_det2(self):
        for s in (-0.5, -0.2, 0.0, 0.3, 0.55):
            c = hopf.critical_curve_point(REF, s)

            def f(w):
                return hopf.reduced_hamiltonian(w[0], w[1], c.J, REF)

            hess = oracle.fd_hessian(f, (c.d, 0.0), step=(0.01 * c.d, 0.25),
                                     levels=1)
            det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
            assert det == pytest.approx(c.det2, abs=1e-7)


class TestAdmissibleAndRegime:
    def test_admissible_examples(self):
        # admissible: the sample's double root d >= 0 lies in the image
        assert hopf.critical_curve_point(REF, 0.3).d == pytest.approx(0.05125)
        assert hopf.critical_curve_point(SUPER, 0.3).d == \
            pytest.approx(-0.1025)
        for params in (REF, SUPER):
            for s in (math.sqrt(params.nu), -math.sqrt(params.nu)):
                assert hopf.critical_curve_point(params, s).d == 0.0

    def test_regime(self):
        assert hopf.regime(REF) is Regime.SUBCRITICAL
        assert hopf.regime(SUPER) is Regime.SUPERCRITICAL
        assert hopf.regime(HopfParams(omega=1, sigma=-1, nu=0.5, D=1.0)) is \
            Regime.SUBCRITICAL


class TestOriginSlopes:
    def test_reference(self):
        p = HopfParams(omega=1.0, sigma=1, nu=0.25, D=-2.0)
        assert hopf.origin_slopes(p) == (1.5, 0.5)

    def test_limit_to_omega(self):
        p = HopfParams(omega=1.0, sigma=1, nu=1e-12, D=-2.0)
        s1, s2 = hopf.origin_slopes(p)
        assert s1 == pytest.approx(1.0, abs=2e-6)
        assert s2 == pytest.approx(1.0, abs=2e-6)

    def test_negative_omega(self):
        p = HopfParams(omega=-1.0, sigma=1, nu=1.0, D=-2.0)
        assert hopf.origin_slopes(p) == (0.0, -2.0)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            hopf.origin_slopes(HopfParams(omega=1, sigma=1, nu=0.0, D=1.0))

    def test_secant_convergence(self):
        root = math.sqrt(REF.nu)
        s1, s2 = hopf.origin_slopes(REF)
        for target, end in ((s1, root), (s2, -root)):
            s = end - math.copysign(1e-6 * root, end)
            secant = hopf.curve_h(REF, s) / hopf.curve_j(REF, s)
            assert secant == pytest.approx(target, abs=1e-3)


class TestEquilibriumEigenvalues:
    @pytest.mark.parametrize("nu, want", [
        (-0.25, [0.5 + 1j, 0.5 - 1j, -0.5 + 1j, -0.5 - 1j]),
        (0.25, [1.5j, -1.5j, 0.5j, -0.5j]),
        (0.0, [1j, 1j, -1j, -1j]),
    ])
    def test_closed_form_vs_oracle(self, nu, want):
        params = HopfParams(omega=1.0, sigma=1, nu=nu, D=-2.0)
        closed = hopf.equilibrium_eigenvalues(params)
        assert match_eigensets(closed, want) < 1e-12
        numeric = eig4(
            symplin.hamiltonian_matrix(hopf.linearization_hessian(params)))
        assert match_eigensets(closed, numeric) < 1e-10

    def test_collision_continuity(self):
        # quadruplets from both sides approach +-i omega doubled as nu -> 0
        doubled = np.array([1j, 1j, -1j, -1j])
        for nu in (1e-10, -1e-10):
            params = HopfParams(omega=1.0, sigma=1, nu=nu, D=-2.0)
            dist = match_eigensets(
                hopf.equilibrium_eigenvalues(params), doubled)
            assert dist < 2e-5


class TestTorusCount:
    def test_two_components_one_unbounded(self):
        assert hopf.torus_count(REF, 0.0, 1.0 / 128.0) == (2, True)

    def test_single_unbounded(self):
        assert hopf.torus_count(REF, 0.0, -0.1) == (1, True)

    def test_empty(self):
        # supercritical leading coefficient is negative; low energy kills Q
        assert hopf.torus_count(SUPER, 0.0, -1.0) == (0, False)

    def test_isolated_orbit_on_elliptic_curve(self):
        c = hopf.critical_curve_point(REF, 0.5)
        assert c.kind is SegmentKind.TRANSVERSALLY_ELLIPTIC
        count, unbounded = hopf.torus_count(REF, c.J, c.H)
        assert count == 2 and unbounded

    def test_counts_flip_across_hyperbolic_anchor(self):
        above = hopf.torus_count(REF, 0.0, 1.0 / 64.0 + 1e-3)[0]
        below = hopf.torus_count(REF, 0.0, 1.0 / 64.0 - 1e-3)[0]
        assert (above, below) == (1, 2)

    def test_array_matches_scalar_calls(self):
        js = np.linspace(-0.05, 0.05, 7)
        hs = np.linspace(-0.03, 0.07, 9)
        count, unbounded = hopf.torus_count(REF, js[:, None], hs[None, :])
        assert count.shape == unbounded.shape == (7, 9)
        for i, j in enumerate(js):
            for k, h in enumerate(hs):
                assert hopf.torus_count(REF, float(j), float(h)) == \
                    (count[i, k], unbounded[i, k])

    @pytest.mark.parametrize("params, kinds", [
        (REF, {"E": ((2, True), 598), "H": ((1, True), 817)}),
        (HopfParams(omega=1.0, sigma=1, nu=0.5, D=2.0),
         {"E": ((1, False), 1586)}),
    ], ids=["D=-2", "D=+2"])
    def test_on_curve_samples(self, params, kinds):
        # Regression: root finding split the double root by ~1e-8 in the
        # imaginary part and dropped the isolated elliptic orbit on 46
        # (D = -2) and 241 (D = +2) of these samples.
        seen = {}
        for s in np.linspace(-1.5, 1.5, 3001):
            c = hopf.critical_curve_point(params, float(s))
            if c.d > 0.0:
                got = hopf.torus_count(params, c.J, c.H)
                seen.setdefault(c.kind.value, []).append(got)
        assert set(seen) == set(kinds)
        for kind, (want, n) in kinds.items():
            assert len(seen[kind]) == n
            assert all(got == want for got in seen[kind])

    @pytest.mark.parametrize("d_coeff, want", [(-2.0, (1, True)),
                                               (1.0, (0, False))])
    def test_double_root_at_zero_is_excluded(self, d_coeff, want):
        # J = H = 0: Q = z^2 (-8 sigma D z - 4 nu).  Root finding places the
        # double root at a rounding-level z > 0 and, for D = 1, counts it.
        params = HopfParams(omega=1.0, sigma=1, nu=0.5, D=d_coeff)
        assert hopf.torus_count(params, 0.0, 0.0) == want
        # nu < 0 turns the negative cubic positive on (0, -nu / (2 sigma D))
        params = HopfParams(omega=1.0, sigma=1, nu=-0.5, D=d_coeff)
        assert hopf.torus_count(params, 0.0, 0.0) == (1, d_coeff < 0)

    @pytest.mark.parametrize("d_coeff, want", [(-2.0, (1, True)),
                                               (1.0, (0, False))])
    def test_triple_root_at_zero(self, d_coeff, want):
        # nu = J = H = 0: Q = -8 sigma D z^3
        params = HopfParams(omega=1.0, sigma=1, nu=0.0, D=d_coeff)
        assert hopf.torus_count(params, 0.0, 0.0) == want

    def test_zero_nu(self):
        # nu = 0, J = 0: Q = z (16 z^2 + 4 H) for sigma = 1, D = -2
        params = HopfParams(omega=1.0, sigma=1, nu=0.0, D=-2.0)
        assert hopf.torus_count(params, 0.0, 0.5) == (1, True)
        assert hopf.torus_count(params, 0.0, -0.5) == (1, True)
        # on the curve: Q = 16 (z - d)^2 (z - r) with d = -s^2/8 < 0 < r
        # and, for D = +2, the isolated double root d = s^2/8 > 0 > r
        for s in (-0.7, 0.3, 1.1):
            j, h = hopf.curve_j(params, s), hopf.curve_h(params, s)
            assert hopf.torus_count(params, j, h) == (1, True)
            other = HopfParams(omega=1.0, sigma=1, nu=0.0, D=2.0)
            j, h = hopf.curve_j(other, s), hopf.curve_h(other, s)
            assert hopf.torus_count(other, j, h) == (1, False)

    def test_huge_critical_point_does_not_overflow(self):
        # D = 1e-160: Q = 8e-160 z^3 - 4 z^2 - 2 z is negative up to its
        # root near 5e159; a z^3 at its critical point near 3e159 overflows
        params = HopfParams(omega=1.0, sigma=-1, nu=1.0, D=1e-160)
        assert hopf.torus_count(params, 0.0, 0.5) == (1, True)

    @pytest.mark.parametrize("j, h", [(math.nan, 0.0), (0.0, math.inf),
                                      (1e200, 0.0)])
    def test_non_finite_coefficients_refused(self, j, h):
        with pytest.raises(ValueError, match="non-finite"):
            hopf.torus_count(REF, j, h)

    # Samples of the curve (on it: J_c(s), H_c(s) rounded to floats) and
    # points 1e-9..1e-3 above and below it in H.
    S_GRID = sorted(np.linspace(-1.2, 1.2, 25).tolist()
                    + [-math.sqrt(REF.nu / 3.0), math.sqrt(REF.nu / 3.0)])
    OFFSETS = [1e-9, 1e-7, 1e-5, 1e-3]
    D_PLUS_2 = HopfParams(omega=1.0, sigma=1, nu=0.5, D=2.0)
    SIGMA_MINUS = HopfParams(omega=-0.7, sigma=-1, nu=0.3, D=1.5)

    def off_curve(self, params, s, offsets):
        j, h = hopf.curve_j(params, s), hopf.curve_h(params, s)
        return [(j, h + sign * off * (1.0 + abs(j)))
                for off in offsets for sign in (-1.0, 1.0)]

    @pytest.mark.parametrize("params", [REF, D_PLUS_2], ids=["D=-2", "D=+2"])
    def test_agrees_with_50_digit_count_near_the_curves(self, params):
        # on the curve the float sample is compared with the exact curve point
        for s in self.S_GRID:
            count = hopf.torus_count(params, hopf.curve_j(params, s),
                                     hopf.curve_h(params, s))
            assert count == mp_torus_count(params, *mp_curve_point(params, s))
            for j, h in self.off_curve(params, s, self.OFFSETS):
                assert hopf.torus_count(params, j, h) == \
                    mp_torus_count(params, j, h), (s, j, h)

    @pytest.mark.parametrize("params, ds", [(REF, -0.01), (REF, 0.01),
                                            (D_PLUS_2, 0.0)],
                             ids=["D=-2,s_c-0.01", "D=-2,s_c+0.01",
                                  "D=+2,s_c"])
    def test_agrees_with_50_digit_count_next_to_a_cusp(self, params, ds):
        # Regression: Q has three close roots here, and a count from the
        # discriminant gave 1 for 2 or 2 for 1 (D = -2) and 1 for 0 (D = +2)
        s = math.sqrt(params.nu / 3.0) + ds
        for j, h in self.off_curve(params, s, [1e-9]):
            assert hopf.torus_count(params, j, h) == \
                mp_torus_count(params, j, h), (s, j, h)

    @pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9])
    @pytest.mark.parametrize("cusp", [0, 1], ids=["s<0", "s>0"])
    @pytest.mark.parametrize("params", [REF, D_PLUS_2, SIGMA_MINUS],
                             ids=["D=-2", "D=+2", "sigma=-1"])
    def test_agrees_with_50_digit_count_around_the_cusps(self, params, cusp,
                                                         offset):
        # 21 s values within 0.05 of the cusp, just above and below the curve
        for s in hopf.cusps(params)[cusp] + np.linspace(-0.05, 0.05, 21):
            for j, h in self.off_curve(params, float(s), [offset]):
                assert hopf.torus_count(params, j, h) == \
                    mp_torus_count(params, j, h), (s, j, h)

    @settings(max_examples=200)
    @given(omega=st.floats(0.1, 3.0), sigma=st.sampled_from([-1, 1]),
           nu=zero_or_at_least(0.01, 2.0), big_d=st.floats(0.1, 3.0),
           flip=st.booleans(),
           where=st.sampled_from(["plane", "axis", "curve", "cusp"]),
           s=st.floats(-2.0, 2.0), ds=st.floats(-0.05, 0.05),
           j=zero_or_at_least(1e-3, 1.0), h=zero_or_at_least(1e-3, 2.0),
           offset=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_agrees_with_50_digit_count_on_the_whole_plane(
            self, omega, sigma, nu, big_d, flip, where, s, ds, j, h, offset,
            sign):
        """Anywhere in the plane, on J = 0, on the curve (against the exact
        curve point) and near it, and next to the cusps.  mp_torus_count
        merges roots within 1e-12 and drops those below 1e-20, so J and H
        are 0 or at least 1e-3.  Off the curve the offset, times
        1 + |J| + |H|, keeps |Q| at the double root above DISC_TOL of its
        terms.  On the curve within 0.01 of 3 s^2 = nu the
        simple root is so close to the double root that Q dips below zero
        between them by less than DISC_TOL of its terms, and the count is
        the cusp's: those draws are left out, the cusp itself is not."""
        params = HopfParams(omega=omega, sigma=sigma, nu=nu,
                            D=-big_d if flip else big_d)
        if where == "axis":
            j = 0.0
        elif where != "plane":
            if where == "cusp":
                s = math.copysign(math.sqrt(max(nu, 0.0) / 3.0), s) + ds
            j, h = hopf.curve_j(params, s), hopf.curve_h(params, s)
            if offset:
                h += sign * offset * (1.0 + abs(j) + abs(h))
            else:
                assume(abs(3.0 * s * s - nu) >= 1e-2 or s in hopf.cusps(params)
                       or nu == s == 0.0)
                assert hopf.torus_count(params, j, h) == \
                    mp_torus_count(params, *mp_curve_point(params, s))
                return
        assert hopf.torus_count(params, j, h) == mp_torus_count(params, j, h)


class TestTransformation:
    def test_reference_matrix(self):
        t = hopf.transformation_T(EliassonParams(1.0, 1.0, 1.0))
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [-1, 0, 1, 0], [0, -1, 0, 1]], dtype=float)
        assert np.array_equal(t, want)

    def test_scaled_matrix(self):
        t = hopf.transformation_T(EliassonParams(1.0, 2.0, 1.0))
        assert t[2, 0] == -2.0 and t[3, 1] == -2.0

    def test_symplectic_and_conjugation(self):
        rng = np.random.default_rng(3)
        b_mat = symplin.SYMPLECTIC_MATRIX
        for _ in range(10):
            vals = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
            e = EliassonParams(*vals)
            t = hopf.transformation_T(e)
            assert np.max(np.abs(t.T @ b_mat @ t - b_mat)) < 1e-12
            for _ in range(20):
                p_hat = rng.uniform(-1, 1, 4)
                p = t @ p_hat
                g1, g2, g3 = (symplin.j1(p_hat), symplin.k2(p_hat),
                              symplin.k1(p_hat))
                assert g1 == pytest.approx(symplin.j1(p), abs=1e-12)
                assert g2 == pytest.approx(
                    e.sigma * (e.alpha_t * symplin.j2(p)
                               + e.gamma_hat * symplin.k1(p)
                               + e.delta * symplin.k2(p)), abs=1e-12)
                assert g3 == pytest.approx(e.sigma * symplin.k1(p) / e.delta,
                                           abs=1e-12)


class TestBuildHtilde:
    def test_boundary_at_zero_unfolding(self):
        e = EliassonParams(1.0, 1.0, 1.0)
        coeffs = hopf.build_htilde(e, nu=0.0, D=-2.0)
        q = coeffs.quartic_coeffs()
        assert (q.a, q.b) == (1.0, 2.0)
        assert q.a == q.b * q.b / 4.0
        assert str(symplin.classify(q)) == "Boundary(ParabolaPlus)"

    def test_unfolding_crosses_the_boundary(self):
        e = EliassonParams(1.0, 1.0, 1.0)
        ee = hopf.build_htilde(e, nu=0.1, D=1.0).quartic_coeffs()
        ff = hopf.build_htilde(e, nu=-0.1, D=1.0).quartic_coeffs()
        assert str(symplin.classify(ee)) == "EllipticElliptic"
        assert str(symplin.classify(ff)) == "FocusFocus"

    def test_gamma_shift(self):
        e = EliassonParams(1.0, 2.0, 2.0)
        coeffs = hopf.build_htilde(e, nu=0.3, D=1.0)
        assert coeffs.gamma == e.gamma_hat + 0.3 / 2.0

    def test_commutes_with_rotation(self):
        e = EliassonParams(1.0, 1.5, -0.8)
        coeffs = hopf.build_htilde(e, nu=0.05, D=-1.2)
        rng = np.random.default_rng(11)
        b_mat = symplin.SYMPLECTIC_MATRIX
        for _ in range(10):
            p = rng.uniform(-1, 1, 4)
            grad_h = fd_gradient(coeffs.value, p, step=1e-3, levels=1)
            grad_j = fd_gradient(symplin.j1, p, step=1e-3, levels=1)
            bracket = grad_h @ b_mat @ grad_j
            assert abs(bracket) < 1e-10

    def test_matches_transformed_normal_form(self):
        # H~ composed with T reproduces the normal form H_nu
        e = EliassonParams(1.2, 0.9, 1.5)
        nu, big_d = 0.07, -1.3
        coeffs = hopf.build_htilde(e, nu, big_d)
        t = hopf.transformation_T(e)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p_hat = rng.uniform(-1, 1, 4)
            g1, g2, g3 = (symplin.j1(p_hat), symplin.k2(p_hat),
                          symplin.k1(p_hat))
            normal_form = (e.omega_t * g1 + e.sigma * (g2 + nu * g3)
                           + 2.0 * big_d * g3 * g3)
            assert coeffs.value(t @ p_hat) == pytest.approx(normal_form,
                                                            abs=1e-12)


class TestSegmentMonotonicity:
    def test_j_is_monotone_on_each_piece(self):
        root, cusp = math.sqrt(REF.nu), math.sqrt(REF.nu / 3.0)
        for a, b in ((-root, -cusp), (-cusp, cusp), (cusp, root)):
            ss = np.linspace(a, b, 81)[1:-1]
            js = [hopf.curve_j(REF, float(s)) for s in ss]
            diffs = np.diff(js)
            assert np.all(diffs > 0) or np.all(diffs < 0)
