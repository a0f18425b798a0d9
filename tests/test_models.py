import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfdiag import models, oracle, symplin
from hopfdiag.jets import Jet2
from hopfdiag.models import Branch, CriticalKind, JCState, PolyG

angle = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
zval = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
oscval = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def state_from(z, phi, u, v):
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return JCState.normalized(s * math.cos(phi), s * math.sin(phi), z, u, v)


class TestJCState:
    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError):
            JCState(1.0, 1.0, 0.0, 0.0, 0.0)

    def test_normalized_lands_on_sphere(self):
        st_ = JCState.normalized(3.0, 4.0, 0.0, 0.5, -0.5)
        assert abs(st_.x ** 2 + st_.y ** 2 + st_.z ** 2 - 1.0) <= 1e-12

    @given(zval, angle, oscval, oscval)
    def test_constructors_preserve_sphere(self, z, phi, u, v):
        st_ = state_from(z, phi, u, v)
        assert abs(st_.x ** 2 + st_.y ** 2 + st_.z ** 2 - 1.0) <= 1e-12


class TestEnergies:
    def test_north_pole(self):
        st_ = JCState(0.0, 0.0, 1.0, 0.0, 0.0)
        assert (models.jc_J(st_), models.jc_H(st_)) == (1.0, 0.0)
        assert models.jc_Htilde(st_, PolyG(0.0)) == 0.0

    def test_south_pole(self):
        st_ = JCState(0.0, 0.0, -1.0, 0.0, 0.0)
        assert (models.jc_J(st_), models.jc_H(st_)) == (-1.0, 0.0)

    def test_equator_point(self):
        st_ = JCState(1.0, 0.0, 0.0, 1.0, 0.0)
        assert models.jc_J(st_) == 0.5
        assert models.jc_Htilde(st_, PolyG(1.0)) == 0.5


class TestPoissonStructure:
    def test_coordinate_brackets_at_pole(self):
        st_ = JCState(0.0, 0.0, 1.0, 0.0, 0.0)
        br = models.poisson_bracket(lambda w: w[0], lambda w: w[1], st_)
        assert br == pytest.approx(-1.0, abs=1e-9)
        br = models.poisson_bracket(lambda w: w[3], lambda w: w[4], st_)
        assert br == pytest.approx(1.0, abs=1e-9)

    def test_oscillator_part_commutes_with_j(self):
        st_ = state_from(0.3, 1.0, 0.7, -0.4)
        br = models.poisson_bracket(
            models.jc_J, lambda w: (w[3] ** 2 + w[4] ** 2) / 2.0, st_,
            grad_f=models.jc_grad_J)
        assert abs(br) < 1e-9

    @given(zval, angle, oscval, oscval,
           st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_j_commutes_with_htilde(self, z, phi, u, v, gamma):
        st_ = state_from(z, phi, u, v)
        g = PolyG(gamma)
        br = models.poisson_bracket(None, None, st_,
                                    grad_f=models.jc_grad_J,
                                    grad_g=lambda s: models.jc_grad_Htilde(s, g))
        assert abs(br) < 1e-11


class TestCanonicalChart:
    @pytest.mark.parametrize("orientation, sphere_sign", [(1, -1.0), (-1, 1.0)])
    def test_bracket_pullback(self, orientation, sphere_sign):
        # {x, y} = sign*z (cyclic), {u, v} = 1, mixed zero, at generic points
        b_mat = symplin.SYMPLECTIC_MATRIX
        rng = np.random.default_rng(17)
        for _ in range(10):
            base = rng.uniform(-0.4, 0.4, 4)
            jets = Jet2.variables(base)
            x, y, z, u, v = models.canonical_chart(jets, orientation)

            def canon(f, g):
                return float(f.grad @ b_mat @ g.grad)

            assert canon(x, y) == pytest.approx(sphere_sign * z.val, abs=1e-12)
            assert canon(y, z) == pytest.approx(sphere_sign * x.val, abs=1e-12)
            assert canon(z, x) == pytest.approx(sphere_sign * y.val, abs=1e-12)
            assert canon(u, v) == pytest.approx(1.0, abs=1e-12)
            assert canon(x, u) == pytest.approx(0.0, abs=1e-12)
            assert canon(z, v) == pytest.approx(0.0, abs=1e-12)

    def test_chart_hits_sphere(self):
        jets = Jet2.variables([0.2, -0.1, 0.3, 0.4])
        x, y, z, _, _ = models.canonical_chart(jets)
        assert x.val ** 2 + y.val ** 2 + z.val ** 2 == pytest.approx(1.0,
                                                                     abs=1e-14)


class TestLinearization:
    @pytest.mark.parametrize("gamma, expected", [
        (0.5, "Boundary(ParabolaPlus)"),
        (0.4, "FocusFocus"),
        (0.8, "EllipticElliptic"),
        (0.0, "Boundary(ParabolaMinus)"),
    ])
    def test_types(self, gamma, expected):
        q, typ = models.jc_linearization(PolyG(gamma))
        assert q.a == 1.0 / 16.0
        assert str(typ) == expected

    def test_b_formula(self):
        q, _ = models.jc_linearization(PolyG(0.4))
        assert q.b == pytest.approx(0.14, abs=1e-15)
        q, _ = models.jc_linearization(PolyG(0.8))
        assert q.b == pytest.approx(2.06, abs=1e-15)

    def test_gprime_hook(self):
        # a bare G'(1) value behaves like the matching quadratic family
        q_hook, _ = models.jc_linearization(1.6)
        q_poly, _ = models.jc_linearization(PolyG(0.8))
        assert q_hook == q_poly
        q_num = models.jc_linearization_numeric(1.6)
        assert q_num.a == pytest.approx(q_hook.a, abs=1e-12)
        assert q_num.b == pytest.approx(q_hook.b, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.4, 0.5, 0.8, 1.5])
    def test_numeric_matches_analytic(self, gamma):
        analytic, _ = models.jc_linearization(PolyG(gamma))
        numeric = models.jc_linearization_numeric(PolyG(gamma))
        assert abs(numeric.a - analytic.a) < 1e-10
        assert abs(numeric.b - analytic.b) < 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8])
    def test_sign_convention_regression(self, gamma):
        # only the chosen orientation reproduces b = 4 gamma^2 - 1/2; the
        # flipped sphere bracket lands at 4 gamma^2 + 1/2 instead
        analytic, _ = models.jc_linearization(PolyG(gamma))
        flipped = models.jc_linearization_numeric(PolyG(gamma), orientation=-1)
        assert flipped.b == pytest.approx(analytic.b + 1.0, abs=1e-12)
        assert abs(flipped.b - analytic.b) > 0.5

    def test_undeformed_matrix_has_double_real_pair(self):
        _, s_h = models.north_pole_hessians(PolyG(0.0))
        eig = oracle.eig4(symplin.hamiltonian_matrix(s_h))
        assert oracle.match_eigensets(eig, [0.5, 0.5, -0.5, -0.5]) < 1e-7

    def test_pencil_is_focus_focus_nondegenerate_at_gamma_zero(self):
        s_j, s_h = models.north_pole_hessians(PolyG(0.0))
        assert symplin.pencil_nondegenerate(s_j, s_h).nondegenerate


class TestReducedSurface:
    def test_domain(self):
        assert models.reduced_domain(0.0) == (-1.0, 0.0)
        assert models.reduced_domain(2.0) == (-1.0, 1.0)
        assert models.reduced_domain(-2.0) is None

    @given(zval, angle, oscval, oscval)
    def test_invariant_relation(self, z, phi, u, v):
        st_ = state_from(z, phi, u, v)
        j = models.jc_J(st_)
        zz, w1, w2 = models.invariant_coords(st_)
        assert w1 * w1 + w2 * w2 == pytest.approx(
            models.reduced_radius_sq(j, zz), abs=1e-12)


class TestReducedCriticalValues:
    def test_rejects_below_domain(self):
        with pytest.raises(ValueError):
            models.jc_reduced_critical_values(PolyG(0.0), -1.5)

    @pytest.mark.parametrize("gamma,j", [(math.nan, 0.5), (0.8, math.inf),
                                         (0.8, math.nan), (1e6, 2.0),
                                         (0.8, 1e100)])
    def test_rejects_unusable_input(self, gamma, j):
        with pytest.raises(ValueError):
            models.jc_reduced_critical_values(PolyG(gamma), j)

    def test_undeformed_slice(self):
        pts = models.jc_reduced_critical_values(PolyG(0.0), 0.0)
        assert len(pts) == 2
        z_star = -1.0 / math.sqrt(3.0)
        for p in pts:
            assert p.kind is CriticalKind.TRANSVERSALLY_ELLIPTIC
            assert p.z_at == pytest.approx(z_star, abs=1e-9)
        assert sorted(p.H for p in pts) == pytest.approx(
            [-0.43869133765083085, 0.43869133765083085], abs=1e-9)

    def test_undeformed_root_far_out_is_not_cancelled(self):
        # at J = 1e6 the root of 3z^2 - 2Jz - 1 is about -1/(2J)
        j = 1e6
        for p in models.jc_reduced_critical_values(PolyG(0.0), j):
            assert abs(3.0 * p.z_at ** 2 - 2.0 * j * p.z_at - 1.0) < 1e-8

    @pytest.mark.parametrize("j", [-0.5, 0.0, 0.7, 1.3, 4.0])
    def test_undeformed_has_only_the_boundary(self, j):
        pts = models.jc_reduced_critical_values(PolyG(0.0), j)
        interior = [p for p in pts
                    if p.kind is not CriticalKind.EQUILIBRIUM_VALUE]
        assert len(interior) == 2
        assert all(p.kind is CriticalKind.TRANSVERSALLY_ELLIPTIC
                   for p in interior)

    def test_pole_values(self):
        for gamma in (0.0, 0.8):
            for j in (1.0, -1.0):
                pts = models.jc_reduced_critical_values(PolyG(gamma), j)
                eq = [p for p in pts
                      if p.kind is CriticalKind.EQUILIBRIUM_VALUE]
                assert len(eq) == 1
                assert eq[0].J == j and eq[0].H == gamma

    def test_loop_slice(self):
        pts = models.jc_reduced_critical_values(PolyG(0.8), 1.5)
        plus = [p for p in pts if p.branch is Branch.PLUS]
        kinds = sorted(p.kind.value for p in plus)
        assert kinds == ["E", "E", "H"]
        minus = [p for p in pts if p.branch is Branch.MINUS]
        assert len(minus) == 1
        assert minus[0].kind is CriticalKind.TRANSVERSALLY_ELLIPTIC

    def test_outputs_sorted_and_deterministic(self):
        a = models.jc_reduced_critical_values(PolyG(0.8), 1.5)
        b = models.jc_reduced_critical_values(PolyG(0.8), 1.5)
        assert a == b
        assert [p.z_at for p in a] == sorted(p.z_at for p in a)


class TestRankTest:
    def test_poles_are_rank_zero(self):
        for z in (1.0, -1.0):
            st_ = JCState(0.0, 0.0, z, 0.0, 0.0)
            assert models.jc_rank_test(st_, PolyG(0.0))
            assert models.jc_rank_test(st_, PolyG(0.8))

    def test_generic_point_is_regular(self):
        st_ = state_from(0.3, 0.7, 0.9, -0.2)
        assert not models.jc_rank_test(st_, PolyG(0.0))

    def test_lifted_reduced_critical_point(self):
        z = -1.0 / math.sqrt(3.0)
        x = math.sqrt(1.0 - z * z)
        r = math.sqrt(models.reduced_radius_sq(0.0, z))
        st_ = JCState.normalized(x, 0.0, z, r / x, 0.0)
        assert models.jc_J(st_) == pytest.approx(0.0, abs=1e-12)
        assert models.jc_rank_test(st_, PolyG(0.0))

    def test_critical_circle_consistency(self):
        # lift an interior critical point of the deformed system and check
        # the rank oracle confirms it
        g = PolyG(0.8)
        pts = models.jc_reduced_critical_values(g, 1.5)
        hyp = [p for p in pts
               if p.kind is CriticalKind.TRANSVERSALLY_HYPERBOLIC][0]
        z = hyp.z_at
        x = math.sqrt(1.0 - z * z)
        w1 = math.sqrt(models.reduced_radius_sq(1.5, z))
        st_ = JCState.normalized(x, 0.0, z, w1 / x, 0.0)
        assert models.jc_rank_test(st_, g)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.8])
    def test_every_reduced_value_lifts_to_a_rank_deficient_state(self, gamma):
        # forward confirmation across a J sweep; the converse is vacuous at
        # the 1e-8 rank threshold (random states are never that critical)
        g = PolyG(gamma)
        for j in (-0.6, 0.0, 0.9, 1.5, 2.5):
            for p in models.jc_reduced_critical_values(g, j):
                if p.kind is CriticalKind.EQUILIBRIUM_VALUE:
                    st_ = JCState(0.0, 0.0, p.z_at, 0.0, 0.0)
                else:
                    z = p.z_at
                    x = math.sqrt(1.0 - z * z)
                    w1 = math.copysign(
                        math.sqrt(models.reduced_radius_sq(j, z)),
                        1.0 if p.branch is Branch.PLUS else -1.0)
                    st_ = JCState.normalized(x, 0.0, z, w1 / x, 0.0)
                assert models.jc_rank_test(st_, g), (gamma, j, p)
                assert models.jc_Htilde(st_, g) == pytest.approx(p.H, abs=1e-9)

    def test_nearby_noncritical_states_are_regular(self):
        g = PolyG(0.8)
        pts = models.jc_reduced_critical_values(g, 1.5)
        z = pts[0].z_at + 0.05
        x = math.sqrt(1.0 - z * z)
        w1 = math.sqrt(models.reduced_radius_sq(1.5, z))
        st_ = JCState.normalized(x, 0.0, z, w1 / x, 0.0)
        assert not models.jc_rank_test(st_, g)


class TestSpectrumSample:
    def test_empty(self):
        cloud = models.jc_spectrum_sample(PolyG(0.0), 0, 2.0, seed=1)
        assert cloud.count == 0
        assert cloud.bounds is None

    def test_deterministic(self):
        a = models.jc_spectrum_sample(PolyG(0.5), 500, 2.0, seed=9)
        b = models.jc_spectrum_sample(PolyG(0.5), 500, 2.0, seed=9)
        assert a == b

    def test_j_zero_slice_respects_boundary(self):
        # the image boundary at J = 0 is +-3^(-3/4); within a slice of
        # half-width w it grows by at most ~0.38 w (envelope slope)
        cloud = models.jc_spectrum_sample(PolyG(0.0), 200_000, 2.0, seed=2)
        mask = np.abs(cloud.points[:, 0]) < 0.02
        top = np.abs(cloud.points[mask, 1]).max()
        assert 0.42 < top <= 0.43869133765083085 + 0.38 * 0.02 + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            models.jc_spectrum_sample(PolyG(0.0), -1, 2.0, seed=0)
        with pytest.raises(ValueError):
            models.jc_spectrum_sample(PolyG(0.0), 10, -1.0, seed=0)
