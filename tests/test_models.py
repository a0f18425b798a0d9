import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hopfdiag import models, oracle, symplin
from hopfdiag.models import Branch, CriticalKind, PolyG
from critical_reference import jc_critical_values as reference_critical_values
from pencil_reference import pencil_nondegenerate
from eigen_reference import eig4, match_eigensets

angle = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
zval = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
oscval = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def state_from(z, phi, u, v):
    """The state (x, y, z, u, v) on S^2 x R^2 at height z and angle phi."""
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return s * math.cos(phi), s * math.sin(phi), z, u, v


RANK_TOL = 1e-8          # relative second singular value in the rank test


def jc_energies(state, gamma=0.0):
    """(J, H~) of one state, H~ = (xu + yv)/2 + gamma z^2 (H at gamma 0)."""
    x, y, z, u, v = state
    return (u * u + v * v) / 2.0 + z, (x * u + y * v) / 2.0 + gamma * z * z


def hamiltonian_field(state, grad) -> np.ndarray:
    """Vector field X_f with df/dt of any g along it equal to {f, g}."""
    return models.poisson_tensor(state).T @ np.asarray(grad, dtype=float)


def jc_rank_test(state, g: PolyG) -> bool:
    """True iff X_J and X_H~ span fewer than two dimensions at ``state``."""
    xj = hamiltonian_field(state, models.jc_grad_J(state))
    xh = hamiltonian_field(state, models.jc_grad_Htilde(state, g))
    sv = np.linalg.svd(np.vstack([xj, xh]), compute_uv=False)
    if sv[0] <= 1e-12:
        return True
    return bool(sv[1] < RANK_TOL * sv[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polyg_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        PolyG(bad)


class TestEnergies:
    def test_north_pole(self):
        assert jc_energies((0.0, 0.0, 1.0, 0.0, 0.0)) == (1.0, 0.0)

    def test_south_pole(self):
        assert jc_energies((0.0, 0.0, -1.0, 0.0, 0.0)) == (-1.0, 0.0)

    def test_equator_point(self):
        assert jc_energies((1.0, 0.0, 0.0, 1.0, 0.0), 1.0) == (0.5, 0.5)


class TestPoissonStructure:
    def test_coordinate_brackets_at_pole(self):
        st_ = (0.0, 0.0, 1.0, 0.0, 0.0)

        def coordinate(k):
            return lambda w: np.eye(5)[k]

        br = models.poisson_bracket(coordinate(0), coordinate(1), st_)
        assert br == -1.0
        br = models.poisson_bracket(coordinate(3), coordinate(4), st_)
        assert br == 1.0

    def test_oscillator_part_commutes_with_j(self):
        # the gradient of (u^2 + v^2)/2
        st_ = state_from(0.3, 1.0, 0.7, -0.4)
        br = models.poisson_bracket(
            models.jc_grad_J, lambda w: [0.0, 0.0, 0.0, w[3], w[4]], st_)
        assert abs(br) < 1e-9

    def test_coordinate_brackets_on_a_stack(self):
        rng = np.random.default_rng(3)
        states = np.stack([state_from(*w) for w in
                           rng.uniform(-1.0, 1.0, (50, 4))], axis=1)

        def coordinate(k):
            return lambda w: np.eye(5)[k]

        br = models.poisson_bracket(coordinate(0), coordinate(1), states)
        assert br.shape == (50,) and np.array_equal(br, -states[2])
        br = models.poisson_bracket(coordinate(3), coordinate(4), states)
        assert np.array_equal(br, np.ones(50))

    @given(st.lists(st.tuples(zval, angle, oscval, oscval), min_size=1,
                    max_size=20),
           st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    # a (5, 5) stack of five columns must not be read as five rows
    @example([(0.1 * k, k, 0.5, -0.5) for k in range(5)], 0.8)
    def test_stacked_bracket_equals_per_state_values(self, points, gamma):
        # the gradients, the tensor and the bracket of a (5, m) stack hold
        # the bits of m single (5,) calls, column by column
        states = [state_from(*w) for w in points]
        g = PolyG(gamma)

        def grad_h(s):
            return models.jc_grad_Htilde(s, g)

        def layer(s):
            return (models.jc_grad_J(s), grad_h(s), models.poisson_tensor(s),
                    models.poisson_bracket(models.jc_grad_J, grad_h, s))

        stacked = layer(np.stack(states, axis=1))
        assert [a.shape for a in stacked] == [
            (5, len(states)), (5, len(states)), (5, 5, len(states)),
            (len(states),)]
        for k, state in enumerate(states):
            single = layer(state)
            assert [np.shape(a) for a in single] == [(5,), (5,), (5, 5), ()]
            for a, b in zip(stacked, single):
                assert a[..., k].tobytes() == np.asarray(b).tobytes()

    @given(zval, angle, oscval, oscval,
           st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_j_commutes_with_htilde(self, z, phi, u, v, gamma):
        st_ = state_from(z, phi, u, v)
        g = PolyG(gamma)
        br = models.poisson_bracket(
            models.jc_grad_J, lambda s: models.jc_grad_Htilde(s, g), st_)
        assert abs(br) < 1e-11


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

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.4, 0.5, 0.8, 1.5])
    def test_numeric_matches_analytic(self, gamma):
        analytic, _ = models.jc_linearization(PolyG(gamma))
        p0, p1, p2, p3 = oracle.char_poly4(models.north_pole_matrix(
            lambda s: models.jc_grad_Htilde(s, PolyG(gamma))))
        assert max(abs(p1), abs(p3)) <= 1e-10 * max(1.0, abs(p0), abs(p2))
        assert abs(p0 - analytic.a) < 1e-10
        assert abs(p2 - analytic.b) < 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.8, -0.8, -1.5, 1e3])
    def test_north_pole_matrix_is_exact(self, gamma):
        m = models.north_pole_matrix(
            lambda s: models.jc_grad_Htilde(s, PolyG(gamma)))
        assert np.array_equal(m, [[0.0, 2.0 * gamma, 0.0, -0.5],
                                  [-2.0 * gamma, 0.0, 0.5, 0.0],
                                  [0.0, 0.5, 0.0, 0.0],
                                  [-0.5, 0.0, 0.0, 0.0]])

    def test_undeformed_matrix_has_double_real_pair(self):
        eig = eig4(models.north_pole_matrix(
            lambda s: models.jc_grad_Htilde(s, PolyG(0.0))))
        assert match_eigensets(eig, [0.5, 0.5, -0.5, -0.5]) < 1e-7

    def test_pencil_is_focus_focus_nondegenerate_at_gamma_zero(self):
        # the Darboux chart (x_c, y_c, xi_c, eta_c) = (-y, v, x, u) at the
        # pole carries the bracket of symplin's B, whose Hessians are
        # S = B^-1 P M P^T = -B P M P^T
        perm = np.array([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])

        def hessian(grad):
            m = models.north_pole_matrix(grad)
            return -symplin.SYMPLECTIC_MATRIX @ perm @ m @ perm.T

        s_j = hessian(models.jc_grad_J)
        s_h = hessian(lambda s: models.jc_grad_Htilde(s, PolyG(0.0)))
        assert np.array_equal(s_j, np.diag([-1.0, 1.0, -1.0, 1.0]))
        assert np.array_equal(s_h, [[0.0, -0.5, 0.0, 0.0],
                                    [-0.5, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.5],
                                    [0.0, 0.0, 0.5, 0.0]])
        assert pencil_nondegenerate(s_j, s_h).nondegenerate


class TestReducedSurface:
    @given(zval, angle, oscval, oscval)
    def test_invariant_relation(self, z, phi, u, v):
        st_ = x, y, z, u, v = state_from(z, phi, u, v)
        w1 = x * u + y * v
        w2 = x * v - y * u
        assert w1 * w1 + w2 * w2 == pytest.approx(
            models.reduced_radius_sq(jc_energies(st_)[0], z), abs=1e-12)


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

    @pytest.mark.parametrize("bad", [-1.5, 1e100, -1e100, math.nan])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_one_bad_j_in_a_grid_raises_the_scalar_error(self, bad, where):
        g = PolyG(0.8)
        with pytest.raises(ValueError) as scalar:
            models.jc_reduced_critical_values(g, bad)
        grid = [0.5, -0.3, 1.0, 2.0]
        grid.insert(where, bad)
        with pytest.raises(ValueError) as batched:
            models.jc_critical_values(g, grid)
        assert str(batched.value) == str(scalar.value)

    def test_empty_grid(self):
        assert models.jc_critical_values(PolyG(0.8), []) == []
        assert models.jc_critical_values(PolyG(0.8), np.array([])) == []

    @given(st.sampled_from([0.0, -0.0, 1e-170, 3e-9, 0.5, -0.5, 0.8, 123.4,
                            9e5]), st.data())
    def test_grid_equals_per_j_calls(self, gamma, data):
        # the array path of a grid against the scalar path of each J
        g = PolyG(gamma)
        window = [1.0 + f for f in models.fold_offsets(g)] or [1.0, 1.0]
        js = data.draw(st.lists(st.one_of(
            st.sampled_from([-1.0, 1.0, -0.0, 0.0, 1.0 + 1e-12, 1.0 - 1e-12,
                             -1.0 + 1e-12, 1e99, *window]),
            st.floats(min_value=-1.0, max_value=0.0),
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=window[0], max_value=window[1]),
            st.floats(min_value=5.0, max_value=1e99)), max_size=40))
        batched = models.jc_critical_values(g, js)
        assert len(batched) == len(js)
        for j, rows in zip(js, batched):
            single = models.jc_reduced_critical_values(g, j)
            assert rows == single
            assert [math.copysign(1.0, p.z_at) for p in rows] == \
                [math.copysign(1.0, p.z_at) for p in single]

    # zeros of both signs, the smallest subnormal, the Hopf parameter and a
    # gamma far beyond it, whose fold window sits at J of order gamma^2
    REFERENCE_GAMMAS = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 0.8, -0.8,
                        123.4]
    # solved one after another, so that rows cannot depend on the gamma
    # solved before (the fold cut is cached per gamma)
    INTERLEAVED = (0.8, -0.8, 0.5, 0.0, -0.0, 0.8, 123.4, 0.8)

    @staticmethod
    def row_bits(per_j):
        return [[(p.J.hex(), p.H.hex(), p.z_at.hex(), p.branch, p.kind)
                 for p in rows] for rows in per_j]

    @given(st.sampled_from([*REFERENCE_GAMMAS, INTERLEAVED]), st.data())
    def test_rows_equal_the_reference_bit_for_bit(self, gammas, data):
        for gamma in gammas if isinstance(gammas, tuple) else [gammas]:
            g = PolyG(gamma)
            window = [1.0 + f for f in models.fold_offsets(g)] or [1.0, 1.0]
            js = data.draw(st.lists(st.one_of(
                st.sampled_from([-1.0, 1.0, -0.999, *window]),
                st.floats(min_value=-1.0, max_value=3.2),
                st.floats(min_value=window[0], max_value=window[1]),
                st.floats(min_value=3.2, max_value=1e99)), max_size=12))
            assert self.row_bits(models.jc_critical_values(g, js)) == \
                self.row_bits(reference_critical_values(g, js))

    @pytest.mark.parametrize("gammas", [
        *REFERENCE_GAMMAS, pytest.param(INTERLEAVED, id="interleaved")])
    def test_grid_rows_equal_the_reference_bit_for_bit(self, gammas):
        for gamma in gammas if isinstance(gammas, tuple) else [gammas]:
            g = PolyG(gamma)
            js = [-1.0, 1.0, -0.999, *np.linspace(-1.0, 3.2, 601),
                  *np.logspace(0.5, 99.0, 200)]
            for offset in models.fold_offsets(g):
                edge = 1.0 + offset
                js += [edge, math.nextafter(edge, 0.0),
                       math.nextafter(edge, 9.0),
                       *np.linspace(edge - 1e-3 * abs(offset), edge
                                    + 1e-3 * abs(offset), 101)]
            reference = self.row_bits(reference_critical_values(g, js))
            assert self.row_bits(models.jc_critical_values(g, js)) == reference
            assert self.row_bits([models.jc_reduced_critical_values(g, j)
                                  for j in js]) == reference

    def test_outputs_sorted_and_deterministic(self):
        a = models.jc_reduced_critical_values(PolyG(0.8), 1.5)
        b = models.jc_reduced_critical_values(PolyG(0.8), 1.5)
        assert a == b
        # by z, then pole < minus < plus
        rank = {None: 0, Branch.MINUS: 1, Branch.PLUS: 2}
        for j in (-1.0, 1.0, 1.5, 1.0 + models.fold_offsets(PolyG(0.8))[1]):
            rows = models.jc_reduced_critical_values(PolyG(0.8), j)
            assert [(p.z_at, rank[p.branch]) for p in rows] == \
                sorted((p.z_at, rank[p.branch]) for p in rows)


class TestRankTest:
    def test_poles_are_rank_zero(self):
        for z in (1.0, -1.0):
            st_ = (0.0, 0.0, z, 0.0, 0.0)
            assert jc_rank_test(st_, PolyG(0.0))
            assert jc_rank_test(st_, PolyG(0.8))

    def test_generic_point_is_regular(self):
        st_ = state_from(0.3, 0.7, 0.9, -0.2)
        assert not jc_rank_test(st_, PolyG(0.0))

    def test_lifted_reduced_critical_point(self):
        z = -1.0 / math.sqrt(3.0)
        x = math.sqrt(1.0 - z * z)
        r = math.sqrt(models.reduced_radius_sq(0.0, z))
        st_ = (x, 0.0, z, r / x, 0.0)
        assert jc_energies(st_)[0] == pytest.approx(0.0, abs=1e-12)
        assert jc_rank_test(st_, PolyG(0.0))

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
        st_ = (x, 0.0, z, w1 / x, 0.0)
        assert jc_rank_test(st_, g)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.8])
    def test_every_reduced_value_lifts_to_a_rank_deficient_state(self, gamma):
        # forward confirmation across a J sweep; the converse is vacuous at
        # the 1e-8 rank threshold (random states are never that critical)
        g = PolyG(gamma)
        for j in (-0.6, 0.0, 0.9, 1.5, 2.5):
            for p in models.jc_reduced_critical_values(g, j):
                if p.kind is CriticalKind.EQUILIBRIUM_VALUE:
                    st_ = (0.0, 0.0, p.z_at, 0.0, 0.0)
                else:
                    z = p.z_at
                    x = math.sqrt(1.0 - z * z)
                    w1 = math.copysign(
                        math.sqrt(models.reduced_radius_sq(j, z)),
                        1.0 if p.branch is Branch.PLUS else -1.0)
                    st_ = (x, 0.0, z, w1 / x, 0.0)
                assert jc_rank_test(st_, g), (gamma, j, p)
                assert jc_energies(st_, gamma)[1] == pytest.approx(p.H, abs=1e-9)

    def test_nearby_noncritical_states_are_regular(self):
        g = PolyG(0.8)
        pts = models.jc_reduced_critical_values(g, 1.5)
        z = pts[0].z_at + 0.05
        x = math.sqrt(1.0 - z * z)
        w1 = math.sqrt(models.reduced_radius_sq(1.5, z))
        st_ = (x, 0.0, z, w1 / x, 0.0)
        assert not jc_rank_test(st_, g)


def reference_spectrum_sample(g: PolyG, n: int, j_max: float, seed: int):
    """The sampler's formula written out with one array per quantity."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x, y = s * np.cos(phi), s * np.sin(phi)
    r2 = rng.uniform(0.0, 2.0 * (j_max + 1.0), n)
    psi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(r2)
    u, v = r * np.cos(psi), r * np.sin(psi)
    return np.column_stack([r2 / 2.0 + z,
                            (x * u + y * v) / 2.0 + g.gamma * z * z])


class TestSpectrumSample:
    @pytest.mark.parametrize("gamma", [0.0, 0.8, -3.7])
    @pytest.mark.parametrize("n", [1, 7, 65_537, 200_000])
    def test_bit_identical_to_reference(self, gamma, n):
        # same machine, same numpy: SIMD sin/cos may differ between CPUs,
        # so no hash is pinned
        for j_max in (0.5, 3.2, 1e300):
            for seed in (0, 1, 9001):
                got = models.jc_spectrum_sample(PolyG(gamma), n, j_max, seed)
                want = reference_spectrum_sample(PolyG(gamma), n, j_max, seed)
                assert got.points.flags.c_contiguous
                assert got.points.tobytes() == want.tobytes(), (j_max, seed)

    def test_memory_budget(self):
        # one array per quantity peaks at about 7 times the cloud's bytes
        tracemalloc.start()
        try:
            cloud = models.jc_spectrum_sample(PolyG(0.8), 10**6, 3.2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * cloud.points.nbytes

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
        with pytest.raises(ValueError, match="finite"):
            # 2 (j_max + 1) overflows to inf
            models.jc_spectrum_sample(PolyG(0.0), 10, 9e307, seed=0)
