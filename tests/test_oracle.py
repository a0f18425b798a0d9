import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfdiag import oracle
from hopfdiag.oracle import NoDoubleRootError, Poly

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-3)


class TestPoly:
    def test_trims_leading_zeros(self):
        p = Poly((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)

    def test_rejects_degree_above_four(self):
        with pytest.raises(ValueError):
            Poly((1.0,) * 6)

    def test_eval_and_deriv(self):
        p = Poly((-1.0, 0.0, 1.0))  # z^2 - 1
        assert p(2.0) == 3.0
        assert p.deriv()(2.0) == 4.0

    def test_scale_floor(self):
        assert Poly((0.5, 0.25)).scale == 1.0
        assert Poly((0.0, 8.0)).scale == 8.0


class TestCubicRoots:
    def test_simple_factored(self):
        roots = oracle.cubic_roots(Poly((0.0, -1.0, 0.0, 1.0)))  # z^3 - z
        got = sorted(r.real for r in roots)
        assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-12)
        assert max(abs(r.imag) for r in roots) < 1e-12

    def test_reduced_cubic_positive_roots(self):
        # 16 z^3 - 2 z^2 + z/32: roots {0, (2 -+ sqrt(2))/32}
        roots = oracle.cubic_roots(Poly((0.0, 1.0 / 32.0, -2.0, 16.0)))
        got = sorted(r.real for r in roots)
        want = [0.0, (2.0 - math.sqrt(2.0)) / 32.0, (2.0 + math.sqrt(2.0)) / 32.0]
        assert np.allclose(got, want, atol=1e-12)

    def test_triple_root(self):
        roots = oracle.cubic_roots(Poly((-8.0, 12.0, -6.0, 1.0)))  # (z-2)^3
        assert np.allclose([r.real for r in roots], 2.0, atol=1e-5)
        assert max(abs(r.imag) for r in roots) < 1e-5

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            oracle.cubic_roots(Poly((1.0, 1.0)))

    @given(st.tuples(finite, finite, finite, nonzero))
    def test_residual_bound(self, coeffs):
        p = Poly(coeffs)
        for r in oracle.cubic_roots(p):
            acc = 0.0
            for c in reversed(p.coeffs):
                acc = acc * r + c
            assert abs(acc) < oracle.ROOT_RESIDUAL_TOL * p.scale * 10

    @given(st.tuples(finite, finite, finite, nonzero))
    def test_conjugation_closure(self, coeffs):
        roots = oracle.cubic_roots(Poly(coeffs))
        assert oracle.conjugation_defect(roots) < 1e-9


class TestQuarticAndEig4:
    def test_diagonal(self):
        got = oracle.eig4(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert oracle.match_eigensets(got, [1, 2, 3, 4]) < 1e-12

    def test_symplectic_matrix_spectrum(self):
        from hopfdiag.symplin import SYMPLECTIC_MATRIX
        got = oracle.eig4(SYMPLECTIC_MATRIX)
        assert oracle.match_eigensets(got, [1j, 1j, -1j, -1j]) < 1e-9

    def test_focus_focus_quadruplet(self):
        # linearization of the normal form at nu = -1/4, omega = 1
        from hopfdiag import hopf, symplin
        params = hopf.HopfParams(omega=1.0, sigma=1, nu=-0.25, D=-2.0)
        m = symplin.hamiltonian_matrix(hopf.linearization_hessian(params))
        want = [0.5 + 1j, 0.5 - 1j, -0.5 + 1j, -0.5 - 1j]
        assert oracle.match_eigensets(oracle.eig4(m), want) < 1e-10

    @given(st.lists(finite, min_size=16, max_size=16))
    def test_char_poly_residual(self, entries):
        m = np.array(entries).reshape(4, 4)
        p0, p1, p2, p3 = oracle.char_poly4(m)
        coeffs = (p0, p1, p2, p3, 1.0)
        scale = max(1.0, max(abs(c) for c in coeffs))
        for r in oracle.quartic_roots(Poly(coeffs)):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * r + c
            assert abs(acc) < oracle.EIG_RESIDUAL_TOL * scale

    @given(st.lists(finite, min_size=16, max_size=16))
    def test_eig4_conjugation_closure(self, entries):
        m = np.array(entries).reshape(4, 4)
        assert oracle.conjugation_defect(oracle.eig4(m)) < 1e-9

    def test_char_poly4_known(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(oracle.char_poly4(m), (24.0, -50.0, 35.0, -10.0))


class TestDoubleRoot:
    def test_plain_double_root(self):
        p = Poly((3.0, -5.0, 1.0, 1.0))  # (z-1)^2 (z+3)
        assert abs(oracle.double_root_find(p, (0.0, 2.0)) - 1.0) < 1e-9

    def test_cusp_triple_root(self):
        # Q at the cusp parameter of (omega, sigma, nu, D) = (1, 1, 1/2, -2)
        from hopfdiag import hopf
        params = hopf.HopfParams(omega=1.0, sigma=1, nu=0.5, D=-2.0)
        s = math.sqrt(1.0 / 6.0)
        c = hopf.critical_curve_point(params, s)
        z = oracle.double_root_find(hopf.q_poly(c.J, c.H, params), (0.005, 0.2))
        assert abs(z - 1.0 / 24.0) < 1e-6

    def test_no_double_root(self):
        with pytest.raises(NoDoubleRootError):
            oracle.double_root_find(Poly((1.0, 0.0, 1.0)), (-1.0, 1.0))


class TestFiniteDifferences:
    def test_gradient_quadratic(self):
        def f(w):
            return 2.0 * w[0] ** 2 + 3.0 * w[0] * w[1] - w[1]

        g = oracle.fd_gradient(f, (1.0, -2.0))
        assert np.allclose(g, [4.0 - 6.0, 3.0 - 1.0], atol=1e-9)

    def test_hessian_quadratic_exact(self):
        def f(w):
            return w[0] ** 2 - 4.0 * w[0] * w[1] + 3.0 * w[1] ** 2

        h = oracle.fd_hessian(f, (0.3, 0.7))
        assert np.allclose(h, [[2.0, -4.0], [-4.0, 6.0]], atol=1e-9)

    def test_hessian_constant_zero(self):
        h = oracle.fd_hessian(lambda w: 5.0, (0.0, 0.0))
        assert np.allclose(h, 0.0)

    def test_per_axis_steps(self):
        def f(w):
            return math.sin(w[0]) + w[1] ** 2

        h = oracle.fd_hessian(f, (0.5, 1.0), step=(1e-2, 0.3), levels=1)
        assert abs(h[0, 0] + math.sin(0.5)) < 1e-8
        assert abs(h[1, 1] - 2.0) < 1e-8

    @pytest.mark.parametrize("step", [1e-3, (1e-2, 0.3), "per point"])
    def test_hessian_stack_equals_per_point_calls(self, step):
        def f(w):
            return np.sin(w[0]) * w[1] ** 3 + np.exp(w[0] * w[1])

        rng = np.random.default_rng(5)
        points = rng.uniform(-1.0, 1.0, (2, 7))
        if step == "per point":
            step = rng.uniform(1e-3, 1e-1, (2, 7))
            per_point = step.T
        else:
            per_point = [step] * 7
        stacked = oracle.fd_hessian(f, points, step=step, levels=1)
        single = [oracle.fd_hessian(f, x, step=h, levels=1)
                  for x, h in zip(points.T, per_point)]
        assert stacked.shape == (2, 2, 7)
        assert np.array_equal(stacked, np.stack(single, axis=-1))

    def test_domain_error_propagates(self):
        def f(w):
            if w[0] <= 0:
                raise ValueError("out of domain")
            return w[0] ** 2

        with pytest.raises(ValueError):
            oracle.fd_hessian(f, (1e-6, 0.0), step=1e-4)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = oracle.golden_min(lambda t: (t - 2.0) ** 2 + 1.0, 0.0, 5.0)
        assert abs(x - 2.0) < 1e-6
        assert abs(fx - 1.0) < 1e-12

    def test_max_wrapper(self):
        x, fx = oracle.golden_max(lambda t: -(t - 1.0) ** 2, -3.0, 3.0)
        assert abs(x - 1.0) < 1e-6


class TestSpinCriticalScan:
    def test_undeformed_slice(self):
        got = oracle.spin_critical_scan(0.0, 0.0)
        assert [(sb, kind) for _, sb, kind in got] == [(-1, "E"), (1, "E")]
        for z, _, _ in got:
            assert abs(z + 1.0 / math.sqrt(3.0)) < 1e-12

    def test_loop_slice(self):
        got = oracle.spin_critical_scan(0.8, 1.5)
        assert sorted(kind for _, sb, kind in got if sb == 1) == ["E", "E", "H"]
        assert [kind for _, sb, kind in got if sb == -1] == ["E"]

    def test_empty_domain(self):
        assert oracle.spin_critical_scan(0.8, -1.0) == []
