import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from hopfdiag import oracle, symplin
from hopfdiag.symplin import EquilibriumType, QuarticCoeffs, SYMPLECTIC_MATRIX
from pencil_reference import pencil_nondegenerate
from eigen_reference import eig4, match_eigensets

EIGEN_AGREEMENT_TOL = 1e-10   # eigen_closed vs eig4
finite3 = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


def sym4_from(entries):
    s = np.zeros((4, 4))
    iu = np.triu_indices(4)
    s[iu] = entries
    return s + np.triu(s, 1).T


class TestCanonicalStructure:
    def test_antisymmetric(self):
        assert np.array_equal(SYMPLECTIC_MATRIX, -SYMPLECTIC_MATRIX.T)

    def test_squares_to_minus_identity(self):
        assert np.array_equal(SYMPLECTIC_MATRIX @ SYMPLECTIC_MATRIX, -np.eye(4))

    def test_quadratic_blocks_match_hessians(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(-2, 2, 4)
            assert symplin.j1(p) == pytest.approx(p @ symplin.HESS_J1 @ p / 2)
            assert symplin.j2(p) == pytest.approx(p @ symplin.HESS_J2 @ p / 2)
            assert symplin.k1(p) == pytest.approx(p @ symplin.HESS_K1 @ p / 2)
            assert symplin.k2(p) == pytest.approx(p @ symplin.HESS_K2 @ p / 2)


class TestHamiltonianMatrix:
    def test_zero(self):
        assert np.array_equal(symplin.hamiltonian_matrix(np.zeros((4, 4))),
                              np.zeros((4, 4)))

    def test_identity_gives_symplectic_matrix(self):
        m = symplin.hamiltonian_matrix(np.eye(4))
        assert np.array_equal(m, SYMPLECTIC_MATRIX)
        assert match_eigensets(eig4(m), [1j, 1j, -1j, -1j]) < 1e-9

    def test_family_char_poly(self):
        # Hess of J1 + K1 + 2 K2 has characteristic polynomial l^4 + 6 l^2 + 1
        m = symplin.hamiltonian_matrix(symplin.family_hessian(1.0, 0.0, 1.0, 2.0))
        p0, p1, p2, p3 = oracle.char_poly4(m)
        assert (p0, p2) == pytest.approx((1.0, 6.0), abs=1e-12)
        assert max(abs(p1), abs(p3)) < 1e-12

    def test_rejects_nonsymmetric(self):
        s = np.eye(4)
        s[0, 1] = 1.0
        with pytest.raises(ValueError):
            symplin.hamiltonian_matrix(s)


class TestQuarticCoeffs:
    def test_reference_tuple(self):
        q = symplin.quartic_coeffs(1.0, 0.0, 1.0, 2.0)
        assert (q.a, q.b) == (1.0, 6.0)

    def test_pure_rotation(self):
        q = symplin.quartic_coeffs(1.0, 0.0, 0.0, 0.0)
        assert (q.a, q.b) == (1.0, 2.0)
        eig = symplin.eigen_closed(q)
        assert match_eigensets(eig, [1j, 1j, -1j, -1j]) < 1e-12

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan),
                                      (math.inf, 1.0), (0.0, -math.inf)])
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            QuarticCoeffs(a=a, b=b)
        # overflow in the family formula lands in the same check
        with pytest.raises(ValueError, match="finite"):
            symplin.quartic_coeffs(1e200, 0.0, 0.0, 0.0)

    def test_forced_boundary(self):
        # alpha_t^2 = gamma*delta exactly: a = omega_t^4, b = 2 omega_t^2
        q = symplin.quartic_coeffs(1.0, 2.0, 2.0, 2.0)
        assert (q.a, q.b) == (1.0, 2.0)
        assert q.a == q.b * q.b / 4.0
        assert str(symplin.classify(q)) == "Boundary(ParabolaPlus)"

    @given(finite3, finite3, finite3, finite3)
    # b < 0 and a == fl(b*b)/4 < b*b/4: the rounded parabola test reads
    # ParabolaMinus where an exact one would read HyperbolicHyperbolic
    @example(0.0, 1.1, 0.3, 0.7)
    @example(-2.329616902456162e-31, -2.3277393063394567, 2.87086271772385,
             -2.3403276983063925)
    def test_identity_and_region_exclusion(self, w, al, ga, de):
        q = symplin.quartic_coeffs(w, al, ga, de)
        assert q.a >= 0.0
        lhs = q.b * q.b / 4.0 - q.a
        rhs = 4.0 * w * w * (ga * de - al * al)
        scale = max(1.0, q.a, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert symplin.classify(q) not in (
            EquilibriumType.ELLIPTIC_HYPERBOLIC,
            EquilibriumType.HYPERBOLIC_HYPERBOLIC)


class TestClassify:
    @pytest.mark.parametrize("a, b, expected", [
        (1.0, 3.0, "EllipticElliptic"),
        (-1.0, 0.0, "EllipticHyperbolic"),
        (2.0, 1.0, "FocusFocus"),
        (1.0 / 16.0, 0.5, "Boundary(ParabolaPlus)"),
        (1.0, -3.0, "HyperbolicHyperbolic"),
        (1.0, -2.0, "Boundary(ParabolaMinus)"),
        (0.0, 5.0, "Boundary(AZero)"),
        (0.0, 0.0, "Boundary(Origin)"),
    ])
    def test_regions(self, a, b, expected):
        assert str(symplin.classify(QuarticCoeffs(a, b))) == expected

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_root_structure_matches_region(self, a, b):
        # away from the discriminant strata the root structure is resolvable
        assume(abs(a) > 1e-3)
        assume(abs(a - b * b / 4.0) > 1e-3 * max(1.0, b * b))
        q = QuarticCoeffs(a, b)
        kind = symplin.classify(q)
        roots = symplin.eigen_closed(q)
        re = np.abs(roots.real) > 1e-7 * max(1.0, np.abs(roots).max())
        im = np.abs(roots.imag) > 1e-7 * max(1.0, np.abs(roots).max())
        if kind is EquilibriumType.ELLIPTIC_ELLIPTIC:
            assert not re.any() and im.all()
        elif kind is EquilibriumType.HYPERBOLIC_HYPERBOLIC:
            assert re.all() and not im.any()
        elif kind is EquilibriumType.ELLIPTIC_HYPERBOLIC:
            assert re.sum() == 2 and im.sum() == 2
        elif kind is EquilibriumType.FOCUS_FOCUS:
            assert re.all() and im.all()


class TestEigenClosed:
    @pytest.mark.parametrize("a, b", [(1e308, -1e308), (0.0, 1e308),
                                      (1.0, -1e308)])
    def test_overflow_is_refused(self, a, b):
        with pytest.raises(ValueError, match="overflow"):
            symplin.eigen_closed(QuarticCoeffs(a, b))

    def test_family_overflow_is_refused(self):
        # (alpha_t^2 + omega_t^2 - gamma delta)^2 overflows: inf, then refused
        with pytest.raises(ValueError, match="finite"):
            symplin.quartic_coeffs(0.0, 0.0, 2.0, 1e154)

    def test_double_imaginary(self):
        eig = symplin.eigen_closed(QuarticCoeffs(1.0, 2.0))
        assert match_eigensets(eig, [1j, 1j, -1j, -1j]) < 1e-12

    def test_golden_pair(self):
        eig = symplin.eigen_closed(QuarticCoeffs(1.0, 3.0))
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        want = [phi * 1j, -phi * 1j, 1j / phi, -1j / phi]
        assert match_eigensets(eig, want) < 1e-12

    def test_focus_focus_signs(self):
        eig = symplin.eigen_closed(QuarticCoeffs(2.0, 1.0))
        assert np.all(np.abs(eig.real) > 0.1)
        assert np.all(np.abs(eig.imag) > 0.1)
        assert match_eigensets(eig, np.conj(eig)) < 1e-12

    def test_agrees_with_eig4_on_family(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            w, al, ga, de = rng.uniform(-3.0, 3.0, 4)
            q = symplin.quartic_coeffs(w, al, ga, de)
            m = symplin.hamiltonian_matrix(symplin.family_hessian(w, al, ga, de))
            err = match_eigensets(symplin.eigen_closed(q), eig4(m))
            assert err < EIGEN_AGREEMENT_TOL, f"params {(w, al, ga, de)}"

    @given(st.lists(finite3, min_size=10, max_size=10))
    def test_hamiltonian_spectrum_symmetry(self, entries):
        m = symplin.hamiltonian_matrix(sym4_from(entries))
        roots = eig4(m)
        assert match_eigensets(roots, -roots) < 1e-9
        assert match_eigensets(roots, np.conj(roots)) < 1e-9


class TestPencil:
    def test_focus_focus_pair(self):
        res = pencil_nondegenerate(symplin.HESS_J1, symplin.HESS_J2)
        assert res.nondegenerate
        assert abs(abs(res.alpha) - 1.0 / math.sqrt(2.0)) < 1e-2
        assert abs(abs(res.beta) - 1.0 / math.sqrt(2.0)) < 1e-2
        assert res.separation > 1.0

    def test_dependent_pair(self):
        s = symplin.family_hessian(1.0, 0.5, 0.0, 1.0)
        res = pencil_nondegenerate(s, s)
        assert not res.nondegenerate

    def test_always_degenerate_combinations(self):
        # every combination of K1 and K2 has doubled eigenvalues
        res = pencil_nondegenerate(symplin.HESS_K1, symplin.HESS_K2)
        assert not res.nondegenerate
