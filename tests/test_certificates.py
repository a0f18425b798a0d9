"""Symbolic certificates: the quintic behind the per-J critical set, the
normal-form cubic Q(z) behind torus counting, and the closed forms of
``hopf`` for H_nu = omega G1 + sigma (G2 + nu G3) + 2 D G3^2."""

import types

import numpy as np
import pytest
import sympy as sp

from hopfdiag import hopf, models, symplin

z, big_j, x, gamma = sp.symbols("z J x gamma", real=True)
R2 = 2 * (big_j - z) * (1 - z ** 2)
P_J = (3 * z ** 2 - 2 * big_j * z - 1) ** 2 \
    - 32 * gamma ** 2 * z ** 2 * (1 - z ** 2) * (big_j - z)


def test_quintic_is_the_product_of_the_branch_derivatives():
    # p_J = -4 R^2 h_+' h_-', so its real roots are the critical points
    rad = sp.sqrt(R2)
    h_plus, h_minus = (sb * rad / 2 + gamma * z ** 2 for sb in (1, -1))
    product = -4 * R2 * sp.diff(h_plus, z) * sp.diff(h_minus, z)
    assert sp.simplify(product - P_J) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_pole_chart_coefficients(sigma):
    # sigma = -1: t = z + 1 with e = J + 1; sigma = +1: s = 1 - z with
    # d = J - 1.  The chart quintic is p_J at z = sigma (1 - x).
    coeffs = models._quintic(sigma * gamma ** 2, sigma * big_j - 1)
    chart = sp.nsimplify(sum(c * x ** (5 - i) for i, c in enumerate(coeffs)))
    assert sp.expand(chart - P_J.subs(z, sigma * (1 - x))) == 0


# The normal-form cubic Q(z) of ``hopf`` on its critical curve.
s, nu, omega, big_d = sp.symbols("s nu omega D", real=True)
qa, qb, qc, qd, p, q = sp.symbols("a b c d p q", real=True)
DISC = 18 * qa * qb * qc * qd - 4 * qb ** 3 * qd + qb ** 2 * qc ** 2 \
    - 4 * qa * qc ** 3 - 27 * qa ** 2 * qd ** 2
DOUBLE_ROOT = (9 * qa * qd - qb * qc) / (2 * (qb ** 2 - 3 * qa * qc))
SIMPLE_ROOT = (4 * qa * qb * qc - 9 * qa ** 2 * qd - qb ** 3) \
    / (qa * (qb ** 2 - 3 * qa * qc))


def _curve_q(sigma):
    j_c = s * (s ** 2 - nu) / (2 * big_d)
    h_c = (s ** 2 - nu) * (nu + 4 * s * omega + 3 * s ** 2) / (8 * big_d)
    return (-8 * sigma * big_d * z ** 3 - 4 * nu * z ** 2
            + 4 * sigma * (h_c - omega * j_c) * z - j_c ** 2)


def test_discriminant_formula():
    cubic = qa * z ** 3 + qb * z ** 2 + qc * z + qd
    assert sp.expand(sp.discriminant(cubic, z) - DISC) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_q_has_the_double_root_on_the_curve(sigma):
    q_curve = _curve_q(sigma)
    assert sp.simplify(sp.discriminant(q_curve, z)) == 0
    d_s = sigma * (s ** 2 - nu) / (4 * big_d)
    r_s = -sigma * s ** 2 / (2 * big_d)
    factored = -8 * sigma * big_d * (z - d_s) ** 2 * (z - r_s)
    assert sp.simplify(q_curve - factored) == 0
    # the rational root formulas of hopf.torus_count give d(s) and r(s)
    coeffs = dict(zip((qa, qb, qc, qd), sp.Poly(q_curve, z).all_coeffs()))
    assert sp.simplify(DOUBLE_ROOT.subs(coeffs) - d_s) == 0
    assert sp.simplify(SIMPLE_ROOT.subs(coeffs) - r_s) == 0


def test_double_and_triple_root_formulas():
    # a (z - p)^2 (z - q) with p != q, i.e. b^2 - 3ac = a^2 (p - q)^2 != 0
    coeffs = sp.Poly(qa * (z - p) ** 2 * (z - q), z).all_coeffs()
    subs = dict(zip((qa, qb, qc, qd), coeffs))
    assert sp.factor((qb ** 2 - 3 * qa * qc).subs(subs)) == \
        qa ** 2 * (p - q) ** 2
    assert sp.simplify(DOUBLE_ROOT.subs(subs) - p) == 0
    assert sp.simplify(SIMPLE_ROOT.subs(subs) - q) == 0
    assert sp.expand(DISC.subs(subs)) == 0
    # a (z - p)^3: b^2 - 3ac vanishes and -b / (3a) is the root
    coeffs = sp.Poly(qa * (z - p) ** 3, z).all_coeffs()
    subs = dict(zip((qa, qb, qc, qd), coeffs))
    assert sp.expand((qb ** 2 - 3 * qa * qc).subs(subs)) == 0
    assert sp.simplify((-qb / (3 * qa)).subs(subs) - p) == 0


# ``hopf`` evaluated on symbols: HopfParams refuses non-floats, so its
# functions get a duck-typed record with the same four fields.
z_pos = sp.Symbol("z", positive=True)
p_z = sp.Symbol("p_z", real=True)


def _symbolic_params(sigma):
    return types.SimpleNamespace(omega=omega, sigma=sigma, nu=nu, D=big_d)


def _exact(expr):
    """``expr`` with the float literals of the code (2.0, 4.0, ...) made
    rational, so that simplification is exact."""
    return sp.nsimplify(expr, rational=True)


def _on_curve(sigma):
    """The reduced Hamiltonian in (z, p_z) at J = J_c(s), and the point
    (d(s), 0) of the curve, all from ``hopf``'s own functions."""
    params = _symbolic_params(sigma)
    ham = hopf.reduced_hamiltonian(z_pos, p_z, hopf.curve_j(params, s),
                                   params)
    point = {z_pos: hopf.double_root(params, s), p_z: 0}
    return params, _exact(ham), point


@pytest.mark.parametrize("sigma", [-1, 1])
def test_curve_point_is_critical_with_value_h_c(sigma):
    params, ham, point = _on_curve(sigma)
    for var in (z_pos, p_z):
        assert sp.simplify(sp.diff(ham, var).subs(point)) == 0
    h_c = _exact(hopf.curve_h(params, s))
    assert sp.simplify(ham.subs(point) - h_c) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_hessian_determinant_on_the_curve(sigma):
    params, ham, point = _on_curve(sigma)
    det = sp.hessian(ham, (z_pos, p_z)).det().subs(point)
    assert sp.simplify(det - 2 * (3 * s ** 2 - nu)) == 0
    assert sp.simplify(det - _exact(hopf.hessian_det2(params, s))) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_tangent_law(sigma):
    params = _symbolic_params(sigma)
    dj, dh = (_exact(f) for f in hopf.curve_tangent(params, s))
    assert sp.simplify(dj - (3 * s ** 2 - nu) / (2 * big_d)) == 0
    assert sp.simplify(dh - dj * (s + omega)) == 0
    assert sp.simplify(sp.diff(_exact(hopf.curve_j(params, s)), s) - dj) == 0
    assert sp.simplify(sp.diff(_exact(hopf.curve_h(params, s)), s) - dh) == 0


@pytest.mark.parametrize("sign_delta, sign_alpha",
                         [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_transformation_t_is_symplectic_and_conjugates(sign_delta,
                                                       sign_alpha):
    # T of hopf.transformation_T with |delta| = d, |alpha_t| = a, so
    # sqrt|gamma_hat| = a / sqrt(d) and sgn(delta alpha_t) = the sign product
    d, a = sp.symbols("d a", positive=True)
    omega_t, big_d_t, nu_t = sp.symbols("omega_t D nu", real=True)
    delta, alpha_t = sign_delta * d, sign_alpha * a
    sd, sg, sign = sp.sqrt(d), a / sp.sqrt(d), sign_delta * sign_alpha
    t_mat = sp.Matrix([[sd, 0, 0, 0], [0, sd, 0, 0],
                       [-sg * sign, 0, 1 / sd, 0], [0, -sg * sign, 0, 1 / sd]])
    numeric = hopf.transformation_T(hopf.EliassonParams(
        1.0, sign_alpha * 0.9, sign_delta * 1.5))
    at = np.array(t_mat.subs({d: 1.5, a: 0.9}), dtype=float)
    assert np.allclose(at, numeric, rtol=1e-15, atol=0.0)
    b_mat = sp.Matrix(symplin.SYMPLECTIC_MATRIX.astype(int))
    assert sp.simplify(t_mat.T * b_mat * t_mat - b_mat) == sp.zeros(4, 4)

    # H~ o T = H_nu, with H~ evaluated by HtildeCoeffs.value itself
    coeffs = types.SimpleNamespace(
        omega_t=omega_t, alpha_t=alpha_t,
        gamma=alpha_t ** 2 / delta + nu_t / delta, delta=delta, D=big_d_t)
    point = sp.Matrix(sp.symbols("x y xi eta", real=True))
    htilde = hopf.HtildeCoeffs.value(coeffs, list(t_mat * point))
    g1, g2, g3 = hopf.gammas(list(point))
    normal_form = (omega_t * g1 + sign_delta * (g2 + nu_t * g3)
                   + 2 * big_d_t * g3 ** 2)
    assert sp.simplify(_exact(htilde - normal_form)) == 0
