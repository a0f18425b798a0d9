"""Symbolic certificates: the quintic behind the per-J critical set, and
the normal-form cubic Q(z) behind torus counting."""

import pytest
import sympy as sp

from hopfdiag import models

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
