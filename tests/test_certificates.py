"""Symbolic certificates for the quintic behind the per-J critical set."""

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
