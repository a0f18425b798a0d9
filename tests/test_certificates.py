"""Symbolic certificates: the quintic behind the per-J critical set with
the closed-form cuts and fold values of its solve, the normal-form cubic
Q(z) behind torus counting, the closed forms of ``hopf`` for
H_nu = omega G1 + sigma (G2 + nu G3) + 2 D G3^2 (the curve, its cusps and
origin slopes, and the eigenvalues at the origin for each sign of nu),
``symplin``'s biquadratic (a, b) with its closed-form roots, and ``models``'
pole linearization (a, b)(gamma), h'' of the branches and the constraint
on the invariants (w1, w2).  Each of the last three also fails on a
planted wrong constant, so the check can see one: the code's floats are
read exactly, as the binary doubles they are."""

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


def test_discriminant_in_j():
    # p_J is quadratic in J; no critical point has 0 < z < 1/(4 gamma^2)
    disc = 256 * gamma ** 2 * z ** 3 * (z - 1) ** 2 * (z + 1) ** 2 \
        * (4 * gamma ** 2 * z - 1)
    assert sp.expand(sp.discriminant(P_J, big_j) - disc) == 0


def test_folds_are_the_roots_of_the_fold_cubic():
    # p_J and dp_J/dz share a root J only where the fold cubic vanishes
    # (or at z = 0, +-1): 16 gamma^2 z^3 - 3z^2 - 1 < 0 for z < 0
    res = 1024 * gamma ** 2 * z ** 3 * (z - 1) ** 2 * (z + 1) ** 2 \
        * (16 * gamma ** 2 * z ** 3 - 3 * z ** 2 - 1) ** 2
    assert sp.expand(sp.resultant(P_J, sp.diff(P_J, z), big_j) - res) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_pole_chart_coefficients(sigma, monkeypatch):
    # models._chart_terms on symbols, in the chart z = sigma (1 - x) with
    # r = sigma J - 1; d/dx = -sigma d/dz, and dR/dx = -sigma A / R
    monkeypatch.setattr(models, "math", types.SimpleNamespace(sqrt=sp.sqrt))
    r = sp.Symbol("r", real=True)
    a, da, rad = (_exact(v) for v in models._chart_terms(x, sigma, r))
    at = {z: sigma * (1 - x), big_j: sigma * (r + 1)}
    big_a = 3 * z ** 2 - 2 * big_j * z - 1
    assert sp.expand(a - big_a.subs(at)) == 0
    assert sp.expand(da + sigma * sp.diff(big_a, z).subs(at)) == 0
    assert sp.expand(rad ** 2 - R2.subs(at)) == 0
    assert sp.expand(sp.diff(rad ** 2, x) + 2 * sigma * a) == 0


def test_fold_cubic_in_the_chart():
    # models._fold_t: with z = 1/(1 + t) and e = 16 gamma^2 - 4 the fold
    # cubic is -(t^3 + 3t^2 + 6t - e)/(1 + t)^3, and y = 1 + t solves
    # y^3 + 3y = 16 gamma^2, which 2 sinh(theta) does for
    # 2 sinh(3 theta) = 16 gamma^2
    t, theta = sp.symbols("t theta", real=True)
    e = 16 * gamma ** 2 - 4
    cubic = 16 * gamma ** 2 * z ** 3 - 3 * z ** 2 - 1
    assert sp.simplify(cubic.subs(z, 1 / (1 + t))
                       + (t ** 3 + 3 * t ** 2 + 6 * t - e) / (1 + t) ** 3) == 0
    y = 2 * sp.sinh(theta)
    assert sp.simplify(y ** 3 + 3 * y - 2 * sp.sinh(3 * theta)) == 0


def test_fold_offsets_solve_the_quadratic_in_j():
    # models.fold_offsets: at the fold z = 1/(1 + t), where
    # 16 gamma^2 = (1 + t)^3 + 3 (1 + t), p_J at J = 1 + r is
    # (4 (t + 1)^2 r^2 - 2 b r - c)/(t + 1)^4, and -c/q, q/(4 (t + 1)^2)
    # with q = b + sqrt(b^2 + 4 (t + 1)^2 c) are its roots
    t = sp.Symbol("t", positive=True)
    r = sp.Symbol("r", real=True)
    b = t ** 2 * (t ** 3 + 5 * t ** 2 + 10 * t + 6)
    c = t ** 3 * (2 * t ** 2 + 7 * t + 8)
    quad = 4 * (t + 1) ** 2 * r ** 2 - 2 * b * r - c
    at = {z: 1 / (1 + t), big_j: 1 + r,
          gamma: sp.sqrt(((1 + t) ** 3 + 3 * (1 + t)) / 16)}
    assert sp.simplify(P_J.subs(at) * (1 + t) ** 4 - quad) == 0
    q = b + sp.sqrt(b ** 2 + 4 * (t + 1) ** 2 * c)
    for root in (-c / q, q / (4 * (t + 1) ** 2)):
        assert sp.simplify(quad.subs(r, root)) == 0


# The normal-form cubic Q(z) of ``hopf`` on its critical curve.
s, nu, omega, big_d = sp.symbols("s nu omega D", real=True)
qa, qb, qc, qd, p, q = sp.symbols("a b c d p q", real=True)
CUBIC = qa * z ** 3 + qb * z ** 2 + qc * z + qd
RAD = qb ** 2 - 3 * qa * qc     # Q' = 3a z^2 + 2b z + c: real roots iff >= 0


def _curve_q(sigma):
    j_c = s * (s ** 2 - nu) / (2 * big_d)
    h_c = (s ** 2 - nu) * (nu + 4 * s * omega + 3 * s ** 2) / (8 * big_d)
    return (-8 * sigma * big_d * z ** 3 - 4 * nu * z ** 2
            + 4 * sigma * (h_c - omega * j_c) * z - j_c ** 2)


def test_discriminant_formula():
    # Q' has discriminant 4 (b^2 - 3ac); for either sign of the square
    # root, hopf.torus_count's q = -(b +- sqrt(b^2 - 3ac)) gives both roots
    # of Q' as q / (3a) and c / q
    dq = sp.diff(CUBIC, z)
    assert sp.expand(sp.discriminant(dq, z) - 4 * RAD) == 0
    for sign in (1, -1):
        cq = -(qb + sign * sp.sqrt(RAD))
        for root in (cq / (3 * qa), qc / cq):
            assert sp.simplify(dq.subs(z, root)) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_q_has_the_double_root_on_the_curve(sigma):
    q_curve = _curve_q(sigma)
    assert sp.simplify(sp.discriminant(q_curve, z)) == 0
    d_s = sigma * (s ** 2 - nu) / (4 * big_d)
    r_s = -sigma * s ** 2 / (2 * big_d)
    factored = -8 * sigma * big_d * (z - d_s) ** 2 * (z - r_s)
    assert sp.simplify(q_curve - factored) == 0


def test_double_and_triple_root_formulas():
    # a (z - p)^2 (z - q) with p != q: b^2 - 3ac = a^2 (p - q)^2 > 0, and
    # the double root p, where Q = 0, is one of the critical points
    cubic = qa * (z - p) ** 2 * (z - q)
    subs = dict(zip((qa, qb, qc, qd), sp.Poly(cubic, z).all_coeffs()))
    assert sp.factor(RAD.subs(subs)) == qa ** 2 * (p - q) ** 2
    assert sp.expand(sp.diff(cubic, z)
                     - qa * (z - p) * (3 * z - p - 2 * q)) == 0
    # a (z - p)^3: b^2 - 3ac vanishes, so q = -b and both q / (3a) and
    # c / q are the root p
    cubic = qa * (z - p) ** 3
    subs = dict(zip((qa, qb, qc, qd), sp.Poly(cubic, z).all_coeffs()))
    assert sp.expand(RAD.subs(subs)) == 0
    assert sp.simplify((-qb / (3 * qa)).subs(subs) - p) == 0
    assert sp.simplify((qc / -qb).subs(subs) - p) == 0


# ``hopf`` evaluated on symbols: HopfParams refuses non-floats, so its
# functions get a duck-typed record with the same four fields.
z_pos = sp.Symbol("z", positive=True)
p_z = sp.Symbol("p_z", real=True)


def _symbolic_params(sigma):
    return types.SimpleNamespace(omega=omega, sigma=sigma, nu=nu, D=big_d)


def _exact(expr, meant=()):
    """``expr`` with each float of the code read as the exact rational
    value of its binary double (2.0 as 2, 2.000000002 as itself), so that
    simplification is exact; a float that is the nearest double to a
    rational of ``meant`` reads as that rational instead, where the code
    means it (1/3 in ``nu / 3.0``, which sympy makes a product)."""
    expr = sp.sympify(expr)
    nearest = {float(r): r for r in meant}
    expr = expr.xreplace({f: nearest[float(f)] for f in expr.atoms(sp.Float)
                          if float(f) in nearest})
    return sp.nsimplify(expr, rational=True, rational_conversion="exact")


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
    coords = list(point)
    g1, g2, g3 = symplin.j1(coords), symplin.k2(coords), symplin.k1(coords)
    normal_form = (omega_t * g1 + sign_delta * (g2 + nu_t * g3)
                   + 2 * big_d_t * g3 ** 2)
    assert sp.simplify(_exact(htilde - normal_form)) == 0


# ``symplin`` on symbols: QuarticCoeffs refuses them by the number rule, so
# the shipped functions build a stand-in record with the same two fields.
w_t, al_t, ga, de, lam = sp.symbols("omega_t alpha_t gamma delta lambda",
                                    real=True)


def _symbolic_quartic(monkeypatch):
    monkeypatch.setattr(symplin, "QuarticCoeffs", types.SimpleNamespace)
    return symplin.quartic_coeffs(w_t, al_t, ga, de)


def test_quartic_coeffs_are_the_characteristic_polynomial(monkeypatch):
    # (a, b) of symplin.quartic_coeffs: det(lambda I - B S) for S the
    # family_hessian on symbols is lambda^4 + b lambda^2 + a, and
    # b^2/4 - a = 4 omega_t^2 (gamma delta - alpha_t^2)
    q = _symbolic_quartic(monkeypatch)
    a, b = _exact(q.a), _exact(q.b)
    hess = sp.Matrix(symplin.family_hessian(w_t, al_t, ga, de))
    bs = _exact(sp.Matrix(symplin.SYMPLECTIC_MATRIX) * hess)
    char = (lam * sp.eye(4) - bs).det()
    assert sp.expand(char - (lam ** 4 + b * lam ** 2 + a)) == 0
    assert sp.expand(b ** 2 / 4 - a - 4 * w_t ** 2 * (ga * de - al_t ** 2)) == 0


def test_eigen_closed_gives_the_four_roots(monkeypatch):
    # symplin.eigen_closed of the symbolic (a, b), its complex square roots
    # sympy's, its array the list of roots and its overflow check passed:
    # the product of (lambda - root) is lambda^4 + b lambda^2 + a
    q = _symbolic_quartic(monkeypatch)
    monkeypatch.setattr(symplin, "cmath", types.SimpleNamespace(
        sqrt=sp.sqrt, isfinite=lambda v: True))
    monkeypatch.setattr(symplin, "complex", lambda v: v, raising=False)
    monkeypatch.setattr(symplin, "np", types.SimpleNamespace(
        array=lambda values, dtype: values))
    roots = symplin.eigen_closed(q)
    assert len(roots) == 4
    product = sp.prod([lam - _exact(r) for r in roots])
    assert sp.expand(product - (lam ** 4 + _exact(q.b) * lam ** 2
                                + _exact(q.a))) == 0


# ``hopf``'s closed forms at the origin and the cusps, read through
# symbolic stand-ins for ``math.sqrt``, ``complex`` and ``np.array``.
nu_pos, m_pos = sp.symbols("nu m", positive=True)


def _symbolic_hopf(monkeypatch):
    monkeypatch.setattr(hopf, "math", types.SimpleNamespace(
        sqrt=lambda v: sp.sqrt(_exact(v, meant=[sp.Rational(1, 3)]))))
    monkeypatch.setattr(hopf, "complex", lambda re, im: re + sp.I * im,
                        raising=False)
    monkeypatch.setattr(hopf, "np", types.SimpleNamespace(
        array=lambda values: values))


@pytest.mark.parametrize("sigma", [-1, 1])
def test_cusps_are_the_zeros_of_dj_ds(sigma, monkeypatch):
    # hopf.cusps at nu > 0: exactly the zeros of dJ_c/ds, in order
    _symbolic_hopf(monkeypatch)
    params = types.SimpleNamespace(omega=omega, sigma=sigma, nu=nu_pos,
                                   D=big_d)
    cusps = [_exact(c) for c in hopf.cusps(params)]
    dj = sp.diff(_exact(hopf.curve_j(params, s)), s)
    zeros = sp.solve(dj, s)
    assert len(cusps) == 2 and len(zeros) == 2
    assert all(sp.simplify(c - w) == 0 for c, w in zip(cusps, sorted(
        zeros, key=lambda v: v.subs(nu_pos, 1))))
    assert sp.simplify(cusps[0] + cusps[1]) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
def test_origin_slopes_are_the_limits_of_h_over_j(sigma, monkeypatch):
    # hopf.origin_slopes: H_c/J_c as s -> sigma sqrt(nu), then as
    # s -> -sigma sqrt(nu), along the elliptic segments into (0, 0)
    _symbolic_hopf(monkeypatch)
    params = types.SimpleNamespace(omega=omega, sigma=sigma, nu=nu_pos,
                                   D=big_d)
    ratio = _exact(hopf.curve_h(params, s)) / _exact(hopf.curve_j(params, s))
    slopes = [_exact(v) for v in hopf.origin_slopes(params)]
    for slope, end in zip(slopes, (sigma, -sigma)):
        side = "-" if end > 0 else "+"      # from inside the segment
        limit = sp.limit(ratio, s, end * sp.sqrt(nu_pos), side)
        assert sp.simplify(limit - slope) == 0


@pytest.mark.parametrize("sigma", [-1, 1])
@pytest.mark.parametrize("nu_value", [-m_pos, 0, m_pos],
                         ids=["nu<0", "nu=0", "nu>0"])
def test_equilibrium_eigenvalues_are_the_characteristic_roots(
        sigma, nu_value, monkeypatch):
    # hopf.equilibrium_eigenvalues: the product of (lambda - root) is
    # det(lambda I - B S), S the Hessian of omega G1 + sigma (G2 + nu G3)
    # built here from symplin's invariants
    point = sp.symbols("x y xi eta", real=True)
    coords = list(point)
    quadratic = omega * symplin.j1(coords) + sigma * (
        symplin.k2(coords) + nu_value * symplin.k1(coords))
    bs = sp.Matrix(symplin.SYMPLECTIC_MATRIX.astype(int)) \
        * sp.hessian(_exact(quadratic), point)
    char = sp.expand((lam * sp.eye(4) - bs).det())
    _symbolic_hopf(monkeypatch)
    params = types.SimpleNamespace(omega=omega, sigma=sigma, nu=nu_value,
                                   D=big_d)
    roots = hopf.equilibrium_eigenvalues(params)
    assert len(roots) == 4
    assert sp.expand(sp.prod([lam - _exact(r) for r in roots]) - char) == 0


# ``models``' spin-oscillator closed forms on symbols: PolyG refuses a
# symbol by the number rule, so the shipped functions get a stand-in
# G(z) = gamma z^2 with PolyG's own value and deriv, and the Poisson layer
# builds its arrays as object arrays.
sx, sy, sz, su, sv = sp.symbols("x y z u v", real=True)


def _symbolic_g():
    g = types.SimpleNamespace(gamma=gamma)
    g.value = lambda zz: models.PolyG.value(g, zz)
    g.deriv = lambda zz: models.PolyG.deriv(g, zz)
    return g


def _pole_jacobian(monkeypatch):
    """The 4 x 4 Jacobian on (x, y, u, v) of poisson_tensor @ jc_grad_Htilde
    at the north pole, on symbols; z stays 1 since dz = 0 on the sphere
    there."""
    monkeypatch.setattr(models, "np", types.SimpleNamespace(
        zeros=lambda shape: np.zeros(shape, dtype=object), shape=np.shape,
        stack=np.stack))
    state = (sx, sy, sz, su, sv)
    field = sp.Matrix(models.poisson_tensor(state)) \
        * sp.Matrix(models.jc_grad_Htilde(state, _symbolic_g()))
    axes = [sx, sy, su, sv]
    pole = {sx: 0, sy: 0, sz: 1, su: 0, sv: 0}
    rows = field.extract([0, 1, 3, 4], [0])
    return _exact(rows.jacobian(axes).subs(pole))


def _linearization(monkeypatch, linearization):
    """(a, b) of ``linearization`` on the symbolic G, its region left out:
    ``symplin.classify`` compares numbers."""
    monkeypatch.setattr(symplin, "QuarticCoeffs", types.SimpleNamespace)
    monkeypatch.setattr(symplin, "classify", lambda q: None)
    q, _ = linearization(_symbolic_g())
    return _exact(q.a), _exact(q.b)


def _b_off(linearization):
    """``linearization`` with b's constant 1/2 planted as 0.501."""
    def planted(g):
        q, typ = linearization(g)
        return types.SimpleNamespace(a=q.a, b=q.b + 0.5 - 0.501), typ
    return planted


@pytest.mark.parametrize("planted", [False, True], ids=["shipped", "planted"])
def test_jc_linearization_is_the_pole_characteristic_polynomial(
        monkeypatch, planted):
    # models.jc_linearization's (a, b) = (1/16, (2 G'(1)^2 - 1)/2) are the
    # coefficients of det(lambda I - M), M the pole Jacobian of H~'s field
    linearization = models.jc_linearization
    if planted:
        linearization = _b_off(linearization)
    a, b = _linearization(monkeypatch, linearization)
    char = sp.expand((lam * sp.eye(4) - _pole_jacobian(monkeypatch)).det())
    holds = sp.expand(char - (lam ** 4 + b * lam ** 2 + a)) == 0
    assert holds is not planted
    if not planted:
        assert a == sp.Rational(1, 16)
        assert sp.expand(b - (8 * gamma ** 2 - 1) / 2) == 0


def test_jc_linearization_at_the_hopf_parameter(monkeypatch):
    # gamma = 1/2 puts (a, b) on the parabola b^2 = 4a with b > 0, the
    # boundary between focus-focus (b^2 < 4a, 0 < |gamma| < 1/2) and
    # elliptic-elliptic (b^2 > 4a, b > 0, |gamma| > 1/2)
    a, b = _linearization(monkeypatch, models.jc_linearization)
    half = {gamma: sp.Rational(1, 2)}
    assert sp.simplify((b ** 2 - 4 * a).subs(half)) == 0
    assert b.subs(half) > 0
    assert sp.factor(b ** 2 - 4 * a) == 4 * gamma ** 2 * (2 * gamma - 1) \
        * (2 * gamma + 1)
    a_off, b_off = _linearization(monkeypatch,
                                  _b_off(models.jc_linearization))
    assert sp.simplify((b_off ** 2 - 4 * a_off).subs(half)) != 0


def _branch_residual(monkeypatch, second_deriv, branch):
    """d^2/dz^2 of models.branch_value minus ``second_deriv``, on symbols,
    with sympy's sqrt for numpy's."""
    monkeypatch.setattr(models, "np", types.SimpleNamespace(sqrt=sp.sqrt))
    g = _symbolic_g()
    value = _exact(models.branch_value(z, big_j, g, branch))
    return sp.simplify(sp.diff(value, z, 2)
                       - _exact(second_deriv(z, big_j, g, branch)))


@pytest.mark.parametrize("branch", list(models.Branch))
def test_branch_second_deriv_is_the_second_derivative(monkeypatch, branch):
    assert _branch_residual(monkeypatch, models.branch_second_deriv,
                            branch) == 0
    # a planted constant: h'' with 2 gamma as 2.001 gamma
    shipped = models.branch_second_deriv
    assert _branch_residual(
        monkeypatch, lambda *a: shipped(*a) + 1e-3 * gamma, branch) != 0


@pytest.mark.parametrize("planted", [None, 2.002, 2.000000002,
                                     np.nextafter(2.0, 3.0)],
                         ids=["shipped", "planted", "planted_2e-9",
                              "planted_1ulp"])
def test_reduced_radius_sq_is_the_invariant_constraint(planted):
    # w1 = x u + y v, w2 = x v - y u and J = (u^2 + v^2)/2 + z give
    # w1^2 + w2^2 - 2 (J - z)(1 - z^2) = (u^2 + v^2)(x^2 + y^2 + z^2 - 1),
    # zero on the sphere; the constant 2 planted as 2.002, 2.000000002 or
    # the next double above 2 fails, each read exactly
    radius_sq = models.reduced_radius_sq
    if planted:
        radius_sq = lambda j, zz: planted * (j - zz) * (1.0 - zz * zz)  # noqa: E731
    w1, w2 = sx * su + sy * sv, sx * sv - sy * su
    j = (su ** 2 + sv ** 2) / 2 + sz
    residual = w1 ** 2 + w2 ** 2 - _exact(radius_sq(j, sz))
    sphere = (su ** 2 + sv ** 2) * (sx ** 2 + sy ** 2 + sz ** 2 - 1)
    assert (sp.expand(residual - sphere) == 0) is (planted is None)
