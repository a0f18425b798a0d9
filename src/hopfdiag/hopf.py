"""Closed-form critical-value analytics of the Hamiltonian Hopf normal form.

The normal form lives on R^4 with coordinates (x, y, xi, eta) and the
standard quadratic invariants

    G1 = x*eta - y*xi,   G2 = (xi^2 + eta^2)/2,   G3 = (x^2 + y^2)/2,

which are ``symplin.j1``, ``symplin.k2`` and ``symplin.k1``.

With unfolding parameter nu, the family treated here is

    H_nu = omega*G1 + sigma*(G2 + nu*G3) + 2*D*G3^2,

omega != 0, sigma = +-1, D != 0.  Symplectic polar coordinates reduce the
circle symmetry generated by G1 = p_theta =: J and leave a
one-degree-of-freedom system in (z = G3 > 0, p_z):

    H = omega*J + sigma*(z*p_z^2 + J^2/(4z) + nu*z) + 2*D*z^2,

whose level set H = const is the cubic

    Q(z) = 4*z*sigma*(H - omega*J - sigma*nu*z - 2*D*z^2) - J^2
         = -8*sigma*D z^3 - 4*nu z^2 + 4*sigma*(H - omega*J) z - J^2
         = 4 z^2 p_z^2   on the energy surface.

Double roots of Q on z >= 0 trace the critical values of (J, H); they admit
the rational parametrization

    J_c(s) = s (s^2 - nu) / (2D),
    H_c(s) = (s^2 - nu)(nu + 4 s omega + 3 s^2) / (8D),
    d(s)   = sigma (s^2 - nu) / (4D)       (the double root),

with tangent (dJ/ds, dH/ds) = (3 s^2 - nu)/(2D) * (1, s + omega), cusps at
s = +-sqrt(nu/3), equilibrium endpoints s = +-sqrt(nu) mapping to (0, 0),
and the reduced Hessian determinant 2*(3 s^2 - nu) along the curve.  On
the curve Q = -8 sigma D (z - d(s))^2 (z - r(s)) with r(s) = -sigma s^2/(2D).
``torus_count`` counts the components of {z > 0 : Q >= 0} by one rule: Q
is monotone between its critical points, so the components are the runs
of values >= 0 among Q(0+), Q at the critical points in (0, inf) and
Q(+inf); a value within DISC_TOL of the sum of its terms' moduli is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import symplin

# Implementation constants (grids, steps, residual tolerances).
TANGENT_FD_STEP = 1e-5
STRATUM_TOL = 1e-12           # cusp / endpoint recognition, relative to nu
NORMAL_MIN = float(np.finfo(float).tiny)   # smallest normal float
DISC_TOL = 1e-12              # |Q| <= tol * sum|terms of Q|: Q = 0 (torus_count)


@dataclass(frozen=True)
class HopfParams:
    """Parameters (omega, sigma, nu, D) of H_nu, the unfolded normal form."""

    omega: float
    sigma: int
    nu: float
    D: float

    def __post_init__(self):
        symplin.finite_fields(self, "omega", "sigma", "nu", "D")
        if self.sigma not in (-1.0, 1.0):
            raise ValueError("sigma must be -1 or +1")
        object.__setattr__(self, "sigma", int(self.sigma))
        if self.omega == 0.0:
            raise ValueError("omega must be nonzero")
        if self.D == 0.0:
            raise ValueError("D must be nonzero")


class SegmentKind(Enum):
    TRANSVERSALLY_ELLIPTIC = "E"
    TRANSVERSALLY_HYPERBOLIC = "H"
    CUSP = "CUSP"
    EQUILIBRIUM_ENDPOINT = "END"


class Regime(Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CurveSample:
    """One point of the parametrized critical-value curve."""

    s: float
    J: float
    H: float
    d: float        # double root of Q at (J, H)
    det2: float     # reduced Hessian determinant 2*(3 s^2 - nu) on the curve
    kind: SegmentKind

    def __post_init__(self):
        symplin.finite_fields(self, "s", "J", "H", "d", "det2")


@dataclass(frozen=True)
class EliassonParams:
    """Quadratic-part parameters at a focus-focus point, on the Hopf boundary.

    The constructor takes (omega_t, alpha_t, delta) and sets
    gamma_hat = alpha_t^2 / delta, so alpha_t^2 = gamma_hat * delta holds
    exactly as constructed; sigma = sign(delta).
    """

    omega_t: float
    alpha_t: float
    delta: float

    def __post_init__(self):
        symplin.finite_fields(self, "omega_t", "alpha_t", "delta")
        if self.omega_t == 0.0 or self.alpha_t == 0.0 or self.delta == 0.0:
            raise ValueError("omega_t, alpha_t, delta must all be nonzero")
        if not symplin.finite_float(self.gamma_hat, "EliassonParams", "gamma_hat"):
            raise ValueError("gamma_hat = alpha_t^2 / delta must be nonzero")

    @property
    def gamma_hat(self) -> float:
        return self.alpha_t * self.alpha_t / self.delta

    @property
    def sigma(self) -> int:
        return 1 if self.delta > 0 else -1


def reduced_hamiltonian(z, p_z, j, params: HopfParams):
    """Value of the reduced one-degree-of-freedom Hamiltonian at (z, p_z; J).

    omega*J + sigma*(z*p_z^2 + J^2/(4z) + nu*z) + 2*D*z^2; z must be
    positive (the J^2/(4z) term makes z = 0 with J != 0 singular, and
    z = G3 >= 0 anyway).  The arguments broadcast; one z <= 0 anywhere
    is refused.
    """
    if np.any(np.asarray(z) <= 0.0):
        raise ValueError("reduced chart requires z > 0")
    pr = params
    return (pr.omega * j
            + pr.sigma * (z * p_z * p_z + j * j / (4.0 * z) + pr.nu * z)
            + 2.0 * pr.D * z * z)


def q_coeffs(j, h, params: HopfParams) -> tuple:
    """Ascending coefficients of the cubic
    Q(z) = -8 sigma D z^3 - 4 nu z^2 + 4 sigma (h - omega j) z - j^2;
    ``j`` and ``h`` may be arrays."""
    return (-j * j, 4.0 * params.sigma * (h - params.omega * j),
            -4.0 * params.nu, -8.0 * params.sigma * params.D)


def curve_j(params: HopfParams, s: float) -> float:
    return s * (s * s - params.nu) / (2.0 * params.D)


def curve_h(params: HopfParams, s: float) -> float:
    # cleared form of J_c * (nu + 4 s omega + 3 s^2) / (4 s): total in s
    return ((s * s - params.nu)
            * (params.nu + 4.0 * s * params.omega + 3.0 * s * s)
            / (8.0 * params.D))


def double_root(params: HopfParams, s: float) -> float:
    return params.sigma * (s * s - params.nu) / (4.0 * params.D)


def hessian_det2(params: HopfParams, s: float) -> float:
    """Reduced-Hamiltonian Hessian determinant along the curve: 2(3 s^2 - nu)."""
    return 2.0 * (3.0 * s * s - params.nu)


def critical_curve_point(params: HopfParams, s: float) -> CurveSample:
    """Sample of the critical-value curve at parameter s (total in s); on
    the equilibrium stratum J, H and d are the exact 0, set once the full
    sample is built, so an overflow there is still CurveSample's error.
    It lies in the image z >= 0 iff d >= 0."""
    sample = CurveSample(s, curve_j(params, s), curve_h(params, s),
                         double_root(params, s), hessian_det2(params, s),
                         segment_kind(params, s))
    if sample.kind is SegmentKind.EQUILIBRIUM_ENDPOINT:
        return replace(sample, J=0.0, H=0.0, d=0.0)
    return sample


def curve_tangent(params: HopfParams, s: float) -> tuple[float, float]:
    """(dJ/ds, dH/ds) = (3 s^2 - nu)/(2D) * (1, s + omega)."""
    factor = (3.0 * s * s - params.nu) / (2.0 * params.D)
    return factor, factor * (s + params.omega)


def cusps(params: HopfParams) -> list[float]:
    """Cusp parameters +-sqrt(nu/3); empty for nu <= 0."""
    if params.nu <= 0.0:
        return []
    s = math.sqrt(params.nu / 3.0)
    return [-s, s]


def _stratum_tol(nu: float) -> float:
    """STRATUM_TOL relative to nu, which keeps no relative precision below
    the smallest normal float."""
    return STRATUM_TOL * max(nu, NORMAL_MIN)


def _on_end_stratum(nu: float, s: float) -> bool:
    """s^2 = nu up to rounding: the equilibrium endpoints s = +-sqrt(nu),
    where fl(sqrt(nu))^2 - nu is a rounding-level residue of either sign."""
    return nu >= 0.0 and abs(s * s - nu) <= _stratum_tol(nu)


def segment_kind(params: HopfParams, s: float) -> SegmentKind:
    """Williamson type of the curve point at parameter s.

    Endpoint and cusp strata are matched with a tolerance of STRATUM_TOL
    relative to nu (fl(sqrt(nu/3)) does not square back to nu/3 exactly), so
    they stay points at any small nu > 0; between them the sign of
    2(3 s^2 - nu) decides: negative hyperbolic, positive elliptic.
    """
    nu = params.nu
    if _on_end_stratum(nu, s):
        return SegmentKind.EQUILIBRIUM_ENDPOINT
    det2 = hessian_det2(params, s)
    if nu > 0.0 and s * s < nu and abs(det2) <= 2.0 * _stratum_tol(nu):
        return SegmentKind.CUSP
    if det2 < 0.0:
        return SegmentKind.TRANSVERSALLY_HYPERBOLIC
    return SegmentKind.TRANSVERSALLY_ELLIPTIC


def regime(params: HopfParams) -> Regime:
    """Subcritical iff sigma * D < 0 (the case with the attached loop)."""
    return Regime.SUBCRITICAL if params.sigma * params.D < 0 else Regime.SUPERCRITICAL


def origin_slopes(params: HopfParams) -> tuple[float, float]:
    """Slopes omega +- sigma*sqrt(nu) of the two elliptic curves at (0, 0)."""
    if params.nu <= 0.0:
        raise ValueError("origin slopes require nu > 0")
    root = math.sqrt(params.nu)
    return (params.omega + params.sigma * root,
            params.omega - params.sigma * root)


def equilibrium_eigenvalues(params: HopfParams) -> np.ndarray:
    """Eigenvalues of the linearization at the origin.

    nu < 0: focus-focus quadruplet +-sqrt(-nu) +- i*omega;
    nu > 0: pure imaginary +-i*(sqrt(nu) +- omega);
    nu = 0: +-i*omega doubled (non-semisimple collision).
    """
    nu, w = params.nu, params.omega
    if nu < 0.0:
        re = math.sqrt(-nu)
        return np.array([complex(re, w), complex(re, -w),
                         complex(-re, w), complex(-re, -w)])
    r = math.sqrt(nu)
    return np.array([1j * (r + w), -1j * (r + w), 1j * (r - w), -1j * (r - w)])


def linearization_hessian(params: HopfParams) -> np.ndarray:
    """Hessian at the origin of the quadratic part omega*G1 + sigma*(G2 + nu*G3).

    In the (omega_t, alpha_t, gamma, delta) family of :mod:`symplin` this is
    the tuple (omega, 0, sigma*nu, sigma).
    """
    return symplin.family_hessian(params.omega, 0.0,
                                  params.sigma * params.nu, params.sigma)


def torus_count(params: HopfParams, j, h):
    """Connected components of {z > 0 : Q(z) >= 0} and an unboundedness flag.

    Components are maximal intervals; an isolated double root with Q < 0 on
    both sides counts as a (degenerate) component, except at z = 0 for j = 0,
    which is excluded.  ``has_unbounded`` flags a component reaching +inf;
    only bounded components correspond to tori of a proper completion.
    ``j`` and ``h`` broadcast; scalars give numpy scalars.

    No roots are found: Q is monotone between its critical points, the
    roots of 3a z^2 + 2b z + c, so the count is the number of maximal runs
    of values >= 0 in the sequence Q(0+), Q at each critical point in
    (0, inf) in order, Q(+inf).  Q(0+) has the sign of the lowest nonzero
    coefficient, Q(+inf) that of a; a critical value within DISC_TOL of
    |a z^3| + |b z^2| + |c z| + |d| counts as 0.  So on the curve next to
    a cusp (within about 1e-5 in s at nu = 0.5, D = -2), where Q dips
    below 0 between its double and simple root by less than that, the
    count is the cusp's.
    """
    j, h = np.asarray(j, dtype=float), np.asarray(h, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        coeffs = np.stack(np.broadcast_arrays(
            *reversed(q_coeffs(j, h, params))))
    if not np.isfinite(coeffs).all():
        raise ValueError("Q has non-finite coefficients")
    a, b, c, d = coeffs / np.abs(coeffs).max(axis=0)
    low = np.select([d != 0.0, c != 0.0, b != 0.0], [d, c, b], a)
    rad = b * b - 3.0 * a * c     # Q' has real roots iff rad >= 0
    q = -(b + np.copysign(np.sqrt(np.maximum(rad, 0.0)), b))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        crit = np.sort([q / (3.0 * a), c / q], axis=0)
    steps = [(True, low > 0.0)]
    for z in crit:
        here = (rad >= 0.0) & (z > 0.0) & np.isfinite(z)
        z = np.where(here, z, 1.0)
        t = np.minimum(z, 1.0)    # terms over max(1, z)^3: no overflow
        u = t / z
        terms = np.stack([a * t ** 3, b * t * t * u, c * t * u * u,
                          d * u ** 3])
        steps.append((here, terms.sum(axis=0)
                      >= -DISC_TOL * np.abs(terms).sum(axis=0)))
    runs, prev = np.zeros(a.shape, dtype=int), np.zeros(a.shape, dtype=bool)
    for here, nonneg in steps + [(True, a > 0.0)]:
        runs += here & nonneg & ~prev
        prev = np.where(here, nonneg, prev)
    return runs[()], (a > 0.0)[()]


def transformation_T(e: EliassonParams) -> np.ndarray:
    """The linear symplectic change mapping normal-form invariants onto the family.

    T = [[ sqrt|delta|, 0, 0, 0], [0, sqrt|delta|, 0, 0],
         [-sqrt|gamma_hat| sgn(delta*alpha_t), 0, 1/sqrt|delta|, 0],
         [0, -sqrt|gamma_hat| sgn(delta*alpha_t), 0, 1/sqrt|delta|]]

    satisfies T^T B T = B and conjugates the invariants:
    G1 = J1 o T,  G2 = sigma*(alpha_t*J2 + gamma_hat*K1 + delta*K2) o T,
    G3 = sigma*(K1/delta) o T.
    """
    sd = math.sqrt(abs(e.delta))
    sg = math.sqrt(abs(e.gamma_hat))
    sign = math.copysign(1.0, e.delta * e.alpha_t)
    return np.array([
        [sd, 0.0, 0.0, 0.0],
        [0.0, sd, 0.0, 0.0],
        [-sg * sign, 0.0, 1.0 / sd, 0.0],
        [0.0, -sg * sign, 0.0, 1.0 / sd],
    ])


@dataclass(frozen=True)
class HtildeCoeffs:
    """Coefficient record of the deforming Hamiltonian

    H~ = omega_t*J1 + alpha_t*J2 + gamma*K1 + delta*K2 + (2*D/delta^2)*K1^2,

    with gamma = gamma_hat + nu/delta.  The quartic term is the image of
    2*D*G3^2 under the conjugation identities of :func:`transformation_T`
    (G3 = sigma*K1/delta composed with T), which is what makes
    H~ o T = H_nu hold pointwise.
    """

    omega_t: float
    alpha_t: float
    gamma: float
    delta: float
    D: float

    def __post_init__(self):
        symplin.finite_fields(self, "omega_t", "alpha_t", "gamma", "delta", "D")
        delta2 = self.delta * self.delta
        if not symplin.finite_float(delta2, "HtildeCoeffs", "delta^2"):
            raise ValueError("delta^2 must be nonzero")

    def value(self, point) -> float:
        k1 = symplin.k1(point)
        return (self.omega_t * symplin.j1(point)
                + self.alpha_t * symplin.j2(point)
                + self.gamma * k1
                + self.delta * symplin.k2(point)
                + 2.0 * self.D * k1 * k1 / (self.delta * self.delta))

    def quartic_coeffs(self) -> symplin.QuarticCoeffs:
        return symplin.quartic_coeffs(self.omega_t, self.alpha_t,
                                      self.gamma, self.delta)


def build_htilde(e: EliassonParams, nu: float, D: float) -> HtildeCoeffs:
    """Deformed Hamiltonian whose quadratic part crosses the Hopf boundary at nu=0.

    At nu = 0 the quadratic part sits exactly on a = b^2/4, b > 0; small
    nu > 0 lands elliptic-elliptic, small nu < 0 focus-focus.  The full
    function satisfies H~(T p) = (omega_t*G1 + sigma*(G2 + nu*G3)
    + 2*D*G3^2)(p) for T = transformation_T(e), regression-tested pointwise
    and proved with sympy for every sign of delta and alpha_t.
    """
    return HtildeCoeffs(
        omega_t=e.omega_t,
        alpha_t=e.alpha_t,
        gamma=e.gamma_hat + nu / e.delta,
        delta=e.delta,
        D=D,
    )
