"""The deformed coupled spin-oscillator (Jaynes-Cummings family) on S^2 x R^2.

Phase space: the unit sphere (x, y, z) times the plane (u, v), with Poisson
structure

    {x, y} = -z,  {y, z} = -x,  {z, x} = -y,  {u, v} = 1,

mixed brackets zero.  The sphere sign is pinned by a regression test: it is
the convention under which the north-pole linearization of

    J = (u^2 + v^2)/2 + z,      H~ = (x u + y v)/2 + G(z)

has characteristic polynomial lambda^4 + b lambda^2 + 1/16 with
b = (2 G'(1)^2 - 1)/2; the opposite orientation gives b + 1 instead.

Reduction by the circle action of J uses the invariants z, w1 = x u + y v,
w2 = x v - y u, constrained by w1^2 + w2^2 = 2 (J - z)(1 - z^2) on
z in [-1, min(J, 1)].  H~ = w1/2 + G(z) is independent of w2, so interior
critical points sit on the branches w1 = +-R(z), w2 = 0, i.e. at interior
critical points of

    h_pm(z) = +- sqrt(2 (J - z)(1 - z^2)) / 2 + G(z).

With R(z) = sqrt(2 (J - z)(1 - z^2)) and G(z) = gamma z^2, h_pm'(z) = 0 reads
sb (3z^2 - 2Jz - 1) = -4 gamma z R (sb = +-1), and squaring it gives the quintic

    p_J(z) = (3z^2 - 2Jz - 1)^2 - 32 gamma^2 z^2 (1 - z^2)(J - z)
           = -4 R^2 h_+' h_-',

so the critical z are its real roots in (-1, min(J, 1)), on the branch
sb = -sign(gamma z (3z^2 - 2Jz - 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import oracle, symplin
from .jets import Jet2
from .spectrum import SpectrumCloud

SPHERE_TOL = 1e-12
CUSP_TOL = 1e-8          # |h''| below this classifies as a degenerate cusp
RANK_TOL = 1e-8          # relative second singular value in the rank test
BRACKET_FD_STEP = 1e-6   # fallback finite-difference step in poisson_bracket
NEWTON_STEPS = 100       # cap on bracketed Newton/bisection steps per point
J_LIMIT = 1e100          # |J| below this keeps every chart coefficient finite
GAMMA_LIMIT = 1e6        # from |gamma| ~ 1e7 critical points sit closer to the
                         # far end of the domain than a float can resolve


@dataclass(frozen=True)
class JCState:
    """A point of S^2 x R^2; the constructor rejects off-sphere input."""

    x: float
    y: float
    z: float
    u: float
    v: float

    def __post_init__(self):
        r2 = self.x ** 2 + self.y ** 2 + self.z ** 2
        if abs(r2 - 1.0) > SPHERE_TOL:
            raise ValueError(f"(x, y, z) lies off the unit sphere: |r|^2 = {r2}")

    @classmethod
    def normalized(cls, x, y, z, u, v) -> "JCState":
        """Rescale the sphere part onto the unit sphere, then construct."""
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / r, y / r, z / r, u, v)

    def __iter__(self):
        return iter((self.x, self.y, self.z, self.u, self.v))


@dataclass(frozen=True)
class PolyG:
    """Deformation family G(z) = gamma * z^2."""

    gamma: float

    def value(self, z: float) -> float:
        return self.gamma * z * z

    def deriv(self, z: float) -> float:
        return 2.0 * self.gamma * z

    @property
    def gprime1(self) -> float:
        return 2.0 * self.gamma


def jc_J(state) -> float:
    x, y, z, u, v = state
    return (u * u + v * v) / 2.0 + z


def jc_H(state) -> float:
    x, y, z, u, v = state
    return (x * u + y * v) / 2.0


def jc_Htilde(state, g: PolyG) -> float:
    x, y, z, u, v = state
    return (x * u + y * v) / 2.0 + g.value(z)


def jc_grad_J(state) -> np.ndarray:
    x, y, z, u, v = state
    return np.array([0.0, 0.0, 1.0, u, v])


def jc_grad_H(state) -> np.ndarray:
    x, y, z, u, v = state
    return np.array([u / 2.0, v / 2.0, 0.0, x / 2.0, y / 2.0])


def jc_grad_Htilde(state, g: PolyG) -> np.ndarray:
    x, y, z, u, v = state
    return np.array([u / 2.0, v / 2.0, g.deriv(z), x / 2.0, y / 2.0])


def poisson_tensor(state) -> np.ndarray:
    """Matrix Pi with {f, g} = grad(f)^T Pi grad(g), order (x, y, z, u, v)."""
    x, y, z, u, v = state
    return np.array([
        [0.0, -z, y, 0.0, 0.0],
        [z, 0.0, -x, 0.0, 0.0],
        [-y, x, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -1.0, 0.0],
    ])


def poisson_bracket(f, g, state, grad_f=None, grad_g=None,
                    step: float = BRACKET_FD_STEP) -> float:
    """{f, g} at ``state``; analytic gradients when supplied, else central FD."""
    w = np.array(list(state), dtype=float)
    gf = np.asarray(grad_f(state) if grad_f is not None
                    else oracle.fd_gradient(f, w, step=step), dtype=float)
    gg = np.asarray(grad_g(state) if grad_g is not None
                    else oracle.fd_gradient(g, w, step=step), dtype=float)
    return float(gf @ poisson_tensor(state) @ gg)


def hamiltonian_field(state, grad) -> np.ndarray:
    """Vector field X_f with df/dt of any g along it equal to {f, g}."""
    return poisson_tensor(state).T @ np.asarray(grad, dtype=float)


def jc_rank_test(state, g: PolyG) -> bool:
    """True iff X_J and X_H~ span fewer than two dimensions at ``state``."""
    xj = hamiltonian_field(state, jc_grad_J(state))
    xh = hamiltonian_field(state, jc_grad_Htilde(state, g))
    sv = np.linalg.svd(np.vstack([xj, xh]), compute_uv=False)
    if sv[0] <= 1e-12:
        return True
    return bool(sv[1] < RANK_TOL * sv[0])


# ---------------------------------------------------------------------------
# linearization at the north pole through an explicit canonical chart


def _sqrt(t):
    return t.sqrt() if isinstance(t, Jet2) else math.sqrt(t)


def canonical_chart(q, orientation: int = 1):
    """Map canonical (x_c, y_c, xi_c, eta_c) near 0 to (x, y, z, u, v).

    Works on floats and on Jet2 values.  The base point 0 is the north pole.
    orientation=+1 realizes the module's sphere bracket {x, y} = -z (cyclic);
    orientation=-1 the opposite one, kept for the sign regression test.
    """
    x_c, y_c, xi_c, eta_c = q
    r2 = x_c * x_c + xi_c * xi_c
    f = _sqrt(1.0 - 0.25 * r2)
    if orientation == 1:
        x = xi_c * f
        y = -1.0 * x_c * f
    elif orientation == -1:
        x = -1.0 * x_c * f
        y = xi_c * f
    else:
        raise ValueError("orientation must be +1 or -1")
    z = 1.0 - 0.5 * r2
    u = eta_c
    v = y_c
    return x, y, z, u, v


def _gprime1(g) -> float:
    if isinstance(g, PolyG):
        return g.gprime1
    return float(g)


def north_pole_hessians(g, orientation: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Canonical-coordinate Hessians (Hess J, Hess H~) at the north pole.

    Computed by second-order jet propagation through the chart: numeric, but
    exact to rounding.  ``g`` is a PolyG or a bare G'(1) value.
    """
    qs = Jet2.variables([0.0, 0.0, 0.0, 0.0])
    x, y, z, u, v = canonical_chart(qs, orientation)
    j_jet = (u * u + v * v) * 0.5 + z
    if isinstance(g, PolyG):
        g_jet = g.gamma * z * z
    else:
        g_jet = float(g) * (z - 1.0)   # only G'(1) reaches the quadratic part
    h_jet = (x * u + y * v) * 0.5 + g_jet
    return j_jet.symmetrized_hessian(), h_jet.symmetrized_hessian()


def jc_linearization_numeric(g, orientation: int = 1) -> symplin.QuarticCoeffs:
    """(a, b) of the numeric north-pole linearization (chart + jets)."""
    _, s_h = north_pole_hessians(g, orientation)
    p0, p1, p2, p3 = oracle.char_poly4(symplin.hamiltonian_matrix(s_h))
    if max(abs(p1), abs(p3)) > 1e-10 * max(1.0, abs(p0), abs(p2)):
        raise ArithmeticError("north-pole linearization is not biquadratic")
    return symplin.QuarticCoeffs(a=p0, b=p2)


def jc_linearization(g) -> tuple[symplin.QuarticCoeffs, symplin.EquilibriumType]:
    """Closed-form (a, b) = (1/16, (2 G'(1)^2 - 1)/2) and its region.

    For the family G(z) = gamma z^2 this is b = 4 gamma^2 - 1/2: focus-focus
    for 0 < gamma < 1/2, the degenerate parabola point at gamma = 1/2,
    elliptic-elliptic beyond.
    """
    t = _gprime1(g)
    q = symplin.QuarticCoeffs(a=1.0 / 16.0, b=(2.0 * t * t - 1.0) / 2.0)
    return q, symplin.classify(q)


# ---------------------------------------------------------------------------
# singular reduction


def reduced_radius_sq(j: float, z) -> float:
    """w1^2 + w2^2 = 2 (J - z)(1 - z^2) on the reduced surface."""
    return 2.0 * (j - z) * (1.0 - z * z)


def invariant_coords(state) -> tuple[float, float, float]:
    """(z, w1, w2) of a state; w1 = xu + yv, w2 = xv - yu."""
    x, y, z, u, v = state
    return z, x * u + y * v, x * v - y * u


def reduced_domain(j: float) -> tuple[float, float] | None:
    """z-interval [-1, min(J, 1)] of the reduced surface; None if empty."""
    if j < -1.0:
        return None
    return (-1.0, min(j, 1.0))


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


class CriticalKind(Enum):
    TRANSVERSALLY_ELLIPTIC = "E"
    TRANSVERSALLY_HYPERBOLIC = "H"
    CUSP = "CUSP"
    EQUILIBRIUM_VALUE = "EQ"


@dataclass(frozen=True)
class CriticalValuePoint:
    J: float
    H: float
    z_at: float
    branch: Branch | None
    kind: CriticalKind


def _branch_sign(branch: Branch) -> float:
    return 1.0 if branch is Branch.PLUS else -1.0


def branch_value(z, j: float, g: PolyG, branch: Branch):
    """h_pm(z) = +-R(z)/2 + G(z); accepts scalars or numpy arrays."""
    sb = _branch_sign(branch)
    return sb * np.sqrt(reduced_radius_sq(j, z)) / 2.0 + g.gamma * z * z


def branch_second_deriv(z, j: float, g: PolyG, branch: Branch):
    sb = _branch_sign(branch)
    gg = reduced_radius_sq(j, z)
    dg = 2.0 * (3.0 * z * z - 2.0 * j * z - 1.0)
    d2g = 4.0 * (3.0 * z - j)
    r = np.sqrt(gg)
    return sb * (d2g / (4.0 * r) - dg * dg / (8.0 * r ** 3)) + 2.0 * g.gamma


# ---------------------------------------------------------------------------
# critical points in the pole chart z = sigma (1 - x), r = sigma J - 1


def _quintic(k: float, r: float) -> list[float]:
    """p_J in the chart variable x, highest power first; k = sigma gamma^2.

    Each coefficient is formed from r = sigma (J - sigma), not from J,
    so the roots that approach the pole as J -> +-1 keep their relative
    accuracy, and at J = 1 the double root x = 0 is exact.
    """
    return [32.0 * k,
            32.0 * k * r - 128.0 * k + 9.0,
            -4.0 * (32.0 * k * r - 40.0 * k - 3.0 * r + 6.0),
            4.0 * (40.0 * k * r - 16.0 * k + r * r - 7.0 * r + 4.0),
            -8.0 * r * (8.0 * k + r - 2.0),
            4.0 * r * r]


def _chart_terms(x: float, sigma: float, r: float) -> tuple[float, float, float]:
    """(A, dA/dx, R) at chart point x: A = 3z^2 - 2Jz - 1, R as above."""
    da = 6.0 * x - 4.0 + 2.0 * r
    a = x * (3.0 * x - 4.0 + 2.0 * r) - 2.0 * r
    return a, da, math.sqrt(2.0 * sigma * (r + x) * x * (2.0 - x))


def _critical_numerator(x: float, sb: float, gamma: float, sigma: float,
                        r: float) -> tuple[float, float]:
    """F = 2 R h_sb' = sb A + 4 gamma z R and dF/dx at an interior x."""
    a, da, rad = _chart_terms(x, sigma, r)
    c = 4.0 * gamma * sigma * (1.0 - x)
    return (sb * a + c * rad,
            sb * da - 4.0 * gamma * sigma * rad - c * sigma * a / rad)


def _bracketed_newton(f, x: float, a: float, b: float, fa: float) -> float:
    """Zero of f in (a, b), where f has the sign of fa at a and not at b.

    Newton from x; a step that leaves the bracket is replaced by bisection.
    """
    for _ in range(NEWTON_STEPS):
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        step = fx / dfx if dfx else math.inf
        if abs(step) <= 1e-15 * x:     # a few ulps of x > 0
            return x - step
        x = x - step if a < x - step < b else 0.5 * (a + b)
    return x


def _chart_roots(gamma: float, sigma: float, r: float, lo: float,
                 hi: float) -> list[tuple[float, float]]:
    """(x, sb) of every interior critical point in the chart interval (lo, hi).

    The zeros of F_sb are the critical points of h_sb, and F_+ F_- = -p_J.
    The real parts of the quintic's eigenvalues in (lo, hi), with cuts
    halfway between neighbours, give one bracket per eigenvalue.  A branch
    has a critical point in a bracket when F_sb changes sign across it; the
    point is then polished by bracketed Newton on F_sb itself, which stays
    well conditioned where p_J does not (as gamma -> 0, p_J tends to A^2 and
    its root pairs, one per branch, come out of the eigensolver complex).
    """
    coeffs = _quintic(sigma * gamma * gamma, r)
    if abs(coeffs[0]) < 1e-17 * max(map(abs, coeffs)):
        # a leading term below rounding in (lo, hi) only adds a root near
        # -9/(32 k), far outside, and would overflow the companion matrix
        coeffs = coeffs[1:]
    # with no eigenvalue inside (huge |J| swamps the companion matrix) the
    # whole interval is one bracket
    xs = sorted({x for x in np.roots(coeffs).real.tolist() if lo < x < hi}) \
        or [0.5 * (lo + hi)]
    edges = [lo] + [0.5 * (u + v) for u, v in zip(xs, xs[1:])] + [hi]
    a_lo, a_hi = _chart_terms(lo, sigma, r)[0], _chart_terms(hi, sigma, r)[0]
    out = []
    for sb in (1.0, -1.0):
        def f(x, sb=sb):
            return _critical_numerator(x, sb, gamma, sigma, r)
        # R = 0 at both ends, so F = sb A there; at J = 1 A vanishes at the
        # pole x = 0 too, and F/x -> 8 gamma - 4 sb there, or F/x ~ -2 sb x
        # when that limit is 0 (gamma = sb/2, the Hopf parameter)
        first = sb * a_lo if r != 0.0 else (8.0 * gamma - 4.0 * sb or -sb)
        signs = [first] + [f(e)[0] for e in edges[1:-1]] + [sb * a_hi]
        for k, x in enumerate(xs):
            if min(signs[k], signs[k + 1]) < 0.0 < max(signs[k], signs[k + 1]):
                out.append((_bracketed_newton(f, x, edges[k], edges[k + 1],
                                              signs[k]), sb))
            elif signs[k + 1] == 0.0:   # a cut that is itself a root
                out.append((edges[k + 1], sb))
    return out


def _kind(h2: float, branch: Branch) -> CriticalKind:
    if abs(h2) < CUSP_TOL:
        return CriticalKind.CUSP
    elliptic = h2 < 0.0 if branch is Branch.PLUS else h2 > 0.0
    return (CriticalKind.TRANSVERSALLY_ELLIPTIC if elliptic
            else CriticalKind.TRANSVERSALLY_HYPERBOLIC)


def jc_reduced_critical_values(g: PolyG, j: float) -> list[CriticalValuePoint]:
    """All critical values of the reduced system at momentum J = ``j``.

    Interior critical points of both branches h_pm are the real roots of the
    quintic p_J in (-1, min(J, 1)) (module docstring), solved in the chart
    x = 1 - sigma z at the pole z = sigma nearer to J; at gamma = 0 they are
    z = (J +- sqrt(J^2 + 3))/3 on both branches.  Each is classified by the
    sign of h'' (saddles of the surface-restricted Hamiltonian are
    transversally hyperbolic); |h''| < CUSP_TOL marks a degenerate cusp.
    The pole equilibria contribute (J, G(1)) exactly at j = +-1.
    """
    gamma = g.gamma
    if not (abs(j) < J_LIMIT and abs(gamma) < GAMMA_LIMIT):
        raise ValueError(f"need |J| < {J_LIMIT:g} and |gamma| < {GAMMA_LIMIT:g}, "
                         f"got J = {j!r}, gamma = {gamma!r}")
    if j < -1.0:
        raise ValueError("reduced domain is empty for J < -1")
    sigma = -1.0 if j <= 0.0 else 1.0
    r = sigma * j - 1.0
    lo, hi = (max(0.0, -r), 2.0) if sigma > 0.0 else (0.0, -r)
    if gamma == 0.0:
        # (J +- sqrt(J^2 + 3))/3, the smaller one as -1/q to avoid cancellation
        q = j + math.copysign(math.sqrt(j * j + 3.0), j)
        roots = [(1.0 - sigma * z, sb) for z in (q / 3.0, -1.0 / q)
                 for sb in (1.0, -1.0)]
    else:
        roots = _chart_roots(gamma, sigma, r, lo, hi)
    out: list[CriticalValuePoint] = []
    for x, sb in roots:
        z = sigma * (1.0 - x)
        if not (lo < x < hi and -1.0 < z < min(j, 1.0)):
            continue    # outside the open domain, or rounds onto its end
        a, da, rad = _chart_terms(x, sigma, r)
        # h'' from chart quantities (d/dz = -sigma d/dx), which keep their
        # relative accuracy next to the pole where the z form cancels
        h2 = sb * (-sigma * da / (2.0 * rad) - a * a / (2.0 * rad ** 3)) \
            + 2.0 * gamma
        branch = Branch.PLUS if sb > 0.0 else Branch.MINUS
        out.append(CriticalValuePoint(
            J=j, H=sb * rad / 2.0 + gamma * z * z, z_at=z, branch=branch,
            kind=_kind(h2, branch)))
    if j == 1.0 or j == -1.0:
        out.append(CriticalValuePoint(J=j, H=g.value(j), z_at=j, branch=None,
                                      kind=CriticalKind.EQUILIBRIUM_VALUE))
    out.sort(key=lambda p: (p.z_at, p.branch.value if p.branch else ""))
    return out


def jc_spectrum_sample(g: PolyG, n: int, j_max: float, seed: int) -> SpectrumCloud:
    """Deterministic pseudo-random sample of the momentum-map image.

    Sphere points are area-exact (z uniform on [-1, 1], angle uniform); the
    oscillator radius^2 is uniform on [0, 2 (j_max + 1)].  Reproducible for
    a fixed seed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if j_max <= -1.0:
        raise ValueError("j_max must exceed -1")
    rng = np.random.default_rng(seed)
    if n == 0:
        return SpectrumCloud(points=np.empty((0, 2)), seed=seed)
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x, y = s * np.cos(phi), s * np.sin(phi)
    r2 = rng.uniform(0.0, 2.0 * (j_max + 1.0), n)
    psi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(r2)
    u, v = r * np.cos(psi), r * np.sin(psi)
    jj = r2 / 2.0 + z
    hh = (x * u + y * v) / 2.0 + g.gamma * z * z
    return SpectrumCloud(points=np.column_stack([jj, hh]), seed=seed)
