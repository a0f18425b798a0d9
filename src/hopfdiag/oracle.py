"""Independent brute-force numerics used to validate every closed form.

Everything here is deliberately primitive and self-contained:
 - Polynomial container with trimming (degree <= 4)
 - Cubic roots: Cardano / trigonometric closed form + Newton polish
 - Quartic roots: resolvent-cubic factorization + Newton polish
 - Double-root search by minimizing p^2 + p'^2 over a bracket
 - Central finite-difference Hessian, optional Richardson level
 - 4x4 eigensolver via exact characteristic polynomial
 - Golden-section extremization

None of these routines share code with the closed forms they are used to
check (no numpy.roots, no numpy.linalg.eig).  In the package only
``acceptance`` (``verify``) imports this module; ``import hopfdiag`` and the
other commands do not load it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Residual / tolerance constants (module-wide, referenced by tests).
ROOT_RESIDUAL_TOL = 1e-12     # |p(root)| < tol * max|coeff| after polish (cubic)
EIG_RESIDUAL_TOL = 1e-9       # char-poly residual for eig4 roots, scaled
DOUBLE_ROOT_TOL = 1e-10       # |p|, |p'| at an accepted double root, scaled
COEFF_TRIM = 1e-300           # leading coefficients below this are dropped
NEWTON_STEPS = 3

HESS_STEP = 1e-4

DOUBLE_ROOT_SCAN = 400   # uniform cells before the golden refinement
GOLDEN_ITER = 200        # cap on golden-section steps


class NoDoubleRootError(ValueError):
    """Raised when the scanned bracket contains no double root at tolerance."""


@dataclass(frozen=True)
class Poly:
    """Real polynomial, coefficients in ascending degree order, degree <= 4.

    The constructor trims (near-)zero leading coefficients, so ``degree``
    reflects the honest degree of the stored data.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = [float(v) for v in self.coeffs]
        while len(c) > 1 and abs(c[-1]) <= COEFF_TRIM:
            c.pop()
        if len(c) - 1 > 4:
            raise ValueError(f"degree {len(c) - 1} > 4 unsupported")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def scale(self) -> float:
        """max(1, max |coefficient|), used to scale residual tolerances."""
        return max(1.0, max(abs(c) for c in self.coeffs))

    def __call__(self, z):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def deriv(self) -> "Poly":
        if self.degree == 0:
            return Poly((0.0,))
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))


def _polish(p: Poly, starts) -> np.ndarray:
    """Guarded complex Newton polish of each start toward a root of ``p``."""
    # bound methods: a call through the instance costs a slot lookup more
    val, dval = p.__call__, p.deriv().__call__
    roots = []
    for r in map(complex, starts):
        fr = val(r)
        for _ in range(NEWTON_STEPS):
            d = dval(r)
            if d == 0:
                break
            step = fr / d
            if not (cmath.isfinite(step.real) and cmath.isfinite(step.imag)):
                break
            cand = r - step
            fc = val(cand)
            if abs(fc) > abs(fr):
                break
            r, fr = cand, fc
        roots.append(r)
    return np.array(roots, dtype=complex)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def cubic_roots(p: Poly) -> np.ndarray:
    """All three complex roots of a real cubic.

    Cardano (one real root) or the trigonometric form (three real roots),
    followed by guarded Newton polish.  Residual |p(root)| stays below
    ROOT_RESIDUAL_TOL * max|coeff|.

    Raises
    ------
    ValueError
        If ``p.degree != 3``.
    """
    if p.degree != 3:
        raise ValueError(f"cubic_roots needs degree 3, got {p.degree}")
    c0, c1, c2, c3 = p.coeffs
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    # Depress: z = t - a/3  ->  t^3 + pt + q
    pp = b - a * a / 3.0
    qq = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    scale = max(1.0, abs(pp)) ** 1.5
    if abs(pp) <= 1e-14 * scale and abs(qq) <= 1e-14 * scale:
        ts = [0.0, 0.0, 0.0]
    else:
        disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
        if disc > 0.0:
            sq = math.sqrt(disc)
            u = _cbrt(-qq / 2.0 + sq)
            v = _cbrt(-qq / 2.0 - sq)
            re = -(u + v) / 2.0
            im = math.sqrt(3.0) / 2.0 * (u - v)
            ts = [u + v, complex(re, im), complex(re, -im)]
        else:
            m = 2.0 * math.sqrt(-pp / 3.0)
            arg = 3.0 * qq / (pp * m)
            arg = min(1.0, max(-1.0, arg))
            theta = math.acos(arg) / 3.0
            ts = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return _polish(p, [t + shift for t in ts])


def _quadratic_roots(c0: float, c1: float):
    """Roots of z^2 + c1 z + c0 (complex arithmetic, stable form)."""
    disc = cmath.sqrt(complex(c1 * c1 - 4.0 * c0))
    # avoid cancellation: pick same-signed combination first
    q = -(c1 + disc) / 2.0 if c1 >= 0 else -(c1 - disc) / 2.0
    return q, (c0 / q if q != 0 else -c1 - q)


def quartic_roots(p: Poly) -> np.ndarray:
    """All four complex roots of a real quartic (resolvent cubic + polish)."""
    if p.degree != 4:
        raise ValueError(f"quartic_roots needs degree 4, got {p.degree}")
    e, d, c, b, a = p.coeffs
    b, c, d, e = b / a, c / a, d / a, e / a
    # Depress: z = t - b/4  ->  t^4 + P t^2 + Q t + R
    P = c - 3.0 * b * b / 8.0
    Q = d - b * c / 2.0 + b ** 3 / 8.0
    R = e - b * d / 4.0 + b * b * c / 16.0 - 3.0 * b ** 4 / 256.0
    shift = -b / 4.0
    qscale = max(1.0, abs(P), math.sqrt(abs(R))) ** 1.5
    y = 0.0
    if abs(Q) > 1e-11 * qscale:
        # resolvent: y^3 + 2P y^2 + (P^2 - 4R) y - Q^2 = 0 has a root y > 0
        ys = cubic_roots(Poly((-Q * Q, P * P - 4.0 * R, 2.0 * P, 1.0)))
        y = max((r.real for r in ys if abs(r.imag) <= 1e-8 * max(1.0, abs(r))),
                default=0.0)
    if y <= 0.0:
        # biquadratic t^2 = (-P +- sqrt(P^2-4R))/2; also the fallback, as a
        # biquadratic perturbation, when the resolvent has no root y > 0
        ts = [t for w in map(cmath.sqrt, _quadratic_roots(R, P))
              for t in (w, -w)]
    else:
        alpha = math.sqrt(y)
        beta = (P + y - Q / alpha) / 2.0
        gamma = (P + y + Q / alpha) / 2.0
        ts = [*_quadratic_roots(beta, alpha),
              *_quadratic_roots(gamma, -alpha)]
    return _polish(p, [t + shift for t in ts])


def double_root_find(p: Poly, bracket: tuple[float, float]) -> float:
    """Locate a double root of ``p`` inside ``bracket``.

    Minimizes p(z)^2 + p'(z)^2 by a uniform scan followed by golden-section
    refinement; accepts the minimizer only if both |p| and |p'| fall below
    DOUBLE_ROOT_TOL * max(1, max|coeff|).

    Raises
    ------
    NoDoubleRootError
        If the refined minimum does not meet the tolerance.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    dp = p.deriv()

    def defect(z):
        return p(z) ** 2 + dp(z) ** 2

    zs = np.linspace(lo, hi, DOUBLE_ROOT_SCAN + 1)
    vals = [defect(z) for z in zs]
    k = int(np.argmin(vals))
    a = zs[max(0, k - 1)]
    b = zs[min(DOUBLE_ROOT_SCAN, k + 1)]
    z_star, _ = golden_min(defect, a, b, tol=1e-14)
    s = p.scale
    if abs(p(z_star)) < DOUBLE_ROOT_TOL * s and abs(dp(z_star)) < DOUBLE_ROOT_TOL * s:
        return float(z_star)
    raise NoDoubleRootError(
        f"no double root in [{lo}, {hi}]: |p|={abs(p(z_star)):.3g}, "
        f"|p'|={abs(dp(z_star)):.3g} at z={z_star:.6g}")


def golden_min(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section minimization of a unimodal scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > tol * max(1.0, abs(a), abs(b)) and it < GOLDEN_ITER:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        it += 1
    x = (a + b) / 2.0
    return x, f(x)


def golden_max(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    x, fneg = golden_min(lambda z: -f(z), a, b, tol=tol)
    return x, -fneg


def _per_axis_steps(step, shape) -> np.ndarray:
    """Steps broadcast to the point's shape; one step per axis (first
    index) serves every point of a stack."""
    h = np.asarray(step, dtype=float)
    if h.ndim == 1:
        h = h.reshape(h.shape + (1,) * (len(shape) - 1))
    h = np.broadcast_to(h, shape).copy()
    if np.any(h <= 0.0):
        raise ValueError("steps must be positive")
    return h


def fd_hessian(f, point, step: float = HESS_STEP, levels: int = 0) -> np.ndarray:
    """Central-difference Hessian (symmetric), error O(step^2).

    ``point`` is one point of shape (n,), giving an (n, n) Hessian, or a
    stack of m points as columns, shape (n, m), giving (n, n, m); ``f`` is
    then called once per stencil node on the whole stack and must map the
    rows to m values.  ``step`` may be a scalar, one value per axis (useful
    when curvature scales differ wildly between directions) or, for a
    stack, one per axis and point, shape (n, m).  ``levels=1`` adds one
    Richardson extrapolation level.  Raises whatever ``f`` raises if the
    stencil leaves its domain (e.g. z <= 0 for the reduced normal-form
    Hamiltonian).
    """
    x = np.asarray(point, dtype=float)
    n = x.shape[0]
    steps = _per_axis_steps(step, x.shape)

    def central(h):
        hess = np.empty((n, n) + x.shape[1:])
        fc = f(x)
        for i in range(n):
            xp = x.copy(); xp[i] += h[i]
            xm = x.copy(); xm[i] -= h[i]
            hess[i, i] = (f(xp) - 2.0 * fc + f(xm)) / h[i] ** 2
            for j in range(i + 1, n):
                xpp = x.copy(); xpp[i] += h[i]; xpp[j] += h[j]
                xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
                xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
                xmm = x.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
                hess[i, j] = ((f(xpp) - f(xpm) - f(xmp) + f(xmm))
                              / (4.0 * h[i] * h[j]))
                hess[j, i] = hess[i, j]
        return hess

    hess = central(steps)
    for k in range(levels):
        h_half = central(steps / 2.0 ** (k + 1))
        hess = (4.0 ** (k + 1) * h_half - hess) / (4.0 ** (k + 1) - 1.0)
    return hess


def char_poly4(m) -> tuple[float, float, float, float]:
    """Coefficients (p0, p1, p2, p3) of det(lambda*I - M) = l^4 + p3 l^3 + ...

    Faddeev-LeVerrier recurrence: exact up to rounding, no eigendecomposition.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("char_poly4 expects a 4x4 matrix")
    ident = np.eye(4)
    n1 = m
    p3 = -np.trace(n1)
    n2 = m @ (n1 + p3 * ident)
    p2 = -np.trace(n2) / 2.0
    n3 = m @ (n2 + p2 * ident)
    p1 = -np.trace(n3) / 3.0
    n4 = m @ (n3 + p1 * ident)
    p0 = -np.trace(n4) / 4.0
    return float(p0), float(p1), float(p2), float(p3)


def eig4(m) -> np.ndarray:
    """Eigenvalues of a real 4x4 matrix via its characteristic polynomial.

    Exact Faddeev-LeVerrier coefficients, quartic closed form, Newton polish.
    Char-poly residual at each root stays below EIG_RESIDUAL_TOL, scaled.
    """
    p0, p1, p2, p3 = char_poly4(m)
    return quartic_roots(Poly((p0, p1, p2, p3, 1.0)))


def match_eigensets(got, expected) -> float:
    """Max pointwise distance under the best pairing of two eigenvalue sets."""
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    if len(got) != len(expected):
        raise ValueError("eigenvalue sets differ in size")
    best = math.inf
    for perm in itertools.permutations(range(len(got))):
        worst = max(abs(got[i] - expected[p]) for i, p in enumerate(perm))
        best = min(best, worst)
    return best
