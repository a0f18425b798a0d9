"""Linear symplectic algebra on R^4.

Coordinate order is fixed once and for all as (x, y, xi, eta), with the
symplectic form Omega = d(xi) ^ d(x) + d(eta) ^ d(y).  Its matrix in that
ordering is

    B = [[ 0,  0, -1,  0],
         [ 0,  0,  0, -1],
         [ 1,  0,  0,  0],
         [ 0,  1,  0,  0]]

(antisymmetric, B @ B = -I).  The Poisson bracket this induces satisfies
{x, xi} = -1 and {f, g} = grad(f)^T B grad(g); the Hamiltonian matrix of a
quadratic form with Hessian S is B @ S.

The module also houses the standard quadratic building blocks

    J1 = x*eta - y*xi        (focus-focus pair, first member)
    J2 = x*xi  + y*eta       (focus-focus pair, second member)
    K1 = (x^2 + y^2) / 2
    K2 = (xi^2 + eta^2) / 2

(``j1``, ``j2``, ``k1``, ``k2``, of one point (4,) or of a stack (4, m),
one point per column, the layout of every stack of points in the package)
and the biquadratic characteristic polynomial of the four-parameter family
omega_t*J1 + alpha_t*J2 + gamma*K1 + delta*K2:

    P(lambda) = lambda^4 + b*lambda^2 + a,
    a = (alpha_t^2 + omega_t^2 - gamma*delta)^2,
    b = 2*(gamma*delta - alpha_t^2 + omega_t^2).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

SYMPLECTIC_MATRIX = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])

HESS_J1 = np.array([
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
])

HESS_J2 = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])

HESS_K1 = np.diag([1.0, 1.0, 0.0, 0.0])
HESS_K2 = np.diag([0.0, 0.0, 1.0, 1.0])


def finite_float(x, record: str, name: str) -> float:
    """``x`` as a finite Python float, the number rule of every record: a
    bool, a value that is not real, NaN, an infinity or an int beyond the
    float range is a ValueError that names the record and the field."""
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool) \
                and math.isfinite(f := float(x)):
            return f
    except OverflowError:       # an int beyond the float range
        pass
    raise ValueError(f"{record}.{name} must be a finite real number, got {x!r}")


def nonneg_int(x, record: str, name: str) -> int:
    """``x`` as a Python int >= 0, the rule for a random seed and a sample
    count: a numpy integer is stored as int; a bool, a float, a str or a
    negative number is a ValueError that names the record and the field."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0:
        return int(x)
    raise ValueError(f"{record}.{name} must be an int >= 0, got {x!r}")


def finite_fields(record, *names: str) -> None:
    """Store the named fields of the dataclass ``record`` by ``finite_float``;
    a finite float, the common case, is kept without a call."""
    for name in names:
        x = getattr(record, name)
        if type(x) is not float or not math.isfinite(x):
            object.__setattr__(record, name,
                               finite_float(x, type(record).__name__, name))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` if it and every base below it are read-only arrays, so that
    no one can write its memory; else a read-only copy of it."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:
        (a := a.copy()).flags.writeable = False
    return a


def j1(p) -> float:
    x, y, xi, eta = p
    return x * eta - y * xi


def j2(p) -> float:
    x, y, xi, eta = p
    return x * xi + y * eta


def k1(p) -> float:
    x, y, xi, eta = p
    return (x * x + y * y) / 2.0


def k2(p) -> float:
    x, y, xi, eta = p
    return (xi * xi + eta * eta) / 2.0


def family_hessian(omega_t: float, alpha_t: float, gamma: float,
                   delta: float) -> np.ndarray:
    """Hessian of omega_t*J1 + alpha_t*J2 + gamma*K1 + delta*K2."""
    return (omega_t * HESS_J1 + alpha_t * HESS_J2
            + gamma * HESS_K1 + delta * HESS_K2)


def _check_symmetric(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.array_equal(s, s.T):
        raise ValueError("matrix is not symmetric as stored")
    return s


def hamiltonian_matrix(s) -> np.ndarray:
    """B @ S: the linearized Hamiltonian vector field of the quadratic form S."""
    return SYMPLECTIC_MATRIX @ _check_symmetric(s)


@dataclass(frozen=True)
class QuarticCoeffs:
    """Constant and quadratic coefficients of P(lambda) = lambda^4 + b lambda^2 + a."""

    a: float
    b: float

    def __post_init__(self):
        finite_fields(self, "a", "b")


class EquilibriumType(Enum):
    """Williamson-type region of a biquadratic spectrum; the value, which
    ``str`` gives, is the printed label.  The Boundary members name the
    discriminant stratum: AZero (a = 0), ParabolaPlus (a = b^2/4, b > 0),
    ParabolaMinus (a = b^2/4, b < 0), Origin (a = b = 0).
    """

    ELLIPTIC_ELLIPTIC = "EllipticElliptic"
    FOCUS_FOCUS = "FocusFocus"
    ELLIPTIC_HYPERBOLIC = "EllipticHyperbolic"
    HYPERBOLIC_HYPERBOLIC = "HyperbolicHyperbolic"
    A_ZERO = "Boundary(AZero)"
    PARABOLA_PLUS = "Boundary(ParabolaPlus)"
    PARABOLA_MINUS = "Boundary(ParabolaMinus)"
    ORIGIN = "Boundary(Origin)"

    def __str__(self) -> str:
        return self.value


def quartic_coeffs(omega_t: float, alpha_t: float, gamma: float,
                   delta: float) -> QuarticCoeffs:
    """(a, b) for the family Hessian; a >= 0 always holds.

    The identity b^2/4 - a = 4*omega_t^2*(gamma*delta - alpha_t^2) pins the
    attainable region: hyperbolic-hyperbolic and elliptic-hyperbolic types
    can never arise from this family.
    """
    gd = gamma * delta
    root_a = alpha_t * alpha_t + omega_t * omega_t - gd
    a = root_a * root_a         # overflows to inf, not OverflowError
    b = 2.0 * (gd - alpha_t * alpha_t + omega_t * omega_t)
    return QuarticCoeffs(a=a, b=b)


def classify(q: QuarticCoeffs) -> EquilibriumType:
    """Region of the (b, a) plane.  a is compared with the parabola as
    rounded, fl(b*b)/4, not the exact b^2/4: where ``quartic_coeffs``'s
    family lies on the parabola its a is that same rounding, and an exact
    test would read HyperbolicHyperbolic wherever it rounds down (b < 0).
    No boundary is epsilon-snapped: callers pre-round inputs for fuzzy ones."""
    a, b = q.a, q.b
    parab = b * b / 4.0
    t = EquilibriumType
    if a == 0.0:
        return t.ORIGIN if b == 0.0 else t.A_ZERO
    if a < 0.0:
        return t.ELLIPTIC_HYPERBOLIC
    if a == parab:
        return t.PARABOLA_PLUS if b > 0.0 else t.PARABOLA_MINUS
    if a > parab:
        return t.FOCUS_FOCUS
    # 0 < a < b^2/4 from here on
    return t.ELLIPTIC_ELLIPTIC if b > 0.0 else t.HYPERBOLIC_HYPERBOLIC


def eigen_closed(q: QuarticCoeffs) -> np.ndarray:
    """The four roots of lambda^4 + b lambda^2 + a via complex square roots."""
    a, b = q.a, q.b
    w = cmath.sqrt(complex(b * b / 4.0 - a))
    lam_sq = (-b / 2.0 + w, -b / 2.0 - w)
    out = []
    for s in lam_sq:
        r = cmath.sqrt(s)
        out.extend([r, -r])
    if not all(map(cmath.isfinite, out)):
        raise ValueError(f"eigenvalues of (a, b) = ({a!r}, {b!r}) overflow")
    return np.array(out, dtype=complex)
