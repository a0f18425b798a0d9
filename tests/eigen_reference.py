"""A quartic root solver and a 4x4 eigensolver that tests compare the
closed-form eigenvalues against.

Nothing in ``hopfdiag`` calls them.  They are built on the oracle's
primitives (``Poly``, ``cubic_roots`` and its Newton polish), not on the
closed forms they check, and call no library root or eigenvalue solver
(no numpy.roots, no numpy.linalg.eig):
 - quartic roots: resolvent-cubic factorization + Newton polish;
 - the characteristic polynomial of a 4x4 matrix, exact, rounded once;
 - 4x4 eigenvalues: the quartic's roots on that polynomial;
 - the distance between two eigenvalue sets under their best pairing.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from hopfdiag.oracle import Poly, _polish, cubic_roots

EIG_RESIDUAL_TOL = 1e-9       # char-poly residual for eig4 roots, scaled


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


def exact_char_poly4(m) -> tuple[float, float, float, float]:
    """(p0, p1, p2, p3) of det(lambda*I - M) = l^4 + p3 l^3 + ..., exact,
    each rounded once.  Each float of M is read exactly, so d M is an
    integer matrix for d the largest denominator, and the Faddeev-LeVerrier
    recurrence runs over the integers: the coefficient of l^(4-k) of d M
    is d^k times that of M.  A Hamiltonian M gets exactly zero odd terms,
    so its roots come in exact +- pairs even where two of them nearly
    collide, where ``oracle.char_poly4``'s rounding moves a root by about
    the square root of its own error."""
    exact = [[Fraction(v) for v in row]
             for row in np.asarray(m, dtype=float).tolist()]
    d = max(v.denominator for row in exact for v in row)
    a = [[int(v * d) for v in row] for row in exact]
    n, coeffs = a, []
    for k in range(1, 5):
        p = -sum(n[i][i] for i in range(4)) // k      # exact: an integer
        coeffs.append(p / d ** k)
        n = [[sum(a[i][l] * (n[l][j] + p * (l == j)) for l in range(4))
              for j in range(4)] for i in range(4)]
    return tuple(reversed(coeffs))


def eig4(m) -> np.ndarray:
    """Eigenvalues of a real 4x4 matrix via its characteristic polynomial.

    Exact Faddeev-LeVerrier coefficients, quartic closed form, Newton polish.
    Char-poly residual at each root stays below EIG_RESIDUAL_TOL, scaled.
    """
    p0, p1, p2, p3 = exact_char_poly4(m)
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
