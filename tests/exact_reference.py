"""Exact root counts that tests compare the per-J critical-value solve against.

Nothing in ``hopfdiag`` calls them, and they import no hopfdiag module, so
they share no code with what they check.  Each float is taken as the
rational it is, and the real roots of the spin-oscillator's quintic

    p_J(z) = (3z^2 - 2Jz - 1)^2 - 32 gamma^2 z^2 (1 - z^2)(J - z)

are counted over the rationals by Sturm sequences (sympy): no root is
computed, so none is lost to rounding.
"""

from fractions import Fraction

import sympy as sp

_Z = sp.Symbol("z")


def quintic(gamma, j) -> sp.Poly:
    """p_J over the rationals, ``gamma`` and ``j`` exact, from its expanded
    coefficients (k = 32 gamma^2), z^5 first: four times faster to build
    than the product form."""
    g, big_j = sp.Rational(gamma), sp.Rational(j)
    k = 32 * g * g
    return sp.Poly([-k, 9 + k * big_j, k - 12 * big_j,
                    4 * big_j * big_j - 6 - k * big_j, 4 * big_j, 1], _Z,
                   domain=sp.QQ)


def exact_count(gamma, j, lo=-1, hi=None) -> int:
    """The number of distinct real roots of p_J in the open interval
    (lo, hi), by default (-1, min(J, 1)); ``lo`` and ``hi`` may be floats,
    ints or ``fractions.Fraction``, each taken exactly."""
    lo = sp.Rational(Fraction(lo))
    hi = sp.Rational(Fraction(min(j, 1) if hi is None else hi))
    if not lo < hi:
        return 0
    p = quintic(gamma, j)
    return p.count_roots(lo, hi) - (p.eval(lo) == 0) - (p.eval(hi) == 0)
