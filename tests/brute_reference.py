"""Brute-force references that tests compare the closed forms against.

Nothing in ``hopfdiag`` calls them, and they import no hopfdiag module,
so they share no code with what they check:
 - a grid-and-bisection scan for the spin-oscillator's per-J critical
   points;
 - a central-difference gradient, with optional Richardson levels.
"""

import numpy as np

SCAN_CELLS = 2000
SCAN_LADDER_STEPS = 36   # geometric end-cell probes of the critical-point scan
SCAN_BISECT_TOL = 1e-12


def spin_critical_scan(gamma: float, j: float) -> list[tuple[float, int, str]]:
    """Interior critical points of h_pm(z) = +-R(z)/2 + gamma z^2 by brute force.

    R(z) = sqrt(2 (J - z)(1 - z^2)) on the open interval (-1, min(J, 1)).
    h_pm' is sampled on a uniform grid of SCAN_CELLS cells plus geometric
    ladders into the two end cells (h_pm' diverges at the ends except at the
    J = 1 pole); every sign change is bisected to SCAN_BISECT_TOL.  Two
    critical points of one branch inside one cell are missed.

    Returns sorted (z, sb, kind) with sb = +1 for h_+ and -1 for h_-; kind is
    "E" for a maximum of h_+ or a minimum of h_-, otherwise "H", read off the
    direction of the sign change.
    """
    if j <= -1.0:
        return []
    lo, hi = -1.0, min(j, 1.0)

    def dh(z, sb):
        rr = 2.0 * (j - z) * (1.0 - z * z)
        rad = np.sqrt(np.where(rr > 0.0, rr, np.nan))   # NaN off the domain
        return sb * (3.0 * z * z - 2.0 * j * z - 1.0) / (2.0 * rad) \
            + 2.0 * gamma * z

    cell = (hi - lo) / SCAN_CELLS
    eps = cell * 2.0 ** -np.arange(1.0, SCAN_LADDER_STEPS + 1.0)
    zs = np.concatenate([lo + eps[::-1],
                         np.linspace(lo, hi, SCAN_CELLS + 1)[1:-1], hi - eps])
    out = []
    for sb in (1, -1):
        vals = dh(zs, sb)
        keep = np.isfinite(vals) & (vals != 0.0)   # an exact zero is bracketed
        z, v = zs[keep], vals[keep]
        for i in np.nonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))[0]:
            a, b = float(z[i]), float(z[i + 1])
            while b - a > SCAN_BISECT_TOL:
                m = 0.5 * (a + b)
                if (dh(m, sb) > 0.0) == (v[i] > 0.0):
                    a = m
                else:
                    b = m
            out.append((0.5 * (a + b), sb,
                        "E" if (v[i] > 0.0) == (sb > 0) else "H"))
    return sorted(out)


def fd_gradient(f, point, step: float = 1e-5, levels: int = 0) -> np.ndarray:
    """Central-difference gradient, error O(step^2); ``levels=1`` applies one
    Richardson extrapolation (error O(step^4))."""
    x = np.asarray(point, dtype=float)

    def central(h):
        g = np.empty(x.size)
        for i in range(x.size):
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            g[i] = (f(xp) - f(xm)) / (2.0 * h)
        return g

    g = central(step)
    for k in range(levels):
        g_half = central(step / 2.0 ** (k + 1))
        g = (4.0 ** (k + 1) * g_half - g) / (4.0 ** (k + 1) - 1.0)
    return g
