"""The per-J critical-value solve as it stood before its rows were built
positionally and sorted by a C key.

A reference that tests compare ``models.jc_critical_values`` against, row
for row and bit for bit; nothing in ``hopfdiag`` calls it.  Only the row
types and the limits come from ``models``.
"""

import math

from hopfdiag.models import (CUSP_TOL, GAMMA_LIMIT, J_LIMIT, NEWTON_STEPS,
                             Branch, CriticalKind, CriticalValuePoint, PolyG)


def _fold_t(gamma: float) -> float:
    e = 16.0 * (abs(gamma) - 0.5) * (abs(gamma) + 0.5)
    if not e > 0.0:
        return 0.0
    t = 2.0 * math.sinh(math.asinh(8.0 * gamma * gamma) / 3.0) - 1.0
    return t - (t * (t * (t + 3.0) + 6.0) - e) / (t * (3.0 * t + 6.0) + 6.0)


def _chart_terms(x: float, sigma: float, r: float) -> tuple[float, float, float]:
    da = 6.0 * x - 4.0 + 2.0 * r
    a = x * (3.0 * x - 4.0 + 2.0 * r) - 2.0 * r
    return a, da, math.sqrt(2.0 * sigma * (r + x) * x * (2.0 - x))


def _chart_root(sb: float, g4: float, sigma: float, r: float,
                a: float, b: float, fa: float) -> float:
    x = 0.5 * (a + b)
    for _ in range(NEWTON_STEPS):
        da = 6.0 * x - 4.0 + 2.0 * r
        aa = x * (3.0 * x - 4.0 + 2.0 * r) - 2.0 * r
        rad = math.sqrt(2.0 * sigma * (r + x) * x * (2.0 - x))
        c = g4 * (1.0 - x)
        fx = sb * aa + c * rad
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        dfx = sb * da - g4 * rad - c * sigma * aa / rad
        step = fx / dfx if dfx else math.inf
        if abs(step) <= 1e-15 * x:
            return x - step
        x = x - step if a < x - step < b else 0.5 * (a + b)
        if b - a <= 1e-15 * x:
            return x
    return x


def _chart_roots(gamma: float, sigma: float, r: float, lo: float, hi: float,
                 cuts: tuple[float, ...]) -> list[tuple[float, float]]:
    edges = [lo, *(c for c in cuts if lo < c < hi), hi]
    g4 = 4.0 * gamma * sigma
    terms = []
    for e in edges:
        a, _, rad = _chart_terms(e, sigma, r)
        terms.append((a, g4 * (1.0 - e) * rad))
    out = []
    for sb in (1.0, -1.0):
        signs = [sb * a + crad for a, crad in terms]
        if r == 0.0:
            signs[0] = 8.0 * gamma - 4.0 * sb or -sb
        for k in range(len(edges) - 1):
            if min(signs[k], signs[k + 1]) < 0.0 < max(signs[k], signs[k + 1]):
                out.append((_chart_root(sb, g4, sigma, r, edges[k],
                                        edges[k + 1], signs[k]), sb))
            elif signs[k + 1] == 0.0:
                out.append((edges[k + 1], sb))
    return out


def jc_critical_values(g: PolyG, js) -> list[list[CriticalValuePoint]]:
    gamma = g.gamma
    t = _fold_t(gamma)
    cuts = (t / (1.0 + t), 1.0) if t else (1.0,)
    out = []
    for j in map(float, js):
        if not (abs(j) < J_LIMIT and abs(gamma) < GAMMA_LIMIT):
            raise ValueError(f"need |J| < {J_LIMIT:g} and |gamma| < {GAMMA_LIMIT:g}, "
                             f"got J = {j!r}, gamma = {gamma!r}")
        if j < -1.0:
            raise ValueError("reduced domain is empty for J < -1")
        sigma = -1.0 if j <= 0.0 else 1.0
        r = sigma * j - 1.0
        lo, hi = (max(0.0, -r), 2.0) if sigma > 0.0 else (0.0, -r)
        if gamma == 0.0:
            q = j + math.copysign(math.sqrt(j * j + 3.0), j)
            roots = [(1.0 - sigma * z, sb) for z in (q / 3.0, -1.0 / q)
                     for sb in (1.0, -1.0)]
        else:
            roots = _chart_roots(gamma, sigma, r, lo, hi,
                                 cuts if sigma > 0.0 else ())
        rows = []
        for x, sb in roots:
            z = sigma * (1.0 - x)
            if not (lo < x < hi and -1.0 < z < min(j, 1.0)):
                continue
            a, da, rad = _chart_terms(x, sigma, r)
            h2 = sb * (-sigma * da / (2.0 * rad) - a * a / (2.0 * rad ** 3)) \
                + 2.0 * gamma
            kind = (CriticalKind.CUSP if abs(h2) < CUSP_TOL
                    else CriticalKind.TRANSVERSALLY_ELLIPTIC if sb * h2 < 0.0
                    else CriticalKind.TRANSVERSALLY_HYPERBOLIC)
            rows.append(CriticalValuePoint(
                J=j, H=sb * rad / 2.0 + gamma * z * z, z_at=z,
                branch=Branch.PLUS if sb > 0.0 else Branch.MINUS, kind=kind))
        if j == 1.0 or j == -1.0:
            rows.append(CriticalValuePoint(J=j, H=g.value(j), z_at=j, branch=None,
                                           kind=CriticalKind.EQUILIBRIUM_VALUE))
        rows.sort(key=lambda p: (p.z_at, p.branch.value if p.branch else ""))
        out.append(rows)
    return out
