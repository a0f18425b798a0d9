"""The deformed coupled spin-oscillator (Jaynes-Cummings family) on S^2 x R^2.

Phase space: the unit sphere (x, y, z) times the plane (u, v), with Poisson
structure

    {x, y} = -z,  {y, z} = -x,  {z, x} = -y,  {u, v} = 1,

mixed brackets zero.  With this sphere sign the north-pole linearization of

    J = (u^2 + v^2)/2 + z,      H~ = (x u + y v)/2 + G(z)

has characteristic polynomial lambda^4 + b lambda^2 + 1/16 with
b = (2 G'(1)^2 - 1)/2 (``jc_linearization``); ``jc_linearization_numeric``
recomputes (a, b) from the Jacobian of H~'s field poisson_tensor @ grad H~
at the pole (``north_pole_matrix``).  As everywhere in the package, a stack
of states is (5, m), one state per column: the Poisson layer gives (5, m),
(5, 5, m) and (m,) results for it, and (5,), (5, 5) and () for one state.

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

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import oracle, symplin

CUSP_TOL = 1e-8          # |h''| below this classifies as a degenerate cusp
NEWTON_STEPS = 100       # cap on bracketed Newton/bisection steps per point
J_LIMIT = 1e100          # |J| below this keeps every chart coefficient finite
GRID_BLOCK = 1024        # J per block of jc_critical_values: bounded memory
GAMMA_LIMIT = 1e6        # from |gamma| ~ 1e7 critical points sit closer to the
                         # far end of the domain than a float can resolve


@dataclass(frozen=True)
class PolyG:
    """Deformation family G(z) = gamma * z^2."""

    gamma: float

    def __post_init__(self):
        symplin.finite_fields(self, "gamma")

    def value(self, z: float) -> float:
        return self.gamma * z * z

    def deriv(self, z: float) -> float:
        return 2.0 * self.gamma * z


def jc_grad_J(state) -> np.ndarray:
    x, y, z, u, v = state
    zero = np.zeros_like(z)
    return np.stack([zero, zero, zero + 1.0, u, v])


def jc_grad_Htilde(state, g: PolyG) -> np.ndarray:
    x, y, z, u, v = state
    return np.stack([u / 2.0, v / 2.0, g.deriv(z), x / 2.0, y / 2.0])


def poisson_tensor(state) -> np.ndarray:
    """Matrix Pi with {f, g} = grad(f)^T Pi grad(g), order (x, y, z, u, v),
    one per column of a stack."""
    x, y, z, u, v = state
    pi = np.zeros((5, 5) + np.shape(z))
    pi[0, 1], pi[0, 2] = -z, y
    pi[1, 0], pi[1, 2] = z, -x
    pi[2, 0], pi[2, 1] = -y, x
    pi[3, 4], pi[4, 3] = 1.0, -1.0
    return pi


def poisson_bracket(grad_f, grad_g, state) -> np.ndarray:
    """{f, g} at ``state`` from the gradient functions of f and g, each
    called once on the whole stack."""
    return np.einsum("i...,ij...,j...->...",
                     np.asarray(grad_f(state), dtype=float),
                     poisson_tensor(state),
                     np.asarray(grad_g(state), dtype=float))


# ---------------------------------------------------------------------------
# linearization at the north pole


def north_pole_matrix(grad) -> np.ndarray:
    """4 x 4 Jacobian on (x, y, u, v) of the field ``poisson_tensor @ grad``
    at the north pole (0, 0, 1, 0, 0); ``grad`` maps a (5, m) stack.

    Central differences of unit step over 8 stencil states are exact: the
    fields of ``jc_grad_J`` and ``jc_grad_Htilde`` are quadratic, and
    dz = 0 on the sphere at the pole, so the stencil keeps z = 1.
    """
    axes = [0, 1, 3, 4]
    unit = np.eye(5)[:, axes]                 # the pole is column 2 of I
    states = np.eye(5)[:, [2]] + np.hstack([unit, -unit])
    field = np.einsum("ijn,jn->in", poisson_tensor(states), grad(states))
    return ((field[:, :4] - field[:, 4:]) / 2.0)[axes]


def jc_linearization_numeric(g: PolyG) -> symplin.QuarticCoeffs:
    """(a, b) of the characteristic polynomial of H~'s field at the pole."""
    p0, p1, p2, p3 = oracle.char_poly4(
        north_pole_matrix(lambda s: jc_grad_Htilde(s, g)))
    if max(abs(p1), abs(p3)) > 1e-10 * max(1.0, abs(p0), abs(p2)):
        raise ArithmeticError("north-pole linearization is not biquadratic")
    return symplin.QuarticCoeffs(a=p0, b=p2)


def jc_linearization(g: PolyG) -> tuple[symplin.QuarticCoeffs, symplin.EquilibriumType]:
    """Closed-form (a, b) = (1/16, (2 G'(1)^2 - 1)/2) and its region.

    For the family G(z) = gamma z^2 this is b = 4 gamma^2 - 1/2: focus-focus
    for 0 < gamma < 1/2, the degenerate parabola point at gamma = 1/2,
    elliptic-elliptic beyond.
    """
    t = g.deriv(1.0)
    q = symplin.QuarticCoeffs(a=1.0 / 16.0, b=(2.0 * t * t - 1.0) / 2.0)
    return q, symplin.classify(q)


# ---------------------------------------------------------------------------
# singular reduction


def reduced_radius_sq(j: float, z) -> float:
    """w1^2 + w2^2 = 2 (J - z)(1 - z^2) on the reduced surface."""
    return 2.0 * (j - z) * (1.0 - z * z)


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


class CriticalKind(Enum):
    TRANSVERSALLY_ELLIPTIC = "E"
    TRANSVERSALLY_HYPERBOLIC = "H"
    CUSP = "CUSP"
    EQUILIBRIUM_VALUE = "EQ"


class CriticalValuePoint(NamedTuple):
    J: float
    H: float
    z_at: float
    branch: Branch | None
    kind: CriticalKind


def branch_value(z, j: float, g: PolyG, branch: Branch):
    """h_pm(z) = +-R(z)/2 + G(z); accepts scalars or numpy arrays."""
    sb = 1.0 if branch is Branch.PLUS else -1.0
    return sb * np.sqrt(reduced_radius_sq(j, z)) / 2.0 + g.gamma * z * z


def branch_second_deriv(z, j: float, g: PolyG, branch: Branch):
    sb = 1.0 if branch is Branch.PLUS else -1.0
    gg = reduced_radius_sq(j, z)
    dg = 2.0 * (3.0 * z * z - 2.0 * j * z - 1.0)
    d2g = 4.0 * (3.0 * z - j)
    r = np.sqrt(gg)
    return sb * (d2g / (4.0 * r) - dg * dg / (8.0 * r ** 3)) + 2.0 * g.gamma


# ---------------------------------------------------------------------------
# critical points in the pole chart z = sigma (1 - x), r = sigma J - 1


@functools.lru_cache(maxsize=64)
def _fold_t(gamma: float) -> float:
    """t = 1/z_f - 1 at the fold, the positive root of t^3 + 3t^2 + 6t =
    16 gamma^2 - 4 (0.0 for |gamma| <= 1/2).  y = 1 + t solves
    y^3 + 3y = 16 gamma^2, so y = 2 sinh(asinh(8 gamma^2)/3); one Newton
    step on the t form, free of cancellation, restores the relative
    accuracy of t as gamma -> 1/2.  Cached: each per-J call needs it.
    """
    e = 16.0 * (abs(gamma) - 0.5) * (abs(gamma) + 0.5)
    if not e > 0.0:
        return 0.0
    t = 2.0 * math.sinh(math.asinh(8.0 * gamma * gamma) / 3.0) - 1.0
    return t - (t * (t * (t + 3.0) + 6.0) - e) / (t * (3.0 * t + 6.0) + 6.0)


def fold_offsets(g: PolyG) -> tuple[float, ...]:
    """(J_- - 1, J_+ - 1), the folds of the critical curve; () for
    |gamma| <= 1/2.  Between them the branch sign(gamma) has three critical
    points, one transversally hyperbolic.

    At the fold z_f = 1/(1 + t), r = J - 1 solves 4 (t + 1)^2 r^2 - 2br - c
    = 0, b = t^2 (t^3 + 5t^2 + 10t + 6), c = t^3 (2t^2 + 7t + 8), whose
    roots, about +-sqrt(2) t^(3/2) as gamma -> 1/2, are taken without
    cancellation.
    """
    t = _fold_t(g.gamma)
    if t == 0.0:
        return ()
    b = t * t * (t * (t * (t + 5.0) + 10.0) + 6.0)
    c = t ** 3 * (t * (2.0 * t + 7.0) + 8.0)
    a = 4.0 * (t + 1.0) ** 2
    q = b + math.sqrt(b * b + a * c)
    return -c / q, q / a


def _chart_terms(x: float, sigma: float, r: float, sqrt=None):
    """(A, dA/dx, R) at chart point x: A = 3z^2 - 2Jz - 1, R as above;
    ``sqrt`` is ``math.sqrt`` unless given (``np.sqrt`` for arrays)."""
    da = 6.0 * x - 4.0 + 2.0 * r
    a = x * (3.0 * x - 4.0 + 2.0 * r) - 2.0 * r
    return a, da, (sqrt or math.sqrt)(2.0 * sigma * (r + x) * x * (2.0 - x))


def _chart_root(sb: float, g4: float, sigma: float, r: float,
                a: float, b: float, fa: float) -> float:
    """Zero of F = 2 R h_sb' = sb A + 4 gamma z R in the chart bracket (a, b),
    where F has the sign of fa at a and not at b; g4 = 4 gamma sigma.
    Newton from the midpoint; a step that leaves the bracket bisects.
    """
    sqrt, r2, s2, neg = math.sqrt, 2.0 * r, 2.0 * sigma, fa < 0.0
    x = 0.5 * (a + b)
    for _ in range(NEWTON_STEPS):
        aa = x * (3.0 * x - 4.0 + r2) - r2
        rad = sqrt(s2 * (r + x) * x * (2.0 - x))
        c = g4 * (1.0 - x)
        fx = sb * aa + c * rad
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg:
            a = x
        else:
            b = x
        dfx = sb * (6.0 * x - 4.0 + r2) - g4 * rad - c * sigma * aa / rad
        step = fx / dfx if dfx else math.inf
        xn = x - step
        if abs(step) <= 1e-15 * x:     # a few ulps of x > 0
            return xn
        x = xn if a < xn < b else 0.5 * (a + b)
        if b - a <= 1e-15 * x:         # steps of rounding noise in F
            return x
    return x


def _chart_roots(gamma: float, sigma: float, r: float, lo: float,
                 hi: float) -> list[tuple[float, float]]:
    """(x, sb) of every interior critical point in the chart interval (lo, hi).

    The zeros of F_sb are the critical points of h_sb, and F_+ F_- = -p_J,
    quadratic in J.  Its discriminant in J, 256 gamma^2 z^3 (z - 1)^2
    (z + 1)^2 (4 gamma^2 z - 1), leaves critical points only at z < 0, one
    per branch, and for |gamma| > 1/2 at 1/(4 gamma^2) <= z < 1, where the
    fold z_f, the root of the factor 16 gamma^2 z^3 - 3z^2 - 1 of its
    resultant with dp_J/dz, splits their J-roots into monotone pieces with
    disjoint ranges.  So the cuts z = 0 and z_f make brackets with at
    most one zero of each F_sb; a branch has one where F_sb changes sign
    across the bracket.  Newton works on F_sb itself, well conditioned
    where p_J is not (as gamma -> 0, p_J tends to A^2).
    """
    # x = 1 - z at z_f and z = 0 in the chart of the pole z = 1; the chart
    # of z = -1 covers z < J <= 0 and needs no cut.  F = sb A + C R at each
    # edge, C = 4 gamma z; A and C R serve both branches.  R = 0 at both
    # ends, so F = sb A there
    t = _fold_t(gamma)
    r2, g4 = 2.0 * r, 4.0 * gamma * sigma
    edges = [(lo, lo * (3.0 * lo - 4.0 + r2) - r2, 0.0)]
    for c in ((t / (1.0 + t), 1.0) if t else (1.0,)) if sigma > 0.0 else ():
        if lo < c < hi:
            edges.append((c, c * (3.0 * c - 4.0 + r2) - r2, g4 * (1.0 - c)
                          * math.sqrt(2.0 * sigma * (r + c) * c * (2.0 - c))))
    edges.append((hi, hi * (3.0 * hi - 4.0 + r2) - r2, 0.0))
    out = []
    for sb in (1.0, -1.0):
        e0, a0, c0 = edges[0]
        # at J = 1 A vanishes at the pole x = 0 too, and F/x -> 8 gamma - 4 sb
        # there, or F/x ~ -2 sb x when that limit is 0 (gamma = sb/2, the
        # Hopf parameter)
        f0 = (8.0 * gamma - 4.0 * sb or -sb) if r == 0.0 else sb * a0 + c0
        for e1, a1, c1 in edges[1:]:
            f1 = sb * a1 + c1
            if f0 < 0.0 < f1 or f1 < 0.0 < f0:
                out.append((_chart_root(sb, g4, sigma, r, e0, e1, f0), sb))
            elif f1 == 0.0:   # a cut that is itself a root
                out.append((e1, sb))
            e0, f0 = e1, f1
    return out


def jc_reduced_critical_values(g: PolyG, j: float) -> list[CriticalValuePoint]:
    """All critical values of the reduced system at the momentum J = ``j``,
    as ``CriticalValuePoint`` named tuples.

    Interior critical points of both branches h_pm are the real roots of the
    quintic p_J in (-1, min(J, 1)) (module docstring), found in the chart
    x = 1 - sigma z at the pole z = sigma nearer to J; at gamma = 0 they are
    z = (J +- sqrt(J^2 + 3))/3 on both branches.  Their brackets come from
    cut points in closed form: z = 0 and, for |gamma| > 1/2, the fold z_f
    (``_chart_roots``).  Each point is classified by the sign of h''
    (saddles of the surface-restricted Hamiltonian are transversally
    hyperbolic); |h''| < CUSP_TOL marks a degenerate cusp.
    The pole equilibria contribute (J, G(1)) exactly at j = +-1.  Rows come
    in order of z, then pole < minus < plus.  A J out of range raises
    ValueError.  One J costs about 5 us at gamma = 0 and 20 us at gamma =
    0.8 (one x86-64 core).  Known limits: within float rounding of a fold
    value (``fold_offsets``) the two merging points may be miscounted; for
    J >~ 1e10 the z < 0 points, near -1/(2J), are solved in the chart of
    z = 1 and keep about 1e-16 absolute, not relative, error, so the plus
    and minus rows there may come out in either order.
    """
    gamma, j = g.gamma, float(j)
    if not (abs(j) < J_LIMIT and abs(gamma) < GAMMA_LIMIT):
        raise ValueError(f"need |J| < {J_LIMIT:g} and |gamma| < {GAMMA_LIMIT:g}, "
                         f"got J = {j!r}, gamma = {gamma!r}")
    if j < -1.0:
        raise ValueError("reduced domain is empty for J < -1")
    sigma = -1.0 if j <= 0.0 else 1.0
    r = sigma * j - 1.0
    lo, hi = (max(0.0, -r), 2.0) if sigma > 0.0 else (0.0, -r)
    if gamma == 0.0:
        # (J +- sqrt(J^2 + 3))/3, the smaller as -1/q against cancellation
        q = j + math.copysign(math.sqrt(j * j + 3.0), j)
        x1, x2 = 1.0 - sigma * (q / 3.0), 1.0 - sigma * (-1.0 / q)
        roots = [(x1, 1.0), (x1, -1.0), (x2, 1.0), (x2, -1.0)]
    else:
        roots = _chart_roots(gamma, sigma, r, lo, hi)
    # (z, rank 0/1/2 for pole/minus/plus, k, sb, x) inside the open
    # domain; k, the place in ``roots``, keeps ties in the order found
    top = j if j < 1.0 else 1.0
    found = [(z, 2 if sb > 0.0 else 1, k, sb, x)
             for k, (x, sb) in enumerate(roots)
             if lo < x < hi and -1.0 < (z := sigma * (1.0 - x)) < top]
    if j == 1.0 or j == -1.0:
        found.append((j, 0, 0, 0.0, 0.0))
    found.sort()
    new = tuple.__new__     # a row without the named tuple's Python __new__
    rows = []
    for z, rank, _, sb, x in found:
        if not rank:
            rows.append(new(CriticalValuePoint, (
                j, g.value(j), j, None, CriticalKind.EQUILIBRIUM_VALUE)))
            continue
        a, da, rad = _chart_terms(x, sigma, r)
        # h'' from chart quantities (d/dz = -sigma d/dx), which keep their
        # relative accuracy next to the pole where the z form cancels
        h2 = sb * (-sigma * da / (2.0 * rad) - a * a / (2.0 * rad ** 3)) \
            + 2.0 * gamma
        # elliptic: a maximum of h_+ or a minimum of h_-
        kind = (CriticalKind.CUSP if abs(h2) < CUSP_TOL
                else CriticalKind.TRANSVERSALLY_ELLIPTIC if sb * h2 < 0.0
                else CriticalKind.TRANSVERSALLY_HYPERBOLIC)
        rows.append(new(CriticalValuePoint, (
            j, sb * rad / 2.0 + gamma * z * z, z,
            Branch.PLUS if sb > 0.0 else Branch.MINUS, kind)))
    return rows


def jc_critical_values(g: PolyG, js) -> list[list[CriticalValuePoint]]:
    """``jc_reduced_critical_values`` at each J in ``js``, bit for bit, by
    the same float operations in the same order on arrays of GRID_BLOCK J:
    about 0.5 ms plus 4 us per J at gamma = 0.8 (one x86-64 core).  The
    first bad J raises the per-J ValueError."""
    js = np.fromiter(map(float, js), float)
    gamma = g.gamma
    bad = ~(np.abs(js) < J_LIMIT) | (js < -1.0) | (not abs(gamma) < GAMMA_LIMIT)
    if bad.any():
        jc_reduced_critical_values(g, js[bad.argmax()].item())
    with np.errstate(divide="ignore", invalid="ignore"):  # cut sqrt, chart ends
        return [rows for k in range(0, js.size, GRID_BLOCK)
                for rows in _grid_rows(gamma, js[k:k + GRID_BLOCK])]


def _grid_rows(gamma: float, js: np.ndarray) -> list[list[CriticalValuePoint]]:
    """The steps of ``jc_reduced_critical_values`` on an array of valid J."""
    n = js.size
    sigma = np.where(js <= 0.0, -1.0, 1.0)
    r = sigma * js - 1.0
    lo = np.where(sigma > 0.0, np.maximum(0.0, -r), 0.0)
    hi = np.where(sigma > 0.0, 2.0, -r)
    if gamma == 0.0:
        q = js + np.copysign(np.sqrt(js * js + 3.0), js)
        x1, x2 = 1.0 - sigma * (q / 3.0), 1.0 - sigma * (-1.0 / q)
        x, sb = np.stack([x1, x1, x2, x2], axis=1), np.array([1.0, -1.0] * 2)
    else:
        # edges lo, x(z_f), x(0) = 1, hi per J; a cut outside (lo, hi) or in
        # the chart of z = -1 copies the edge before it and ends no bracket
        t = _fold_t(gamma)
        e = np.stack([lo, np.full(n, t / (1.0 + t)), np.ones(n), hi], axis=1)
        sg, rr, g4 = sigma[:, None], r[:, None], 4.0 * gamma * sigma
        a = e * (3.0 * e - 4.0 + 2.0 * rr) - 2.0 * rr
        cr = g4[:, None] * (1.0 - e) * np.sqrt(2.0 * sg * (rr + e) * e * (2.0 - e))
        cr[:, 0] = cr[:, 3] = 0.0           # R = 0 at both chart ends
        f = np.array([[1.0], [-1.0]]) * a[:, None, :] + cr[:, None, :]
        f[r == 0.0, :, 0] = [8.0 * gamma - 4.0 * s or -s for s in (1.0, -1.0)]
        live = np.ones((n, 1, 3), bool)     # axes J, sb = +1/-1, bracket
        live[:, 0, :2] = (sg > 0.0) & (lo[:, None] < e[:, 1:3]) \
            & (e[:, 1:3] < hi[:, None])
        for k in (1, 2):
            e[:, k] = np.where(live[:, 0, k - 1], e[:, k], e[:, k - 1])
            f[..., k] = np.where(live[:, :, k - 1], f[..., k], f[..., k - 1])
        f0, f1 = f[..., :3], f[..., 1:]
        x = np.where(live & (f1 == 0.0), e[:, None, 1:], np.nan)  # cut roots
        i, s, k = np.nonzero(((f0 < 0.0) & (0.0 < f1)) | ((f1 < 0.0) & (0.0 < f0)))
        x[i, s, k] = _grid_newton(1.0 - 2.0 * s, g4[i], sigma[i], r[i], e[i, k],
                                  e[i, k + 1], f0[i, s, k] < 0.0)
        x, sb = x.reshape(n, 6), np.repeat([1.0, -1.0], 3)
    z = sigma[:, None] * (1.0 - x)
    i, k = np.nonzero((lo[:, None] < x) & (x < hi[:, None]) & (-1.0 < z)
                      & (z < np.minimum(js, 1.0)[:, None]))
    x, sb, z, sg = x[i, k], sb[k], z[i, k], sigma[i]
    a, da, rad = _chart_terms(x, sg, r[i], np.sqrt)
    # float_power is C pow, as Python's ** (numpy's SIMD power may differ)
    h2 = sb * (-sg * da / (2.0 * rad) - a * a / (2.0 * np.float_power(rad, 3.0))) \
        + 2.0 * gamma
    # the pole rows (z = J, rank 0 before minus 1 and plus 2) go last, and
    # the sort puts them in place; kind indexes CriticalKind
    p = np.flatnonzero(abs(js) == 1.0)
    nil = np.zeros(p.size, int)
    ii, zz, kk, rank, kind, hh = (np.concatenate(c) for c in (
        (i, p), (z, js[p]), (k, nil), (np.where(sb > 0.0, 2, 1), nil),
        (np.where(abs(h2) < CUSP_TOL, 2, np.where(sb * h2 < 0.0, 0, 1)), nil + 3),
        (sb * rad / 2.0 + gamma * z * z, gamma * js[p] * js[p])))
    order = np.lexsort((kk, rank, zz, ii))
    rows = list(map(tuple.__new__, itertools.repeat(CriticalValuePoint), zip(
        map(js.tolist().__getitem__, ii[order].tolist()),  # one float per J
        hh[order].tolist(), zz[order].tolist(),
        map((None, Branch.MINUS, Branch.PLUS).__getitem__, rank[order].tolist()),
        map(tuple(CriticalKind).__getitem__, kind[order].tolist()))))
    ends = np.cumsum(np.bincount(ii, minlength=n)).tolist()
    return [rows[s:e] for s, e in zip([0, *ends], ends)]


def _grid_newton(sb, g4, sigma, r, a, b, neg) -> np.ndarray:
    """``_chart_root`` on every bracket (a, b) at once, with its steps and
    its three stopping rules; a bracket leaves the arrays once it stops."""
    x = 0.5 * (a + b)
    out, idx = x.copy(), np.arange(x.size)
    for _ in range(NEWTON_STEPS):
        r2 = 2.0 * r
        aa = x * (3.0 * x - 4.0 + r2) - r2
        rad = np.sqrt(2.0 * sigma * (r + x) * x * (2.0 - x))
        c = g4 * (1.0 - x)
        fx = sb * aa + c * rad
        left = (fx < 0.0) == neg
        a, b = np.where(left, x, a), np.where(left, b, x)
        # dfx = 0 gives an infinite step, which bisects as the scalar's does
        step = fx / (sb * (6.0 * x - 4.0 + r2) - g4 * rad - c * sigma * aa / rad)
        xn = x - step
        zero, conv = fx == 0.0, abs(step) <= 1e-15 * x
        xb = np.where((a < xn) & (xn < b), xn, 0.5 * (a + b))
        out[idx] = x = np.where(zero, x, np.where(conv, xn, xb))
        go = ~(zero | conv | (b - a <= 1e-15 * xb))
        idx, x, a, b, sb, g4, sigma, r, neg = (
            v[go] for v in (idx, x, a, b, sb, g4, sigma, r, neg))
        if not idx.size:
            break
    return out


@dataclass(frozen=True)
class SpectrumCloud:
    """Sampled momentum-map image: (J, H) points (``symplin.read_only``),
    plus provenance metadata; ``seed`` is an int >= 0 (``symplin.nonneg_int``)."""

    points: np.ndarray   # shape (n, 2)
    seed: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if not np.isfinite(pts).all():
            raise ValueError("cloud points must be finite")
        object.__setattr__(self, "points", symplin.read_only(pts))
        object.__setattr__(self, "seed",
                           symplin.nonneg_int(self.seed, "SpectrumCloud", "seed"))

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def bounds(self) -> tuple[float, float, float, float] | None:
        """(J_min, J_max, H_min, H_max), or None for an empty cloud."""
        if self.count == 0:
            return None
        j, h = self.points[:, 0], self.points[:, 1]
        return float(j.min()), float(j.max()), float(h.min()), float(h.max())

    def __eq__(self, other):
        return (isinstance(other, SpectrumCloud) and self.seed == other.seed
                and self.points.shape == other.points.shape
                and bool(np.array_equal(self.points, other.points)))


def jc_spectrum_sample(g: PolyG, n: int, j_max: float, seed: int) -> SpectrumCloud:
    """Deterministic pseudo-random sample of the momentum-map image.

    Sphere points are area-exact (z uniform on [-1, 1], angle phi uniform);
    the oscillator radius^2 is uniform on [0, 2 (j_max + 1)], its angle psi
    uniform.  Reproducible for a fixed seed: the generator
    ``default_rng(seed)`` draws n values each of z, phi, radius^2 and psi,
    in that order, and the (J, H) bytes are those of
    J = radius^2/2 + z, H = (x u + y v)/2 + (gamma z) z, with
    u = r cos psi formed before x u.

    J and H go straight into the returned (n, 2) array, and six length-n
    buffers hold every other intermediate, each overwritten once used: the
    traced peak is about 3.6 times the cloud's 16 bytes per point.
    """
    n = symplin.nonneg_int(n, "jc_spectrum_sample", "n")
    j_max = symplin.finite_float(j_max, "jc_spectrum_sample", "j_max")
    if not (j_max > -1.0 and math.isfinite(2.0 * (j_max + 1.0))):
        raise ValueError(f"need -1 < j_max with 2 (j_max + 1) finite, got {j_max!r}")
    seed = symplin.nonneg_int(seed, "SpectrumCloud", "seed")
    rng = np.random.default_rng(seed)
    if n == 0:
        return SpectrumCloud(points=np.empty((0, 2)), seed=seed)
    points = np.empty((n, 2))
    jj, hh = points[:, 0], points[:, 1]
    z = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(0.0, 2.0 * math.pi, n)                  # phi, then y
    s = np.multiply(z, z)                                   # sqrt(1 - z^2)
    np.sqrt(np.maximum(0.0, np.subtract(1.0, s, out=s), out=s), out=s)
    x = np.cos(y)
    np.multiply(s, x, out=x)
    np.multiply(s, np.sin(y, out=y), out=y)
    del s
    r = rng.uniform(0.0, 2.0 * (j_max + 1.0), n)            # r^2, then r
    np.add(np.divide(r, 2.0, out=jj), z, out=jj)
    np.multiply(np.multiply(g.gamma, z, out=hh), z, out=hh)
    np.sqrt(r, out=r)
    psi = rng.uniform(0.0, 2.0 * math.pi, n)                # psi, then v
    u = np.cos(psi, out=z)
    np.multiply(x, np.multiply(r, u, out=u), out=x)         # x u
    np.multiply(y, np.multiply(r, np.sin(psi, out=psi), out=psi), out=y)
    np.add(np.divide(np.add(x, y, out=x), 2.0, out=x), hh, out=hh)
    points.flags.writeable = False      # held here alone: the cloud keeps it
    return SpectrumCloud(points=points, seed=seed)
