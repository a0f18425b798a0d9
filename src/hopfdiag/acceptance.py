"""Self-verification suite: every release-gating check, one function each.

Each criterion function returns a one-line detail string on success and
raises AssertionError with a diagnostic on failure; ``run_all`` wraps them
into timed pass/fail records (the ``verify`` CLI subcommand prints these).
Where ``spectrum._may_fork`` holds (two CPUs, one OS thread), a forked
child runs the ``CHILD_CRITERIA`` while this process runs the others; the
records, their order and every outcome are those of one process.
Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from . import cli, hopf, models, oracle, spectrum, symplin

REFERENCE_PARAMS = hopf.HopfParams(omega=1.0, sigma=1, nu=0.5, D=-2.0)
LOOP_GAMMA = models.PolyG(0.8)
S_SAMPLES = 401          # curve parameters s in [-sqrt(nu), sqrt(nu)]
REGION_BLOCK = 8192      # criterion 8's columns per block: 64 KiB per array


def _require(ok, message: str) -> None:
    if not ok:      # an assert statement would not run under python -O
        raise AssertionError(message)


def _s_grid(params: hopf.HopfParams) -> np.ndarray:
    root = np.sqrt(params.nu)
    return np.linspace(-root, root, S_SAMPLES)


def criterion_01_discriminant_identity() -> str:
    """401-sample double-root residuals below 1e-10 (scaled), in under 1 s."""
    t0 = time.perf_counter()
    params = REFERENCE_PARAMS
    ss = _s_grid(params)
    c0, c1, c2, c3 = hopf.q_coeffs(hopf.curve_j(params, ss),
                                   hopf.curve_h(params, ss), params)
    d = hopf.double_root(params, ss)
    q = ((c3 * d + c2) * d + c1) * d + c0
    dq = (3.0 * c3 * d + 2.0 * c2) * d + c1
    scale = np.abs(np.broadcast_arrays(1.0, c0, c1, c2, c3)).max(axis=0)
    worst = float(np.max(np.maximum(np.abs(q), np.abs(dq)) / scale))
    elapsed = time.perf_counter() - t0
    _require(worst < 1e-10, f"scaled double-root residual {worst:.3g} >= 1e-10")
    _require(elapsed < 1.0, f"took {elapsed:.3f}s >= 1s")
    return f"max scaled residual {worst:.2e} in {elapsed * 1e3:.0f} ms"


def criterion_02_hyperbolic_anchor() -> str:
    """Brute-force double-root search over H at J=0 recovers -nu^2/(8D).

    The two positive roots of Q(.; J=0, H) merge into a double root exactly
    at the anchor level: bisect the root-count transition, then confirm the
    double root itself with the defect minimizer.  With D's sign flipped
    (sigma*D > 0) the bracket holds no such level, and ``hopf.regime``
    must call the two cases subcritical and supercritical.
    """
    params = REFERENCE_PARAMS
    mirror = replace(params, D=-params.D)

    def positive_real_roots(h, p=params):
        roots = oracle.cubic_roots(hopf.q_poly(0.0, float(h), p))
        return sum(1 for r in roots if abs(r.imag) < 1e-6 and r.real > 1e-6)

    lo, hi = 0.001, 0.05
    _require(positive_real_roots(lo) == 2 and positive_real_roots(hi) == 0,
             "bracket does not straddle the double-root level")
    counts = positive_real_roots(lo, mirror), positive_real_roots(hi, mirror)
    _require(counts != (2, 0),
             f"bracket straddles a double-root level at sigma*D > 0: {counts}")
    for p, want in ((params, hopf.Regime.SUBCRITICAL),
                    (mirror, hopf.Regime.SUPERCRITICAL)):
        got = hopf.regime(p)
        _require(got is want, f"regime {got.value} at sigma*D = "
                 f"{p.sigma * p.D:g}; the double-root search says {want.value}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if positive_real_roots(mid) >= 2:
            lo = mid
        else:
            hi = mid
    h_star = 0.5 * (lo + hi)
    z_star = oracle.double_root_find(hopf.q_poly(0.0, h_star, params),
                                     (1e-3, 0.3))
    expected = -params.nu ** 2 / (8.0 * params.D)
    err = abs(h_star - expected)
    _require(err < 1e-9, f"|H* - 1/64| = {err:.3g} >= 1e-9")
    _require(abs(z_star - 1.0 / 16.0) < 1e-5, f"double root at z = {z_star}")
    return (f"H* = {h_star!r} (err {err:.2e}), double root z = {z_star:.8f}; "
            f"sigma*D > 0: {counts} positive roots, supercritical")


def criterion_03_hessian_law() -> str:
    """FD Hessian determinant at (d(s), 0) equals 2(3s^2 - nu) within 1e-7."""
    params = REFERENCE_PARAMS
    ss = _s_grid(params)
    d = hopf.double_root(params, ss)
    keep = ~(d < 1e-9)    # endpoints: the reduced chart (z > 0) ends there
    ss, d = ss[keep], d[keep]
    j = hopf.curve_j(params, ss)

    def f(w):
        return hopf.reduced_hamiltonian(w[0], w[1], j, params)

    # z-step scales with the tiny double root; the p_z direction is
    # exactly quadratic, so a wide step there only suppresses rounding
    hess = oracle.fd_hessian(f, np.stack([d, np.zeros_like(d)]),
                             step=np.stack([0.01 * d, np.full_like(d, 0.25)]),
                             levels=1)
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
    worst = float(np.max(np.abs(det - hopf.hessian_det2(params, ss))))
    _require(worst < 1e-7, f"|det - 2(3s^2-nu)| = {worst:.3g} >= 1e-7")
    signs = np.sign(det)
    k = np.flatnonzero(signs[:-1] != signs[1:])
    flips = list(zip(ss[k].tolist(), ss[k + 1].tolist()))
    cusp = np.sqrt(params.nu / 3.0)
    _require(len(flips) == 2, f"expected 2 sign changes, got {len(flips)}")
    for lo, hi in flips:
        _require(lo <= -cusp <= hi or lo <= cusp <= hi,
                 f"sign change at ({lo}, {hi}) not at +-sqrt(nu/3)")
    return f"max |det error| {worst:.2e}; sign flips at +-sqrt(nu/3)"


def criterion_04_tangent_cusp_law() -> str:
    """Closed-form tangent vs FD (1e-6); exact zeros only at the cusps."""
    params = REFERENCE_PARAMS
    step = hopf.TANGENT_FD_STEP
    ss = _s_grid(params)
    dj, dh = hopf.curve_tangent(params, ss)
    fd_j = (hopf.curve_j(params, ss + step) - hopf.curve_j(params, ss - step)) / (2 * step)
    fd_h = (hopf.curve_h(params, ss + step) - hopf.curve_h(params, ss - step)) / (2 * step)
    worst = float(np.max(np.maximum(np.abs(dj - fd_j), np.abs(dh - fd_h))))
    _require(worst < 1e-6, f"tangent FD mismatch {worst:.3g} >= 1e-6")

    for s_cusp in hopf.cusps(params):
        dj_c, dh_c = hopf.curve_tangent(params, s_cusp)
        _require(max(abs(dj_c), abs(dh_c)) < 1e-12,
                 f"tangent at cusp {s_cusp} is ({dj_c}, {dh_c})")
    root, cusp = np.sqrt(params.nu), np.sqrt(params.nu / 3.0)
    off_cusp = np.minimum(np.abs(ss - cusp), np.abs(ss + cusp)) > 1e-2
    flat = ss[off_cusp & ~(np.abs(dj) > 0.0)]
    _require(flat.size == 0, f"tangent vanishes off-cusp at s={next(iter(flat), None)}")

    # the three open segments are graphs over J: strict monotonicity
    for a, b in ((-root, -cusp), (-cusp, cusp), (cusp, root)):
        ss = np.linspace(a, b, 101)[1:-1]
        diffs = np.diff(hopf.curve_j(params, ss))
        _require(np.all(diffs > 0) or np.all(diffs < 0),
                 f"J not monotone on segment ({a:.4f}, {b:.4f})")
    return f"max tangent FD error {worst:.2e}; cusps exact; segments monotone"


def criterion_05_origin_slopes() -> str:
    """Secant slopes of the elliptic segments converge to omega +- sigma*sqrt(nu),
    their error dropping 5x to 20x per decade of delta (10x in theory)."""
    params = REFERENCE_PARAMS
    root = np.sqrt(params.nu)
    slope_plus, slope_minus = hopf.origin_slopes(params)
    worst, ratios = 0.0, []
    for target, end in ((slope_plus, root), (slope_minus, -root)):
        errs = []
        for delta in (1e-3, 1e-4, 1e-5, 1e-6):
            s = end - np.sign(end) * delta * root
            secant = hopf.curve_h(params, s) / hopf.curve_j(params, s)
            errs.append(abs(secant - target))
        err = errs[-1]
        _require(err < 1e-3, f"secant near s={end} off by {err:.3g}")
        for big, small in zip(errs, errs[1:]):
            _require(5.0 * small < big < 20.0 * small,
                     f"secant error near s={end} drops from {big:.3g} to "
                     f"{small:.3g}, not 5x to 20x")
            ratios.append(big / small)
        worst = max(worst, err)
    return (f"slopes {slope_plus}, {slope_minus}; final secant error "
            f"{worst:.2e}; drops {min(ratios):.3f}x to {max(ratios):.3f}x "
            f"per decade")


def criterion_06_eigenvalue_laws() -> str:
    """Oracle eigenvalues of the origin linearization match the closed forms
    and ``symplin.eigen_closed`` of the matrix's (a, b) = (p0, p2)."""
    details = []
    for nu in (-0.25, 0.25, 0.0):
        params = hopf.HopfParams(omega=1.0, sigma=1, nu=nu, D=-2.0)
        closed = hopf.equilibrium_eigenvalues(params)
        m = symplin.hamiltonian_matrix(hopf.linearization_hessian(params))
        numeric = oracle.eig4(m)
        err = oracle.match_eigensets(numeric, closed)
        _require(err < 1e-10, f"nu={nu}: eigenvalue mismatch {err:.3g}")
        p0, _, p2, _ = oracle.char_poly4(m)
        quartic = oracle.match_eigensets(
            symplin.eigen_closed(symplin.QuarticCoeffs(a=p0, b=p2)), numeric)
        _require(quartic < 1e-10, f"nu={nu}: eigen_closed off by {quartic:.3g}")
        details.append(f"nu={nu}: {err:.1e}, eigen_closed {quartic:.1e}")
    # collision at nu = 0: the quadruplet collapses onto +-i*omega doubled
    params = hopf.HopfParams(omega=1.0, sigma=1, nu=0.0, D=-2.0)
    collapsed = hopf.equilibrium_eigenvalues(params)
    err = oracle.match_eigensets(collapsed, np.array([1j, 1j, -1j, -1j]))
    _require(err < 1e-10, f"nu=0 collision off by {err:.3g}")
    return "; ".join(details)


def criterion_07_conjugation() -> str:
    """Invariant-conjugation identities and symplecticity of T, at 1e-12; the
    deformed Hamiltonian H~ of ``build_htilde`` at nu = -0.1, 0 and 0.1
    satisfies H~ o T = H_nu at 1e-12, and is focus-focus, on a = b^2/4
    with b > 0 (relative 1e-12), and elliptic-elliptic."""
    rng = np.random.default_rng(7)
    b_mat = symplin.SYMPLECTIC_MATRIX
    big_d = REFERENCE_PARAMS.D
    worst = 0.0
    values, normal_forms, quartics = [], [], []     # per (set, nu)
    for _ in range(20):
        vals = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        e = hopf.EliassonParams(omega_t=vals[0], alpha_t=vals[1], delta=vals[2])
        t_mat = hopf.transformation_T(e)
        sympl = np.max(np.abs(t_mat.T @ b_mat @ t_mat - b_mat))
        worst = np.maximum(worst, sympl)
        p_hat = rng.uniform(-1.0, 1.0, (100, 4)).T    # one point per column
        p = t_mat @ p_hat
        g1, g2, g3 = symplin.j1(p_hat), symplin.k2(p_hat), symplin.k1(p_hat)
        sigma = e.sigma
        defects = (g1 - symplin.j1(p),
                   g2 - sigma * (e.alpha_t * symplin.j2(p)
                                 + e.gamma_hat * symplin.k1(p)
                                 + e.delta * symplin.k2(p)),
                   g3 - sigma * symplin.k1(p) / e.delta)
        worst = np.maximum(worst, np.max(np.abs(defects)))
        h_0 = e.omega_t * g1 + sigma * g2 + 2.0 * big_d * g3 * g3
        for nu in (-0.1, 0.0, 0.1):
            htilde = hopf.build_htilde(e, nu, big_d)
            values.append(htilde.value(p))
            normal_forms.append(h_0 + sigma * nu * g3)
            quartics.append(htilde.quartic_coeffs())
    _require(worst < 1e-12, f"conjugation/symplecticity defect {worst:.3g} >= 1e-12")
    h_worst = np.max(np.abs(np.subtract(values, normal_forms)))
    _require(h_worst < 1e-12, f"|H~ o T - H_nu| = {h_worst:.3g} >= 1e-12")
    kinds = [str(symplin.classify(q)) for q in quartics]
    for nu, got, want in ((-0.1, kinds[0::3], "FocusFocus"),
                          (0.1, kinds[2::3], "EllipticElliptic")):
        _require(got == [want] * 20, f"nu={nu}: types {sorted(set(got))}")
    a, b = np.array([(q.a, q.b) for q in quartics[1::3]]).T
    _require(np.all(b > 0.0), f"nu=0: b = {b.min():.3g} <= 0")
    parabola = np.max(np.abs(a - b * b / 4.0) / np.maximum(1.0, a))
    _require(parabola < 1e-12,
             f"nu=0: |a - b^2/4| / max(1, a) = {parabola:.3g} >= 1e-12")
    return (f"max defect {worst:.2e} over 20 parameter sets x 100 points; "
            f"H~ o T - H_nu {h_worst:.2e}; FF/EE at nu = -/+0.1, "
            f"nu=0 off a = b^2/4 by {parabola:.2e}")


def criterion_08_region_exclusion() -> str:
    """10^5 random family tuples never classify HH or EH; identity at 1e-9."""
    draw = np.random.default_rng(8).uniform(-3.0, 3.0, (4, 100_000))
    hh, eh, worst = _region_exclusion(draw)
    _require(not hh, f"{hh} hyperbolic-hyperbolic classifications")
    _require(not eh, f"{eh} elliptic-hyperbolic classifications")
    _require(worst < 1e-9,
             f"identity b^2/4 - a = 4w^2(gd - alpha^2) off by {worst:.3g}")
    return f"0 HH, 0 EH; identity max relative error {worst:.2e}"


def _region_exclusion(draw: np.ndarray):
    """HH count, EH count and worst relative identity error over the
    columns (w, alpha, gamma, delta) of ``draw``, ``REGION_BLOCK`` columns
    at a time.  Every step is element-wise, so the result does not depend
    on ``REGION_BLOCK``; a NaN error anywhere makes ``worst`` NaN."""
    hh = eh = 0
    worst = 0.0
    for k in range(0, draw.shape[1], REGION_BLOCK):
        w, al, ga, de = draw[:, k:k + REGION_BLOCK]
        gd = ga * de
        a = (al * al + w * w - gd) ** 2
        b = 2.0 * (gd - al * al + w * w)
        parab = b * b / 4.0
        hh += int(np.count_nonzero((a > 0) & (a < parab) & (b < 0)))
        eh += int(np.count_nonzero(a < 0))
        rhs = 4.0 * w * w * (gd - al * al)
        scale = np.maximum.reduce([np.ones_like(a), a, np.abs(parab), np.abs(rhs)])
        worst = np.maximum(worst, np.max(np.abs(parab - a - rhs) / scale))
    return hh, eh, float(worst)


def criterion_09_jc_linearization() -> str:
    """Analytic (a, b)(gamma) matches H~'s pole Jacobian; types transition."""
    worst = 0.0
    for gamma in (0.0, 0.25, 0.4, 0.5, 0.8, 1.5):
        g = models.PolyG(gamma)
        analytic, _ = models.jc_linearization(g)
        numeric = models.jc_linearization_numeric(g)
        worst = max(worst, abs(analytic.a - numeric.a), abs(analytic.b - numeric.b))
    _require(worst < 1e-10, f"analytic/numeric (a, b) differ by {worst:.3g}")
    for gamma, expected in ((0.25, "FocusFocus"), (0.4, "FocusFocus"),
                            (0.5, "Boundary(ParabolaPlus)"),
                            (0.8, "EllipticElliptic"), (1.5, "EllipticElliptic")):
        _, typ = models.jc_linearization(models.PolyG(gamma))
        _require(str(typ) == expected, f"gamma={gamma}: {typ} != {expected}")
    return f"max |(a, b) error| {worst:.2e}; FF -> Boundary -> EE at 1/2"


def criterion_10_commutation() -> str:
    """{J, H~} = 0 within 1e-11 at 1000 random states per gamma."""
    worst = 0.0
    for k, gamma in enumerate((0.0, 0.5, 0.8, 1.5)):
        g = models.PolyG(gamma)
        br = models.poisson_bracket(
            models.jc_grad_J, lambda s: models.jc_grad_Htilde(s, g),
            _random_states(1000, seed=100 + k))
        worst = np.maximum(worst, np.max(np.abs(br)))
    _require(worst < 1e-11, f"|{{J, H~}}| = {worst:.3g} >= 1e-11")
    return f"max |{{J, H~}}| = {worst:.2e} over 4 gammas x 1000 states"


def _random_states(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z, phi = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z,
                     *rng.normal(0.0, 1.0, (2, n))])


def criterion_11_undeformed_diagram() -> str:
    """gamma=0, J=0: two elliptic values at +-3^(-3/4); pole values exact."""
    g = models.PolyG(0.0)
    pts = models.jc_reduced_critical_values(g, 0.0)
    _require(len(pts) == 2, f"expected 2 critical values, got {len(pts)}")
    _require(all(p.kind is models.CriticalKind.TRANSVERSALLY_ELLIPTIC
                 for p in pts), f"kinds {[p.kind for p in pts]} not elliptic")
    hs = sorted(p.H for p in pts)
    for got, want in zip(hs, (-0.438691, 0.438691)):
        _require(abs(got - want) < 1e-6, f"H = {got} not within 1e-6 of {want}")
    # independent golden-section extremization of the upper branch
    z_star, h_star = oracle.golden_max(
        lambda z: float(models.branch_value(z, 0.0, g, models.Branch.PLUS)),
        -1.0 + 1e-9, -1e-9, tol=1e-13)
    _require(abs(h_star - max(hs)) < 1e-9,
             f"golden-section oracle gives {h_star}, solver {max(hs)}")
    _require(abs(z_star + 1.0 / np.sqrt(3.0)) < 1e-6, f"extremum at z={z_star}")
    for j in (1.0, -1.0):
        eq = [p for p in models.jc_reduced_critical_values(g, j)
              if p.kind is models.CriticalKind.EQUILIBRIUM_VALUE]
        _require(len(eq) == 1 and eq[0].J == j and eq[0].H == 0.0,
                 f"pole value at J={j} missing or inexact: {eq}")
    return f"H = +-{max(hs)!r} at z = -1/sqrt(3); pole values (+-1, 0) exact"


def _plus_points(g, j):
    """Critical points of the upper branch h_+ at momentum ``j``."""
    return [p for p in models.jc_reduced_critical_values(g, j)
            if p.branch is models.Branch.PLUS]


def criterion_12_post_hopf_loop() -> str:
    """gamma = 4/5: a J-window with a 3-point branch, one hyperbolic value,
    terminated by h'' -> 0 folds; counts return to 2 outside; scan < 10 s."""
    t0 = time.perf_counter()
    g = LOOP_GAMMA
    grid = np.linspace(-0.9, 3.3, 400)
    _require(not np.any(grid == 1.0), "J = 1 on the grid: a point merges with the pole")
    counts = []     # (plus-branch, hyperbolic, all) interior points per J
    for pts in models.jc_critical_values(g, grid):
        interior = [p for p in pts
                    if p.kind is not models.CriticalKind.EQUILIBRIUM_VALUE]
        counts.append((
            sum(p.branch is models.Branch.PLUS for p in interior),
            sum(p.kind is models.CriticalKind.TRANSVERSALLY_HYPERBOLIC
                for p in interior),
            len(interior)))
    plus_counts, hyp_counts, totals = np.array(counts).T.tolist()
    elapsed = time.perf_counter() - t0
    _require(elapsed < 10.0, f"400-step scan took {elapsed:.2f}s >= 10s")

    # maximal runs (first, last) of grid indices with a 3-point branch
    bounds = np.flatnonzero(np.diff(np.r_[0, np.array(plus_counts) == 3, 0]))
    runs = list(zip(bounds[::2].tolist(), (bounds[1::2] - 1).tolist()))
    _require(runs, "no J with a 3-point branch found")
    i0, i1 = max(runs, key=lambda r: r[1] - r[0])
    _require(i1 - i0 >= 10, f"window too narrow: {i1 - i0} grid steps")
    for i in range(i0, i1 + 1):
        _require(hyp_counts[i] == 1,
                 f"J={grid[i]}: {hyp_counts[i]} hyperbolic values, expected 1")
    for i in list(range(0, max(0, i0 - 2))) + list(range(min(len(grid), i1 + 3),
                                                         len(grid))):
        _require(totals[i] == 2 and hyp_counts[i] == 0,
                 f"J={grid[i]}: count {totals[i]} outside the window")

    # the hyperbolic family terminates at the closed-form folds, which bound
    # the scanned window, and h'' passes through 0 there
    edges = [1.0 + r for r in models.fold_offsets(g)]
    _require(len(edges) == 2, f"fold values {edges}, expected 2")
    _require(grid[max(0, i0 - 1)] < edges[0] <= grid[i0]
             and grid[i1] <= edges[1] < grid[min(len(grid) - 1, i1 + 1)],
             f"folds {edges} do not bound the scanned window")
    for edge, inward in zip(edges, (1.0, -1.0)):
        probe = edge + inward * 1e-5
        pts = _plus_points(g, probe)
        _require(len(pts) == 3, f"probe at J={probe} sees {len(pts)} points")
        pts.sort(key=lambda p: p.z_at)
        pairs = [(pts[k], pts[k + 1]) for k in range(2)]
        near = min(pairs, key=lambda pr: pr[1].z_at - pr[0].z_at)
        h2 = [float(models.branch_second_deriv(p.z_at, probe, g, models.Branch.PLUS))
              for p in near]
        _require(h2[0] * h2[1] < 0.0, f"merging pair h'' = {h2} not straddling 0")
        # the solver's rule: a plus-branch point is hyperbolic iff h'' > 0
        _require([p.kind is models.CriticalKind.TRANSVERSALLY_HYPERBOLIC
                  for p in near] == [v > 0.0 for v in h2],
                 f"merging pair kinds {[p.kind.value for p in near]} "
                 f"disagree with h'' = {h2}")
        _require(max(abs(v) for v in h2) < 5e-2,
                 f"h'' not small near the fold: {h2}")
    return (f"window J in ({edges[0]:.4f}, {edges[1]:.4f}), one hyperbolic "
            f"value inside, 2 values outside; scan {elapsed:.2f}s")


def _polyline_crossings(p0, p1, poly) -> np.ndarray:
    """For each segment p0[k]-p1[k], True if it meets a polyline segment.

    Only polyline segments whose bounding box meets the segment's are
    tested, so memory follows the candidates, not pairs x polyline.
    """
    a, b = poly[:-1], poly[1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    qlo, qhi = np.minimum(p0, p1), np.maximum(p0, p1)
    k, i = np.nonzero((lo[:, 0] <= qhi[:, :1]) & (hi[:, 0] >= qlo[:, :1]))
    keep = (lo[i, 1] <= qhi[k, 1]) & (hi[i, 1] >= qlo[k, 1])
    k, i = k[keep], i[keep]
    q0, q1, a, b = p0[k], p1[k], a[i], b[i]
    d, e = q1 - q0, b - a
    d1 = d[:, 0] * (a[:, 1] - q0[:, 1]) - d[:, 1] * (a[:, 0] - q0[:, 0])
    d2 = d[:, 0] * (b[:, 1] - q0[:, 1]) - d[:, 1] * (b[:, 0] - q0[:, 0])
    d3 = e[:, 0] * (q0[:, 1] - a[:, 1]) - e[:, 1] * (q0[:, 0] - a[:, 0])
    d4 = e[:, 0] * (q1[:, 1] - a[:, 1]) - e[:, 1] * (q1[:, 0] - a[:, 0])
    hit = (d1 * d2 <= 0) & (d3 * d4 <= 0)
    return np.bincount(k[hit], minlength=len(p0)) > 0


def criterion_13_torus_counts() -> str:
    """Spot torus counts and count-changes only across the critical curves."""
    params = REFERENCE_PARAMS
    count, unbounded = hopf.torus_count(params, 0.0, 1.0 / 128.0)
    _require((count, unbounded) == (2, True), f"(0, 1/128) -> ({count}, {unbounded})")
    count, unbounded = hopf.torus_count(params, 0.0, -0.1)
    _require((count, unbounded) == (1, True), f"(0, -0.1) -> ({count}, {unbounded})")

    ss = np.linspace(-np.sqrt(params.nu), np.sqrt(params.nu), 4001)
    poly = np.column_stack([hopf.curve_j(params, ss), hopf.curve_h(params, ss)])
    n = 50
    j_edges = np.linspace(-0.05, 0.05, n + 1)
    h_edges = np.linspace(-0.03, 0.07, n + 1)
    j_c = (j_edges[:-1] + j_edges[1:]) / 2.0
    h_c = (h_edges[:-1] + h_edges[1:]) / 2.0
    counts = hopf.torus_count(params, j_c[:, None], h_c[None, :])[0]
    i, k = np.nonzero(counts[:-1, :] != counts[1:, :])     # J neighbours
    i2, k2 = np.nonzero(counts[:, :-1] != counts[:, 1:])   # H neighbours
    p0 = np.column_stack([j_c[np.r_[i, i2]], h_c[np.r_[k, k2]]])
    p1 = np.column_stack([j_c[np.r_[i + 1, i2]], h_c[np.r_[k, k2 + 1]]])
    crossed = _polyline_crossings(p0, p1, poly)
    bad = int(np.count_nonzero(~crossed))
    _require(bad == 0, f"{bad} count changes away from the critical curves")
    values = sorted(set(counts.ravel().tolist()))
    return f"spot counts OK; cell counts {values}; all changes on the curves"


def criterion_14_determinism() -> str:
    """hopf-curve and jc-spectrum outputs are byte-identical across reruns."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = []
        for tag in ("a", "b"):
            prefix = tmp / f"run_{tag}"
            rc = cli.main(["hopf-curve", "--omega", "1", "--sigma", "1",
                           "--nu", "0.5", "--D", "-2", "--samples", "200",
                           "--out", str(prefix)])
            _require(rc == 0, f"hopf-curve exited {rc}")
            rc = cli.main(["jc-spectrum", "--gamma", "0.8", "--j-min", "0",
                           "--j-max", "2", "--j-steps", "5", "--samples",
                           "2000", "--seed", "42", "--out", str(prefix)])
            _require(rc == 0, f"jc-spectrum exited {rc}")
            blobs = {}
            for suffix in ("_curve.csv", "_diagram.json", "_critical.csv",
                           "_cloud.csv"):
                blobs[suffix] = (prefix.parent / (prefix.name + suffix)).read_bytes()
            outputs.append(blobs)
        for suffix, blob in outputs[0].items():
            _require(blob == outputs[1][suffix], f"{suffix} differs between runs")
    return "4 output files byte-identical across repeated runs"


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA = [
    (1, "discriminant identity", criterion_01_discriminant_identity),
    (2, "hyperbolic anchor", criterion_02_hyperbolic_anchor),
    (3, "hessian law", criterion_03_hessian_law),
    (4, "tangent/cusp law", criterion_04_tangent_cusp_law),
    (5, "origin slopes", criterion_05_origin_slopes),
    (6, "eigenvalue laws", criterion_06_eigenvalue_laws),
    (7, "T-conjugation", criterion_07_conjugation),
    (8, "region exclusion", criterion_08_region_exclusion),
    (9, "jc linearization", criterion_09_jc_linearization),
    (10, "commutation", criterion_10_commutation),
    (11, "undeformed diagram", criterion_11_undeformed_diagram),
    (12, "post-Hopf loop", criterion_12_post_hopf_loop),
    (13, "torus counts", criterion_13_torus_counts),
    (14, "determinism", criterion_14_determinism),
]


# The criteria that a forked child runs beside the others.  Criterion 14
# shares no state with them and is the longest; with {8, 14} the child
# took 2.4 MB off the parent's peak but verify was slower in 9 of 12 timed
# pairs (2 CPUs).
CHILD_CRITERIA = frozenset({14})


def _record(number: int, name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        detail, passed = fn(), True
    except AssertionError as exc:
        detail, passed = str(exc), False
    return CriterionResult(number=number, name=name, passed=passed,
                           detail=detail, seconds=time.perf_counter() - t0)


def _records(criteria) -> dict:
    """Each criterion's record by number, in order, up to the first that
    raises an error other than AssertionError, which stands in its place."""
    done = {}
    for number, name, fn in criteria:
        try:
            done[number] = _record(number, name, fn)
        except Exception as exc:
            done[number] = exc
            break
    return done


def _child_records(report: bytes, criteria) -> dict:
    """The records that a child sent as ``report``, by number; none unless
    it is whole and lists exactly ``criteria``, in order."""
    try:
        records = [CriterionResult(*r) for r in json.loads(report)]
    except (TypeError, ValueError):
        return {}
    if [(r.number, r.name) for r in records] != [c[:2] for c in criteria]:
        return {}
    return {r.number: r for r in records}


def run_all() -> list[CriterionResult]:
    """Every criterion's record, in ``CRITERIA`` order; any error other
    than AssertionError propagates, from the first criterion that raises.
    Where ``spectrum._may_fork`` holds, a forked child runs the
    ``CHILD_CRITERIA`` and sends their records as JSON while this process
    runs the others, then reaps it (an error here waits for the child, so
    criterion 14 removes its temporary directory; a KeyboardInterrupt kills
    it).  A criterion with no record from the child, because it exited
    nonzero or its report is short, runs here in its turn."""
    there = [c for c in CRITERIA if c[0] in CHILD_CRITERIA]
    here = [c for c in CRITERIA if c[0] not in CHILD_CRITERIA]
    done, split = {}, None
    if there and spectrum._may_fork():
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()      # else the child's flush repeats its text
        split = spectrum._forked(
            lambda: [json.dumps([astuple(_record(*c)) for c in there]).encode()],
            lambda fd: (_records(here),
                        b"".join(iter(partial(os.read, fd, 1 << 16), b""))))
    if split:
        (done, report), status = split
        if not status:
            done.update(_child_records(report, there))
    results = []
    for number, name, fn in CRITERIA:
        record = done.get(number) or _record(number, name, fn)
        if isinstance(record, Exception):
            raise record
        results.append(record)
    return results
