"""Self-verification suite: every release-gating check, one function each.

Each criterion function returns a one-line detail string on success and
raises AssertionError with a diagnostic on failure; ``run_all`` wraps them
into timed pass/fail records (the ``verify`` CLI subcommand prints these).
Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cli, hopf, models, oracle, symplin

REFERENCE_PARAMS = hopf.HopfParams(omega=1.0, sigma=1, nu=0.5, D=-2.0)
LOOP_GAMMA = models.PolyG(0.8)


def _s_grid(params: hopf.HopfParams, n: int = 401) -> np.ndarray:
    root = np.sqrt(params.nu)
    return np.linspace(-root, root, n)


def criterion_01_discriminant_identity() -> str:
    """401-sample double-root residuals below 1e-10 (scaled), in under 1 s."""
    t0 = time.perf_counter()
    params = REFERENCE_PARAMS
    worst = 0.0
    for s in _s_grid(params):
        c = hopf.critical_curve_point(params, float(s))
        q = hopf.q_poly(c.J, c.H, params)
        res = max(abs(q(c.d)), abs(q.deriv()(c.d))) / q.scale
        worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"scaled double-root residual {worst:.3g} >= 1e-10"
    assert elapsed < 1.0, f"took {elapsed:.3f}s >= 1s"
    return f"max scaled residual {worst:.2e} in {elapsed * 1e3:.0f} ms"


def criterion_02_hyperbolic_anchor() -> str:
    """Brute-force double-root search over H at J=0 recovers -nu^2/(8D).

    The two positive roots of Q(.; J=0, H) merge into a double root exactly
    at the anchor level: bisect the root-count transition, then confirm the
    double root itself with the defect minimizer.
    """
    params = REFERENCE_PARAMS

    def positive_real_roots(h):
        roots = oracle.cubic_roots(hopf.q_poly(0.0, float(h), params))
        return sum(1 for r in roots if abs(r.imag) < 1e-6 and r.real > 1e-6)

    lo, hi = 0.001, 0.05
    assert positive_real_roots(lo) == 2 and positive_real_roots(hi) == 0, \
        "bracket does not straddle the double-root level"
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
    assert err < 1e-9, f"|H* - 1/64| = {err:.3g} >= 1e-9"
    assert abs(z_star - 1.0 / 16.0) < 1e-5, f"double root at z = {z_star}"
    return f"H* = {h_star!r} (err {err:.2e}), double root z = {z_star:.8f}"


def criterion_03_hessian_law() -> str:
    """FD Hessian determinant at (d(s), 0) equals 2(3s^2 - nu) within 1e-7."""
    params = REFERENCE_PARAMS
    worst = 0.0
    signs = []
    kept_s = []
    for s in _s_grid(params):
        c = hopf.critical_curve_point(params, float(s))
        if c.d < 1e-9:
            continue   # endpoint: the reduced chart (z > 0) ends here

        def f(w):
            return hopf.reduced_hamiltonian(w[0], w[1], c.J, params)

        # z-step scales with the tiny double root; the p_z direction is
        # exactly quadratic, so a wide step there only suppresses rounding
        hess = oracle.fd_hessian(f, (c.d, 0.0), step=(0.01 * c.d, 0.25),
                                 levels=1)
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        worst = max(worst, abs(det - c.det2))
        signs.append(np.sign(det))
        kept_s.append(float(s))
    assert worst < 1e-7, f"|det - 2(3s^2-nu)| = {worst:.3g} >= 1e-7"
    flips = [(kept_s[i], kept_s[i + 1]) for i in range(len(signs) - 1)
             if signs[i] != signs[i + 1]]
    cusp = np.sqrt(params.nu / 3.0)
    assert len(flips) == 2, f"expected 2 sign changes, got {len(flips)}"
    for lo, hi in flips:
        assert lo <= -cusp <= hi or lo <= cusp <= hi, \
            f"sign change at ({lo}, {hi}) not at +-sqrt(nu/3)"
    return f"max |det error| {worst:.2e}; sign flips at +-sqrt(nu/3)"


def criterion_04_tangent_cusp_law() -> str:
    """Closed-form tangent vs FD (1e-6); exact zeros only at the cusps."""
    params = REFERENCE_PARAMS
    step = hopf.TANGENT_FD_STEP
    worst = 0.0
    for s in _s_grid(params):
        dj, dh = hopf.curve_tangent(params, float(s))
        fd_j = (hopf.curve_j(params, s + step) - hopf.curve_j(params, s - step)) / (2 * step)
        fd_h = (hopf.curve_h(params, s + step) - hopf.curve_h(params, s - step)) / (2 * step)
        worst = max(worst, abs(dj - fd_j), abs(dh - fd_h))
    assert worst < 1e-6, f"tangent FD mismatch {worst:.3g} >= 1e-6"

    for s_cusp in hopf.cusps(params):
        dj, dh = hopf.curve_tangent(params, s_cusp)
        assert max(abs(dj), abs(dh)) < 1e-12, \
            f"tangent at cusp {s_cusp} is ({dj}, {dh})"
    root, cusp = np.sqrt(params.nu), np.sqrt(params.nu / 3.0)
    for s in _s_grid(params):
        if min(abs(s - cusp), abs(s + cusp)) > 1e-2:
            dj, _ = hopf.curve_tangent(params, float(s))
            assert abs(dj) > 0.0, f"tangent vanishes off-cusp at s={s}"

    # the three open segments are graphs over J: strict monotonicity
    for a, b in ((-root, -cusp), (-cusp, cusp), (cusp, root)):
        ss = np.linspace(a, b, 101)[1:-1]
        js = [hopf.curve_j(params, float(s)) for s in ss]
        diffs = np.diff(js)
        assert np.all(diffs > 0) or np.all(diffs < 0), \
            f"J not monotone on segment ({a:.4f}, {b:.4f})"
    return f"max tangent FD error {worst:.2e}; cusps exact; segments monotone"


def criterion_05_origin_slopes() -> str:
    """Secant slopes of the elliptic segments converge to omega +- sigma*sqrt(nu)."""
    params = REFERENCE_PARAMS
    root = np.sqrt(params.nu)
    slope_plus, slope_minus = hopf.origin_slopes(params)
    worst = 0.0
    for target, end in ((slope_plus, root), (slope_minus, -root)):
        for delta in (1e-3, 1e-4, 1e-5, 1e-6):
            s = end - np.sign(end) * delta * root
            secant = hopf.curve_h(params, s) / hopf.curve_j(params, s)
            err = abs(secant - target)
        assert err < 1e-3, f"secant near s={end} off by {err:.3g}"
        worst = max(worst, err)
    return f"slopes {slope_plus}, {slope_minus}; final secant error {worst:.2e}"


def criterion_06_eigenvalue_laws() -> str:
    """Oracle eigenvalues of the origin linearization match the closed forms."""
    details = []
    for nu in (-0.25, 0.25, 0.0):
        params = hopf.HopfParams(omega=1.0, sigma=1, nu=nu, D=-2.0)
        closed = hopf.equilibrium_eigenvalues(params)
        numeric = oracle.eig4(
            symplin.hamiltonian_matrix(hopf.linearization_hessian(params)))
        err = oracle.match_eigensets(numeric, closed)
        assert err < 1e-10, f"nu={nu}: eigenvalue mismatch {err:.3g}"
        details.append(f"nu={nu}: {err:.1e}")
    # collision at nu = 0: the quadruplet collapses onto +-i*omega doubled
    params = hopf.HopfParams(omega=1.0, sigma=1, nu=0.0, D=-2.0)
    collapsed = hopf.equilibrium_eigenvalues(params)
    err = oracle.match_eigensets(collapsed, np.array([1j, 1j, -1j, -1j]))
    assert err < 1e-10, f"nu=0 collision off by {err:.3g}"
    return "; ".join(details)


def criterion_07_conjugation() -> str:
    """Invariant-conjugation identities and symplecticity of T, at 1e-12."""
    rng = np.random.default_rng(7)
    b_mat = symplin.SYMPLECTIC_MATRIX
    worst = 0.0
    for _ in range(20):
        vals = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        e = hopf.EliassonParams(omega_t=vals[0], alpha_t=vals[1], delta=vals[2])
        t_mat = hopf.transformation_T(e)
        sympl = np.max(np.abs(t_mat.T @ b_mat @ t_mat - b_mat))
        worst = max(worst, sympl)
        for _ in range(100):
            p_hat = rng.uniform(-1.0, 1.0, 4)
            p = t_mat @ p_hat
            g1, g2, g3 = hopf.gammas(p_hat)
            sigma = e.sigma
            worst = max(
                worst,
                abs(g1 - symplin.j1(p)),
                abs(g2 - sigma * (e.alpha_t * symplin.j2(p)
                                  + e.gamma_hat * symplin.k1(p)
                                  + e.delta * symplin.k2(p))),
                abs(g3 - sigma * symplin.k1(p) / e.delta),
            )
    assert worst < 1e-12, f"conjugation/symplecticity defect {worst:.3g} >= 1e-12"
    return f"max defect {worst:.2e} over 20 parameter sets x 100 points"


def criterion_08_region_exclusion() -> str:
    """10^5 random family tuples never classify HH or EH; identity at 1e-9."""
    rng = np.random.default_rng(8)
    w, al, ga, de = rng.uniform(-3.0, 3.0, (4, 100_000))
    gd = ga * de
    a = (al * al + w * w - gd) ** 2
    b = 2.0 * (gd - al * al + w * w)
    parab = b * b / 4.0
    hh = (a > 0) & (a < parab) & (b < 0)
    eh = a < 0
    assert not hh.any(), f"{hh.sum()} hyperbolic-hyperbolic classifications"
    assert not eh.any(), f"{eh.sum()} elliptic-hyperbolic classifications"
    lhs = parab - a
    rhs = 4.0 * w * w * (gd - al * al)
    scale = np.maximum.reduce([np.ones_like(a), a, np.abs(parab), np.abs(rhs)])
    rel = np.abs(lhs - rhs) / scale
    worst = float(rel.max())
    assert worst < 1e-9, f"identity b^2/4 - a = 4w^2(gd - a^2) off by {worst:.3g}"
    return f"0 HH, 0 EH; identity max relative error {worst:.2e}"


def criterion_09_jc_linearization() -> str:
    """Analytic (a, b)(gamma) matches the jet linearization; types transition."""
    worst = 0.0
    for gamma in (0.0, 0.25, 0.4, 0.5, 0.8, 1.5):
        g = models.PolyG(gamma)
        analytic, _ = models.jc_linearization(g)
        numeric = models.jc_linearization_numeric(g)
        worst = max(worst, abs(analytic.a - numeric.a), abs(analytic.b - numeric.b))
    assert worst < 1e-10, f"analytic/numeric (a, b) differ by {worst:.3g}"
    for gamma, expected in ((0.25, "FocusFocus"), (0.4, "FocusFocus"),
                            (0.5, "Boundary(ParabolaPlus)"),
                            (0.8, "EllipticElliptic"), (1.5, "EllipticElliptic")):
        _, typ = models.jc_linearization(models.PolyG(gamma))
        assert str(typ) == expected, f"gamma={gamma}: {typ} != {expected}"
    return f"max |(a, b) error| {worst:.2e}; FF -> Boundary -> EE at 1/2"


def criterion_10_commutation() -> str:
    """{J, H~} = 0 within 1e-11 at 1000 random states per gamma."""
    worst = 0.0
    for k, gamma in enumerate((0.0, 0.5, 0.8, 1.5)):
        g = models.PolyG(gamma)
        cloud_states = _random_states(1000, seed=100 + k)
        for w in cloud_states:
            br = models.poisson_bracket(None, None, w,
                                        grad_f=models.jc_grad_J,
                                        grad_g=lambda s: models.jc_grad_Htilde(s, g))
            worst = max(worst, abs(br))
    assert worst < 1e-11, f"|{{J, H~}}| = {worst:.3g} >= 1e-11"
    return f"max |{{J, H~}}| = {worst:.2e} over 4 gammas x 1000 states"


def _random_states(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    u = rng.normal(0.0, 1.0, n)
    v = rng.normal(0.0, 1.0, n)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z, u, v])


def criterion_11_undeformed_diagram() -> str:
    """gamma=0, J=0: two elliptic values at +-3^(-3/4); pole values exact."""
    g = models.PolyG(0.0)
    pts = models.jc_reduced_critical_values(g, 0.0)
    assert len(pts) == 2, f"expected 2 critical values, got {len(pts)}"
    assert all(p.kind is models.CriticalKind.TRANSVERSALLY_ELLIPTIC for p in pts)
    hs = sorted(p.H for p in pts)
    for got, want in zip(hs, (-0.438691, 0.438691)):
        assert abs(got - want) < 1e-6, f"H = {got} not within 1e-6 of {want}"
    # independent golden-section extremization of the upper branch
    z_star, h_star = oracle.golden_max(
        lambda z: float(models.branch_value(z, 0.0, g, models.Branch.PLUS)),
        -1.0 + 1e-9, -1e-9, tol=1e-13)
    assert abs(h_star - max(hs)) < 1e-9, \
        f"golden-section oracle gives {h_star}, solver {max(hs)}"
    assert abs(z_star + 1.0 / np.sqrt(3.0)) < 1e-6, f"extremum at z={z_star}"
    for j in (1.0, -1.0):
        eq = [p for p in models.jc_reduced_critical_values(g, j)
              if p.kind is models.CriticalKind.EQUILIBRIUM_VALUE]
        assert len(eq) == 1 and eq[0].J == j and eq[0].H == 0.0, \
            f"pole value at J={j} missing or inexact: {eq}"
    return f"H = +-{max(hs)!r} at z = -1/sqrt(3); pole values (+-1, 0) exact"


def _plus_points(g, j):
    """Critical points of the upper branch h_+ at momentum ``j``."""
    return [p for p in models.jc_reduced_critical_values(g, j)
            if p.branch is models.Branch.PLUS]


def _fold_edge(g, j_out, j_in, tol=1e-6) -> float:
    """Bisect the J at which the folded branch gains its extra critical pair."""
    inside_has_three = len(_plus_points(g, j_in)) >= 3
    assert inside_has_three and len(_plus_points(g, j_out)) < 3
    while abs(j_in - j_out) > tol:
        mid = 0.5 * (j_in + j_out)
        if len(_plus_points(g, mid)) >= 3:
            j_in = mid
        else:
            j_out = mid
    return j_in


def criterion_12_post_hopf_loop() -> str:
    """gamma = 4/5: a J-window with a 3-point branch, one hyperbolic value,
    terminated by h'' -> 0 folds; counts return to 2 outside; scan < 10 s."""
    t0 = time.perf_counter()
    g = LOOP_GAMMA
    grid = np.linspace(-0.9, 3.3, 400)
    assert not np.any(grid == 1.0)   # at J=1 the third point merges with the pole
    plus_counts = []
    hyp_counts = []
    totals = []
    for j in grid:
        pts = models.jc_reduced_critical_values(g, float(j))
        interior = [p for p in pts
                    if p.kind is not models.CriticalKind.EQUILIBRIUM_VALUE]
        plus_counts.append(sum(p.branch is models.Branch.PLUS for p in interior))
        hyp_counts.append(sum(
            p.kind is models.CriticalKind.TRANSVERSALLY_HYPERBOLIC
            for p in interior))
        totals.append(len(interior))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"400-step scan took {elapsed:.2f}s >= 10s"

    mask = np.array(plus_counts) == 3
    runs = []
    start = None
    for i, m in enumerate(mask):
        if m and start is None:
            start = i
        if not m and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    assert runs, "no J with a 3-point branch found"
    i0, i1 = max(runs, key=lambda r: r[1] - r[0])
    assert i1 - i0 >= 10, f"window too narrow: {i1 - i0} grid steps"
    for i in range(i0, i1 + 1):
        assert hyp_counts[i] == 1, \
            f"J={grid[i]}: {hyp_counts[i]} hyperbolic values, expected 1"
    for i in list(range(0, max(0, i0 - 2))) + list(range(min(len(grid), i1 + 3),
                                                         len(grid))):
        assert totals[i] == 2 and hyp_counts[i] == 0, \
            f"J={grid[i]}: count {totals[i]} outside the window"

    # the hyperbolic family terminates where h'' passes through 0
    edges = []
    for j_out, j_in in ((grid[max(0, i0 - 1)], grid[i0 + 2]),
                        (grid[min(len(grid) - 1, i1 + 1)], grid[i1 - 2])):
        edge = _fold_edge(g, float(j_out), float(j_in))
        probe = edge + np.sign(float(j_in) - edge) * 1e-5
        pts = _plus_points(g, probe)
        assert len(pts) == 3, f"probe at J={probe} sees {len(pts)} points"
        pts.sort(key=lambda p: p.z_at)
        pairs = [(pts[k], pts[k + 1]) for k in range(2)]
        near = min(pairs, key=lambda pr: pr[1].z_at - pr[0].z_at)
        h2 = [float(models.branch_second_deriv(p.z_at, probe, g, models.Branch.PLUS))
              for p in near]
        assert h2[0] * h2[1] < 0.0, f"merging pair h'' = {h2} not straddling 0"
        assert max(abs(v) for v in h2) < 5e-2, \
            f"h'' not small near the fold: {h2}"
        edges.append(edge)
    return (f"window J in ({edges[0]:.4f}, {edges[1]:.4f}), one hyperbolic "
            f"value inside, 2 values outside; scan {elapsed:.2f}s")


def _polyline_crossings(p0, p1, poly) -> bool:
    """True if segment p0-p1 intersects any segment of the polyline."""
    a = poly[:-1]
    b = poly[1:]
    d = p1 - p0
    e = b - a
    d1 = d[0] * (a[:, 1] - p0[1]) - d[1] * (a[:, 0] - p0[0])
    d2 = d[0] * (b[:, 1] - p0[1]) - d[1] * (b[:, 0] - p0[0])
    d3 = e[:, 0] * (p0[1] - a[:, 1]) - e[:, 1] * (p0[0] - a[:, 0])
    d4 = e[:, 0] * (p1[1] - a[:, 1]) - e[:, 1] * (p1[0] - a[:, 0])
    return bool(np.any((d1 * d2 <= 0) & (d3 * d4 <= 0)))


def criterion_13_torus_counts() -> str:
    """Spot torus counts and count-changes only across the critical curves."""
    params = REFERENCE_PARAMS
    count, unbounded = hopf.torus_count(params, 0.0, 1.0 / 128.0)
    assert (count, unbounded) == (2, True), f"(0, 1/128) -> ({count}, {unbounded})"
    count, unbounded = hopf.torus_count(params, 0.0, -0.1)
    assert (count, unbounded) == (1, True), f"(0, -0.1) -> ({count}, {unbounded})"

    root = np.sqrt(params.nu)
    ss = np.linspace(-root, root, 4001)
    poly = np.column_stack([[hopf.curve_j(params, float(s)) for s in ss],
                            [hopf.curve_h(params, float(s)) for s in ss]])
    n = 50
    j_edges = np.linspace(-0.05, 0.05, n + 1)
    h_edges = np.linspace(-0.03, 0.07, n + 1)
    j_c = (j_edges[:-1] + j_edges[1:]) / 2.0
    h_c = (h_edges[:-1] + h_edges[1:]) / 2.0
    counts = np.empty((n, n), dtype=int)
    for i in range(n):
        for k in range(n):
            counts[i, k] = hopf.torus_count(params, float(j_c[i]), float(h_c[k]))[0]
    bad = 0
    for i in range(n):
        for k in range(n):
            for di, dk in ((1, 0), (0, 1)):
                ii, kk = i + di, k + dk
                if ii >= n or kk >= n or counts[i, k] == counts[ii, kk]:
                    continue
                p0 = np.array([j_c[i], h_c[k]])
                p1 = np.array([j_c[ii], h_c[kk]])
                if not _polyline_crossings(p0, p1, poly):
                    bad += 1
    assert bad == 0, f"{bad} count changes away from the critical curves"
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
            assert rc == 0, f"hopf-curve exited {rc}"
            rc = cli.main(["jc-spectrum", "--gamma", "0.8", "--j-min", "0",
                           "--j-max", "2", "--j-steps", "5", "--samples",
                           "2000", "--seed", "42", "--out", str(prefix)])
            assert rc == 0, f"jc-spectrum exited {rc}"
            blobs = {}
            for suffix in ("_curve.csv", "_diagram.json", "_critical.csv",
                           "_cloud.csv"):
                blobs[suffix] = (prefix.parent / (prefix.name + suffix)).read_bytes()
            outputs.append(blobs)
        for suffix, blob in outputs[0].items():
            assert blob == outputs[1][suffix], f"{suffix} differs between runs"
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


def run_all() -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        results.append(CriterionResult(number=number, name=name, passed=passed,
                                       detail=detail,
                                       seconds=time.perf_counter() - t0))
    return results
