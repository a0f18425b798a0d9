"""Sampled non-degeneracy test of a pencil of quadratic forms on R^4.

A reference that tests compare the closed forms against; nothing in
``hopfdiag`` calls it.  Eigenvalues come from ``eigen_reference.eig4``.
"""

import math
from dataclasses import dataclass

import numpy as np

from hopfdiag import oracle, symplin
from eigen_reference import eig4

PENCIL_RANK_TOL = 1e-10       # second singular value relative to first
PENCIL_SEP_TOL = 1e-8         # minimum pairwise eigenvalue separation
PENCIL_SEP_NOISE = 1e-7       # resolution floor of the char-poly eigensolver,
                              # relative to the largest eigenvalue magnitude
PENCIL_CIRCLE_SAMPLES = 360


@dataclass(frozen=True)
class PencilResult:
    """Outcome of the sampled pencil non-degeneracy test.

    ``nondegenerate`` True means a combination with simple spectrum was
    found; False means degenerate-or-unresolved (the test is one-sided:
    failure does not prove degeneracy).  ``alpha``, ``beta`` always carry
    the best combination seen, ``separation`` its minimum pairwise
    eigenvalue distance.
    """

    nondegenerate: bool
    alpha: float
    beta: float
    separation: float

    def __bool__(self) -> bool:
        return self.nondegenerate


def _min_pairwise_separation(vals) -> float:
    vals = np.asarray(vals)
    n = len(vals)
    return min(abs(vals[i] - vals[j]) for i in range(n) for j in range(i + 1, n))


def pencil_nondegenerate(s1, s2) -> PencilResult:
    """Sampled sufficient test that (S1, S2) spans a non-degenerate pencil.

    Requires (i) linear independence of the two symmetric matrices (second
    singular value of their 10-entry vectorizations > PENCIL_RANK_TOL
    relative) and (ii) some alpha*B@S1 + beta*B@S2 on the sampled circle
    alpha = cos t, beta = sin t (PENCIL_CIRCLE_SAMPLES points, refined by
    golden section around the best) with minimum pairwise eigenvalue
    separation > PENCIL_SEP_TOL.
    """
    m1 = symplin.hamiltonian_matrix(s1)     # refuses a non-symmetric matrix
    m2 = symplin.hamiltonian_matrix(s2)
    iu = np.triu_indices(4)
    vecs = np.vstack([np.asarray(s1, dtype=float)[iu],
                      np.asarray(s2, dtype=float)[iu]])
    sv = np.linalg.svd(vecs, compute_uv=False)
    if sv[0] == 0.0 or sv[1] <= PENCIL_RANK_TOL * sv[0]:
        return PencilResult(False, 1.0, 0.0, 0.0)

    def probe(t):
        eig = eig4(math.cos(t) * m1 + math.sin(t) * m2)
        return _min_pairwise_separation(eig), float(np.max(np.abs(eig)))

    def separation(t):
        return probe(t)[0]

    ts = np.linspace(0.0, 2.0 * math.pi, PENCIL_CIRCLE_SAMPLES, endpoint=False)
    seps = [separation(t) for t in ts]
    k = int(np.argmax(seps))
    dt = 2.0 * math.pi / PENCIL_CIRCLE_SAMPLES
    t_best, sep_best = oracle.golden_max(separation, ts[k] - dt, ts[k] + dt,
                                         tol=1e-10)
    if sep_best < seps[k]:
        t_best, sep_best = ts[k], seps[k]
    alpha, beta = math.cos(t_best), math.sin(t_best)
    # separations below the eigensolver's own resolution cannot certify
    # anything: exactly repeated roots of the characteristic polynomial
    # split by ~sqrt(eps), so the threshold carries a scaled noise floor
    _, magnitude = probe(t_best)
    threshold = max(PENCIL_SEP_TOL, PENCIL_SEP_NOISE * magnitude)
    return PencilResult(sep_best > threshold, alpha, beta, float(sep_best))
