"""Reference computations the benchmark checks the program against.

Each reference is written here, apart from the package, from the
mathematics it encodes: the quantile-function W2 on a line, the cone law of
cosines, the Floyd-Warshall metric closure, the Bakry-Emery curvature of
cycles and complete graphs, the Weyl limit-point threshold, the model
spectral gap lambda1 = N and the sphere's eigenvalue levels.  ``selftest``
checks every reference on a case small enough to work by hand, so that a
failed check in a workload points at the program and not at the reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.csgraph import floyd_warshall


# ---------------------------------------------------------------------------
# transport on a line
# ---------------------------------------------------------------------------

def quantile_w2(x: np.ndarray, a: np.ndarray, y: np.ndarray, b: np.ndarray) -> float:
    """W2 between sum a_i delta_{x_i} and sum b_j delta_{y_j} on the real line.

    Integrates (F^-1(t) - G^-1(t))^2 over t in (0, 1) exactly: both quantile
    functions are step functions, constant between consecutive levels of
    the merged cumulative masses.
    """
    x, a, y, b = (np.asarray(v, dtype=float) for v in (x, a, y, b))
    ox, oy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    x, a, y, b = x[ox], a[ox] / a.sum(), y[oy], b[oy] / b.sum()
    fa, fb = np.cumsum(a), np.cumsum(b)
    levels = np.union1d(fa, fb)
    levels = levels[(levels > 0.0) & (levels < 1.0)]
    edges = np.concatenate([[0.0], levels, [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    qx = x[np.minimum(np.searchsorted(fa, mid), x.size - 1)]
    qy = y[np.minimum(np.searchsorted(fb, mid), y.size - 1)]
    return math.sqrt(float(np.sum(np.diff(edges) * (qx - qy) ** 2)))


# ---------------------------------------------------------------------------
# cones and metrics
# ---------------------------------------------------------------------------

def cone_distance(K: float, s, t, theta):
    """Distance between (s, x) and (t, y) on the K-cone, theta = d_F(x, y).

    K > 0:  cos(sqrt K d) = cos_K s cos_K t + K sin_K s sin_K t cos(theta /\\ pi)
    K = 0:  d^2 = s^2 + t^2 - 2 s t cos(theta /\\ pi)
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    c = np.cos(np.minimum(np.asarray(theta, dtype=float), math.pi))
    if K == 0:
        return np.sqrt(np.maximum(s * s + t * t - 2.0 * s * t * c, 0.0))
    if K < 0:
        raise ValueError("only K >= 0 cones are referenced")
    rk = math.sqrt(K)
    arg = np.cos(rk * s) * np.cos(rk * t) + np.sin(rk * s) * np.sin(rk * t) * c
    return np.arccos(np.clip(arg, -1.0, 1.0)) / rk


def metric_closure(dist: np.ndarray) -> np.ndarray:
    """Shortest-path closure of a distance matrix; equals it iff it is a metric."""
    return floyd_warshall(np.asarray(dist, dtype=float), directed=False)


# ---------------------------------------------------------------------------
# graph curvature
# ---------------------------------------------------------------------------

def cycle_curvature() -> float:
    """kappa(x, 2) on a uniform cycle of at least 5 vertices: Ricci-flat, CD(0, 2)."""
    return 0.0


def complete_graph_curvature(n: int) -> float:
    """kappa(x, inf) on the unweighted, unit-measure complete graph K_n."""
    return 1.0 + n / 2.0


def _loop_L(w: np.ndarray, mu: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = u.size
    return np.array([sum(w[x, y] * (u[y] - u[x]) for y in range(n)) / mu[x]
                     for x in range(n)])


def _loop_gamma(w, mu, u, v) -> np.ndarray:
    n = u.size
    return np.array([sum(w[x, y] * (u[y] - u[x]) * (v[y] - v[x]) for y in range(n))
                     / (2.0 * mu[x]) for x in range(n)])


def _loop_gamma2(w, mu, u) -> np.ndarray:
    return 0.5 * _loop_L(w, mu, _loop_gamma(w, mu, u, u)) - _loop_gamma(
        w, mu, u, _loop_L(w, mu, u))


# ---------------------------------------------------------------------------
# spectral theory
# ---------------------------------------------------------------------------

def weyl_self_adjoint(nu: float, lam: float) -> bool:
    """Both finite endpoints are limit point iff nu(nu-2)/4 + lambda >= 3/4."""
    return nu * (nu - 2.0) / 4.0 + lam >= 0.75


def model_lambda1(N: float) -> float:
    """First nonzero eigenvalue on the sin^(N-1)-weighted interval (the sphere S^N)."""
    return float(N)


def sphere_levels(kmax: int) -> dict:
    """Eigenvalue k(k+1) of the round S^2 with multiplicity 2k+1, k <= kmax."""
    return {float(k * (k + 1)): 2 * k + 1 for k in range(kmax + 1)}


# ---------------------------------------------------------------------------
# self-tests on hand-worked cases
# ---------------------------------------------------------------------------

def selftest() -> list:
    """Return the names of the references that fail their hand-worked case."""
    bad = []

    # W2 of (1/2 d0 + 1/2 d1) to (1/2 d1 + 1/2 d2) is 1; of d0 to
    # (1/2 d0 + 1/2 d2) is sqrt 2; of (1/4 d0 + 3/4 d1) to (1/2 d0 + 1/2 d3)
    # is sqrt(1/4 * 1 + 1/2 * 4) = 3/2.
    cases = [
        ([0, 1], [0.5, 0.5], [1, 2], [0.5, 0.5], 1.0),
        ([0], [1.0], [0, 2], [0.5, 0.5], math.sqrt(2.0)),
        ([0, 1], [0.25, 0.75], [0, 3], [0.5, 0.5], 1.5),
    ]
    if any(abs(quantile_w2(*c[:4]) - c[4]) > 1e-14 for c in cases):
        bad.append("quantile_w2")

    # equator points a quarter turn apart on the unit sphere are pi/2 apart;
    # the flat cone over a right angle is the 3-4-5 triangle; fibre distance
    # beyond pi goes through the apex
    ok = abs(float(cone_distance(1.0, math.pi / 2, math.pi / 2, math.pi / 2)) - math.pi / 2) < 1e-14
    ok = ok and abs(float(cone_distance(0.0, 3.0, 4.0, math.pi / 2)) - 5.0) < 1e-12
    ok = ok and abs(float(cone_distance(0.0, 1.0, 2.0, 4.0)) - 3.0) < 1e-12
    if not ok:
        bad.append("cone_distance")

    # the 1-5 edge of a path 1-1 triangle closes to 2; a metric is unchanged
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    ok = metric_closure(d)[0, 2] == 2.0
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    if not (ok and np.array_equal(metric_closure(m), m)):
        bad.append("metric_closure")

    # K_3 at vertex 0: Gamma and Gamma2 depend on u modulo constants, a 2-D
    # space; sweep its unit circle for the least ratio Gamma2 / Gamma
    w3, mu3 = np.ones((3, 3)) - np.eye(3), np.ones(3)
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    ratio = min(
        _loop_gamma2(w3, mu3, u)[0] / _loop_gamma(w3, mu3, u, u)[0]
        for u in (math.cos(a) * e1 + math.sin(a) * e2
                  for a in np.linspace(0.0, math.pi, 3601))
    )
    if abs(ratio - complete_graph_curvature(3)) > 1e-6:
        bad.append("complete_graph_curvature")

    # C_6 at vertex 0: a function linear along the 2-ball has Lu(0) = 0,
    # Gamma(u)(0) = 1 and Gamma2(u)(0) = 0, so kappa(0, 2) <= 0; no random
    # function does better, so kappa(0, 2) = 0
    n = 6
    w6 = np.zeros((n, n))
    for i in range(n):
        w6[i, (i + 1) % n] = w6[(i + 1) % n, i] = 1.0
    mu6 = np.ones(n)

    def defect(u):
        lu = _loop_L(w6, mu6, u)[0]
        return _loop_gamma2(w6, mu6, u)[0] - 0.5 * lu * lu

    lin = np.array([0.0, 1.0, 2.0, 0.0, -2.0, -1.0])
    ok = abs(defect(lin)) < 1e-14 and abs(_loop_gamma(w6, mu6, lin, lin)[0] - 1.0) < 1e-14
    rng = np.random.default_rng(0)
    ok = ok and min(defect(rng.standard_normal(n)) for _ in range(500)) >= -1e-12
    if not (ok and cycle_curvature() == 0.0):
        bad.append("cycle_curvature")

    # nu(nu-2)/4 + lambda at (3, 0) is exactly 3/4 (limit point); at (1, 0)
    # it is -1/4 (limit circle); at (2, 1/2) it is 1/2; at (2, 3/4) it is 3/4
    table = {(3.0, 0.0): True, (1.0, 0.0): False, (2.0, 0.5): False, (2.0, 0.75): True}
    if any(weyl_self_adjoint(nu, lam) is not want for (nu, lam), want in table.items()):
        bad.append("weyl_self_adjoint")

    # cos r solves u'' + (N-1) cot r u' = -N u on (0, pi)
    r = np.linspace(0.1, math.pi - 0.1, 7)
    for N in (2.0, 3.0, 5.0):
        res = -np.cos(r) + (N - 1.0) * (np.cos(r) / np.sin(r)) * (-np.sin(r))
        if np.max(np.abs(res + model_lambda1(N) * np.cos(r))) > 1e-12:
            bad.append("model_lambda1")
            break

    # S^2: constants, the three coordinate functions, five quadratics
    if sphere_levels(2) != {0.0: 1, 2.0: 3, 6.0: 5}:
        bad.append("sphere_levels")
    return bad
