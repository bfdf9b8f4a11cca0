"""Exact Gamma-calculus on weighted graphs.

The generator is (Lu)(x) = (1/m_x) sum_y w_xy (u_y - u_x); Gamma and Gamma2
are computed from their operator definitions with no discretization error.
``curvature_dimension`` solves the pointwise optimal constant

    kappa(x, N) = inf { Gamma2(u)(x) - (1/N)(Lu(x))^2 : Gamma(u)(x) = 1 }

as the smallest eigenvalue of one Schur complement on the shells S1 and S2
of the 2-ball of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mms import _all_finite, _freeze
from ..model_fns import passes
from ..spectral1d import discretize_fiber_operator

__all__ = [
    "WeightedGraph",
    "CurvatureResult",
    "BEReport",
    "gamma",
    "gamma2",
    "be_check",
    "curvature_dimension",
    "path_graph_from_interval_model",
    "cycle_graph",
    "complete_graph",
]

@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Positive vertex measure plus symmetric nonnegative edge weights."""

    vertex_measure: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self):
        m, w = _freeze(self.vertex_measure), _freeze(self.edge_weights)
        if not (_all_finite(m) and _all_finite(w)):
            raise ValueError("vertex measure and edge weights must be finite")
        if np.any(m <= 0):
            raise ValueError("vertex measure must be strictly positive")
        if w.shape != (m.size, m.size):
            raise ValueError("edge weight matrix must be square and match the measure")
        if np.max(np.abs(w - w.T)) > 0:
            raise ValueError("edge weights must be exactly symmetric")
        if np.any(np.diag(w) != 0):
            raise ValueError("edge weights must have zero diagonal")
        if np.any(w < 0):
            raise ValueError("edge weights must be nonnegative")
        object.__setattr__(self, "vertex_measure", m)
        object.__setattr__(self, "edge_weights", w)

    @property
    def n(self) -> int:
        return self.vertex_measure.size

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        w = self.edge_weights
        return (w @ u - w.sum(axis=1) * u) / self.vertex_measure

    def laplacian_matrix(self) -> np.ndarray:
        w = self.edge_weights
        return (w - np.diag(w.sum(axis=1))) / self.vertex_measure[:, None]

    def ball(self, x: int, radius: int) -> np.ndarray:
        """Vertices within ``radius`` edge hops of x, ascending."""
        reach = np.zeros(self.n, dtype=bool)
        reach[x] = True
        adj = self.edge_weights > 0
        for _ in range(radius):
            reach = reach | (adj @ reach)
        return np.nonzero(reach)[0]


def gamma(g: WeightedGraph, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Carre du champ Gamma(u, v) = (L(uv) - u Lv - v Lu)/2, computed exactly."""
    u = np.asarray(u, dtype=float)
    v = u if v is None else np.asarray(v, dtype=float)
    return 0.5 * (g.apply_L(u * v) - u * g.apply_L(v) - v * g.apply_L(u))


def gamma2(g: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """Iterated carre du champ Gamma2(u) = L Gamma(u)/2 - Gamma(u, Lu)."""
    u = np.asarray(u, dtype=float)
    return 0.5 * g.apply_L(gamma(g, u)) - gamma(g, u, g.apply_L(u))


@dataclass(frozen=True)
class BEReport:
    """Worst observed defect of Gamma2 >= kappa Gamma + (1/N)(Lu)^2."""

    min_defect: float
    passed: bool
    witness_vertex: int | None = None


def be_check(
    g: WeightedGraph,
    kappa: float,
    N: float,
    strategy: str = "sampled",
    tol: float = 0.0,
    samples: int = 200,
    seed: int = 0,
    vertices: np.ndarray | None = None,
    sample_fn=None,
) -> BEReport:
    """Search for violations of the curvature-dimension inequality on g.

    ``sampled`` draws test functions (Gaussian coordinates by default, or
    ``sample_fn(rng) -> u``); ``exhaustive-local`` compares the exact
    per-vertex optimal constant against kappa, within ``tol`` plus that
    constant's roundoff bound.  ``vertices`` restricts either strategy to a
    vertex subset.  Zero samples, or only isolated vertices, are no
    evidence, and the check fails.
    """
    vert = np.arange(g.n) if vertices is None else np.asarray(vertices, dtype=int)
    inv_n = 1.0 / N
    worst, witness, slacks = math.inf, None, []
    if strategy == "sampled":
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            u = rng.standard_normal(g.n) if sample_fn is None else sample_fn(rng)
            defect = (gamma2(g, u) - kappa * gamma(g, u) - inv_n * g.apply_L(u) ** 2)[vert]
            defect[~np.isfinite(defect)] = -math.inf  # no evidence there: a violation
            k = int(np.argmin(defect))
            slacks.append(defect[k])
            if defect[k] < worst:
                worst, witness = float(defect[k]), int(vert[k])
    elif strategy == "exhaustive-local":
        for x in vert:
            res = curvature_dimension(g, int(x), N)
            if res.kappa is None:
                continue  # isolated vertex: the inequality is vacuous there
            slack = res.kappa - kappa
            slacks.append(slack + res.roundoff)
            if slack < worst:
                worst, witness = float(slack), int(x)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return BEReport(worst, passes(slacks, tol), witness)


@dataclass(frozen=True, eq=False)
class CurvatureResult:
    """Optimal pointwise constant at a vertex with its minimizing certificate.

    kappa is None at an isolated vertex, where the Gamma-form vanishes, and
    finite at every other vertex (NaN only if the weights underflow).
    ``roundoff`` bounds the floating-point error of kappa at the scale of
    the local forms.
    """

    kappa: float | None
    certificate: np.ndarray | None
    roundoff: float = 0.0


def _local_forms(g: WeightedGraph, x: int):
    """Gamma(x), Lu(x) and Gamma2(x) as forms on the 2-ball of x, in closed form.

    With G_y = (1/2m_y) sum_z w_yz (e_z - e_y)(e_z - e_y)^T the carre du
    champ is Gamma(u, v)(y) = u^T G_y v, so Gamma2(u)(x) = L Gamma(u)(x)/2 -
    Gamma(u, Lu)(x) is the form  Q = (1/2) sum_y L[x,y] G_y - sym(G_x L).
    Only 1-ball rows enter, and their neighbours lie in the 2-ball, so the
    restriction is exact.  Returns (ball2, P = G_x, ell = L[x], Q).
    """
    ball2 = g.ball(x, 2)
    W = g.edge_weights[np.ix_(ball2, ball2)]
    m = g.vertex_measure[ball2]
    deg = g.edge_weights[ball2].sum(axis=1)  # full rows, as in apply_L
    L = (W - np.diag(deg)) / m[:, None]

    def weighted_sum(c):  # sum_y c_y G_y
        a = c / (2.0 * m)
        M = W * a[None, :]
        return np.diag(a @ W + a * deg) - M - M.T

    ix = int(np.searchsorted(ball2, x))
    P = weighted_sum(np.eye(ball2.size)[ix])
    GL = P @ L
    Q = weighted_sum(0.5 * L[ix]) - 0.5 * (GL + GL.T)
    return ball2, P, L[ix], Q


def curvature_dimension(g: WeightedGraph, x: int, N: float) -> CurvatureResult:
    """Exact kappa(x, N) as the smallest eigenvalue of the 2-ball's curvature matrix.

    Gamma, Gamma2 and L ignore constants, so fixing u(x) = 0 loses nothing.
    Then Gamma(u)(x) is the diagonal form p_y = w_xy / 2m_x on the sphere S1,
    and the objective Q = Gamma2(x) - ell ell^T / N sees the sphere S2 only
    through a diagonal block d > 0.  Minimizing over S2 leaves the Schur
    complement S = Q11 - Q12 diag(1/d) Q21 on S1 (the curvature matrix of
    Cushing, Liu and Peyerimhoff), and kappa is the smallest eigenvalue of
    p^(-1/2) S p^(-1/2): one symmetric eigensolve, never -inf.  The
    certificate satisfies Gamma(u)(x) = 1 and attains kappa.
    """
    if not np.any(g.edge_weights[x] > 0):
        return CurvatureResult(kappa=None, certificate=None)
    ball2, P, ell, Q = _local_forms(g, x)
    Q = Q - np.outer(ell, ell) / N
    s1 = g.edge_weights[x, ball2] > 0
    s2 = ~s1 & (ball2 != x)
    p, d = np.diag(P)[s1], np.diag(Q)[s2]
    Q12 = Q[np.ix_(s1, s2)]
    S = Q[np.ix_(s1, s1)] - (Q12 / d) @ Q12.T
    q = 1.0 / np.sqrt(p)
    evals, evecs = np.linalg.eigh(q[:, None] * S * q[None, :])
    w = evecs[:, 0] * q  # Gamma(u)(x) = sum p w^2 = 1
    cert = np.zeros(g.n)
    cert[ball2[s1]] = w
    cert[ball2[s2]] = -(w @ Q12) / d
    # eigensolver roundoff on kappa: a few ulps of the form relative to Gamma(x)
    scale = max(float(np.abs(Q).max()), 1.0)
    roundoff = float(ball2.size * np.finfo(float).eps * scale / p.min())
    return CurvatureResult(kappa=float(evals[0]), certificate=cert, roundoff=roundoff)


# ---------------------------------------------------------------------------
# model graph builders
# ---------------------------------------------------------------------------

def path_graph_from_interval_model(K: float, nu: float, n: int, r_max=None) -> WeightedGraph:
    """Path graph of the lambda = 0 divergence-form radial operator.

    Vertex measure is the operator grid's cell weights sin_K^nu(r_i) h and
    edge weight its negated off-diagonal sin_K^nu(face)/h, so the graph
    generator coincides with the radial operator.
    """
    op = discretize_fiber_operator(K, nu, 0.0, n, r_max=r_max)
    w = np.diag(-op.a_off, 1)
    return WeightedGraph(vertex_measure=op.grid.cell_weights, edge_weights=w + w.T)


def cycle_graph(n: int, circumference: float = 2.0 * math.pi) -> WeightedGraph:
    """Uniform cycle whose generator discretizes d^2/dx^2 on a circle."""
    h = circumference / n
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = 1.0 / h
    w[(idx + 1) % n, idx] = 1.0 / h
    return WeightedGraph(vertex_measure=np.full(n, h), edge_weights=w)


def complete_graph(n: int, weight: float = 1.0, measure: float = 1.0) -> WeightedGraph:
    w = weight * (np.ones((n, n)) - np.eye(n))
    return WeightedGraph(vertex_measure=np.full(n, measure), edge_weights=w)
