"""Finite metric measure spaces and geometric constructions over them.

A :class:`FiniteMMS` is a finite set of weighted atoms with a symmetric
distance matrix.  On top of it this module builds curvature-K cones with
radial weight ``sin_K^N``, graph-discretized warped products, model circles
and weighted intervals, epsilon-midpoint search, and the suspension
recognizer that inverts the cone construction at a pair of antipodal points.

All constructions freeze their arrays after assembly; every operation here
is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model_fns import cos_k, passes, sin_k

__all__ = [
    "FiniteMMS",
    "RadialGrid",
    "SuspensionReport",
    "Violation",
    "validate",
    "radial_grid",
    "cone",
    "warped_product",
    "diameter",
    "midpoints",
    "suspension_check",
    "circle_mms",
    "interval_model_mms",
    "save_mms_json",
    "load_mms_json",
]

# Guard band for arccos arguments: values inside [-1-GUARD, 1+GUARD] are
# clamped, anything further out is a genuine numeric-domain failure.
_ACOS_GUARD = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FiniteMMS:
    """Finite metric measure space: labels, distance matrix, atom weights.

    ``dist`` is symmetric with zero diagonal and satisfies the triangle
    inequality up to a small slack; ``weight`` is nonnegative with zero
    permitted only for distinguished boundary atoms (cone apexes), which are
    kept for distances but excluded from densities.
    """

    labels: tuple
    dist: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dist", _freeze(self.dist))
        object.__setattr__(self, "weight", _freeze(self.weight))
        n = len(self.labels)
        if self.dist.shape != (n, n):
            raise ValueError(f"dist must be {n}x{n}, got {self.dist.shape}")
        if self.weight.shape != (n,):
            raise ValueError(f"weight must have length {n}")
        if not (np.all(np.isfinite(self.dist)) and np.all(np.isfinite(self.weight))):
            raise ValueError("distances and weights must be finite")

    @property
    def n(self) -> int:
        return len(self.labels)

    def total_mass(self) -> float:
        return float(self.weight.sum())


@dataclass(frozen=True)
class Violation:
    """A named defect of a FiniteMMS invariant, with location and size."""

    kind: str  # "diagonal" | "symmetry" | "triangle" | "weight" | "negative-distance"
    indices: tuple
    magnitude: float

    def __str__(self):
        return f"{self.kind} violation at {self.indices}: {self.magnitude:.3e}"


def validate(m: FiniteMMS, slack: float = 1e-9, allow_zero_weight: bool = True) -> list:
    """Return all invariant violations of ``m`` (empty list == valid).

    Triangle defects d(i, k) > d(i, j) + d(j, k) are reported once per pair
    i < k, at its worst intermediate j, to bound the output size.
    """
    out = []
    d, w = m.dist, m.weight
    n = m.n
    for i in range(n):
        if abs(d[i, i]) > slack:
            out.append(Violation("diagonal", (i,), abs(d[i, i])))
    asym = np.abs(d - d.T)
    for i, j in zip(*np.nonzero(np.triu(asym, 1) > slack)):
        out.append(Violation("symmetry", (int(i), int(j)), float(asym[i, j])))
    neg = d < -slack
    for i, j in zip(*np.nonzero(np.triu(neg, 1))):
        out.append(Violation("negative-distance", (int(i), int(j)), float(-d[i, j])))
    lo = 0.0 if allow_zero_weight else np.finfo(float).tiny
    for i in np.nonzero(w < lo)[0]:
        out.append(Violation("weight", (int(i),), float(-w[i])))
    # d[i,k] <= d[i,j] + d[j,k]: sweep over the intermediate index j.
    ds = 0.5 * (d + d.T)
    worst = np.zeros((n, n))
    for j in range(n):
        defect = ds - (ds[:, [j]] + ds[[j], :])
        np.maximum(worst, defect, out=worst)
    for i, k in zip(*np.nonzero(np.triu(worst, 1) > slack)):
        out.append(Violation("triangle", (int(i), int(k)), float(worst[i, k])))
    return out


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform cell-centered grid on the radial interval with sin_K^N cell weights.

    ``nodes`` are the cell midpoints, strictly inside (0, L); ``cell_weights``
    are the midpoint-rule weights sin_K(r_i)^N * h, a second-order positive
    quadrature of the radial measure; ``h = L/n`` is the step that built both.
    """

    K: float
    N: float
    n: int
    nodes: np.ndarray
    cell_weights: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        object.__setattr__(self, "cell_weights", _freeze(self.cell_weights))

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1] + 0.5 * self.h)


def radial_grid(K: float, N: float, n: int, r_max: float | None = None) -> RadialGrid:
    """Build the radial grid on (0, pi/sqrt(K)) for K > 0, else on (0, r_max)."""
    if n < 2:
        raise ValueError("radial grid needs n >= 2 cells")
    if N < 0:
        raise ValueError("radial weight exponent must be >= 0")
    if K > 0:
        L = math.pi / math.sqrt(K)
        if r_max is not None and r_max > L * (1 + 1e-12):
            raise ValueError(f"grid exceeds the model interval [0, {L:.6g}] for K={K}")
        L = r_max if r_max is not None else L
    else:
        if r_max is None:
            raise ValueError("r_max is required for K <= 0")
        L = float(r_max)
    h = L / n
    nodes = (np.arange(n) + 0.5) * h
    cw = sin_k(K, nodes) ** N * h
    return RadialGrid(K=K, N=N, n=n, nodes=nodes, cell_weights=cw, h=h)


def _cone_arg_to_distance(K: float, arg: np.ndarray) -> np.ndarray:
    """Invert the generalized cosine, clamping roundoff at the domain edge."""
    if K > 0:
        bad = (arg > 1.0 + _ACOS_GUARD) | (arg < -1.0 - _ACOS_GUARD)
        if np.any(bad):
            worst = float(np.max(np.abs(arg[bad])) - 1.0)
            raise FloatingPointError(f"cone distance argument out of [-1,1] by {worst:.3e}")
        return np.arccos(np.clip(arg, -1.0, 1.0)) / math.sqrt(K)
    # K < 0: arg >= 1 up to roundoff
    if np.any(arg < 1.0 - _ACOS_GUARD):
        raise FloatingPointError("hyperbolic cone distance argument below 1")
    return np.arccosh(np.maximum(arg, 1.0)) / math.sqrt(-K)


def cone(fiber: FiniteMMS, K: float, N: float, grid: RadialGrid) -> FiniteMMS:
    """(K, N)-cone over ``fiber``: radial grid x fiber atoms plus apex atom(s).

    Distances follow the closed cone formula with the fiber distance capped
    at pi; the measure is the product of radial cell weights and fiber
    weights.  The apex at r=0 (and at r=pi/sqrt(K) for K > 0) is carried as
    an explicit zero-weight atom so the collapsed boundary stays part of the
    space without entering any density.
    """
    if grid.K != K or grid.N != N:
        raise ValueError("grid parameters must match the cone parameters")
    if K > 0 and grid.r_max > math.pi / math.sqrt(K) * (1 + 1e-12):
        raise ValueError("grid exceeds the model interval for K > 0")
    r = grid.nodes
    nr, nf = grid.n, fiber.n
    dcap = np.minimum(fiber.dist, math.pi)
    cosd = np.cos(dcap)

    if K == 0:
        # d^2 = s^2 + t^2 - 2 s t cos(d_F /\ pi)
        s2 = r[:, None, None, None] ** 2 + r[None, None, :, None] ** 2
        cross = 2.0 * r[:, None, None, None] * r[None, None, :, None]
        d2 = s2 - cross * cosd[None, :, None, :]
        body = np.sqrt(np.maximum(d2, 0.0))
    else:
        cs, sn = cos_k(K, r), sin_k(K, r)
        arg = (
            cs[:, None, None, None] * cs[None, None, :, None]
            + K * sn[:, None, None, None] * sn[None, None, :, None] * cosd[None, :, None, :]
        )
        body = _cone_arg_to_distance(K, arg)

    nbody = nr * nf
    apexes = 2 if K > 0 else 1
    n = nbody + apexes
    dist = np.zeros((n, n))
    dist[:nbody, :nbody] = body.reshape(nbody, nbody)
    # near apex at r=0: distance to (t, y) is t
    dist[nbody, :nbody] = np.repeat(r, nf)
    dist[:nbody, nbody] = dist[nbody, :nbody]
    labels = [f"{i}:{lab}" for i in range(nr) for lab in fiber.labels]
    labels.append("apex0")
    if K > 0:
        L = math.pi / math.sqrt(K)
        dist[nbody + 1, :nbody] = L - np.repeat(r, nf)
        dist[:nbody, nbody + 1] = dist[nbody + 1, :nbody]
        dist[nbody, nbody + 1] = dist[nbody + 1, nbody] = L
        labels.append("apex1")
    weight = np.zeros(n)
    weight[:nbody] = np.outer(grid.cell_weights, fiber.weight).ravel()
    np.fill_diagonal(dist, 0.0)
    return FiniteMMS(labels=tuple(labels), dist=dist, weight=weight)


# fiber neighbours and radial cells a warped-product edge may span
_HOP_CAP = 8


def warped_product(
    base: RadialGrid,
    f: np.ndarray,
    fiber: FiniteMMS,
    N: float,
) -> FiniteMMS:
    """Graph-discretized warped product of a radial grid and a fiber.

    Edge lengths discretize the warped length element
    sqrt(dr^2 + f(r)^2 dF^2): horizontal moves cost the radial gap,
    vertical/diagonal moves cost sqrt(dr^2 + fbar^2 d_F(x,y)^2) with fbar the
    mean warp value over the radial span.  Fiber moves are restricted to
    each atom's ``_HOP_CAP`` nearest fiber neighbours, and radial spans to
    ``_HOP_CAP`` cells, which keeps the graph sparse at an O(mesh) cost in
    metric accuracy.  The measure is f(r_i)^N * h * fiber weight; no apex
    atoms are added.
    """
    from scipy.sparse import coo_matrix

    f = np.asarray(f, dtype=float)
    if f.shape != (base.n,):
        raise ValueError("warp samples must match the base grid nodes")
    if np.any(f < 0) or np.any(f[1:-1] <= 0):
        raise ValueError("warp function must be >= 0 and positive on the interior")
    nr, nf, h = base.n, fiber.n, base.h
    masked = np.where(np.eye(nf, dtype=bool), np.inf, fiber.dist)
    order = np.argsort(masked, axis=1)
    hops = order[:, : min(_HOP_CAP, nf - 1)] if nf > 1 else np.zeros((nf, 0), dtype=int)
    jumps = range(1, min(_HOP_CAP, nr - 1) + 1)

    def node(i, x):
        return i * nf + x

    rows, cols, vals = [], [], []
    for i in range(nr):
        for x in range(nf):
            a = node(i, x)
            for dj in jumps:  # horizontal: straight radial chords
                if i + dj < nr:
                    rows.append(a)
                    cols.append(node(i + dj, x))
                    vals.append(dj * h)
            for j in range(i, min(i + _HOP_CAP, nr - 1) + 1):
                fbar = float(f[i : j + 1].mean())
                for y in hops[x]:
                    b = node(j, int(y))
                    if b <= a:
                        continue
                    dfy = fiber.dist[x, int(y)]
                    vals.append(math.hypot((j - i) * h, fbar * dfy))
                    rows.append(a)
                    cols.append(b)
    nv = nr * nf
    g = coo_matrix((vals, (rows, cols)), shape=(nv, nv))
    dist = dijkstra(g.tocsr(), directed=False)
    if np.any(np.isinf(dist)):
        raise ValueError("warped product graph is disconnected")
    labels = tuple(f"{i}:{lab}" for i in range(nr) for lab in fiber.labels)
    weight = np.outer(f**N * h, fiber.weight).ravel()
    return FiniteMMS(labels=labels, dist=dist, weight=weight)


def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on the first call."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


def diameter(m: FiniteMMS) -> float:
    return float(m.dist.max()) if m.n else 0.0


def midpoints(m: FiniteMMS, i: np.ndarray, j: np.ndarray, eps: float) -> np.ndarray:
    """Epsilon-midpoints of the pairs (i[p], j[p]), one boolean row per pair.

    Row p marks every atom k with both |d(i,k) - d(i,j)/2| and
    |d(k,j) - d(i,j)/2| <= eps.  An empty row is a valid answer at coarse
    resolution.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    half = 0.5 * m.dist[i, j][:, None]
    return (np.abs(m.dist[i] - half) <= eps) & (np.abs(m.dist[:, j].T - half) <= eps)


@dataclass(frozen=True, eq=False)
class SuspensionReport:
    """Outcome of the suspension recognition at a pair of antipodal atoms."""

    is_suspension: bool
    equator: FiniteMMS | None
    poles: tuple
    max_residual: float
    failed_stage: str | None = None


def suspension_check(
    m: FiniteMMS, x: int, y: int, tol: float, N: float = 1.0
) -> SuspensionReport:
    """Test whether ``m`` matches a sin^N-weighted spherical suspension with poles x, y.

    Stages: (1) every atom lies on a geodesic from x to y of length pi;
    (2) the atoms nearest the half-way sphere form the candidate equator;
    (3) equator distances, clamped to [0, pi], define the recovered fiber;
    (4) the law of cosines for the suspension metric must hold for every
    pair up to ``tol``.  Equator atom weights are the summed weights of the
    atoms projecting onto them, normalized by the sin^N mass of their radial
    fibers.  Geometric failure is reported, never raised; poles that are
    not atoms of ``m`` raise ValueError.
    """
    if not (0 <= x < m.n and 0 <= y < m.n):
        raise ValueError(f"poles ({x}, {y}) must be atoms of the space, 0 to {m.n - 1}")
    d = m.dist

    def fail(stage, res):
        return SuspensionReport(False, None, (x, y), res, stage)

    res0 = abs(d[x, y] - math.pi)
    if not passes(-res0, tol):
        return fail("pole-distance", res0)
    excess = np.abs(d[x] + d[:, y] - math.pi)
    if not passes(-excess, tol):
        return fail("geodesics-through-poles", float(excess.max()))

    theta = d[x].copy()
    interior = np.nonzero((theta > tol) & (theta < math.pi - tol))[0]
    if interior.size == 0:
        # two-pole space: a suspension over the empty interior
        return SuspensionReport(True, None, (x, y), 0.0, None)

    dev = np.abs(theta[interior] - math.pi / 2.0)
    eq_idx = interior[dev <= dev.min() + 1e-9]

    # recovered fiber: equator atoms with their mutual distances capped at pi
    eq_dist = np.minimum(d[np.ix_(eq_idx, eq_idx)], math.pi)
    eq_dist = 0.5 * (eq_dist + eq_dist.T)
    np.fill_diagonal(eq_dist, 0.0)

    # project every atom to the equator atom directly above/below it
    score = np.abs(d[:, eq_idx] - np.abs(theta - math.pi / 2.0)[:, None])
    proj = np.argmin(score, axis=1)  # argmin takes the smallest index on ties

    eq_weight = np.zeros(eq_idx.size)
    sin_mass = np.zeros(eq_idx.size)
    for p in range(m.n):
        if p == x or p == y:
            continue
        e = proj[p]
        eq_weight[e] += m.weight[p]
        sin_mass[e] += math.sin(theta[p]) ** N
    h_guess = _theta_step(theta, interior)
    with np.errstate(divide="ignore", invalid="ignore"):
        eq_weight = np.where(sin_mass > 0, eq_weight / (sin_mass * h_guess), 0.0)

    cos_th, sin_th = np.cos(theta), np.sin(theta)
    model = np.outer(cos_th, cos_th) + np.outer(sin_th, sin_th) * np.cos(
        eq_dist[np.ix_(proj, proj)]
    )
    resid = float(np.max(np.abs(np.cos(d) - model)))
    equator = FiniteMMS(
        labels=tuple(m.labels[int(k)] for k in eq_idx), dist=eq_dist, weight=eq_weight
    )
    if not passes(-resid, tol):
        return SuspensionReport(False, equator, (x, y), resid, "law-of-cosines")
    return SuspensionReport(True, equator, (x, y), resid, None)


def _theta_step(theta: np.ndarray, interior: np.ndarray) -> float:
    """Median gap between consecutive distinct radial levels (quadrature step)."""
    levels = np.unique(np.round(theta[interior], 9))
    if levels.size < 2:
        return 1.0
    return float(np.median(np.diff(levels)))


def circle_mms(n: int, radius: float) -> FiniteMMS:
    """n equispaced atoms on a circle with arc-length metric and uniform weight."""
    if n < 3:
        raise ValueError("circle needs n >= 3 atoms")
    step = 2.0 * math.pi * radius / n
    k = np.arange(n)
    hops = np.minimum(np.abs(k[:, None] - k[None, :]), n - np.abs(k[:, None] - k[None, :]))
    dist = hops * step
    weight = np.full(n, step)
    return FiniteMMS(labels=tuple(f"c{i}" for i in range(n)), dist=dist, weight=weight)


def interval_model_mms(K: float, nu: float, n: int, r_max: float | None = None) -> FiniteMMS:
    """Weighted model interval: radial grid nodes, |r_i - r_j| metric, sin_K^nu weights."""
    if n < 2:
        raise ValueError("interval model needs n >= 2 atoms")
    grid = radial_grid(K, nu, n, r_max=r_max)
    r = grid.nodes
    dist = np.abs(r[:, None] - r[None, :])
    return FiniteMMS(
        labels=tuple(f"r{i}" for i in range(n)), dist=dist, weight=grid.cell_weights
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_mms_json(m: FiniteMMS, path) -> None:
    payload = {
        "labels": list(m.labels),
        "dist": m.dist.tolist(),
        "weight": m.weight.tolist(),
    }
    text = json.dumps(payload)  # one C-encoder pass; json.dump streams through Python
    with open(path, "w") as fh:
        fh.write(text)


def load_mms_json(path) -> FiniteMMS:
    """Load a space from JSON, enforcing symmetry and a zero diagonal."""
    with open(path) as fh:
        payload = json.load(fh)
    dist = np.asarray(payload["dist"], dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("dist must be a square matrix")
    if not np.all(np.isfinite(dist)):  # before fill_diagonal can hide a NaN
        raise ValueError("distances and weights must be finite")
    if np.max(np.abs(dist - dist.T)) > 1e-9:
        raise ValueError("dist must be symmetric")
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return FiniteMMS(
        labels=tuple(payload["labels"]),
        dist=dist,
        weight=np.asarray(payload["weight"], dtype=float),
    )
