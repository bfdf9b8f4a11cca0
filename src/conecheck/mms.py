"""Finite metric measure spaces and geometric constructions over them.

A :class:`FiniteMMS` is a finite set of weighted atoms with a symmetric
distance matrix.  On top of it this module builds curvature-K cones with
radial weight ``sin_K^N``, graph-discretized warped products, model circles
and weighted intervals, epsilon-midpoint search, and the suspension
recognizer that inverts the cone construction at a pair of antipodal points.

Every value owns its arrays through ``_freeze``; every operation here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model_fns import cos_k, model_interval, passes, sin_k

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

# How far a distance may miss a metric invariant before validate, or load_mms_json, flags it.
_VALIDATE_SLACK = 1e-9

# Rows per block of validate's triangle sweep: 24, 32 and 48 were within 10 % of each
# other, and 32 the fastest median, on the 802-atom cone with its isometry (27 rows) and
# without (802 rows) and on the 2050-atom cone with it (66 rows); 16..128 were tried.
_VALIDATE_BLOCK = 32

# Entries (full rows of n) per block of suspension_check's law-of-cosines
# stage: about 200 rows, 4 MB a temporary, at 2502 atoms.
_SUSPENSION_BLOCK = 1 << 19


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float copy, so the caller's array cannot change the value.

    Every value type holds its arrays so but two, frozen in place: ``FiniteMMS.dist``
    (a copy would double a cone build's peak) and ``spectral1d.Spectrum``'s LAPACK output.
    """
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite: max and min keep a NaN and expose +-inf, with no n^2 mask."""
    return a.size == 0 or bool(np.isfinite(a.max()) and np.isfinite(a.min()))


def _permutation(p, n: int) -> np.ndarray:
    """A read-only intp copy of ``p``, or a ValueError if it is not a permutation of range(n)."""
    p = np.array(p)
    if not (p.dtype.kind in "iu" and p.shape == (n,) and np.all((0 <= p) & (p < n))
            and np.all(np.bincount(p.astype(np.intp), minlength=n) == 1)):
        raise ValueError(f"isometry must be a permutation of the {n} atoms")
    p = p.astype(np.intp)
    p.flags.writeable = False
    return p


@dataclass(frozen=True, eq=False)
class FiniteMMS:
    """Finite metric measure space: labels, distance matrix, atom weights.

    ``dist`` is symmetric with zero diagonal and satisfies the triangle
    inequality up to a small slack; ``weight`` is nonnegative with zero
    permitted only for distinguished boundary atoms (cone apexes), which are
    kept for distances but excluded from densities.

    ``isometry`` is a permutation sigma of the atoms with
    ``dist[sigma][:, sigma] == dist`` bit for bit, or None.  The constructions
    over a circle set it (the fiber rotation x -> x+1); a loaded file has
    none.  Only its being an integer permutation of the atoms is checked
    here; ``validate`` checks it against the distances before it uses it.

    ``weight`` and ``isometry`` are copied; ``dist`` is frozen in place, the caller's with it.
    """

    labels: tuple
    dist: np.ndarray
    weight: np.ndarray
    isometry: np.ndarray | None = None

    def __post_init__(self):
        dist = np.ascontiguousarray(self.dist, dtype=float)
        dist.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weight", _freeze(self.weight))
        n = len(self.labels)
        if self.dist.shape != (n, n):
            raise ValueError(f"dist must be {n}x{n}, got {self.dist.shape}")
        if self.weight.shape != (n,):
            raise ValueError(f"weight must have length {n}")
        if not (_all_finite(self.dist) and _all_finite(self.weight)):
            raise ValueError("distances and weights must be finite")
        if self.isometry is not None:
            object.__setattr__(self, "isometry", _permutation(self.isometry, n))

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


def validate(m: FiniteMMS) -> list:
    """Return all invariant violations of ``m`` (empty list == valid).

    A weight may be zero (an apex carries none) but not negative.

    Triangle defects d(i, k) > d(i, j) + d(j, k) are reported once per pair
    i < k, at its worst intermediate j, to bound the output size.  The worst
    defect is d(i, k) - min_j (d(i, j) + d(j, k)), which equals the largest
    rounded difference bit for bit because rounding is monotone.  An isometry
    sigma of the symmetrized distances (``_orbits``) carries each pair's
    defect to its orbit (sigma^t i, sigma^t k) unchanged, since the minimum
    runs over the same floats; so it is computed only on rows i that are the
    smallest atom of their orbit, at the columns k whose orbit's smallest
    atom is >= i, and then spread over the orbit.  Without an isometry that
    is every row at k >= i.  Rows go ``_VALIDATE_BLOCK`` at a time, so that
    a block's running minimum stays in cache while j sweeps every atom.
    """
    out = []
    d, w = m.dist, m.weight
    n = m.n
    diag = np.abs(np.diagonal(d))
    for i in np.nonzero(diag > _VALIDATE_SLACK)[0]:
        out.append(Violation("diagonal", (int(i),), float(diag[i])))
    buf = np.subtract(d, d.T, out=np.empty_like(d))  # |d - d^T|, then ds: one n x n buffer
    i, j = np.nonzero(np.abs(buf, out=buf) > _VALIDATE_SLACK)  # row-major: np.triu's order
    for a, b in zip(i[i < j], j[i < j]):
        out.append(Violation("symmetry", (int(a), int(b)), float(buf[a, b])))
    i, j = np.nonzero(d < -_VALIDATE_SLACK)
    for a, b in zip(i[i < j], j[i < j]):
        out.append(Violation("negative-distance", (int(a), int(b)), float(-d[a, b])))
    for i in np.nonzero(w < 0.0)[0]:
        out.append(Violation("weight", (int(i),), float(-w[i])))
    # d[i,k] <= d[i,j] + d[j,k]; ds is exactly symmetric, so row j holds both terms.
    ds = np.multiply(np.add(d, d.T, out=buf), 0.5, out=buf)
    sigma, order, rep = _orbits(ds, m.isometry)
    rows = np.flatnonzero(rep == np.arange(n))
    found, values = [], []
    for r in (rows[a : a + _VALIDATE_BLOCK] for a in range(0, rows.size, _VALIDATE_BLOCK)):
        s = int(r[0])  # a column k to sweep has k >= rep[k] >= its row >= s
        shortest, via = np.full((r.size, n - s), np.inf), np.empty((r.size, n - s))
        for left, row in zip(ds[:, r], ds[:, s:]):
            np.add(left[:, None], row, out=via)
            np.minimum(shortest, via, out=shortest)
        worst = np.subtract(ds[r, s:], shortest, out=shortest)
        keep = (rep[s:] >= r[:, None]) & (np.arange(s, n) != r[:, None]) & (worst > _VALIDATE_SLACK)
        i, k = np.nonzero(keep)
        found.append(np.stack([r[i], s + k]))
        values.append(worst[i, k])
    if found:
        orbit = [np.concatenate(found, axis=1)]
        for _ in range(order - 1):
            orbit.append(sigma[orbit[-1]])
        lo, hi = np.sort(np.concatenate(orbit, axis=1), axis=0)
        key, first = np.unique(lo * n + hi, return_index=True)
        for i, k, v in zip(*np.divmod(key, n), np.tile(np.concatenate(values), order)[first]):
            out.append(Violation("triangle", (int(i), int(k)), float(v)))
    return out


def _orbits(ds: np.ndarray, isometry: np.ndarray | None) -> tuple:
    """(sigma, order, rep): the isometry validate uses and each atom's orbit's smallest atom.

    ``isometry`` is used only if it maps ``ds`` onto itself bit for bit,
    checked ``_VALIDATE_BLOCK`` rows at a time, and its order is at most n;
    otherwise sigma is the identity, of order 1, and every atom is its own orbit.
    """
    n, b = ds.shape[0], _VALIDATE_BLOCK
    ident = np.arange(n)
    if isometry is not None and all(
            np.array_equal(ds[isometry[s : s + b]][:, isometry].view(np.int64),
                           ds[s : s + b].view(np.int64)) for s in range(0, n, b)):
        rep, power, order = ident.copy(), isometry, 1
        while order <= n and not np.array_equal(power, ident):
            np.minimum(rep, power, out=rep)
            power, order = isometry[power], order + 1
        if order <= n:
            return isometry, order, rep
    return ident, 1, ident


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform cell-centered grid on the radial interval with sin_K^N cell weights.

    ``nodes`` are the cell midpoints, strictly inside (0, r_max); ``cell_weights``
    are the midpoint-rule weights sin_K(r_i)^N * h, a second-order positive
    quadrature of the radial measure; ``h = r_max/n`` is the step that built both.
    """

    K: float
    N: float
    n: int
    nodes: np.ndarray
    cell_weights: np.ndarray
    h: float
    r_max: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        object.__setattr__(self, "cell_weights", _freeze(self.cell_weights))


def _finite_in_K(K: float, values: np.ndarray, what: str) -> np.ndarray:
    """``values``, or a ValueError naming K if they overflowed (sinh and cosh at steep K < 0)."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} overflows a float at K={K:g}")
    return values


def _check_exponent(N: float) -> None:
    if not 0.0 <= N < math.inf:
        raise ValueError(f"radial weight exponent must be finite and >= 0, got {N}")


def radial_grid(K: float, N: float, n: int, r_max: float | None = None) -> RadialGrid:
    """Build the radial grid on (0, L), L = ``model_interval(K, r_max)``."""
    if n < 2:
        raise ValueError("radial grid needs n >= 2 cells")
    _check_exponent(N)
    L = model_interval(K, r_max)
    h = L / n
    nodes = (np.arange(n) + 0.5) * h
    with np.errstate(over="ignore"):  # sinh overflows at steep K < 0; named below
        cw = _finite_in_K(K, sin_k(K, nodes) ** N * h, f"the radial weight sin_K^{N:g}")
    return RadialGrid(K=K, N=N, n=n, nodes=nodes, cell_weights=cw, h=h, r_max=L)


def _cone_arg_to_distance(K: float, arg: np.ndarray) -> np.ndarray:
    """Invert the law-of-cosines argument of ``cone`` for any K (arccos clamped for K > 0)."""
    if K == 0:
        return np.sqrt(np.maximum(arg, 0.0))
    if K < 0:  # the haversine form keeps arg >= 1
        return np.arccosh(arg) / math.sqrt(-K)
    bad = (arg > 1.0 + _ACOS_GUARD) | (arg < -1.0 - _ACOS_GUARD)
    if np.any(bad):
        worst = float(np.max(np.abs(arg[bad])) - 1.0)
        raise FloatingPointError(f"cone distance argument out of [-1,1] by {worst:.3e}")
    return np.arccos(np.clip(arg, -1.0, 1.0)) / math.sqrt(K)


def cone(fiber: FiniteMMS, K: float, N: float, grid: RadialGrid) -> FiniteMMS:
    """(K, N)-cone over ``fiber``: radial grid x fiber atoms plus apex atom(s).

    Distances invert the law of cosines a[i, j] + b[i, j] c(min(d_F, pi)),
    one radial cell i at a time, once per radial pair and distinct capped
    fiber distance (a circle of nf atoms has nf/2 + 1), then spread over the
    fiber pairs; the measure is the product of radial cell weights and fiber
    weights.  The apex at r=0 (and at r=pi/sqrt(K) for K > 0) is carried as
    an explicit zero-weight atom so the collapsed boundary stays part of the
    space without entering any density.  A fiber isometry sigma is lifted to
    (i, x) -> (i, sigma x) with the apexes fixed: a cell's distances are one
    function of the same index into the distinct fiber distances, so the
    lift maps the cone onto itself bit for bit whenever sigma maps the fiber.
    """
    if grid.K != K or grid.N != N:
        raise ValueError("grid parameters must match the cone parameters")
    r = grid.nodes
    nr, nf = grid.n, fiber.n
    theta, inv = np.unique(np.minimum(fiber.dist, math.pi), return_inverse=True)
    c = np.cos(theta) if K >= 0 else np.sin(0.5 * theta) ** 2

    if K == 0:
        # d^2 = s^2 + t^2 - 2 s t cos(d_F /\ pi)
        a = r[:, None] ** 2 + r[None, :] ** 2
        b = -(2.0 * r[:, None] * r[None, :])
    elif K > 0:
        cs, sn = cos_k(K, r), sin_k(K, r)
        a = cs[:, None] * cs[None, :]
        b = K * sn[:, None] * sn[None, :]
    else:  # haversine form: cosh(k|s - t|) + 2 sinh(ks) sinh(kt) sin^2(d_F/2) >= 1
        with np.errstate(over="ignore"):  # a + b, the largest argument, is checked below
            sn = sin_k(K, r)
            a = cos_k(K, np.abs(r[:, None] - r[None, :]))
            b = -2.0 * K * sn[:, None] * sn[None, :]
            _finite_in_K(K, a + b, "the cone's law-of-cosines argument")

    nbody = nr * nf
    apexes = 2 if K > 0 else 1
    n = nbody + apexes
    dist = np.zeros((n, n))
    inv = inv.reshape(nf, nf)  # numpy 1.x returns it flat
    for i, cell in enumerate(dist[:nbody, :nbody].reshape(nr, nf, nr, nf)):  # views [x, j, y]
        row = _cone_arg_to_distance(K, a[i, :, None] + b[i, :, None] * c)  # [j, theta]
        cell[:] = np.take(row, inv, axis=1).transpose(1, 0, 2)
    # near apex at r=0: distance to (t, y) is t
    dist[nbody, :nbody] = np.repeat(r, nf)
    dist[:nbody, nbody] = dist[nbody, :nbody]
    labels = [f"{i}:{lab}" for i in range(nr) for lab in fiber.labels]
    labels.append("apex0")
    if K > 0:
        L = model_interval(K)
        dist[nbody + 1, :nbody] = L - np.repeat(r, nf)
        dist[:nbody, nbody + 1] = dist[nbody + 1, :nbody]
        dist[nbody, nbody + 1] = dist[nbody + 1, nbody] = L
        labels.append("apex1")
    weight = np.zeros(n)
    weight[:nbody] = np.outer(grid.cell_weights, fiber.weight).ravel()
    np.fill_diagonal(dist, 0.0)
    isometry = None
    if fiber.isometry is not None:
        isometry = np.r_[(np.arange(nr)[:, None] * nf + fiber.isometry).ravel(), nbody:n]
    return FiniteMMS(labels=tuple(labels), dist=dist, weight=weight, isometry=isometry)


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
    sqrt(dr^2 + f(r)^2 dF^2): a move costs sqrt(dr^2 + fbar^2 d_F(x,y)^2)
    with fbar the mean warp value over the radial span, so a radial chord
    (y = x) costs dr.  Fiber moves go to each atom's ``_HOP_CAP`` nearest
    fiber neighbours, and radial spans to ``_HOP_CAP`` cells, which keeps
    the graph sparse at an O(mesh) cost in metric accuracy.  The measure
    is f(r_i)^N * h * fiber weight; no apex atoms are added.

    When the assembled graph is invariant under the fiber rotation
    x -> x+1 mod nf (its undirected edges and their weights are exactly
    the same after relabelling, as for a circle fiber), Dijkstra runs only
    from the atoms (i, 0) and d[(i,x), (j,y)] = d[(i,0), (j, y-x mod nf)];
    otherwise it runs from every atom.  Both give the same matrix bit for
    bit, since Dijkstra's distances are minima over paths and the rotation
    maps paths to paths of the same edge lengths.  Dijkstra sums a path's
    edges in opposite orders from its two ends, so d[a, b] and d[b, a] can
    differ in the last bits; both are lengths of shortest paths, and the
    matrix keeps the smaller, which makes it exactly symmetric.  The
    rotation, when it applies, is the space's ``isometry``.
    """
    from scipy.sparse import coo_matrix

    f = np.asarray(f, dtype=float)
    if f.shape != (base.n,):
        raise ValueError("warp samples must match the base grid nodes")
    if not (np.all(np.isfinite(f)) and np.all(f >= 0) and np.all(f[1:-1] > 0)):
        raise ValueError("warp function must be finite, >= 0 and positive on the interior")
    nr, nf, h = base.n, fiber.n, base.h
    nv = nr * nf
    masked = np.where(np.eye(nf, dtype=bool), np.inf, fiber.dist)
    # each atom itself first (fiber step 0), then its nearest fiber neighbours
    hops = np.c_[np.arange(nf), np.argsort(masked, axis=1)[:, : min(_HOP_CAP, nf - 1)]]
    spans = min(_HOP_CAP, nr - 1) + 1  # radial spans j - i = 0 .. _HOP_CAP
    node = np.arange(nv).reshape(nr, nf)

    # (i, x) -> (j, y) for y in hops[x], j = i .. i + _HOP_CAP, kept once as
    # j > i, or y > x within one ring; y = x gives the radial chords, of
    # length hypot(dj h, 0) = dj h exactly.
    # math.hypot, not np.hypot (they differ in the last bit), once per distinct
    # (i, j, d_F); fbar rows past the last cell are never read.
    levels, level = np.unique(fiber.dist[np.arange(nf)[:, None], hops], return_inverse=True)
    level = level.reshape(hops.shape)
    fbar = np.array([[f[i : i + dj + 1].mean() for dj in range(spans)] for i in range(nr)])
    length = np.frompyfunc(math.hypot, 2, 1)(
        np.arange(spans)[:, None] * h, fbar[:, :, None] * levels).astype(float)
    i, dj, x, k = np.ogrid[:nr, :spans, :nf, : hops.shape[1]]
    i, dj, x, k = np.nonzero((i + dj < nr) & ((dj > 0) | (hops[x, k] > x)))
    rows, cols, vals = i * nf + x, (i + dj) * nf + hops[x, k], length[i, dj, level[x, k]]

    def undirected(r, c):
        key = np.minimum(r, c) * nv + np.maximum(r, c)
        order = np.argsort(key)
        return key[order], vals[order]

    turn = node[:, np.roll(np.arange(nf), -1)].ravel()  # (i, x) -> (i, x+1 mod nf)
    k0, v0 = undirected(rows, cols)
    k1, v1 = undirected(turn[rows], turn[cols])
    rotates = np.array_equal(k0, k1) and np.array_equal(v0, v1)

    g = coo_matrix((vals, (rows, cols)), shape=(nv, nv))
    dist = dijkstra(g.tocsr(), directed=False, indices=node[:, 0] if rotates else node.ravel())
    if np.any(np.isinf(dist)):
        raise ValueError("warped product graph is disconnected")
    if rotates:
        i, x, j, y = np.ogrid[:nr, :nf, :nr, :nf]
        dist = dist.reshape(nr, nr, nf)[i, j, (y - x) % nf].reshape(nv, nv)
    dist = np.minimum(dist, dist.T)
    labels = tuple(f"{i}:{lab}" for i in range(nr) for lab in fiber.labels)
    weight = np.outer(f**N * h, fiber.weight).ravel()
    return FiniteMMS(labels=labels, dist=dist, weight=weight, isometry=turn if rotates else None)


def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on the first call."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


def diameter(m: FiniteMMS) -> float:
    return float(m.dist.max()) if m.n else 0.0


def _midpoint_defect(m: FiniteMMS, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One row per pair (i[p], j[p]): max(|d(i,k) - d(i,j)/2|, |d(k,j) - d(i,j)/2|) at atom k."""
    half = 0.5 * m.dist[i, j][:, None]
    to_i = m.dist[i]  # a gathered copy, reused in place
    to_i -= half
    to_j = m.dist[:, j].T - half
    return np.maximum(np.abs(to_i, out=to_i), np.abs(to_j, out=to_j), out=to_i)


def midpoints(m: FiniteMMS, i: np.ndarray, j: np.ndarray, eps: float) -> np.ndarray:
    """Epsilon-midpoints of the pairs (i[p], j[p]), one boolean row per pair.

    Row p marks every atom k whose ``_midpoint_defect`` is <= eps, that is
    both |d(i,k) - d(i,j)/2| and |d(k,j) - d(i,j)/2| <= eps.  An empty row
    is a valid answer at coarse resolution.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    return _midpoint_defect(m, i, j) <= eps


@dataclass(frozen=True, eq=False)
class SuspensionReport:
    """Outcome of the suspension recognition at a pair of antipodal atoms.

    ``stage_residuals`` maps each stage that ran, in order, to its residual;
    ``max_residual`` is the largest of them, ``poles`` and ``tolerance`` those it used.
    """

    is_suspension: bool
    equator: FiniteMMS | None
    max_residual: float
    failed_stage: str | None
    stage_residuals: dict
    poles: tuple
    tolerance: float


def suspension_check(m: FiniteMMS, x: int | None = None, y: int | None = None,
                     tol: float | None = None, N: float = 1.0) -> SuspensionReport:
    """Test whether ``m`` matches a sin^N-weighted spherical suspension with poles x, y.

    Stages: (1) "pole-distance": x and y are pi apart; (2)
    "geodesics-through-poles": every atom lies on a geodesic from x to y of
    length pi; (3) the interior atoms nearest the half-way sphere form the
    equator, at the lowest level theta_eq if two levels tie (an even radial
    grid), their distances D clamped to [0, pi] give the recovered fiber's
    phi by the chord sin(D/2) = sin(theta_eq) sin(phi/2), and every atom
    projects to the equator atom whose distance to it is nearest
    |theta - theta_eq|; (4) "law-of-cosines": the suspension metric over the
    recovered fiber matches every distance up to ``tol``; (5)
    "equator-geodesic": every pair of equator atoms has a midpoint among them,
    at eps = ``tol`` plus half the fiber's largest nearest-neighbour gap.
    Equator atom weights are the summed weights of the atoms projecting onto
    them, normalized by the sin^N mass of their radial fibers.  By default the
    poles are the lightest farthest pair (a cone's apexes, the first in row-major
    order on a tie) and ``tol`` twice the radial step seen from x (``_theta_step``),
    at most pi/8.  Geometric failure is reported, never raised; an empty space, a
    lone pole, poles not atoms of ``m``, or a negative or non-finite ``N`` raise
    ValueError.
    """
    if m.n == 0:
        raise ValueError("the empty space has no poles")
    if (x is None) != (y is None):
        raise ValueError("x and y name the two poles: give both or neither")
    d = m.dist
    if x is None:  # of the farthest pairs, the lightest; argmin keeps the first on ties
        pairs = np.argwhere(d == d.max())  # in row-major order
        x, y = map(int, pairs[np.argmin(m.weight[pairs].sum(axis=1))])
    if not (0 <= x < m.n and 0 <= y < m.n):
        raise ValueError(f"poles ({x}, {y}) must be atoms of the space, 0 to {m.n - 1}")
    if tol is None:
        tol = min(2.0 * _theta_step(d[x], np.setdiff1d(np.arange(m.n), [x, y])), math.pi / 8.0)
    _check_exponent(N)
    stages = {}

    def ran(stage, res, gate=tol):
        stages[stage] = res
        return passes(-res, gate)

    def report(failed, equator=None):
        worst = float(np.max(list(stages.values())))
        return SuspensionReport(failed is None, equator, worst, failed, stages, (x, y), tol)

    if not ran("pole-distance", abs(float(d[x, y]) - math.pi)):
        return report("pole-distance")
    if not ran("geodesics-through-poles", float(np.abs(d[x] + d[:, y] - math.pi).max())):
        return report("geodesics-through-poles")

    theta = d[x].copy()
    interior = np.nonzero((theta > tol) & (theta < math.pi - tol))[0]
    if interior.size == 0:
        # two-pole space: a suspension over the empty interior
        return report(None)

    # on an even radial grid the levels pi/2 -/+ h/2 tie: keep the lower one
    dev = np.abs(theta[interior] - math.pi / 2.0)
    eq_idx = interior[dev <= dev.min() + 1e-9]
    theta_eq = theta[eq_idx].min()
    eq_idx = eq_idx[theta[eq_idx] <= theta_eq + 1e-9]

    # recovered fiber: equator atoms with their mutual distances capped at pi,
    # read as chords of latitude theta_eq (at theta_eq = pi/2 they are the fiber's own)
    eq_dist = np.minimum(d[np.ix_(eq_idx, eq_idx)], math.pi)
    eq_dist = 0.5 * (eq_dist + eq_dist.T)
    np.fill_diagonal(eq_dist, 0.0)
    sin_eq = math.sin(theta_eq)
    if sin_eq < 1.0:
        eq_dist = 2.0 * np.arcsin(np.minimum(1.0, np.sin(0.5 * eq_dist) / sin_eq))

    # project every atom to the equator atom directly above/below it
    score = np.abs(d[:, eq_idx] - np.abs(theta - theta_eq)[:, None])
    proj = np.argmin(score, axis=1)  # argmin takes the smallest index on ties

    off_pole = np.ones(m.n, dtype=bool)
    off_pole[[x, y]] = False
    eq_weight = np.bincount(proj[off_pole], m.weight[off_pole], eq_idx.size)
    sin_mass = np.bincount(proj[off_pole], np.sin(theta[off_pole]) ** N, eq_idx.size)
    h_guess = _theta_step(theta, interior)
    with np.errstate(divide="ignore", invalid="ignore"):
        eq_weight = np.where(sin_mass > 0, eq_weight / (sin_mass * h_guess), 0.0)
    equator = FiniteMMS(
        labels=tuple(m.labels[int(k)] for k in eq_idx), dist=eq_dist, weight=eq_weight
    )

    if not ran("law-of-cosines", _law_of_cosines_residual(d, theta, proj, np.cos(eq_dist))):
        return report("law-of-cosines", equator)
    gaps = np.where(np.eye(eq_idx.size, dtype=bool), np.inf, eq_dist).min(axis=1)
    h_eq = float(gaps.max()) if eq_idx.size > 1 else 0.0
    atoms = np.arange(eq_idx.size)
    defect = max(float(_midpoint_defect(equator, np.full_like(atoms, a), atoms).min(axis=1).max())
                 for a in atoms)
    if not ran("equator-geodesic", defect, tol + 0.5 * h_eq):
        return report("equator-geodesic", equator)
    return report(None, equator)


def _law_of_cosines_residual(
    d: np.ndarray, theta: np.ndarray, proj: np.ndarray, cos_eq: np.ndarray
) -> float:
    """max |cos(eq)[proj a, proj b] sin th_a sin th_b + cos th_a cos th_b - cos d[a, b]|.

    Evaluated over ``_SUSPENSION_BLOCK`` entries of full rows a at a time,
    with the same elementwise operations as on the whole matrix, so the
    result is the same bits with a peak of a few blocks instead of n^2.
    """
    n = d.shape[0]
    rows = max(1, _SUSPENSION_BLOCK // n)
    cos_th, sin_th = np.cos(theta), np.sin(theta)
    worst = 0.0
    for s in range(0, n, rows):
        a = slice(s, s + rows)
        buf = cos_eq[np.ix_(proj[a], proj)]
        buf *= sin_th[a, None] * sin_th
        buf += cos_th[a, None] * cos_th
        buf -= np.cos(d[a])
        worst = np.maximum(worst, np.abs(buf, out=buf).max())  # keeps a NaN
    return float(worst)


def _theta_step(theta: np.ndarray, interior: np.ndarray) -> float:
    """Median gap between consecutive distinct radial levels (quadrature step)."""
    levels = np.unique(np.round(theta[interior], 9))
    if levels.size < 2:
        return 1.0
    return float(np.median(np.diff(levels)))


def circle_mms(n: int, radius: float) -> FiniteMMS:
    """n equispaced atoms on a circle with arc-length metric and uniform weight.

    Its isometry is the rotation c_i -> c_{i+1 mod n}: distances are whole
    hop counts times one step, so the rotation keeps every bit.
    """
    if n < 3:
        raise ValueError("circle needs n >= 3 atoms")
    step = 2.0 * math.pi * radius / n
    k = np.arange(n)
    hops = np.minimum(np.abs(k[:, None] - k[None, :]), n - np.abs(k[:, None] - k[None, :]))
    dist = hops * step
    weight = np.full(n, step)
    return FiniteMMS(labels=tuple(f"c{i}" for i in range(n)), dist=dist, weight=weight,
                     isometry=np.roll(k, -1))


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
    """Write ``m`` as the text ``json.dumps({"labels", "dist", "weight"})`` gives, byte for byte.

    A distance matrix holds few distinct values (a cone about n^2/nf), so
    each distinct float, keyed by its bits to keep -0.0 apart, is formatted
    once with ``repr``, as json does, and the rows are joined from those strings.
    """
    n = m.n
    keys, inverse = np.unique(m.dist.view(np.int64), return_inverse=True)
    reprs = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
    rows = reprs[inverse.reshape(n, n)].tolist()
    dist = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    labels, weight = json.dumps(list(m.labels)), json.dumps(m.weight.tolist())
    text = f'{{"labels": {labels}, "dist": {dist}, "weight": {weight}}}'
    with open(path, "w") as fh:
        fh.write(text)


class _FloatTokens(dict):
    """float(token) for each distinct JSON number token, parsed on first sight."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _json_numbers(path, key: str, value) -> np.ndarray:
    """The entries of ``value`` as a float array, or a ValueError if one is not a JSON number.

    numpy infers a string, null or object entry, or all booleans, as a
    non-numeric dtype and fails on a ragged nesting; but it reads a true or
    false beside numbers as 1 or 0, so the entries equal to 0 or 1 are looked
    at.  An integer past int64 infers as an object and is read as a float.
    """
    error = ValueError(f"space file {path} has a malformed entry: {key!r} holds a non-number")
    try:
        a = np.asarray(value)
    except ValueError:
        raise ValueError(f"space file {path} has a malformed entry: {key!r} is ragged") from None
    if a.dtype.kind == "O" and all(type(v) in (int, float) for v in a.flat):
        a = a.astype(float)  # an integer too long for int64 infers as an object
    if a.dtype.kind not in "iuf":
        raise error
    a = a.astype(float, copy=False)
    if a.ndim in (1, 2):  # any other shape is rejected later
        rows = [value] if a.ndim == 1 else value
        i, j = np.nonzero(np.atleast_2d((a == 0.0) | (a == 1.0)))
        if any(isinstance(rows[r][c], bool) for r, c in zip(i.tolist(), j.tolist())):
            raise error
    return a


def load_mms_json(path) -> FiniteMMS:
    """Load a space from a JSON object with labels, dist and weight; symmetric, zero diagonal.

    ``labels`` must be an array and ``dist`` and ``weight`` hold JSON numbers
    only.  A diagonal entry or an asymmetry beyond ``_VALIDATE_SLACK`` is an
    error; within it, the diagonal is zeroed and dist is symmetrized.  A space
    file repeats each distance (symmetry, the cone's rotations), so each
    distinct number token is parsed once per load.
    """
    with open(path) as fh:
        payload = json.load(fh, parse_float=_FloatTokens().__getitem__)
    if not isinstance(payload, dict):
        raise ValueError(f"space file {path} holds a JSON {type(payload).__name__}, not an object")
    for key in ("labels", "dist", "weight"):
        if key not in payload:
            raise ValueError(f"space file {path} has no {key!r} key")
    labels = payload["labels"]
    if not isinstance(labels, list):
        raise ValueError(f"space file {path} has a malformed entry: 'labels' holds a JSON "
                         f"{type(labels).__name__}, not an array")
    weight = _json_numbers(path, "weight", payload["weight"])
    dist = _json_numbers(path, "dist", payload["dist"])
    if dist.shape == (0,):  # json writes the 0x0 matrix as []
        dist = dist.reshape(0, 0)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("dist must be a square matrix")
    if not _all_finite(dist):  # before fill_diagonal can hide a NaN
        raise ValueError("distances and weights must be finite")
    off = np.flatnonzero(np.abs(np.diagonal(dist)) > _VALIDATE_SLACK)
    if off.size:
        i = int(off[0])
        raise ValueError(f"space file {path}: atom {i} is at distance {float(dist[i, i])!r} "
                         "from itself, not 0")
    if np.any(np.abs(dist - dist.T) > _VALIDATE_SLACK):
        raise ValueError("dist must be symmetric")
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return FiniteMMS(labels=labels, dist=dist, weight=weight)
