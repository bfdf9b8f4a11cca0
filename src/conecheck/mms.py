"""Finite metric measure spaces and geometric constructions over them.

A :class:`FiniteMMS` is a finite set of weighted atoms with a symmetric
distance matrix.  On top of it this module builds curvature-K cones with
radial weight ``sin_K^N``, graph-discretized warped products, model circles
and weighted intervals, epsilon-midpoint search, and the suspension
recognizer that inverts the cone construction at a pair of antipodal points.

A cone keeps the per-cell table its law of cosines computes, not the n x n
matrix, and this module is the only one that knows how a space stores its
distances: the rest of the package reads them through ``FiniteMMS.rows``,
``block`` and ``pairs``, and ``diameter``.  Every value owns its arrays through
``_freeze`` but a dense ``dist``, frozen in place; every operation here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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

# How far a distance may miss a metric invariant before it is rejected or reported.
_VALIDATE_SLACK = 1e-9

# Rows per block of validate's triangle sweep: 24, 32 and 48 were within 10 % of each
# other, and 32 the fastest median, on the 802-atom cone with its isometry (27 rows) and
# without (802 rows) and on the 2050-atom cone with it (66 rows); 16..128 were tried.
_VALIDATE_BLOCK = 32

# Entries (full rows of n) per block of suspension_check's row sweeps, the
# default-pole search, the law of cosines and save_mms_json: about 200 rows,
# 4 MB a temporary, at 2502 atoms.
_SUSPENSION_BLOCK = 1 << 19


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float copy, so the caller's array cannot change the value.

    Every value type holds its arrays so but two, frozen in place: a dense ``FiniteMMS.dist``
    (a copy would add a matrix to the peak of a loaded file or a warped product, which
    traces at 1.04 matrices at 40 x 40) and
    ``spectral1d.Spectrum``'s LAPACK output.  A cone passes its table, not a matrix.
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
    """Finite metric measure space: labels, distances, atom weights.

    ``dist`` is the n x n distance matrix, frozen in place (the caller's with it), or
    the per-cell table of ``cone`` (a ``_ConeTable``), which holds nr^2 u values for
    n^2.  A table-backed space fills the matrix on the first read of ``dist``, bit for
    bit as the table's reads give it, and keeps it for every later read.  The reads
    ``rows``, ``block`` and ``pairs``, and ``diameter`` for the max, serve either
    storage with the same bits, and are how the rest of the package reads distances.

    The constructor rejects a non-finite entry and, naming the atom or pair, a diagonal
    entry or negative distance beyond ``_VALIDATE_SLACK`` and a negative weight; a zero
    weight marks a boundary atom (a cone apex), kept for distances but not densities.
    ``validate`` checks symmetry and the triangle inequality, which take n^2 and n^3 work.

    ``isometry`` is a permutation sigma of the atoms with
    ``dist[sigma][:, sigma] == dist`` bit for bit, or None.  The constructions
    over a circle set it (the fiber rotation x -> x+1); a loaded file has
    none.  Only its being an integer permutation of the atoms is checked
    here; ``validate`` checks it against the distances before it uses it.

    ``weight`` and ``isometry`` are copied.  ``repr`` leaves ``dist`` out, so it does not
    fill a table-backed space's matrix; ``dataclasses.replace`` reads ``dist``, so on a
    cone it fills the matrix, and the space it returns is dense, holding that matrix.
    """

    labels: tuple
    dist: np.ndarray = field(repr=False)
    weight: np.ndarray
    isometry: np.ndarray | None = None

    def __post_init__(self):
        table = self.dist if isinstance(self.dist, _ConeTable) else None
        object.__setattr__(self, "_table", table)
        if table is None:
            dist = np.ascontiguousarray(self.dist, dtype=float)
            dist.flags.writeable = False
            object.__setattr__(self, "dist", dist)
            values, shape = dist, dist.shape
        else:  # __getattr__ fills the matrix if it is read
            object.__delattr__(self, "dist")
            values, shape = table.table, (table.n, table.n)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "weight", _freeze(self.weight))
        n = len(self.labels)
        if shape != (n, n):
            raise ValueError(f"dist must be {n}x{n}, got {shape}")
        if self.weight.shape != (n,):
            raise ValueError(f"weight must have length {n}")
        lo, hi = (float(values.min()), float(values.max())) if n else (0.0, 0.0)  # one pass each
        if not (math.isfinite(lo) and math.isfinite(hi) and _all_finite(self.weight)):
            raise ValueError("distances and weights must be finite")
        off = () if table else np.flatnonzero(np.abs(np.diagonal(dist)) > _VALIDATE_SLACK)
        if len(off):  # a table's diagonal is 0 by construction
            raise ValueError(f"atom {off[0]} is at distance {float(dist[off[0], off[0]])!r} "
                             "from itself, not 0")
        if lo < -_VALIDATE_SLACK:
            i, j = np.unravel_index(np.argmin(self.dist), shape)
            raise ValueError(f"atoms {i} and {j} are at a negative distance, {lo!r}")
        neg = np.flatnonzero(self.weight < 0.0)
        if neg.size:
            raise ValueError(f"atom {neg[0]} has a negative weight, {float(self.weight[neg[0]])!r}")
        if self.isometry is not None:
            object.__setattr__(self, "isometry", _permutation(self.isometry, n))

    def __getattr__(self, name):
        # reached only when ``dist`` is not yet held: fill it from the table and keep it
        if name != "dist" or self.__dict__.get("_table") is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dist = self._table.rows(slice(None))
        dist.flags.writeable = False
        object.__setattr__(self, "dist", dist)
        return dist

    @property
    def n(self) -> int:
        return len(self.labels)

    def total_mass(self) -> float:
        return float(self.weight.sum())

    def rows(self, idx, fn=None) -> np.ndarray:
        """``dist[idx]``: the distances from the atoms ``idx`` (an index array or a slice).

        A new array for an index array.  ``fn``, an elementwise function such as np.cos,
        gives ``fn(dist[idx])`` with the same bits; a table applies it to its values first.
        """
        d = self.__dict__.get("dist")
        if d is None:
            return self._table.rows(idx, fn)
        return d[idx] if fn is None else fn(d[idx])

    def block(self, r, c) -> np.ndarray:
        """``dist[np.ix_(r, c)]``, the len(r) x len(c) submatrix; ``r`` may be a slice."""
        d = self.__dict__.get("dist")
        if d is None:
            return self._table.pairs(np.arange(self.n)[r][:, None], np.asarray(c)[None, :])
        return d[r, c] if isinstance(r, slice) else d[np.ix_(r, c)]

    def pairs(self, i, j) -> np.ndarray:
        """``dist[i, j]``: the distances d(i[p], j[p]) of broadcast index arrays (or atoms)."""
        d = self.__dict__.get("dist")
        return self._table.pairs(i, j) if d is None else d[i, j]


@dataclass(frozen=True)
class Violation:
    """A named defect of a FiniteMMS invariant, with location and size."""

    kind: str  # "symmetry" | "triangle"
    indices: tuple
    magnitude: float

    def __str__(self):
        return f"{self.kind} violation at {self.indices}: {self.magnitude:.3e}"


def validate(m: FiniteMMS) -> list:
    """Return the symmetry and triangle violations of ``m`` (empty list == valid).

    The pointwise rules are the constructor's, so every ``FiniteMMS`` keeps them.
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
    d, n = m.dist, m.n
    buf = np.subtract(d, d.T, out=np.empty_like(d))  # |d - d^T|, then ds: one n x n buffer
    i, j = np.nonzero(np.abs(buf, out=buf) > _VALIDATE_SLACK)  # row-major: np.triu's order
    for a, b in zip(i[i < j], j[i < j]):
        out.append(Violation("symmetry", (int(a), int(b)), float(buf[a, b])))
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


class _ConeTable:
    """A cone's distances as ``cone`` computes them, read through the fiber's index map.

    Atom a is (cell[a], slot[a]): radial cell i and fiber atom x for a = i nf + x, then
    cell nr + k and the apex slot nf for apex k.  d(a, b) = table[cell[a], cell[b],
    inv[slot[a], slot[b]]] for a != b, and 0 for a == b.  ``inv`` maps two fiber atoms to
    the index of their distinct capped distance, and any pair with an apex to the last
    column, which holds the apex distances.  Entries that no two distinct atoms read
    are 0, so the table's max is the matrix's.  ``mapped`` keeps fn(table) for the last
    elementwise ``fn`` that ``rows`` was given, so a row sweep maps the table once.
    """

    def __init__(self, table: np.ndarray, inv: np.ndarray, nr: int):
        self.table, self.inv, self.nr = table, inv, nr
        nf, apexes = inv.shape[0] - 1, table.shape[0] - nr
        self.n = nr * nf + apexes
        self.cell = np.r_[np.repeat(np.arange(nr), nf), nr + np.arange(apexes)]
        self.slot = np.r_[np.tile(np.arange(nf), nr), np.full(apexes, nf)]
        self.mapped = (None, table)

    def rows(self, idx, fn=None) -> np.ndarray:
        """Full rows: one ``np.take`` along the fiber index per run of one radial cell."""
        if self.mapped[0] is not fn:
            self.mapped = (fn, self.table if fn is None else fn(self.table))
        t = self.mapped[1]
        nr, nf = self.nr, self.inv.shape[0] - 1
        idx = np.arange(self.n)[idx]
        out = np.empty((idx.size, self.n))
        body = out[:, : nr * nf].reshape(idx.size, nr, nf)  # a view: [p, j, y]
        cell, slot = self.cell[idx], self.slot[idx]
        starts = np.flatnonzero(np.diff(cell, prepend=-1))  # runs of one cell
        for s, e in zip(starts, np.r_[starts[1:], idx.size]):
            t_c = t[cell[s]]
            body[s:e] = np.take(t_c[:nr], self.inv[slot[s:e], :nf], axis=1).transpose(1, 0, 2)
            out[s:e, nr * nf :] = t_c[nr:, -1]
        out[np.arange(idx.size), idx] = 0.0 if fn is None else fn(0.0)
        return out

    def pairs(self, a, b) -> np.ndarray:
        """d(a, b) over broadcast index arrays ``a`` and ``b``."""
        a, b = np.asarray(a), np.asarray(b)
        d = self.table[self.cell[a], self.cell[b], self.inv[self.slot[a], self.slot[b]]]
        return np.where(a == b, 0.0, d)


def cone(fiber: FiniteMMS, K: float, N: float, grid: RadialGrid) -> FiniteMMS:
    """(K, N)-cone over ``fiber``: radial grid x fiber atoms plus apex atom(s).

    Distances invert the law of cosines a[i, j] + b[i, j] c(min(d_F, pi)),
    one radial cell i at a time, once per radial pair and distinct capped
    fiber distance (a circle of nf atoms has nf/2 + 1).  The space keeps that
    table (``_ConeTable``) and reads it through the fiber's index map; the
    n x n matrix is filled only if ``dist`` is read.  The measure is the
    product of radial cell weights and fiber weights.  The apex at r=0 (and
    at r=pi/sqrt(K) for K > 0) is carried as an explicit zero-weight atom so
    the collapsed boundary stays part of the space without entering any
    density.  A fiber isometry sigma is lifted to (i, x) -> (i, sigma x) with
    the apexes fixed: a cell's distances are one function of the same index
    into the distinct fiber distances, so the lift maps the cone onto itself
    bit for bit whenever sigma maps the fiber.
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

    nbody, u = nr * nf, theta.size
    apexes = 2 if K > 0 else 1
    n = nbody + apexes
    table = np.zeros((nr + apexes, nr + apexes, u + 1))  # [i, j, theta], then the apex column
    for i in range(nr):
        table[i, :nr, :u] = _cone_arg_to_distance(K, a[i, :, None] + b[i, :, None] * c)
    inv = inv.reshape(nf, nf)  # numpy 1.x returns it flat
    lone = np.ones(u, dtype=bool)  # distinct distances only a fiber atom's own diagonal reads
    lone[inv[~np.eye(nf, dtype=bool)]] = False
    table[np.arange(nr), np.arange(nr), np.flatnonzero(lone)[:, None]] = 0.0
    labels = [f"{i}:{lab}" for i in range(nr) for lab in fiber.labels]
    labels.append("apex0")
    if nf:  # near apex at r=0: distance to (t, y) is t
        table[nr, :nr, u] = table[:nr, nr, u] = r
    if K > 0:
        L = model_interval(K)
        if nf:
            table[nr + 1, :nr, u] = table[:nr, nr + 1, u] = L - r
        table[nr, nr + 1, u] = table[nr + 1, nr, u] = L
        labels.append("apex1")
    index = np.full((nf + 1, nf + 1), u)  # the apex slot nf reads the apex column u
    index[:nf, :nf] = inv
    table.flags.writeable = index.flags.writeable = False
    weight = np.zeros(n)
    weight[:nbody] = np.outer(grid.cell_weights, fiber.weight).ravel()
    isometry = None
    if fiber.isometry is not None:
        isometry = np.r_[(np.arange(nr)[:, None] * nf + fiber.isometry).ravel(), nbody:n]
    return FiniteMMS(labels=tuple(labels), dist=_ConeTable(table, index, nr), weight=weight,
                     isometry=isometry)


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
    matrix keeps the smaller, which makes it exactly symmetric; with the
    rotation it is taken on the nr x nr x nf table of the sources before the
    gather, the same bits with one n x n array.  The rotation, when it
    applies, is the space's ``isometry``.
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
    del g, rows, cols, vals, k0, v0, k1, v1, i, dj, x, k  # off the peak of the n x n gather
    if np.any(np.isinf(dist)):
        raise ValueError("warped product graph is disconnected")
    if rotates:  # the transpose of D[i, j, y - x] reads D[j, i, x - y]: take min on D first
        d = dist.reshape(nr, nr, nf)
        np.minimum(d, d.transpose(1, 0, 2)[:, :, -np.arange(nf) % nf], out=d)
        i, x, j, y = np.ogrid[:nr, :nf, :nr, :nf]
        dist = d[i, j, (y - x) % nf].reshape(nv, nv)
    else:
        dist = np.minimum(dist, dist.T)
    labels = tuple(f"{i}:{lab}" for i in range(nr) for lab in fiber.labels)
    weight = np.outer(f**N * h, fiber.weight).ravel()
    return FiniteMMS(labels=labels, dist=dist, weight=weight, isometry=turn if rotates else None)


def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on the first call."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


def diameter(m: FiniteMMS) -> float:
    """The largest distance, 0.0 on the empty space; a cone reads it off its table."""
    if m._table is not None:
        return float(m._table.table.max())
    return float(m.dist.max()) if m.n else 0.0


def _midpoint_defect(m: FiniteMMS, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One row per pair (i[p], j[p]): max(|d(i,k) - d(i,j)/2|, |d(k,j) - d(i,j)/2|) at atom k."""
    half = 0.5 * m.pairs(i, j)[:, None]
    to_i = m.rows(i)  # a gathered copy, reused in place
    to_i -= half
    to_j = m.block(slice(None), j).T - half
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
    if x is None:  # of the farthest pairs, the lightest; argmin keeps the first on ties
        far = diameter(m)
        pairs = np.concatenate([np.argwhere(m.rows(a) == far) + [a.start, 0]  # row-major
                                for a in _row_blocks(m.n)])
        x, y = map(int, pairs[np.argmin(m.weight[pairs].sum(axis=1))])
    if not (0 <= x < m.n and 0 <= y < m.n):
        raise ValueError(f"poles ({x}, {y}) must be atoms of the space, 0 to {m.n - 1}")
    theta = m.rows([x])[0]
    if tol is None:
        tol = min(2.0 * _theta_step(theta, np.setdiff1d(np.arange(m.n), [x, y])), math.pi / 8.0)
    _check_exponent(N)
    stages = {}

    def ran(stage, res, gate=tol):
        stages[stage] = res
        return passes(-res, gate)

    def report(failed, equator=None):
        worst = float(np.max(list(stages.values())))
        return SuspensionReport(failed is None, equator, worst, failed, stages, (x, y), tol)

    if not ran("pole-distance", abs(float(m.pairs(x, y)) - math.pi)):
        return report("pole-distance")
    to_y = m.block(slice(None), [y])[:, 0]
    if not ran("geodesics-through-poles", float(np.abs(theta + to_y - math.pi).max())):
        return report("geodesics-through-poles")

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
    eq_dist = np.minimum(m.block(eq_idx, eq_idx), math.pi)
    eq_dist = 0.5 * (eq_dist + eq_dist.T)
    np.fill_diagonal(eq_dist, 0.0)
    sin_eq = math.sin(theta_eq)
    if sin_eq < 1.0:
        eq_dist = 2.0 * np.arcsin(np.minimum(1.0, np.sin(0.5 * eq_dist) / sin_eq))

    # project every atom to the equator atom directly above/below it
    score = np.abs(m.block(slice(None), eq_idx) - np.abs(theta - theta_eq)[:, None])
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

    if not ran("law-of-cosines", _law_of_cosines_residual(m, theta, proj, np.cos(eq_dist))):
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
    m: FiniteMMS, theta: np.ndarray, proj: np.ndarray, cos_eq: np.ndarray
) -> float:
    """max |cos(eq)[proj a, proj b] sin th_a sin th_b + cos th_a cos th_b - cos d[a, b]|.

    Evaluated over the ``_row_blocks`` of full rows a, with the same
    elementwise operations as on the whole matrix, so the result is the
    same bits with a peak of a few blocks instead of n^2.  A cone's table
    takes the cosine of its nr^2 u values, not of the n^2 distances.
    """
    cos_th, sin_th = np.cos(theta), np.sin(theta)
    worst = 0.0
    for a in _row_blocks(m.n):
        buf = cos_eq[np.ix_(proj[a], proj)]
        buf *= sin_th[a, None] * sin_th
        buf += cos_th[a, None] * cos_th
        buf -= m.rows(a, np.cos)
        worst = np.maximum(worst, np.abs(buf, out=buf).max())  # keeps a NaN
    return float(worst)


def _row_blocks(n: int) -> list:
    """Slices of full rows, ``_SUSPENSION_BLOCK`` entries each, that cover range(n)."""
    rows = max(1, _SUSPENSION_BLOCK // max(n, 1))
    return [slice(s, s + rows) for s in range(0, n, rows)]


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

    The rows of ``dist`` are read and written one ``_row_blocks`` slice at a
    time through ``m.rows``, so a cone never fills its matrix and the peak is
    one block beside the space.  A block holds few distinct values (a cone's
    about its entries over nf), so each, keyed by its bits to keep -0.0 apart,
    is formatted once with ``repr``, as json does, and each row is joined
    from those strings and written.  No strings are kept across blocks: on a
    file whose distances are all distinct they would grow back to n^2/2.
    """
    labels, weight = json.dumps(list(m.labels)), json.dumps(m.weight.tolist())
    with open(path, "w") as fh:
        fh.write(f'{{"labels": {labels}, "dist": [')
        for a in _row_blocks(m.n):
            block = m.rows(a)
            keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
            reprs = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
            for i, row in enumerate(reprs[inverse.reshape(block.shape)].tolist(), a.start):
                fh.write(f"{', ' * (i > 0)}[{', '.join(row)}]")
        fh.write(f'], "weight": {weight}}}')


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
    """Load a space from a JSON object with labels, dist and weight.

    ``labels`` must be an array, ``dist`` and ``weight`` hold JSON numbers only,
    and ``dist`` be symmetric up to ``_VALIDATE_SLACK``, within which it is
    symmetrized and its diagonal zeroed; every error, the constructor's too,
    names the file.  A space file repeats each distance (symmetry, the cone's
    rotations), so each distinct number token is parsed once per load.
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
        raise ValueError(f"space file {path}: dist must be a square matrix")
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which the constructor names
        asymmetric = np.any(np.abs(dist - dist.T) > _VALIDATE_SLACK)
        dist = 0.5 * (dist + dist.T)
    i = np.flatnonzero(np.abs(np.diagonal(dist)) <= _VALIDATE_SLACK)
    dist[i, i] = 0.0
    try:
        m = FiniteMMS(labels=labels, dist=dist, weight=weight)
    except ValueError as exc:
        raise ValueError(f"space file {path}: {exc}") from None
    if asymmetric:  # after the constructor, so a lone inf is named non-finite
        raise ValueError(f"space file {path}: dist must be symmetric")
    return m
