"""Exact discrete optimal transport and displacement-convexity checks.

Couplings are exact.  Each starts as the monotone (north-west corner)
rearrangement with potentials built along its staircase, the optimal plan
on a line.  One certificate of dual feasibility and complementary slackness
on the full cost matrix decides whether it stays; if not, the plan is the
transportation LP, solved by simplex on a shortlist of cells that a pricing
loop grows until no cell has a negative reduced cost, and it must pass the
same certificate.  Geodesic interpolation is replaced by its finite
surrogate, the epsilon-midpoint layer at t = 1/2.  On top of these the
module evaluates the reduced and full convexity inequalities for
Renyi-type entropies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model_fns import CurvatureDimension, ExtendedValue, passes, sigma_coeff, tau_coeff
from .mms import FiniteMMS, _freeze, _midpoint_defect, midpoints

__all__ = [
    "Density",
    "Certificate",
    "Coupling",
    "CDReport",
    "NoMidpointError",
    "density_from_mass",
    "uniform_density",
    "wasserstein2",
    "displacement_midpoint",
    "renyi_entropy",
    "convexity_reports",
    "cd_star_check",
    "cd_check",
]

_MARGINAL_TOL = 1e-9
_MASS_TOL = 1e-12
# Largest dual infeasibility of a plan's potentials, relative to the largest cost.
_DUAL_RTOL = 1e-9
# The LP's first shortlist: each row's and column's _SHORTLIST_WIDTH cells of
# least reduced cost under potentials from _SINKHORN_SWEEPS log-domain sweeps
# at entropic scale _SINKHORN_SCALE times the spread of the costs.
_SHORTLIST_WIDTH = 6
_SINKHORN_SWEEPS = 20
_SINKHORN_SCALE = 0.01


class NoMidpointError(ValueError):
    """Raised when a transported pair has no epsilon-midpoint at the given eps.

    ``pair`` is the first pair without one, and ``need`` the eps the message
    names, at which every pair of the plan has one; ``run``, a count of the
    plans that miss one and of all plans, makes ``need`` cover the whole run.
    """

    def __init__(self, pair: tuple, eps: float, need: float, run: tuple | None = None):
        count = "" if run is None else f" ({run[0]} of {run[1]} pairs miss one)"
        super().__init__(f"no epsilon-midpoint for atoms {pair} at eps={eps}{count}; every "
                         f"pair of the {'plan' if run is None else 'run'} has one at eps={need!r}")
        self.pair, self.need = pair, need


@dataclass(frozen=True, eq=False)
class Density:
    """Probability vector on a FiniteMMS, absolutely continuous w.r.t. its weights."""

    space: FiniteMMS
    mass: np.ndarray

    def __post_init__(self):
        mass = _freeze(self.mass)
        object.__setattr__(self, "mass", mass)
        if mass.shape != (self.space.n,):
            raise ValueError("mass vector must match the space")
        if np.any(mass < 0):
            raise ValueError("mass must be nonnegative")
        if not passes(-abs(mass.sum() - 1.0), _MASS_TOL):
            raise ValueError(f"mass must sum to 1 within {_MASS_TOL}, got {mass.sum()!r}")
        if np.any(mass[self.space.weight == 0] > 0):
            raise ValueError("mass on zero-weight atoms breaks absolute continuity")

    def rho(self) -> np.ndarray:
        """Density values mass_i / weight_i on the support of the reference weights."""
        w = self.space.weight
        return np.divide(self.mass, w, out=np.zeros_like(self.mass), where=w > 0)


def density_from_mass(space: FiniteMMS, raw: np.ndarray) -> Density:
    """Normalize a nonnegative vector (zeroed on weightless atoms) into a Density."""
    raw = np.asarray(raw, dtype=float).copy()
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise ValueError(f"mass vector has a non-finite entry {raw[bad[0]]} at atom {bad[0]}")
    raw[space.weight == 0] = 0.0
    s = raw.sum()
    if s <= 0:
        raise ValueError("cannot normalize a zero mass vector")
    return Density(space, raw / s)


def uniform_density(space: FiniteMMS, support: np.ndarray | None = None) -> Density:
    """The normalized reference measure, optionally restricted to an index set."""
    raw = space.weight.copy()
    if support is not None:
        keep = np.zeros(space.n, dtype=bool)
        keep[np.asarray(support, dtype=int)] = True
        raw = np.where(keep, raw, 0.0)
    return density_from_mass(space, raw)


@dataclass(frozen=True)
class Certificate:
    """How a coupling was solved, and the magnitudes its optimality certificate measured.

    ``solver`` is "monotone" (the staircase passed its certificate) or
    "lp" (it did not, and the LP solved); ``cells`` counts the cells the
    solver could put mass on (the staircase's nr + nc - 1, or the LP's final
    shortlist) and ``rounds`` the LP's pricing rounds after its first solve
    (0 for "monotone").  ``dual_infeasibility`` and ``slackness`` are what
    ``_certify_optimality`` returned on the full cost matrix.
    """

    solver: str
    cells: int
    rounds: int
    dual_infeasibility: float
    slackness: float


@dataclass(frozen=True, eq=False)
class Coupling:
    """Transport plan between two densities; marginals reproduce them to 1e-9.

    ``plan`` is stored as its support: an (n, n) ``scipy.sparse.coo_array``
    of the positive entries in row-major order.  A dense array is accepted
    and converted.  ``certificate`` is set by ``wasserstein2``.
    """

    plan: coo_array
    mu0: Density
    mu1: Density
    certificate: Certificate | None = None

    def __post_init__(self):
        from scipy.sparse import coo_array

        plan = coo_array(self.plan, dtype=float)
        if np.any(plan.data < 0):
            raise ValueError("transport plan must be nonnegative")
        plan.sum_duplicates()  # canonical form is row-major
        plan.eliminate_zeros()
        r = float(np.max(np.abs(np.asarray(plan.sum(axis=1)).ravel() - self.mu0.mass)))
        c = float(np.max(np.abs(np.asarray(plan.sum(axis=0)).ravel() - self.mu1.mass)))
        if not passes([-r, -c], _MARGINAL_TOL):
            raise ValueError(f"coupling marginals off by {max(r, c):.3e}")
        for arr in (plan.data, plan.row, plan.col):
            arr.flags.writeable = False
        object.__setattr__(self, "plan", plan)


@dataclass(frozen=True)
class CDReport:
    """One displacement-convexity evaluation at the midpoint time t = 1/2."""

    Nprime: float
    lhs: float
    rhs: ExtendedValue
    slack: float  # lhs - rhs; -inf sentinel when rhs is the tagged infinity
    passed: bool
    certificate: Certificate  # of the pair's coupling, shared by its reports


def wasserstein2(m: FiniteMMS, mu0: Density, mu1: Density) -> tuple[float, Coupling]:
    """Exact quadratic-cost optimal transport between two densities on m.

    Solved on the supports.  The first plan is the monotone rearrangement:
    the north-west corner staircase of rows and columns sorted by their
    distance from an atom farthest from the first support atom, with
    potentials built along it.  It is kept when ``_certify_optimality``
    (dual feasibility and complementary slackness on the full cost matrix)
    accepts it, as it does on a line (an interval, or one ray of a cone)
    and for a one-atom support.  Otherwise the plan is the transportation
    LP, solved by simplex on a shortlist of cells that a pricing loop grows
    until no cell has a negative reduced cost (``_lp_plan``); it must pass
    the same certificate, or RuntimeError is raised.  The coupling's
    ``certificate`` records the solver, its cells and rounds, and both
    magnitudes.

    The optimal plan need not be unique: atoms placed symmetrically tie in
    cost, and the LP returns one optimal vertex among them.  W2 does not
    depend on that choice, but quantities read off the plan, such as a
    convexity slack, may move by a small amount when the shortlist does.
    """
    from scipy.sparse import coo_array

    if mu0.space is not m or mu1.space is not m:
        raise ValueError("densities must live on the given space")
    rows = np.nonzero(mu0.mass > 0)[0]
    cols = np.nonzero(mu1.mass > 0)[0]
    a, b = mu0.mass[rows], mu1.mass[cols]
    C = m.block(rows, cols) ** 2

    # on a line, an atom farthest from any atom is an end, and distances from it are coordinates
    support = np.union1d(rows, cols)
    x = m.rows([support[np.argmax(m.pairs(support[0], support))]])[0]
    plan_s, alpha, beta = _monotone_plan(C, a, b, x[rows], x[cols])
    try:
        cert = Certificate("monotone", rows.size + cols.size - 1, 0,
                           *_certify_optimality(C, plan_s, alpha, beta))
    except RuntimeError:  # left outside the handler, whose traceback holds nr x nc reduced costs
        cert = None
    if cert is None:
        del plan_s, alpha, beta  # so the LP path holds no second nr x nc plan
        plan_s, alpha, beta, cells, rounds = _lp_plan(C, a, b)
        cert = Certificate("lp", cells, rounds, *_certify_optimality(C, plan_s, alpha, beta))

    sr, sc = np.nonzero(plan_s > 0)
    plan = coo_array((plan_s[sr, sc], (rows[sr], cols[sc])), shape=(m.n, m.n))
    cost_val = float(np.sum(plan_s * C))
    return math.sqrt(max(cost_val, 0.0)), Coupling(plan=plan, mu0=mu0, mu1=mu1, certificate=cert)


def _monotone_plan(C, a, b, xr, xc):
    """North-west corner plan of rows and columns sorted by their line coordinates.

    The optimal quadratic-cost plan on a line (Villani 2003, Thm 2.18).  Each
    step fills one cell and moves on by one row or one column, the row first
    when both run out, so the nr + nc - 1 cells, zero-mass ones included, form
    a connected staircase; the potentials satisfy alpha_i + beta_j = C_ij on
    each of them.  Returns (plan, alpha, beta) in the order of ``C``.
    """
    nr, nc = C.shape
    ro, co = np.argsort(xr, kind="stable").tolist(), np.argsort(xc, kind="stable").tolist()
    a, b = a.tolist(), b.tolist()
    plan, alpha, beta = np.zeros((nr, nc)), np.zeros(nr), np.zeros(nc)
    i = j = 0
    r, c = ro[0], co[0]
    left_r, left_c = a[r], b[c]
    beta[c] = C[r, c]
    while True:
        t = min(left_r, left_c)
        plan[r, c] = t
        left_r -= t
        left_c -= t
        if i == nr - 1 and j == nc - 1:
            return plan, alpha, beta
        if j == nc - 1 or (i < nr - 1 and left_r <= left_c):
            i += 1
            r = ro[i]
            left_r = a[r]
            alpha[r] = C[r, c] - beta[c]
        else:
            j += 1
            c = co[j]
            left_c = b[c]
            beta[c] = C[r, c] - alpha[r]


def _lp_plan(C, a, b):
    """The transportation LP by column generation on a shortlist of cells.

    The shortlist holds, for each row and each column, the
    ``_SHORTLIST_WIDTH`` cells of least C - f - g under approximate
    potentials from ``_sinkhorn_potentials``, and the positive cells of the
    north-west corner plan in index order, which make the restricted LP
    feasible.  Each round solves the LP on the shortlist by dual simplex at
    tightened feasibility tolerances and prices every cell by C - alpha -
    beta with its equality duals.  While some cell lies below -_DUAL_RTOL
    times the cost scale, the round adds each row's most negative cell and
    every cell at least half as negative as its row's or its column's
    minimum; each round adds a cell, so at worst the shortlist grows into
    the whole LP.  Returns (plan, alpha, beta, cells, rounds): the reduced
    plan, the duals, the shortlist's final size and the rounds after the
    first solve.
    """
    from scipy.sparse import coo_array

    nr, nc = C.shape
    scale = max(float(C.max()), 1.0)
    f, g = _sinkhorn_potentials(C, a, b)
    reduced = C - f[:, None] - g[None, :]
    keep = np.zeros((nr, nc), dtype=bool)
    w = min(_SHORTLIST_WIDTH, nc)
    keep[np.arange(nr)[:, None], np.argpartition(reduced, w - 1, axis=1)[:, :w]] = True
    w = min(_SHORTLIST_WIDTH, nr)
    keep[np.argpartition(reduced, w - 1, axis=0)[:w], np.arange(nc)] = True
    keep |= _monotone_plan(C, a, b, np.arange(nr), np.arange(nc))[0] > 0
    b_eq = np.concatenate([a, b])
    rounds = 0
    while True:
        ii, jj = np.nonzero(keep)
        var = np.arange(ii.size)
        A_eq = coo_array(
            (np.ones(2 * ii.size), (np.concatenate([ii, nr + jj]), np.concatenate([var, var]))),
            shape=(nr + nc, ii.size),
        ).tocsr()
        res = linprog(
            C[ii, jj], A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        alpha, beta = res.eqlin.marginals[:nr], res.eqlin.marginals[nr:]
        reduced = C - alpha[:, None] - beta[None, :]
        if passes(reduced, _DUAL_RTOL * scale):
            break
        half = 0.5 * np.maximum(reduced.min(axis=1)[:, None], reduced.min(axis=0)[None, :])
        add = (reduced < -_DUAL_RTOL * scale) & (reduced <= half) & ~keep
        if not add.any():  # nothing left to price in; the certificate rejects the plan
            break
        keep |= add
        rounds += 1
    plan = np.zeros((nr, nc))
    plan[ii, jj] = res.x
    return plan, alpha, beta, ii.size, rounds


def _sinkhorn_potentials(C, a, b):
    """Approximate dual potentials (f, g) of the transportation LP.

    ``_SINKHORN_SWEEPS`` log-domain Sinkhorn sweeps at entropic scale
    ``_SINKHORN_SCALE`` times the spread max C - min C of the costs, which a
    common offset (supports far apart) does not coarsen; each log-sum-exp is
    shifted by its maximum, so no row or column underflows to zero.
    """
    eps = _SINKHORN_SCALE * float(C.max() - C.min()) or 1.0
    K = C / -eps
    la, lb = np.log(a), np.log(b)
    g = np.zeros(C.shape[1])
    for _ in range(_SINKHORN_SWEEPS):
        f = eps * (la - _logsumexp(K + g[None, :] / eps, axis=1))
        g = eps * (lb - _logsumexp(K + f[:, None] / eps, axis=0))
    return f, g


def _logsumexp(z, axis):
    """log(sum(exp(z))) along ``axis``, shifted by the maximum so no term overflows."""
    top = z.max(axis=axis, keepdims=True)
    return np.log(np.exp(z - top).sum(axis=axis)) + top.squeeze(axis)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _certify_optimality(C, plan, alpha, beta):
    """Dual feasibility and complementary slackness of a plan and its potentials.

    Returns the two magnitudes it gates: the dual infeasibility (the most
    negative reduced cost C - alpha - beta, as a nonnegative number) and the
    largest |reduced cost| on the plan's support.
    """
    scale = max(float(C.max()), 1.0)
    reduced = C - alpha[:, None] - beta[None, :]
    if not passes(reduced, _DUAL_RTOL * scale):
        raise RuntimeError(f"dual infeasibility {-reduced.min():.3e} exceeds tolerance")
    support_slack = np.abs(reduced[plan > 1e-14 * scale])
    if not passes(-support_slack, 1e-7 * scale):
        raise RuntimeError(f"complementary slackness violated by {support_slack.max():.3e}")
    return max(0.0, -float(reduced.min())), float(support_slack.max())


def displacement_midpoint(m: FiniteMMS, q: Coupling, eps: float) -> Density:
    """Push the plan half-way: each pair's mass spreads over its epsilon-midpoints.

    The mass of a cell (i, j) splits evenly over the pair's positive-weight
    midpoints and is summed in row-major cell order; a cell i == j stays put.
    When every midpoint of a pair is weightless (an apex), its mass goes to
    the positive-weight atom nearest each one, ties by index.  A pair with
    no midpoint at all raises NoMidpointError, which names the smallest eps
    at which every pair of the plan has one.
    """
    i, j, mass = q.plan.row, q.plan.col, q.plan.data
    weighted = m.weight > 0
    mids = midpoints(m, i, j, eps)
    stay = i == j
    mids[stay] = np.arange(m.n) == i[stay][:, None]
    bare = np.flatnonzero(~mids.any(axis=1))
    if bare.size:
        pair = (int(i[bare[0]]), int(j[bare[0]]))
        need = float(_midpoint_defect(m, i, j).min(axis=1).max())
        raise NoMidpointError(pair, eps, need)
    carried = mids & (weighted | stay[:, None])
    for p in np.flatnonzero(~carried.any(axis=1)):
        near = m.rows(np.flatnonzero(mids[p])) + np.where(weighted, 0.0, np.inf)
        carried[p, np.argmin(near, axis=1)] = True
    p, k = np.nonzero(carried)
    out = np.zeros(m.n)
    np.add.at(out, k, (mass / carried.sum(axis=1))[p])
    return density_from_mass(m, out)


def renyi_entropy(mu: Density, Nprime: float) -> float:
    """The concave functional  sum_i rho_i^(-1/N') mass_i  over the support."""
    if Nprime < 1:
        raise ValueError("Nprime must be >= 1")
    rho = mu.rho()
    pos = mu.mass > 0
    return float(np.sum(rho[pos] ** (-1.0 / Nprime) * mu.mass[pos]))


def convexity_reports(m: FiniteMMS, mu0: Density, mu1: Density, cd: CurvatureDimension,
                      nprimes, eps: float, tol: float, coeff) -> list[CDReport]:
    """One coupling and one midpoint for the pair, then one report per N' in ``nprimes``.

    The coupling and midpoint are kept (``_pushed``) for the next call on
    the same space, density objects and eps, at any N' or ``coeff``.

    Each N' (>= cd.N) compares the midpoint's entropy with the coupling
    average of ``coeff``-weighted endpoint entropies: ``coeff`` is
    ``sigma_coeff`` (reduced, CD*) or ``tau_coeff`` (full, CD), and an
    infinite coefficient on the support makes that N''s rhs infinite.
    """
    if any(Nprime < cd.N for Nprime in nprimes):
        raise ValueError("Nprime must be >= the dimension parameter")
    q, mid = _pushed(m, mu0, mu1, eps)
    i, j, mass = q.plan.row, q.plan.col, q.plan.data
    rho0, rho1, theta = mu0.rho()[i], mu1.rho()[j], m.pairs(i, j)
    reports = []
    for Np in nprimes:
        lhs, c = renyi_entropy(mid, Np), coeff(CurvatureDimension(cd.K, Np), 0.5, theta)
        if np.isinf(c).any():
            rhs, slack = ExtendedValue.infinity(), -math.inf
        else:  # cumsum adds the cells left to right, in the plan's row-major order
            terms = mass * c * (rho0 ** (-1.0 / Np) + rho1 ** (-1.0 / Np))
            rhs = ExtendedValue(float(np.cumsum(terms)[-1]))
            slack = lhs - rhs.value
        reports.append(CDReport(Np, lhs, rhs, slack, passes(slack, tol), q.certificate))
    return reports


@functools.lru_cache(maxsize=1)
def _pushed(m: FiniteMMS, mu0: Density, mu1: Density, eps: float) -> tuple[Coupling, Density]:
    """The pair's coupling and its epsilon-midpoint, kept for the pair's next call.

    Spaces and densities compare by identity, so the one entry serves the
    same objects at the same eps, whatever N' or coefficient the caller
    checks next; it holds them alive until another pair replaces it.  A
    NoMidpointError is not kept and is raised again.
    """
    _, q = wasserstein2(m, mu0, mu1)
    return q, displacement_midpoint(m, q, eps)


def cd_star_check(m: FiniteMMS, mu0: Density, mu1: Density, cd: CurvatureDimension,
                  Nprime: float, eps: float, tol: float) -> CDReport:
    """Midpoint form of the reduced convexity inequality with sigma coefficients.

    lhs is the entropy of the displacement midpoint, rhs the coupling
    average of sigma^(1/2)-weighted endpoint entropies; an infinite
    coefficient makes the rhs infinite and the check fail.
    """
    return convexity_reports(m, mu0, mu1, cd, (Nprime,), eps, tol, sigma_coeff)[0]


def cd_check(m: FiniteMMS, mu0: Density, mu1: Density, cd: CurvatureDimension,
             Nprime: float, eps: float, tol: float) -> CDReport:
    """Same inequality with the tau coefficients (the non-reduced condition)."""
    return convexity_reports(m, mu0, mu1, cd, (Nprime,), eps, tol, tau_coeff)[0]
