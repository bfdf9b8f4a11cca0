"""Exact discrete optimal transport and displacement-convexity checks.

Couplings are exact.  When the two supports embed isometrically in R the
plan is the monotone (north-west corner) rearrangement with potentials
built along its staircase; otherwise it is the transportation LP solved by
simplex.  Either plan is accepted only after one shared certificate of
dual feasibility and complementary slackness.  Geodesic interpolation is
replaced by its finite surrogate, the epsilon-midpoint layer at t = 1/2.
On top of these the module evaluates the reduced and full convexity
inequalities for Renyi-type entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_fns import CurvatureDimension, ExtendedValue, passes, sigma_coeff, tau_coeff
from .mms import FiniteMMS, midpoints

__all__ = [
    "Density",
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
# Largest defect | |x_i - x_j| - d_ij |, relative to the diameter, at which
# the supports count as a line.  The staircase potentials add the cost along
# up to |S| cells, so a defect reaches the dual check about |S| times over;
# 1e-12 keeps that below the certificate's 1e-9 for supports of hundreds of
# atoms, while round-off on a cone ray is 1e-15 (K >= 0) to 1e-13 (K < 0).
_LINE_TOL = 1e-12
# Largest dual infeasibility of a plan's potentials, relative to the largest cost.
_DUAL_RTOL = 1e-9


class NoMidpointError(ValueError):
    """Raised when a transported pair has no epsilon-midpoint at the given eps."""


@dataclass(frozen=True, eq=False)
class Density:
    """Probability vector on a FiniteMMS, absolutely continuous w.r.t. its weights."""

    space: FiniteMMS
    mass: np.ndarray

    def __post_init__(self):
        mass = np.ascontiguousarray(self.mass, dtype=float)
        mass.flags.writeable = False
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
        out = np.zeros_like(self.mass)
        pos = w > 0
        out[pos] = self.mass[pos] / w[pos]
        return out


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


@dataclass(frozen=True, eq=False)
class Coupling:
    """Transport plan between two densities; marginals reproduce them to 1e-9.

    ``plan`` is stored as its support: an (n, n) ``scipy.sparse.coo_array``
    of the positive entries in row-major order.  A dense array is accepted
    and converted.
    """

    plan: coo_array
    mu0: Density
    mu1: Density

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


def wasserstein2(m: FiniteMMS, mu0: Density, mu1: Density) -> tuple[float, Coupling]:
    """Exact quadratic-cost optimal transport between two densities on m.

    Solved on the supports.  When their union embeds isometrically in R
    (an interval, or one ray of a cone) the plan is the monotone
    rearrangement, with potentials built along its staircase; otherwise it
    is the transportation LP, by simplex at tightened feasibility
    tolerances, with its equality duals.  Either way optimality is
    certified by ``_certify_optimality`` (dual feasibility and
    complementary slackness) before the coupling is accepted, and a plan
    that fails raises RuntimeError.
    """
    from scipy.sparse import coo_array

    if mu0.space is not m or mu1.space is not m:
        raise ValueError("densities must live on the given space")
    rows = np.nonzero(mu0.mass > 0)[0]
    cols = np.nonzero(mu1.mass > 0)[0]
    a, b = mu0.mass[rows], mu1.mass[cols]
    C = m.dist[np.ix_(rows, cols)] ** 2
    nr, nc = rows.size, cols.size

    if nr == 1:
        plan_s = b[None, :].copy()
    elif nc == 1:
        plan_s = a[:, None].copy()
    else:
        support = np.union1d(rows, cols)
        x = _line_coordinates(m.dist[np.ix_(support, support)])
        if x is None:
            plan_s, alpha, beta = _lp_plan(C, a, b)
        else:
            plan_s, alpha, beta = _monotone_plan(C, a, b, x[np.searchsorted(support, rows)],
                                                 x[np.searchsorted(support, cols)])
        _certify_optimality(C, plan_s, alpha, beta)

    sr, sc = np.nonzero(plan_s > 0)
    plan = coo_array((plan_s[sr, sc], (rows[sr], cols[sc])), shape=(m.n, m.n))
    cost_val = float(np.sum(plan_s * C))
    return math.sqrt(max(cost_val, 0.0)), Coupling(plan=plan, mu0=mu0, mu1=mu1)


def _line_coordinates(dist: np.ndarray) -> np.ndarray | None:
    """Coordinates x with |x_i - x_j| = dist_ij, or None when the atoms are not on a line.

    x_i is the distance from an atom farthest from atom 0; on a line that atom
    is an end, so x is an isometric embedding in R exactly when one exists.
    Every pair is tested, within _LINE_TOL of the diameter.
    """
    x = dist[int(np.argmax(dist[0]))]
    defect = np.abs(np.subtract.outer(x, x))
    defect -= dist
    return x if passes(-np.abs(defect), _LINE_TOL * float(x.max())) else None


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
    """The transportation LP by dual simplex at tightened feasibility tolerances.

    Returns (plan, alpha, beta): the reduced plan and the equality duals.
    """
    from scipy.sparse import coo_array

    nr, nc = C.shape
    cost = C.ravel()
    ii = np.repeat(np.arange(nr), nc)
    jj = np.tile(np.arange(nc), nr)
    var = np.arange(nr * nc)
    A_eq = coo_array(
        (np.ones(2 * nr * nc), (np.concatenate([ii, nr + jj]), np.concatenate([var, var]))),
        shape=(nr + nc, nr * nc),
    ).tocsr()
    b_eq = np.concatenate([a, b])
    res = linprog(
        cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(nr, nc), res.eqlin.marginals[:nr], res.eqlin.marginals[nr:]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _certify_optimality(C, plan, alpha, beta):
    """Dual feasibility and complementary slackness of a plan and its potentials."""
    scale = max(float(C.max()), 1.0)
    reduced = C - alpha[:, None] - beta[None, :]
    if not passes(reduced, _DUAL_RTOL * scale):
        raise RuntimeError(f"dual infeasibility {-reduced.min():.3e} exceeds tolerance")
    support_slack = np.abs(reduced[plan > 1e-14 * scale])
    if not passes(-support_slack, 1e-7 * scale):
        raise RuntimeError(f"complementary slackness violated by {support_slack.max():.3e}")


def displacement_midpoint(m: FiniteMMS, q: Coupling, eps: float) -> Density:
    """Push the plan half-way: each pair's mass spreads over its epsilon-midpoints.

    The mass of a cell (i, j) splits evenly over the pair's positive-weight
    midpoints and is summed in row-major cell order; a cell i == j stays put.
    When every midpoint of a pair is weightless (an apex), its mass goes to
    the positive-weight atom nearest each one, ties by index.  A pair with
    no midpoint at all raises NoMidpointError.
    """
    i, j, mass = q.plan.row, q.plan.col, q.plan.data
    weighted = m.weight > 0
    mids = midpoints(m, i, j, eps)
    stay = i == j
    mids[stay] = np.arange(m.n) == i[stay][:, None]
    bare = np.flatnonzero(~mids.any(axis=1))
    if bare.size:
        raise NoMidpointError(f"no epsilon-midpoint for atoms ({i[bare[0]]}, {j[bare[0]]}) "
                              f"at eps={eps}")
    carried = mids & (weighted | stay[:, None])
    for p in np.flatnonzero(~carried.any(axis=1)):
        near = m.dist[mids[p]] + np.where(weighted, 0.0, np.inf)
        carried[p, np.argmin(near, axis=1)] = True
    p, k = np.nonzero(carried)
    out = np.zeros(m.n)
    np.add.at(out, k, (mass / carried.sum(axis=1))[p])
    return density_from_mass(m, out)


def renyi_entropy(m: FiniteMMS, mu: Density, Nprime: float) -> float:
    """The concave functional  sum_i rho_i^(-1/N') mass_i  over the support."""
    if Nprime < 1:
        raise ValueError("Nprime must be >= 1")
    rho = mu.rho()
    pos = mu.mass > 0
    return float(np.sum(rho[pos] ** (-1.0 / Nprime) * mu.mass[pos]))


def convexity_reports(m: FiniteMMS, mu0: Density, mu1: Density, cd: CurvatureDimension,
                      nprimes, eps: float, tol: float, coeff) -> list[CDReport]:
    """One coupling and one midpoint for the pair, then one report per N' in ``nprimes``.

    Each N' (>= cd.N) compares the midpoint's entropy with the coupling
    average of ``coeff``-weighted endpoint entropies: ``coeff`` is
    ``sigma_coeff`` (reduced, CD*) or ``tau_coeff`` (full, CD), and an
    infinite coefficient on the support makes that N''s rhs infinite.
    """
    if any(Nprime < cd.N for Nprime in nprimes):
        raise ValueError("Nprime must be >= the dimension parameter")
    _, q = wasserstein2(m, mu0, mu1)
    mid = displacement_midpoint(m, q, eps)
    i, j, mass = q.plan.row, q.plan.col, q.plan.data
    rho0, rho1, theta = mu0.rho()[i], mu1.rho()[j], m.dist[i, j]
    reports = []
    for Np in nprimes:
        lhs, c = renyi_entropy(m, mid, Np), coeff(CurvatureDimension(cd.K, Np), 0.5, theta)
        if np.isinf(c).any():
            rhs, slack = ExtendedValue.infinity(), -math.inf
        else:  # cumsum adds the cells left to right, in the plan's row-major order
            terms = mass * c * (rho0 ** (-1.0 / Np) + rho1 ** (-1.0 / Np))
            rhs = ExtendedValue(float(np.cumsum(terms)[-1]))
            slack = lhs - rhs.value
        reports.append(CDReport(Np, lhs, rhs, slack, passes(slack, tol)))
    return reports


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
