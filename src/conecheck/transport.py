"""Exact discrete optimal transport and displacement-convexity checks.

Couplings are solved as exact transportation LPs (simplex, with certified
dual feasibility); geodesic interpolation is replaced by its finite
surrogate, the epsilon-midpoint layer at t = 1/2.  On top of these the
module evaluates the reduced and full convexity inequalities for
Renyi-type entropies and the contraction property of transports from a
point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .model_fns import CurvatureDimension, ExtendedValue, sigma_coeff, tau_coeff
from .mms import FiniteMMS, load_mms_json, midpoints

__all__ = [
    "Density",
    "Coupling",
    "CDReport",
    "MCPReport",
    "NoMidpointError",
    "density_from_mass",
    "uniform_density",
    "load_density_json",
    "wasserstein2",
    "displacement_midpoint",
    "renyi_entropy",
    "cd_star_check",
    "cd_check",
    "mcp_check",
]

_MARGINAL_TOL = 1e-9
_MASS_TOL = 1e-12


class NoMidpointError(RuntimeError):
    """Raised when a transported pair has no epsilon-midpoint at the given eps."""

    def __init__(self, i: int, j: int, eps: float):
        super().__init__(f"no epsilon-midpoint for atoms ({i}, {j}) at eps={eps}")
        self.pair = (i, j)
        self.eps = eps


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
        if abs(mass.sum() - 1.0) > _MASS_TOL:
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


def load_density_json(path, space: FiniteMMS | None = None) -> Density:
    """Load a density from JSON {"space": path, "mass": [...]}.

    The space file path is resolved relative to the density file; passing
    ``space`` skips the lookup (the mass vector must still match it).
    """
    with open(path) as fh:
        payload = json.load(fh)
    if space is None:
        ref = payload["space"]
        if not os.path.isabs(ref):
            ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        space = load_mms_json(ref)
    return Density(space, np.asarray(payload["mass"], dtype=float))


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
        plan = coo_array(self.plan, dtype=float)
        if np.any(plan.data < 0):
            raise ValueError("transport plan must be nonnegative")
        plan.sum_duplicates()  # canonical form is row-major
        plan.eliminate_zeros()
        r = float(np.max(np.abs(np.asarray(plan.sum(axis=1)).ravel() - self.mu0.mass)))
        c = float(np.max(np.abs(np.asarray(plan.sum(axis=0)).ravel() - self.mu1.mass)))
        if max(r, c) > _MARGINAL_TOL:
            raise ValueError(f"coupling marginals off by {max(r, c):.3e}")
        for arr in (plan.data, plan.row, plan.col):
            arr.flags.writeable = False
        object.__setattr__(self, "plan", plan)


def _support(q: Coupling):
    """(i, j, mass) over the plan's positive entries, in row-major order."""
    return zip(q.plan.row.tolist(), q.plan.col.tolist(), q.plan.data.tolist())


@dataclass(frozen=True)
class CDReport:
    """One displacement-convexity evaluation at the midpoint time."""

    t: float
    Nprime: float
    lhs: float
    rhs: ExtendedValue
    slack: float  # lhs - rhs; -inf sentinel when rhs is the tagged infinity
    passed: bool
    tolerance: float

    @staticmethod
    def build(Nprime: float, lhs: float, rhs: ExtendedValue, tol: float) -> "CDReport":
        slack = -math.inf if rhs.is_infinite else lhs - rhs.value
        return CDReport(
            t=0.5, Nprime=Nprime, lhs=lhs, rhs=rhs,
            slack=slack, passed=bool(slack >= -tol), tolerance=tol,
        )


@dataclass(frozen=True)
class MCPReport:
    """Cell-by-cell verdict of the contraction inequality from a point."""

    worst_cell: int
    max_violation: float
    passed: bool
    tolerance: float


def wasserstein2(m: FiniteMMS, mu0: Density, mu1: Density) -> tuple[float, Coupling]:
    """Exact quadratic-cost optimal transport between two densities on m.

    Solved as the transportation LP restricted to the supports, by simplex
    at tightened feasibility tolerances; optimality is certified through
    complementary slackness against the returned potentials before the
    coupling is accepted.
    """
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
        plan_s = res.x.reshape(nr, nc)
        _certify_optimality(C, plan_s, res.eqlin.marginals[:nr], res.eqlin.marginals[nr:])

    sr, sc = np.nonzero(plan_s > 0)
    plan = coo_array((plan_s[sr, sc], (rows[sr], cols[sc])), shape=(m.n, m.n))
    cost_val = float(np.sum(plan_s * C))
    return math.sqrt(max(cost_val, 0.0)), Coupling(plan=plan, mu0=mu0, mu1=mu1)


def _certify_optimality(C, plan, alpha, beta, rtol=1e-9):
    """Dual feasibility and complementary slackness of the LP solution."""
    scale = max(float(C.max()), 1.0)
    reduced = C - alpha[:, None] - beta[None, :]
    if float(reduced.min()) < -rtol * scale:
        raise RuntimeError(f"dual infeasibility {-reduced.min():.3e} exceeds tolerance")
    support_slack = float(np.max(np.abs(reduced[plan > 1e-14 * scale]), initial=0.0))
    if support_slack > 1e-7 * scale:
        raise RuntimeError(f"complementary slackness violated by {support_slack:.3e}")


def displacement_midpoint(m: FiniteMMS, q: Coupling, eps: float) -> Density:
    """Push the plan half-way: each pair's mass spreads over its epsilon-midpoints.

    Zero-weight atoms (apexes) are excluded from receiving mass; when every
    midpoint of a pair is weightless, its share is re-routed to the
    positive-weight atom nearest that midpoint (ties by index).
    """
    out = np.zeros(m.n)
    w = m.weight
    for i, j, mass in _support(q):
        if i == j:  # zero-length transport stays put
            out[i] += mass
            continue
        mids = midpoints(m, i, j, eps)
        if not mids:
            raise NoMidpointError(i, j, eps)
        carried = [k for k in mids if w[k] > 0]
        if not carried:
            rerouted = set()
            for k in mids:
                order = np.argsort(m.dist[k] + np.where(w > 0, 0.0, np.inf))
                rerouted.add(int(order[0]))
            carried = sorted(rerouted)
        share = mass / len(carried)
        for k in carried:
            out[k] += share
    return density_from_mass(m, out)


def renyi_entropy(m: FiniteMMS, mu: Density, Nprime: float) -> float:
    """The concave functional  sum_i rho_i^(-1/N') mass_i  over the support."""
    if Nprime < 1:
        raise ValueError("Nprime must be >= 1")
    rho = mu.rho()
    pos = mu.mass > 0
    return float(np.sum(rho[pos] ** (-1.0 / Nprime) * mu.mass[pos]))


def _convexity_reports(m, mu0, mu1, cd, nprimes, eps, tol, coeff) -> list[CDReport]:
    """One coupling and one midpoint for the pair, then one report per N' in nprimes.

    ``coeff`` is ``sigma_coeff`` (reduced) or ``tau_coeff`` (full); an
    infinite coefficient on the support makes that N''s rhs infinite.
    """
    if any(Nprime < cd.N for Nprime in nprimes):
        raise ValueError("Nprime must be >= the dimension parameter")
    _, q = wasserstein2(m, mu0, mu1)
    mid = displacement_midpoint(m, q, eps)
    rho0, rho1 = mu0.rho(), mu1.rho()

    def rhs(Nprime):
        cdN = CurvatureDimension(cd.K, Nprime)
        total = 0.0
        for i, j, mass in _support(q):
            c = coeff(cdN, 0.5, float(m.dist[i, j]))
            if c.is_infinite:
                return ExtendedValue.infinity()
            total += mass * c.value * (rho0[i] ** (-1.0 / Nprime) + rho1[j] ** (-1.0 / Nprime))
        return ExtendedValue(total)

    return [CDReport.build(Np, renyi_entropy(m, mid, Np), rhs(Np), tol) for Np in nprimes]


def cd_star_check(m: FiniteMMS, mu0: Density, mu1: Density, cd: CurvatureDimension,
                  Nprime: float, eps: float, tol: float) -> CDReport:
    """Midpoint form of the reduced convexity inequality with sigma coefficients.

    lhs is the entropy of the displacement midpoint, rhs the coupling
    average of sigma^(1/2)-weighted endpoint entropies; an infinite
    coefficient makes the rhs infinite and the check fail.
    """
    return _convexity_reports(m, mu0, mu1, cd, (Nprime,), eps, tol, sigma_coeff)[0]


def cd_check(m: FiniteMMS, mu0: Density, mu1: Density, cd: CurvatureDimension,
             Nprime: float, eps: float, tol: float) -> CDReport:
    """Same inequality with the tau coefficients (the non-reduced condition)."""
    return _convexity_reports(m, mu0, mu1, cd, (Nprime,), eps, tol, tau_coeff)[0]


def mcp_check(
    m: FiniteMMS,
    x: int,
    A: np.ndarray,
    cd: CurvatureDimension,
    t: float,
    tol: float,
    eps: float,
) -> MCPReport:
    """Midpoint surrogate of the contraction property of transports from atom x.

    Mass m(a)/m(A) moves from x toward each a in A and lands on the
    epsilon-midpoints; each receiving cell must dominate the pushed mass
    scaled by tau^(1/2)(d(x,a))^N m(A), cell by cell, up to tol.
    """
    if t != 0.5:
        raise ValueError("only the midpoint time t = 1/2 is supported")
    A = np.asarray(A, dtype=int)
    if A.size == 0:
        raise ValueError("A must be nonempty")
    mA = float(m.weight[A].sum())
    if mA <= 0:
        raise ValueError("A must have positive weight")
    pushed = np.zeros(m.n)
    for a in A:
        a = int(a)
        coeff = tau_coeff(cd, t, float(m.dist[x, a]))
        if coeff.is_infinite:
            return MCPReport(worst_cell=a, max_violation=math.inf, passed=False, tolerance=tol)
        load = m.weight[a] * coeff.value ** cd.N
        if a == x:
            pushed[x] += load
            continue
        mids = midpoints(m, x, a, eps)
        carried = [k for k in mids if m.weight[k] > 0]
        if not carried:
            raise NoMidpointError(x, a, eps)
        for k in carried:
            pushed[k] += load / len(carried)
    violation = pushed - m.weight
    worst = int(np.argmax(violation))
    return MCPReport(
        worst_cell=worst,
        max_violation=float(violation[worst]),
        passed=bool(violation[worst] <= tol),
        tolerance=tol,
    )
