"""Weighted 1-D radial operators and their spectral machinery.

The central object is the operator

    u'' + nu (cos_K/sin_K) u' - lambda/sin_K^2 u

discretized in divergence form against the weight sin_K^nu, self-adjoint by
construction.  On top of the discretization: a deterministic eigensolver,
the unitary transform to Schroedinger form and its endpoint classification
(which answers essential self-adjointness analytically), the heat
semigroup, the dimensional gradient estimate check, the spectral-gap bound,
and assembly of product-space spectra by separation of variables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model_fns import CurvatureDimension, cos_k, sin_k
from .mms import RadialGrid, radial_grid

__all__ = [
    "SturmLiouville1D",
    "Spectrum",
    "Endpoint",
    "WeylKind",
    "WeylClassification",
    "ResidualReport",
    "discretize_fiber_operator",
    "eigen",
    "schrodinger_transform",
    "weyl_classify",
    "essential_self_adjointness",
    "heat_semigroup_1d",
    "bakry_ledoux_check",
    "spectral_gap_bound_check",
    "cone_spectrum",
    "cone_heat",
    "gamma_fd",
]

_LIMIT_POINT_THRESHOLD = 0.75  # boundary value 3/4 is limit point


@dataclass(eq=False)
class SturmLiouville1D:
    """Tridiagonal discretization of the weighted radial operator.

    ``a_diag``/``a_off`` hold the symmetric positive-semidefinite stiffness
    matrix A, ``m_diag`` the diagonal mass matrix; generalized eigenvalues
    of (A, M) are the eigenvalues of -L.  The full spectrum is computed
    lazily and cached for semigroup evaluation.
    """

    K: float
    nu: float
    lambda_fiber: float
    grid: RadialGrid
    a_diag: np.ndarray
    a_off: np.ndarray
    m_diag: np.ndarray
    _full: "Spectrum | None" = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    def stiffness_matrix(self) -> np.ndarray:
        A = np.diag(self.a_diag)
        idx = np.arange(self.n - 1)
        A[idx, idx + 1] = self.a_off
        A[idx + 1, idx] = self.a_off
        return A

    def apply_generator(self, u: np.ndarray) -> np.ndarray:
        """L u = -M^{-1} A u (the generator; -L is positive semidefinite)."""
        Au = self.a_diag * u
        Au[:-1] += self.a_off * u[1:]
        Au[1:] += self.a_off * u[:-1]
        return -Au / self.m_diag

    def full_spectrum(self) -> "Spectrum":
        if self._full is None:
            self._full = eigen(self, self.n)
        return self._full


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues of -L with M-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray


class Endpoint(Enum):
    LEFT = "left"
    RIGHT = "right"


class WeylKind(Enum):
    LIMIT_POINT = "LimitPoint"
    LIMIT_CIRCLE = "LimitCircle"


@dataclass(frozen=True)
class WeylClassification:
    endpoint: Endpoint
    kind: WeylKind
    coefficient: float  # leading 1/(r-r0)^2 coefficient at the endpoint


@dataclass(frozen=True)
class ResidualReport:
    """min/mean/max of a pointwise residual plus the pass verdict."""

    min: float
    mean: float
    max: float
    tolerance: float
    passed: bool
    detail: dict | None = None


def discretize_fiber_operator(
    K: float,
    nu: float,
    lambda_fiber: float,
    n: int,
    r_max: float | None = None,
) -> SturmLiouville1D:
    """Divergence-form scheme for u'' + nu(cos_K/sin_K)u' - lambda/sin_K^2 u.

    Cell-centered on a uniform grid with sin_K^nu evaluated at the faces;
    boundary closure is flux-zero (the face weight itself vanishes at the
    endpoints for nu > 0, and the closure degenerates to Neumann for
    nu = 0).  The potential term uses the midpoint value of
    sin_K^(nu-2) on each cell.
    """
    if n < 3:
        raise ValueError("discretization needs n >= 3 cells")
    if n < 8:
        warnings.warn(f"n={n} is under-resolved; results are qualitative", RuntimeWarning)
    if lambda_fiber < 0:
        raise ValueError("fiber eigenvalue must be >= 0")
    grid = radial_grid(K, nu, n, r_max=r_max)
    h = grid.h
    r = grid.nodes
    faces = np.arange(1, n) * h
    a = sin_k(K, faces) ** nu / h  # interior face conductances; boundary faces dropped
    sin_r = sin_k(K, r)
    pot = lambda_fiber * sin_r ** (nu - 2.0) * h if lambda_fiber > 0 else np.zeros(n)
    a_diag = pot.copy()
    a_diag[:-1] += a
    a_diag[1:] += a
    return SturmLiouville1D(
        K=K, nu=nu, lambda_fiber=lambda_fiber, grid=grid,
        a_diag=a_diag, a_off=-a, m_diag=grid.cell_weights,
    )


def eigen(op: SturmLiouville1D, k: int) -> Spectrum:
    """k smallest generalized eigenpairs of (A, M), M-orthonormal, deterministic.

    Solved via the symmetric similarity M^{-1/2} A M^{-1/2} with LAPACK
    bisection + inverse iteration, which is reproducible for fixed input.
    """
    n = op.n
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}]")
    s = 1.0 / np.sqrt(op.m_diag)
    d = op.a_diag * s * s
    e = op.a_off * s[:-1] * s[1:]
    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    V = vecs * s[:, None]
    # Rayleigh residuals ||A v - mu M v|| per pair
    res = np.empty(k)
    for i in range(k):
        Av = op.a_diag * V[:, i]
        Av[:-1] += op.a_off * V[1:, i]
        Av[1:] += op.a_off * V[:-1, i]
        res[i] = float(np.linalg.norm(Av - vals[i] * op.m_diag * V[:, i]))
    scale = float(np.max(np.abs(op.a_diag))) or 1.0
    if np.any(res > 1e-8 * scale * max(1.0, math.sqrt(n))):
        raise RuntimeError(f"eigenpair residual too large: {res.max():.3e}")
    return Spectrum(eigenvalues=vals, eigenvectors=V, residuals=res)


def schrodinger_transform(K: float, nu: float, lambda_fiber: float):
    """Potential of the unitarily equivalent -d^2/dr^2 + V(r) form.

    V(r) = ((nu^2/4) cos_K^2(r) - nu/2 + lambda) / sin_K^2(r) up to an
    additive constant, with endpoint behaviour c0/(r - r0)^2 where
    c0 = nu(nu-2)/4 + lambda.  The sign of the lambda term follows the
    endpoint asymptotics of the transformed operator.
    """
    c0 = nu * (nu - 2.0) / 4.0 + lambda_fiber

    def V(r):
        s = sin_k(K, r)
        c = cos_k(K, r)
        return ((nu * nu / 4.0) * c * c - nu / 2.0 + lambda_fiber) / (s * s)

    return V, c0


def weyl_classify(
    nu: float, lambda_fiber: float, endpoint: Endpoint, K: float = 1.0
) -> WeylClassification:
    """Limit-point/limit-circle type of the transformed operator at an endpoint.

    Finite endpoints are limit point exactly when the inverse-square
    coefficient c0 = nu(nu-2)/4 + lambda reaches 3/4 (the threshold itself
    is limit point); the right endpoint sits at infinity for K <= 0 and is
    always limit point there.
    """
    if endpoint is Endpoint.RIGHT and K <= 0:
        return WeylClassification(endpoint, WeylKind.LIMIT_POINT, math.inf)
    c0 = nu * (nu - 2.0) / 4.0 + lambda_fiber
    kind = WeylKind.LIMIT_POINT if c0 >= _LIMIT_POINT_THRESHOLD else WeylKind.LIMIT_CIRCLE
    return WeylClassification(endpoint, kind, c0)


def essential_self_adjointness(nu: float, lambda_fiber: float, K: float = 1.0) -> bool:
    """True iff the minimal operator has a unique self-adjoint extension."""
    left = weyl_classify(nu, lambda_fiber, Endpoint.LEFT, K)
    right = weyl_classify(nu, lambda_fiber, Endpoint.RIGHT, K)
    return left.kind is WeylKind.LIMIT_POINT and right.kind is WeylKind.LIMIT_POINT


def heat_semigroup_1d(
    op: SturmLiouville1D, u0: np.ndarray, t: float, k: int | None = None
) -> np.ndarray:
    """Semigroup action u_t = sum exp(-mu_i t) <u0, v_i>_M v_i.

    Uses the full cached spectrum by default; with a truncation k a warning
    is raised when the retained modes carry less than 99.9% of the M-norm
    of u0.
    """
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    u0 = np.asarray(u0, dtype=float)
    spec = op.full_spectrum() if k is None else eigen(op, k)
    coeff = spec.eigenvectors.T @ (op.m_diag * u0)
    if k is not None:
        total = float(u0 @ (op.m_diag * u0))
        kept = float(coeff @ coeff)
        if total > 0 and kept < 0.999 * total:
            warnings.warn(
                f"spectral truncation covers {kept / total:.2%} of the initial norm",
                RuntimeWarning,
            )
    return spec.eigenvectors @ (np.exp(-spec.eigenvalues * t) * coeff)


def gamma_fd(u: np.ndarray, h: float) -> np.ndarray:
    """Squared first derivative: central differences inside, one-sided at the ends."""
    g = np.empty_like(u)
    g[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    g[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    g[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return g * g


def bakry_ledoux_check(
    op: SturmLiouville1D,
    kappa: float,
    Nbe: float,
    u0: np.ndarray,
    t: float,
    tol: float,
) -> ResidualReport:
    """Pointwise residual of the dimensional gradient estimate

        Gamma(P_t u) + (1 - e^{-2 kappa t})/(Nbe kappa) (L P_t u)^2
            <= e^{-2 kappa t} P_t Gamma(u)

    on interior cells; kappa = 0 uses the limit factor 2t/Nbe.
    """
    h = op.grid.h
    u0 = np.asarray(u0, dtype=float)
    Pt_u = heat_semigroup_1d(op, u0, t)
    gamma_Pt = gamma_fd(Pt_u, h)
    L_Pt = op.apply_generator(Pt_u)
    Pt_gamma = heat_semigroup_1d(op, gamma_fd(u0, h), t)
    if kappa == 0.0:
        factor = 2.0 * t / Nbe
        decay = 1.0
    else:
        factor = (1.0 - math.exp(-2.0 * kappa * t)) / (Nbe * kappa)
        decay = math.exp(-2.0 * kappa * t)
    resid = decay * Pt_gamma - gamma_Pt - factor * L_Pt**2
    inner = resid[1:-1]
    return ResidualReport(
        min=float(inner.min()),
        mean=float(inner.mean()),
        max=float(inner.max()),
        tolerance=tol,
        passed=bool(inner.min() >= -tol),
        detail={"kappa": kappa, "N": Nbe, "t": t},
    )


def spectral_gap_bound_check(
    spec: Spectrum, cd: CurvatureDimension, tol: float = 0.0
) -> ResidualReport:
    """Check the first nonzero eigenvalue against the bound K N/(N-1)."""
    if cd.N <= 1 or cd.K <= 0:
        raise ValueError("gap bound requires K > 0 and N > 1")
    above = spec.eigenvalues[spec.eigenvalues > 1e-8]
    if above.size == 0:
        raise ValueError("spectrum contains no nonzero eigenvalue")
    lam1 = float(above[0])
    bound = cd.K * cd.N / (cd.N - 1.0)
    slack = lam1 - bound
    return ResidualReport(
        min=slack, mean=slack, max=slack,
        tolerance=tol,
        passed=bool(slack >= -tol),
        detail={"lambda1": lam1, "bound": bound},
    )


def cone_spectrum(
    fiber_eigenvalues: Sequence[float],
    K: float,
    nu: float,
    k_per_fiber: int,
    n: int,
    r_max: float | None = None,
) -> list:
    """Product-space spectrum by separation of variables.

    For each fiber eigenvalue lambda_i, the k smallest eigenvalues of the
    radial operator with potential lambda_i/sin_K^2; the full spectrum is
    the multiset union with fiber multiplicities (repeat lambda_i in the
    input to encode multiplicity).  Returns [(lambda_i, eigenvalues)].
    """
    out = []
    cache: dict[float, np.ndarray] = {}
    for lam in fiber_eigenvalues:
        lam = float(lam)
        if -1e-8 < lam < 0.0:  # zero mode up to eigensolver roundoff
            lam = 0.0
        key = round(lam, 12)
        if key not in cache:
            op = discretize_fiber_operator(K, nu, lam, n, r_max=r_max)
            cache[key] = eigen(op, k_per_fiber).eigenvalues
        out.append((lam, cache[key]))
    return out


def cone_heat(
    op: SturmLiouville1D, u1: np.ndarray, u2: np.ndarray, t: float
) -> np.ndarray:
    """Heat flow of the separated product u1 (x) u2 with u2 a fiber eigenfunction.

    The fiber eigenvalue is baked into ``op``; the flow acts on the radial
    factor only, so the result is (P_t u1) (x) u2.
    """
    return np.outer(heat_semigroup_1d(op, u1, t), np.asarray(u2, dtype=float))
