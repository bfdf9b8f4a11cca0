"""Weighted 1-D radial operators and their spectral machinery.

The central object is the operator

    u'' + nu (cos_K/sin_K) u' - lambda/sin_K^2 u

discretized in divergence form against the weight sin_K^nu, self-adjoint by
construction.  On top of the discretization: a deterministic eigensolver,
essential self-adjointness from the inverse-square coefficient of the
Schroedinger form, the heat semigroup, the dimensional gradient estimate
check, the spectral-gap bound, and assembly of product-space spectra by
separation of variables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model_fns import CurvatureDimension, passes, sin_k
from .mms import RadialGrid, _finite_in_K, _freeze, radial_grid

__all__ = [
    "SturmLiouville1D",
    "Spectrum",
    "ResidualReport",
    "discretize_fiber_operator",
    "eigen",
    "essential_self_adjointness",
    "heat_semigroup_1d",
    "bakry_ledoux_check",
    "spectral_gap_bound_check",
    "cone_spectrum",
]

_LIMIT_POINT_THRESHOLD = 0.75  # boundary value 3/4 is limit point
# heat_semigroup_1d(op, u, t) expands in the eigenpairs with mu <= _HEAT_CUT / t
_HEAT_CUT = 50.0


@dataclass(eq=False)
class SturmLiouville1D:
    """Tridiagonal discretization of the weighted radial operator.

    ``grid`` carries K and the weight exponent nu (as its N);
    ``a_diag``/``a_off`` hold the symmetric positive-semidefinite stiffness
    matrix A, ``m_diag`` (the grid's cell weights) the diagonal mass matrix M;
    generalized eigenvalues of (A, M) are the eigenvalues of -L.  The arrays
    are frozen.  The eigenpairs below a cut are computed lazily and cached for
    semigroup evaluation (``spectrum_below``), the one mutation after construction.
    """

    grid: RadialGrid
    a_diag: np.ndarray
    a_off: np.ndarray
    _below: "Spectrum | None" = field(default=None, repr=False)
    _below_cut: float = field(default=-math.inf, repr=False)

    def __post_init__(self):
        self.a_diag, self.a_off = _freeze(self.a_diag), _freeze(self.a_off)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def m_diag(self) -> np.ndarray:
        return self.grid.cell_weights

    def _apply_stiffness(self, u: np.ndarray) -> np.ndarray:
        """A u, the tridiagonal matvec; a 2-D u holds one vector per row."""
        Au = self.a_diag * u
        Au[..., :-1] += self.a_off * u[..., 1:]
        Au[..., 1:] += self.a_off * u[..., :-1]
        return Au

    def apply_generator(self, u: np.ndarray) -> np.ndarray:
        """L u = -M^{-1} A u (the generator; -L is positive semidefinite)."""
        return -self._apply_stiffness(u) / self.m_diag

    def spectrum_below(self, mu: float) -> "Spectrum":
        """Every eigenpair with eigenvalue <= mu (all of them for mu = inf).

        Cached: a cache solved to a cut >= mu is returned whole, extra pairs
        included; a larger mu solves again, to the new cut, and replaces it.
        """
        if mu > self._below_cut:
            self._below = eigen(self, self.n, mu_max=mu)
            self._below_cut = mu
        return self._below


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues of -L with M-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray

    def __post_init__(self):
        for a in (self.eigenvalues, self.eigenvectors, self.residuals):
            a.flags.writeable = False  # in place, as mms._freeze says


@dataclass(frozen=True)
class ResidualReport:
    """min/mean/max of a pointwise residual plus the pass verdict."""

    min: float
    mean: float
    max: float
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
    if not 0.0 <= lambda_fiber < math.inf:
        raise ValueError(f"fiber eigenvalue must be finite and >= 0, got {lambda_fiber}")
    grid = radial_grid(K, nu, n, r_max=r_max)
    h = grid.h
    r = grid.nodes
    faces = np.arange(1, n) * h
    with np.errstate(over="ignore"):  # sinh overflows at steep K < 0; named below
        a = sin_k(K, faces) ** nu / h  # interior face conductances; boundary faces dropped
        sin_r = sin_k(K, r)
        pot = lambda_fiber * sin_r ** (nu - 2.0) * h if lambda_fiber > 0 else np.zeros(n)
        a_diag = pot.copy()
        a_diag[:-1] += a
        a_diag[1:] += a
    _finite_in_K(K, a_diag, f"the radial operator's sin_K^{nu:g}")
    return SturmLiouville1D(grid=grid, a_diag=a_diag, a_off=-a)


def eigen(op: SturmLiouville1D, k: int, mu_max: float = math.inf) -> Spectrum:
    """k smallest generalized eigenpairs of (A, M), M-orthonormal, deterministic.

    Solved via the symmetric similarity M^{-1/2} A M^{-1/2}.  A finite
    ``mu_max`` keeps only the pairs with eigenvalue <= mu_max (at most k of
    them, possibly none), selected by value with LAPACK MRRR (``stemr``,
    O(n) per pair).  Otherwise the whole spectrum (k == n) also uses MRRR,
    and a partial one bisection + inverse iteration, which is faster at
    small k.  All are reproducible for fixed input, and every pair must
    pass the same Rayleigh-residual gate.
    """
    from scipy.linalg import eigh_tridiagonal

    n = op.n
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}]")
    s = 1.0 / np.sqrt(op.m_diag)
    d = op.a_diag * s * s
    e = op.a_off * s[:-1] * s[1:]
    try:
        if mu_max < math.inf:
            vals, vecs = eigh_tridiagonal(d, e, select="v", select_range=(-math.inf, mu_max),
                                          lapack_driver="stemr")
            vals, vecs = vals[:k], vecs[:, :k]
        elif k == n:
            vals, vecs = eigh_tridiagonal(d, e, lapack_driver="stemr")
        else:
            vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    V = vecs * s[:, None]
    # Rayleigh residuals ||A v - mu M v||, one row of V.T per pair
    res = np.linalg.norm(op._apply_stiffness(V.T) - vals[:, None] * op.m_diag * V.T, axis=1)
    scale = float(np.max(np.abs(op.a_diag))) or 1.0
    if res.size and not passes(-res, 1e-8 * scale * max(1.0, math.sqrt(n))):
        raise RuntimeError(f"eigenpair residual too large: {res.max():.3e}")
    return Spectrum(eigenvalues=vals, eigenvectors=V, residuals=res)


def _inverse_square_coefficient(nu: float, lambda_fiber: float) -> float:
    """c0 = nu(nu-2)/4 + lambda, the 1/(r - r0)^2 coefficient at a finite endpoint.

    The unitary substitution u = sin_K^(-nu/2) psi turns the operator into
    -psi'' + V psi with V(r) = ((nu^2/4) cos_K^2(r) - nu/2 + lambda)/sin_K^2(r)
    up to an additive constant, and V(r) ~ c0/(r - r0)^2 at each endpoint.
    """
    return nu * (nu - 2.0) / 4.0 + lambda_fiber


def essential_self_adjointness(nu: float, lambda_fiber: float) -> bool:
    """True iff the minimal operator has a unique self-adjoint extension.

    A finite endpoint is limit point exactly when the inverse-square
    coefficient c0 of the Schroedinger form reaches 3/4 (the threshold
    itself is limit point); both finite endpoints share c0, and an endpoint
    at infinity (K <= 0) is always limit point, so c0 alone decides.
    """
    return _inverse_square_coefficient(nu, lambda_fiber) >= _LIMIT_POINT_THRESHOLD


def heat_semigroup_1d(op: SturmLiouville1D, u0: np.ndarray, t: float) -> np.ndarray:
    """Semigroup action u_t = sum exp(-mu_i t) <u0, v_i>_M v_i over mu_i <= mu_cut.

    mu_cut = _HEAT_CUT / t, and every pair at t = 0; the pairs come from
    ``op.spectrum_below(mu_cut)``, so a later call at a smaller t extends
    the cache.  The dropped modes change u_t by at most e^{-mu_cut t} ||u0||_M
    = e^{-50} ||u0||_M in the M-norm, and L u_t by at most
    mu_cut e^{-50} ||u0||_M (mu e^{-mu t} decreases past 1/t); pointwise,
    divide by sqrt(min m_diag).  At t = 0.01 on the n = 800, nu = 2 model
    interval that is 7.8e-15 ||u0||_M for L u_t.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"semigroup time must be finite and >= 0, got {t}")
    u0 = np.asarray(u0, dtype=float)
    spec = op.spectrum_below(_HEAT_CUT / t if t > 0.0 else math.inf)
    coeff = spec.eigenvectors.T @ (op.m_diag * u0)
    return spec.eigenvectors @ (np.exp(-spec.eigenvalues * t) * coeff)


def _gamma_fd(u: np.ndarray, h: float) -> np.ndarray:
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
    gamma_Pt = _gamma_fd(Pt_u, h)
    L_Pt = op.apply_generator(Pt_u)
    Pt_gamma = heat_semigroup_1d(op, _gamma_fd(u0, h), t)
    try:
        decay = math.exp(-2.0 * kappa * t)
    except OverflowError:
        raise ValueError(f"kappa={kappa:g} is too negative on the K={op.grid.K:g} model: "
                         f"the decay factor exp(-2 kappa t) overflows at t={t:g}") from None
    factor = 2.0 * t / Nbe if kappa == 0.0 else (1.0 - decay) / (Nbe * kappa)
    resid = decay * Pt_gamma - gamma_Pt - factor * L_Pt**2
    inner = resid[1:-1]
    return ResidualReport(
        min=float(inner.min()),
        mean=float(inner.mean()),
        max=float(inner.max()),
        passed=passes(inner, tol),
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
        passed=passes(slack, tol),
        detail={"lambda1": lam1, "bound": bound},
    )


def cone_spectrum(
    fiber_eigenvalues: Sequence[float],
    K: float,
    nu: float,
    k_per_fiber: int,
    n: int,
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
            op = discretize_fiber_operator(K, nu, lam, n)
            cache[key] = eigen(op, k_per_fiber).eigenvalues
        out.append((lam, cache[key]))
    return out
