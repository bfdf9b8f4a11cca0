"""Finite-difference Gamma-calculus on tensor grids.

This is the smooth flavor: functions are samples of smooth functions on a
1-D base window times a 1-D fiber (a flat circle or a sin-weighted interval
window), each derivative is taken once, by a 4th-order first or 2nd-order second
difference stencil, and chain and Leibniz rules hold up to O(h^2).
Evaluations near non-periodic edges are garbage by construction and every
check masks them off with ``INTERIOR_MARGIN`` cells.

Conventions for the product over a base weight f^nu:

    L u   = u_rr + nu (f'/f) u_r + (1/f^2) L_fib u
    G(u,v) = u_r v_r + (1/f^2) u_x v_x
    G2(u) = L G(u)/2 - G(u, Lu)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mms import _finite_in_K, _freeze
from ..model_fns import cos_k, model_interval, passes, sin_k

__all__ = [
    "FiberSpec",
    "ConeGridSpec",
    "INTERIOR_MARGIN",
    "circle_fiber",
    "weighted_interval_fiber",
    "cone_grid",
    "generator_2d",
    "gamma_2d",
    "gamma2_2d",
    "warped_gamma2_identity_check",
    "sharp_gamma2_estimate_check",
    "converse_deduction_check",
]

# Cells to discard at each non-periodic edge after the deepest stencil
# composition (two chained 4th-order first derivatives).
INTERIOR_MARGIN = 6

# Distance the sampled windows keep from the degenerate ends of their
# model intervals, where the sin weight vanishes.
_WINDOW_PAD = 0.35


@dataclass(frozen=True, eq=False)
class FiberSpec:
    """1-D fiber: flat periodic circle or a window of the sin-weighted interval."""

    x: np.ndarray
    periodic: bool
    weight_exponent: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(self.x))
        if not math.isfinite(self.weight_exponent):
            raise ValueError(f"fiber weight exponent nu_f must be finite, got {self.weight_exponent}")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n(self) -> int:
        return self.x.size


def _enough_samples(n: int, axis: str) -> None:
    """A ValueError naming the axis if it has fewer than the 3 samples its edge stencils read."""
    if n < 3:
        raise ValueError(f"the {axis} axis has {n} samples; its stencils need at least 3")


def circle_fiber(n: int, circumference: float = 2.0 * math.pi) -> FiberSpec:
    _enough_samples(n, "fiber")
    h = circumference / n
    return FiberSpec(x=np.arange(n) * h, periodic=True, weight_exponent=0.0)


def weighted_interval_fiber(n: int, nu_f: float) -> FiberSpec:
    """Window of (0, pi) carrying the sin^nu_f model weight (curvature 1)."""
    _enough_samples(n, "fiber")
    return FiberSpec(x=np.linspace(_WINDOW_PAD, math.pi - _WINDOW_PAD, n), periodic=False,
                     weight_exponent=nu_f)


@dataclass(frozen=True, eq=False)
class ConeGridSpec:
    """Base window inside the model interval of curvature K, warped by sin_K^nu."""

    r: np.ndarray
    fiber: FiberSpec
    K: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "r", _freeze(self.r))
        if not math.isfinite(self.nu):
            raise ValueError(f"warp exponent nu must be finite, got {self.nu}")

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])

    def warp(self) -> np.ndarray:
        return sin_k(self.K, self.r)

    def coarsen(self) -> "ConeGridSpec":
        if self.fiber.periodic and self.fiber.n % 2 != 0:
            raise ValueError("periodic fiber needs an even sample count for coarsening")
        fib = FiberSpec(self.fiber.x[::2], self.fiber.periodic, self.fiber.weight_exponent)
        return ConeGridSpec(r=self.r[::2], fiber=fib, K=self.K, nu=self.nu)


def cone_grid(K: float, nu: float, nr: int, fiber: FiberSpec) -> ConeGridSpec:
    """Window (0.35, L - 0.35) of the model interval (0, L), L = ``model_interval(K)``.

    A ValueError names K when the warp's highest power used, f**4, overflows
    a float (sinh at steep K < 0).
    """
    _enough_samples(nr, "radial")
    L = model_interval(K)
    spec = ConeGridSpec(r=np.linspace(_WINDOW_PAD, L - _WINDOW_PAD, nr), fiber=fiber, K=K, nu=nu)
    with np.errstate(over="ignore"):
        _finite_in_K(K, spec.warp() ** 4, "the warp's fourth power sin_K^4")
    return spec


def _d1(vals: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """4th-order first derivative; non-periodic edges are filled low-order."""
    if periodic:
        def sh(k):
            return np.roll(vals, -k, axis=axis)
        return (-sh(2) + 8.0 * sh(1) - 8.0 * sh(-1) + sh(-2)) / (12.0 * h)
    v = np.moveaxis(vals, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    out[0] = (v[1] - v[0]) / h
    out[1] = (v[2] - v[0]) / (2.0 * h)
    out[-2] = (v[-1] - v[-3]) / (2.0 * h)
    out[-1] = (v[-1] - v[-2]) / h
    return np.moveaxis(out, 0, axis)


def _d2(vals: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """2nd-order second derivative; non-periodic edges filled by copying inward."""
    if periodic:
        def sh(k):
            return np.roll(vals, -k, axis=axis)
        return (sh(1) - 2.0 * vals + sh(-1)) / (h * h)
    v = np.moveaxis(vals, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out[0] = out[1]
    out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


def _fiber_terms(d1: np.ndarray, d2: np.ndarray, fiber: FiberSpec):
    """(L_fib u, Gamma2_fib u) from u' and u'': u'' and (u'')^2 on the flat circle, plus the
    nu_f cot u' drift and the nu_f (1 + cot^2)(u')^2 weight terms on the sin-weighted window."""
    nu_f = fiber.weight_exponent
    if nu_f == 0.0:
        return d2, d2 * d2
    cot = cos_k(1.0, fiber.x) / sin_k(1.0, fiber.x)
    return d2 + nu_f * cot * d1, d2 * d2 + nu_f * d1 * d1 + nu_f * cot * cot * d1 * d1


def _grad(u: np.ndarray, spec: ConeGridSpec):
    """(u_r, u_x) of 2-D samples."""
    return (_d1(u, spec.h, axis=0, periodic=False),
            _d1(u, spec.fiber.h, axis=1, periodic=spec.fiber.periodic))


def _gamma(du, dv, f: np.ndarray) -> np.ndarray:
    """Carre du champ u_r v_r + (1/f^2) u_x v_x from the gradients of u and v."""
    return du[0] * dv[0] + (du[1] * dv[1]) / (f * f)[:, None]


def _generator(u: np.ndarray, du, spec: ConeGridSpec, f: np.ndarray, df: np.ndarray):
    """L u from u's two second differences and its gradient du."""
    fib = spec.fiber
    lfib, _ = _fiber_terms(du[1], _d2(u, fib.h, axis=1, periodic=fib.periodic), fib)
    urr = _d2(u, spec.h, axis=0, periodic=False)
    return urr + spec.nu * (df / f)[:, None] * du[0] + lfib / (f * f)[:, None]


def _gamma2_fields(u: np.ndarray, spec: ConeGridSpec, f=None, df=None):
    """(L u, Gamma(u), Gamma2(u)) of 2-D samples; f and df default to the warp and its slope."""
    if f is None:
        f, df = spec.warp(), cos_k(spec.K, spec.r)
    du = _grad(u, spec)
    lu, g = _generator(u, du, spec, f, df), _gamma(du, du, f)
    return lu, g, 0.5 * _generator(g, _grad(g, spec), spec, f, df) - _gamma(du, _grad(lu, spec), f)


def generator_2d(vals: np.ndarray, spec: ConeGridSpec,
                 f: np.ndarray | None = None, df: np.ndarray | None = None) -> np.ndarray:
    """Product generator u_rr + nu (f'/f) u_r + (1/f^2) L_fib u on the 2-D samples."""
    if f is None:
        f, df = spec.warp(), cos_k(spec.K, spec.r)
    return _generator(vals, _grad(vals, spec), spec, f, df)


def gamma_2d(u: np.ndarray, v: np.ndarray, spec: ConeGridSpec,
             f: np.ndarray | None = None) -> np.ndarray:
    """Carre du champ u_r v_r + (1/f^2) u_x v_x of 2-D samples."""
    return _gamma(_grad(u, spec), _grad(v, spec), spec.warp() if f is None else f)


def gamma2_2d(u: np.ndarray, spec: ConeGridSpec,
              f: np.ndarray | None = None, df: np.ndarray | None = None) -> np.ndarray:
    """Gamma2 from first principles: compose the generator with the carre du champ."""
    return _gamma2_fields(u, spec, f, df)[2]


def _mask_interior(vals: np.ndarray, spec: ConeGridSpec, margin: int) -> np.ndarray:
    for axis in (0,) if spec.fiber.periodic else (0, 1):
        if vals.shape[axis] <= 2 * margin:
            raise ValueError(f"the {('radial', 'fiber')[axis]} axis has {vals.shape[axis]} "
                             f"samples, none inside a margin of {margin} cells at each end")
    out = vals[margin:-margin, :]
    if not spec.fiber.periodic:
        out = out[:, margin:-margin]
    return out


# Fine-grid evaluations compared against their stride-2 coarsening must be
# masked to the coarse window (twice the cells) or the order estimate is
# contaminated by points the coarse grid never sees.
_COARSE_MARGIN = 2 * INTERIOR_MARGIN


@dataclass(frozen=True)
class IdentityReport:
    max_residual: float
    observed_order: float
    scale: float


def _identity_fields(spec: ConeGridSpec, f: np.ndarray, u1: np.ndarray, u2: np.ndarray):
    """|Gamma2 from first principles - tensor formula| and the formula, unmasked."""
    h, hf, per, nu = spec.h, spec.fiber.h, spec.fiber.periodic, spec.nu
    df = _d1(f[None, :].T, h, axis=0, periodic=False)[:, 0]
    d2f = _d2(f[None, :].T, h, axis=0, periodic=False)[:, 0]

    U = np.outer(u1, u2)
    lhs = gamma2_2d(U, spec, f=f, df=df)

    u1p = _d1(u1[:, None], h, axis=0, periodic=False)[:, 0]
    u1pp = _d2(u1[:, None], h, axis=0, periodic=False)[:, 0]
    u2p = _d1(u2[None, :], hf, axis=1, periodic=per)[0]
    lf_u2, g2f_u2 = _fiber_terms(u2p, _d2(u2[None, :], hf, axis=1, periodic=per)[0], spec.fiber)
    gf_u2 = u2p * u2p

    g2b_u1 = u1pp**2 - nu * (d2f / f) * u1p**2 + nu * (df / f) ** 2 * u1p**2
    rhs = (
        np.outer(g2b_u1, u2 * u2)
        + np.outer(u1 * u1 / f**4, g2f_u2)
        + np.outer(2.0 * u1 * df * u1p / f**3, lf_u2 * u2)
        - np.outer(u1 * u1 / f**3 * (d2f + (nu - 1.0) * df * df / f), gf_u2)
        + np.outer(
            2.0 / f**2 * u1p**2 - 4.0 * u1 * df * u1p / f**3 + 2.0 * u1**2 * df**2 / f**4,
            gf_u2,
        )
    )
    return np.abs(lhs - rhs), rhs


def warped_gamma2_identity_check(
    spec: ConeGridSpec, f: np.ndarray, u1: np.ndarray, u2: np.ndarray
) -> IdentityReport:
    """Check the warped-product Gamma2 tensorization identity for u1 (x) u2.

    The left side applies the product generator and the carre du champ by
    finite differences; the right side evaluates the explicit tensor
    expansion with the same stencils on the factors.  The coarse residual
    comes from the stride-2 subsample of the same data, so the observed
    order log2(coarse/fine) needs no re-sampling.
    """
    resid, rhs = _identity_fields(spec, f, u1, u2)
    fine = float(np.max(_mask_interior(resid, spec, INTERIOR_MARGIN)))
    scale = float(np.max(np.abs(_mask_interior(rhs, spec, INTERIOR_MARGIN))))
    fine_cw = float(np.max(_mask_interior(resid, spec, _COARSE_MARGIN)))
    coarse_spec = spec.coarsen()
    coarse_resid, _ = _identity_fields(coarse_spec, f[::2], u1[::2], u2[::2])
    coarse = float(np.max(_mask_interior(coarse_resid, coarse_spec, INTERIOR_MARGIN)))
    order = math.log2(coarse / fine_cw) if fine_cw > 0 and coarse > 0 else float("nan")
    return IdentityReport(max_residual=fine, observed_order=order, scale=scale)


@dataclass(frozen=True)
class EstimateReport:
    min_slack: float
    min_slack_coarse: float
    passed: bool
    min_slack_fine_matched: float = 0.0  # fine slack on the coarse window


def _estimate_slack(spec: ConeGridSpec, terms) -> np.ndarray:
    """Pointwise slack of the sharp estimate for the sum of the tensor terms, unmasked."""
    U = np.zeros((spec.r.size, spec.fiber.n))
    for u1, u2 in terms:
        U += np.outer(u1, u2)
    lc, g, g2 = _gamma2_fields(U, spec)
    return g2 - spec.nu * spec.K * g - lc * lc / (spec.nu + 1.0)


def _interior_min(vals: np.ndarray, spec: ConeGridSpec, margin: int = INTERIOR_MARGIN) -> float:
    return float(np.min(_mask_interior(vals, spec, margin)))


def sharp_gamma2_estimate_check(
    spec: ConeGridSpec, family, tol: float
) -> EstimateReport:
    """Minimum slack of  Gamma2 >= nu K Gamma + (L u)^2/(nu+1)  over a family.

    Each family member is a list of tensor terms [(u1, u2), ...] summed into
    one test function; fiber samples must come from functions satisfying the
    fiber's own curvature condition, which holds automatically for the flat
    circle and the sin-weighted window fibers used here.  The coarse slack
    is evaluated on the stride-2 subsample over the same physical window, so
    slack ratios measure the convergence order directly.
    """
    fields = [_estimate_slack(spec, member) for member in family]
    slacks = [_interior_min(s, spec) for s in fields]
    fine_cw = [_interior_min(s, spec, _COARSE_MARGIN) for s in fields]
    coarse_spec = spec.coarsen()
    coarse = [
        _interior_min(_estimate_slack(coarse_spec, [(u1[::2], u2[::2]) for u1, u2 in member]),
                      coarse_spec)
        for member in family
    ]
    return EstimateReport(
        min_slack=float(np.min(slacks)),
        min_slack_coarse=float(np.min(coarse)),
        min_slack_fine_matched=float(np.min(fine_cw)),
        passed=passes(slacks, tol),
    )


@dataclass(frozen=True)
class ConverseReport:
    min_residual: float
    passed: bool


def converse_deduction_check(nu: float, fiber: FiberSpec, u2: np.ndarray,
                             tol: float) -> ConverseReport:
    """Pointwise curvature-dimension residual recovered on the fiber.

    The deduction inequality carries an extra -(L u + nu u)^2/((nu+1) nu)
    term that a pointwise constant shift of u kills at every point in turn;
    since L, Gamma and Gamma2 are shift-invariant the surviving check is

        Gamma2(u) - (nu - 1) Gamma(u) - (1/nu)(L u)^2  >=  0

    evaluated by finite differences on the grid fiber.
    """
    u2 = np.asarray(u2, dtype=float)
    d1 = _d1(u2[None, :], fiber.h, axis=1, periodic=fiber.periodic)[0]
    lu, g2 = _fiber_terms(d1, _d2(u2[None, :], fiber.h, axis=1, periodic=fiber.periodic)[0], fiber)
    resid = g2 - (nu - 1.0) * d1 * d1 - lu * lu / nu
    if not fiber.periodic:
        resid = resid[INTERIOR_MARGIN:-INTERIOR_MARGIN]
    return ConverseReport(float(resid.min()), passes(resid, tol))
