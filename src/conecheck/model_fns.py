"""Closed-form model functions.

Generalized sine/cosine for constant curvature K, the length of its model
interval, the volume-distortion coefficients entering displacement-convexity
inequalities, the elementary dimension-splitting identity, the sharp diameter
bound for positive curvature, and ``passes``, the one gate that turns the
slacks of any check into its verdict.

All functions are pure and operate on value types; they are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvatureDimension",
    "ExtendedValue",
    "sin_k",
    "cos_k",
    "model_interval",
    "sigma_coeff",
    "tau_coeff",
    "dimension_split",
    "bonnet_myers_bound",
    "passes",
]

# Below _EXACT_LIMIT the sine ratio is returned as its analytic limit t;
# above it the direct ratio has no cancellation to avoid.
_EXACT_LIMIT = 1e-8


@dataclass(frozen=True)
class CurvatureDimension:
    """Curvature-dimension parameter pair (K, N).

    K is an unconstrained real curvature parameter; N is a real dimension
    parameter and must be >= 1 for every curvature-dimension check.  Cone
    exponents, which may lie in [0, 1), are passed around as plain floats
    and never wrapped in this type.
    """

    K: float
    N: float

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError(f"curvature parameter must be finite, got {self.K}")
        if not (math.isfinite(self.N) and self.N >= 1.0):
            raise ValueError(f"dimension parameter must be >= 1, got {self.N}")


@dataclass(frozen=True)
class ExtendedValue:
    """A nonnegative real extended by a distinguished infinity.

    The type of a single value that leaves the library and may be infinite
    (a convexity rhs, the diameter bound).  Infinity is a tag, never
    ``float('inf')`` inside arithmetic, and the type has no ordering.
    ``as_float`` refuses to produce an IEEE infinity so the tag cannot
    silently leak into numerics.
    """

    value: float = 0.0
    is_infinite: bool = False

    def __post_init__(self):
        if self.is_infinite:
            object.__setattr__(self, "value", 0.0)
        elif not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"finite extended value must be >= 0, got {self.value}")

    @classmethod
    def infinity(cls) -> "ExtendedValue":
        return cls(0.0, True)

    def as_float(self) -> float:
        if self.is_infinite:
            raise ValueError("infinite extended value has no float representation")
        return self.value


def passes(slacks, tol: float) -> bool:
    """The verdict of every check: True iff the evidence is non-empty, finite and within tol.

    ``slacks`` is a scalar or array-like of signed slacks, nonnegative where
    the inequality holds; a residual-style check passes ``-residual``.  The
    check passes when there is at least one slack, every slack is finite
    and the smallest is >= -tol.  ``tol`` must be finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    s = np.asarray(slacks, dtype=float).ravel()
    return bool(s.size > 0 and np.all(np.isfinite(s)) and s.min() >= -tol)


def sin_k(K: float, t):
    """Generalized sine: solution of f'' = -K f with f(0)=0, f'(0)=1.

    Accepts a scalar or ndarray ``t >= 0``.  For K > 0 the argument must not
    exceed the half period pi/sqrt(K).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("sin_k requires t >= 0")
    if K > 0:
        rk, tmax = math.sqrt(K), model_interval(K)
        if np.any(t_arr > tmax * (1.0 + 1e-12) + 1e-12):
            raise ValueError(f"sin_k domain error: t > pi/sqrt(K) = {tmax:.6g} for K={K}")
        out = np.sin(rk * t_arr) / rk
    elif K == 0:
        out = t_arr.copy()
    else:
        rk = math.sqrt(-K)
        out = np.sinh(rk * t_arr) / rk
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def cos_k(K: float, t):
    """Generalized cosine; derivative of sin_k, satisfies cos_k' = -K sin_k."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("cos_k requires t >= 0")
    if K > 0:
        out = np.cos(math.sqrt(K) * t_arr)
    elif K == 0:
        out = np.ones_like(t_arr)
    else:
        out = np.cosh(math.sqrt(-K) * t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def model_interval(K: float, r_max: float | None = None) -> float:
    """Length L of the model interval (0, L) of curvature K, or ``r_max`` once checked.

    L is pi/sqrt(K), where sin_K first vanishes, for K > 0 and pi for K <= 0;
    ``r_max`` must be finite, > 0 and, for K > 0, at most that L.
    """
    if not math.isfinite(K):
        raise ValueError(f"curvature parameter must be finite, got {K}")
    L = math.pi / math.sqrt(K) if K > 0 else math.pi
    if r_max is None:
        return L
    if not (0.0 < r_max < math.inf and (K <= 0 or r_max <= L * (1 + 1e-12))):
        raise ValueError(f"r_max must be finite, > 0 and at most pi/sqrt(K) if K > 0, got {r_max}")
    return float(r_max)


def _sigma_raw(K: float, N: float, t: float, theta: np.ndarray) -> np.ndarray:
    """sigma coefficient for any positive dimension-like parameter N, elementwise in theta.

    The limit t below _EXACT_LIMIT (theta = 0 and K = 0 included); for K < 0
    the sinh ratio, written with expm1 so that it tends to 0 instead of
    overflowing; for K > 0 the sine ratio, and inf at or past x = pi.
    """
    x = math.sqrt(abs(K) / N) * theta
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (np.exp(-x * (1.0 - t)) * np.expm1(-2.0 * x * t) / np.expm1(-2.0 * x) if K < 0
                 else np.where(x < math.pi, np.sin(x * t) / np.sin(x), math.inf))
    return np.where(x < _EXACT_LIMIT, t, ratio)


def _coeff_args(name: str, t: float, theta) -> np.ndarray:
    """theta as a float array, once 0 < t < 1 and every theta >= 0 are checked."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"{name} requires 0 < t < 1, got {t}")
    theta_arr = np.asarray(theta, dtype=float)
    if not np.all(theta_arr >= 0):
        raise ValueError(f"{name} requires theta >= 0")
    return theta_arr


def _like(theta, out: np.ndarray):
    """``out`` as a float when theta is a scalar."""
    return float(out) if np.ndim(theta) == 0 else out


def sigma_coeff(cd: CurvatureDimension, t: float, theta):
    """Volume-distortion coefficient sigma^(t)_{K,N}(theta), a float or an array like theta.

    Equals sin(sqrt(K/N) theta t) / sin(sqrt(K/N) theta) for K > 0 below the
    blow-up threshold theta = pi sqrt(N/K), inf at or beyond it, the
    analytic limit t at K = 0 or theta = 0, and the sinh analogue for K < 0.
    """
    return _like(theta, _sigma_raw(cd.K, cd.N, t, _coeff_args("sigma_coeff", t, theta)))


def tau_coeff(cd: CurvatureDimension, t: float, theta):
    """Distortion coefficient tau^(t)_{K,N}(theta) = t^(1/N) sigma_{K,N-1}^(t)(theta)^(1-1/N).

    A float or an array like theta.  Infinite where K theta^2 >= (N-1) pi^2,
    which is where the reduced coefficient blows up; equal to t when N = 1
    and K theta^2 <= 0.
    """
    theta_arr = _coeff_args("tau_coeff", t, theta)
    K, N = cd.K, cd.N
    if N == 1.0:
        return _like(theta, np.where(K * theta_arr * theta_arr > 0.0, math.inf, t))
    return _like(theta, t ** (1.0 / N) * _sigma_raw(K, N - 1.0, t, theta_arr) ** (1.0 - 1.0 / N))


def dimension_split(a: float, b: float, d: float, N: float) -> tuple[float, float]:
    """Both sides of the splitting identity a^2/d + b^2/N = (a+b)^2/(N+d) + remainder.

    The remainder is d/((N+d)N) (b - (N/d) a)^2; the two returned values are
    equal up to rounding and the caller asserts so.
    """
    if d < 1.0 or N < 1.0:
        raise ValueError("dimension_split requires d >= 1 and N >= 1")
    lhs = a * a / d + b * b / N
    rhs = (a + b) ** 2 / (N + d) + d / ((N + d) * N) * (b - (N / d) * a) ** 2
    return lhs, rhs


def bonnet_myers_bound(cd: CurvatureDimension) -> ExtendedValue:
    """Sharp diameter bound pi sqrt((N-1)/K) for K > 0; infinite for K <= 0.

    N = 1 with K > 0 only occurs for a single point, whose diameter is 0.
    """
    if cd.K <= 0:
        return ExtendedValue.infinity()
    return ExtendedValue(math.pi * math.sqrt((cd.N - 1.0) / cd.K))
