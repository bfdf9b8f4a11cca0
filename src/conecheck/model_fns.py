"""Closed-form model functions.

Generalized sine/cosine for constant curvature K, the volume-distortion
coefficients entering displacement-convexity inequalities, the elementary
dimension-splitting identity, and the sharp diameter bound for positive
curvature.

All functions are pure and operate on value types; they are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvatureDimension",
    "ExtendedValue",
    "sin_k",
    "cos_k",
    "sigma_coeff",
    "tau_coeff",
    "dimension_split",
    "bonnet_myers_bound",
]

# Below _EXACT_LIMIT the sine ratio is returned as its analytic limit t;
# inside [_EXACT_LIMIT, _TAYLOR_BAND] a 3-term series avoids cancellation.
_EXACT_LIMIT = 1e-8
_TAYLOR_BAND = 1e-4


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


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class ExtendedValue:
    """A nonnegative real extended by a distinguished infinity.

    Infinity is a tag, never ``float('inf')`` inside arithmetic: comparisons
    are total and serialization is explicit.  ``as_float`` refuses to
    produce an IEEE infinity so the tag cannot silently leak into numerics.
    """

    value: float = 0.0
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", 0.0)
        elif not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"finite extended value must be >= 0, got {self.value}")

    @classmethod
    def infinity(cls) -> "ExtendedValue":
        return cls(0.0, True)

    @classmethod
    def finite(cls, v: float) -> "ExtendedValue":
        return cls(float(v), False)

    @property
    def is_infinite(self) -> bool:
        return self.infinite

    def as_float(self) -> float:
        if self.infinite:
            raise ValueError("infinite extended value has no float representation")
        return self.value

    def _key(self, other):
        if isinstance(other, ExtendedValue):
            return other.infinite, other.value
        if isinstance(other, (int, float)) and not math.isnan(other):  # NaN is unordered
            return False, float(other)
        return NotImplemented

    def __eq__(self, other):
        k = self._key(other)
        if k is NotImplemented:
            return NotImplemented
        return (self.infinite, self.value) == k

    def __lt__(self, other):
        k = self._key(other)
        if k is NotImplemented:
            return NotImplemented
        return (self.infinite, self.value) < k

    def __hash__(self):  # a finite value hashes as the float it equals
        return hash((True, 0.0)) if self.infinite else hash(self.value)

    def to_json(self):
        return "inf" if self.infinite else self.value

    def __repr__(self):
        return "ExtendedValue(inf)" if self.infinite else f"ExtendedValue({self.value!r})"


def sin_k(K: float, t):
    """Generalized sine: solution of f'' = -K f with f(0)=0, f'(0)=1.

    Accepts a scalar or ndarray ``t >= 0``.  For K > 0 the argument must not
    exceed the half period pi/sqrt(K).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("sin_k requires t >= 0")
    if K > 0:
        rk = math.sqrt(K)
        tmax = math.pi / rk
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


def _poly_sin(y: float) -> float:
    # 3-term series of sin(y) for |y| << 1
    y2 = y * y
    return y * (1.0 - y2 / 6.0 + y2 * y2 / 120.0)


def _poly_sinh(y: float) -> float:
    y2 = y * y
    return y * (1.0 + y2 / 6.0 + y2 * y2 / 120.0)


def _sigma_raw(K: float, N: float, t: float, theta: float) -> ExtendedValue:
    """sigma coefficient for any positive dimension-like parameter N."""
    if theta == 0.0 or K == 0.0:
        return ExtendedValue(t)
    if K > 0:
        x = math.sqrt(K / N) * theta
        if x >= math.pi:
            return ExtendedValue.infinity()
        if x < _EXACT_LIMIT:
            return ExtendedValue(t)
        if x <= _TAYLOR_BAND:
            return ExtendedValue(_poly_sin(x * t) / _poly_sin(x))
        return ExtendedValue(math.sin(x * t) / math.sin(x))
    x = math.sqrt(-K / N) * theta
    if x < _EXACT_LIMIT:
        return ExtendedValue(t)
    if x <= _TAYLOR_BAND:
        return ExtendedValue(_poly_sinh(x * t) / _poly_sinh(x))
    return ExtendedValue(math.sinh(x * t) / math.sinh(x))


def sigma_coeff(cd: CurvatureDimension, t: float, theta: float) -> ExtendedValue:
    """Volume-distortion coefficient sigma^(t)_{K,N}(theta).

    Equals sin(sqrt(K/N) theta t) / sin(sqrt(K/N) theta) for K > 0 below the
    blow-up threshold theta = pi sqrt(N/K), the tagged infinity at or beyond
    it, the analytic limit t at K = 0 or theta = 0, and the sinh analogue
    for K < 0.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"sigma_coeff requires 0 < t < 1, got {t}")
    if theta < 0:
        raise ValueError("sigma_coeff requires theta >= 0")
    return _sigma_raw(cd.K, cd.N, t, theta)


def tau_coeff(cd: CurvatureDimension, t: float, theta: float) -> ExtendedValue:
    """Distortion coefficient tau^(t)_{K,N}(theta) = t^(1/N) sigma_{K,N-1}^(t)(theta)^(1-1/N).

    Infinite when K theta^2 > (N-1) pi^2 (and at the boundary, where the
    reduced coefficient itself blows up); equal to t when N = 1 and
    K theta^2 <= 0.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"tau_coeff requires 0 < t < 1, got {t}")
    if theta < 0:
        raise ValueError("tau_coeff requires theta >= 0")
    K, N = cd.K, cd.N
    if K * theta * theta > (N - 1.0) * math.pi * math.pi:
        return ExtendedValue.infinity()
    if N == 1.0:
        return ExtendedValue(t)
    sig = _sigma_raw(K, N - 1.0, t, theta)
    if sig.is_infinite:
        return ExtendedValue.infinity()
    return ExtendedValue(t ** (1.0 / N) * sig.value ** (1.0 - 1.0 / N))


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
    if cd.N == 1.0:
        return ExtendedValue(0.0)
    return ExtendedValue(math.pi * math.sqrt((cd.N - 1.0) / cd.K))
