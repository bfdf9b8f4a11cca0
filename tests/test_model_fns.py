import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecheck.model_fns import (
    CurvatureDimension,
    ExtendedValue,
    bonnet_myers_bound,
    cos_k,
    dimension_split,
    sigma_coeff,
    sin_k,
    tau_coeff,
)


class TestSinCos:
    def test_identity_branch(self):
        assert sin_k(0.0, 1.5) == 1.5

    def test_unit_curvature(self):
        assert sin_k(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_scaled_curvature(self):
        # (1/2) sin(2 * pi/4) = 1/2
        assert sin_k(4.0, math.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sin_k(1.0, math.pi + 0.1)
        with pytest.raises(ValueError):
            sin_k(0.0, -0.5)

    def test_cos_branches(self):
        assert cos_k(0.0, 7.0) == 1.0
        assert cos_k(1.0, math.pi) == pytest.approx(-1.0, abs=1e-15)
        assert cos_k(-1.0, 0.0) == 1.0

    def test_continuity_in_curvature_at_zero(self):
        t = 1.2345
        for K in (1e-13, -1e-13):
            assert sin_k(K, t) == pytest.approx(t, rel=1e-10)
            assert cos_k(K, t) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("K", [-2.0, -0.5, 0.0, 0.5, 1.0, 4.0])
    def test_ode_residual(self, K):
        # sin_k solves f'' = -K f with f(0)=0, f'(0)=1
        h = 1e-3
        tmax = math.pi / math.sqrt(K) - 2 * h if K > 0 else 2.0
        t = np.linspace(h, tmax, 201)
        f = sin_k(K, t)
        fpp = (sin_k(K, t + h) - 2 * f + sin_k(K, t - h)) / h**2
        assert np.max(np.abs(fpp + K * f)) <= 10 * h**2 + 1e-9
        assert sin_k(K, 0.0) == 0.0
        assert (sin_k(K, h) - sin_k(K, 0.0)) / h == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("K", [-1.5, 0.0, 2.0])
    def test_derivative_relation(self, K):
        # cos_k' = -K sin_k
        h = 1e-5
        for t in (0.3, 0.9, 1.4):
            d = (cos_k(K, t + h) - cos_k(K, t - h)) / (2 * h)
            assert d == pytest.approx(-K * sin_k(K, t), abs=1e-8)


class TestExtendedValue:
    def test_ordering(self):
        inf = ExtendedValue.infinity()
        assert inf > ExtendedValue(1e300)
        assert inf > 1e308
        assert ExtendedValue(2.0) < ExtendedValue(3.0)
        assert ExtendedValue(2.0) == 2.0
        assert inf == ExtendedValue.infinity()

    def test_no_float_leak(self):
        with pytest.raises(ValueError):
            ExtendedValue.infinity().as_float()
        with pytest.raises(ValueError):
            ExtendedValue(float("inf"))
        with pytest.raises(ValueError):
            ExtendedValue(-1.0)

    def test_json(self):
        assert ExtendedValue.infinity().to_json() == "inf"
        assert ExtendedValue(2.5).to_json() == 2.5

    @given(st.floats(min_value=0, max_value=1e12), st.floats(min_value=0, max_value=1e12))
    def test_total_order(self, a, b):
        ea, eb = ExtendedValue(a), ExtendedValue(b)
        inf = ExtendedValue.infinity()
        for lhs, rhs in ((ea, eb), (ea, b), (a, eb)):
            assert (lhs < rhs) == (a < b)
            assert (lhs <= rhs) == (a <= b)
            assert (lhs > rhs) == (a > b)
            assert (lhs >= rhs) == (a >= b)
            assert (lhs == rhs) == (a == b)
            assert lhs != rhs or hash(lhs) == hash(rhs)
        assert len({ea, a}) == 1 and len({ExtendedValue(2.0), 2.0, 2}) == 1
        for x in (ea, a):
            assert x < inf and x <= inf and not x > inf and not x >= inf and x != inf
            assert inf > x and inf >= x and not inf < x and not inf <= x
        assert inf == ExtendedValue.infinity() and inf <= inf and inf >= inf and not inf < inf

    def test_nan_is_unordered(self):
        with pytest.raises(TypeError):
            ExtendedValue(1.0) > float("nan")
        with pytest.raises(TypeError):
            float("nan") <= ExtendedValue.infinity()
        assert ExtendedValue(1.0) != float("nan")


class TestSigma:
    def test_positive_curvature_value(self):
        cd = CurvatureDimension(1.0, 1.0)
        got = sigma_coeff(cd, 0.5, math.pi / 2)
        assert got.as_float() == pytest.approx(math.sin(math.pi / 4) / math.sin(math.pi / 2))
        assert got.as_float() == pytest.approx(0.70711, abs=1e-5)

    def test_blowup(self):
        assert sigma_coeff(CurvatureDimension(1.0, 1.0), 0.5, math.pi).is_infinite
        assert sigma_coeff(CurvatureDimension(1.0, 1.0), 0.5, 4.0).is_infinite

    def test_flat_limit(self):
        assert sigma_coeff(CurvatureDimension(0.0, 5.0), 0.3, 2.0) == 0.3

    def test_theta_zero_limit(self):
        for K in (-3.0, 0.0, 2.0):
            for N in (1.0, 4.0):
                v = sigma_coeff(CurvatureDimension(K, N), 0.4, 1e-4)
                assert abs(v.as_float() - 0.4) <= 1e-8

    def test_negative_curvature_sinh(self):
        cd = CurvatureDimension(-2.0, 3.0)
        x = math.sqrt(2.0 / 3.0) * 1.7
        expected = math.sinh(x * 0.25) / math.sinh(x)
        assert sigma_coeff(cd, 0.25, 1.7).as_float() == pytest.approx(expected, rel=1e-12)

    def test_taylor_band_consistency(self):
        # the series fallback must agree with direct evaluation where both apply
        cd = CurvatureDimension(1.0, 1.0)
        for theta in (9e-5, 5e-5, 2e-8):
            v = sigma_coeff(cd, 0.37, theta).as_float()
            direct = math.sin(theta * 0.37) / math.sin(theta)
            assert v == pytest.approx(direct, rel=1e-10)

    def test_monotone_in_theta(self):
        cd = CurvatureDimension(2.0, 3.0)
        thetas = np.linspace(1e-3, math.pi * math.sqrt(3.0 / 2.0) - 1e-3, 200)
        vals = [sigma_coeff(cd, 0.5, float(t)).as_float() for t in thetas]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_tau_dominates_sigma(self):
        for K in (0.0, 1.0, 2.5):
            for N in (1.5, 2.0, 6.0):
                cd = CurvatureDimension(K, N)
                for theta in np.linspace(0.01, 2.0, 25):
                    s = sigma_coeff(cd, 0.5, float(theta))
                    t = tau_coeff(cd, 0.5, float(theta))
                    if not (s.is_infinite or t.is_infinite):
                        assert t.as_float() >= s.as_float() - 1e-12


class TestTau:
    def test_flat_collapses_to_t(self):
        assert tau_coeff(CurvatureDimension(0.0, 4.0), 0.25, 3.0).as_float() == pytest.approx(0.25)

    def test_blowup_region(self):
        assert tau_coeff(CurvatureDimension(1.0, 2.0), 0.5, 2 * math.pi).is_infinite

    def test_one_dimensional(self):
        assert tau_coeff(CurvatureDimension(0.0, 1.0), 0.7, 1.0) == 0.7

    def test_holder_combination(self):
        cd = CurvatureDimension(1.0, 3.0)
        t, theta = 0.5, 1.2
        sig = sigma_coeff(CurvatureDimension(1.0, 2.0), t, theta).as_float()
        expected = t ** (1 / 3) * sig ** (2 / 3)
        assert tau_coeff(cd, t, theta).as_float() == pytest.approx(expected, rel=1e-12)


class TestDimensionSplit:
    def test_zero(self):
        assert dimension_split(0, 0, 1, 1) == (0.0, 0.0)

    def test_hand_values(self):
        lhs, rhs = dimension_split(1.0, -1.0, 2.0, 2.0)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
        lhs, rhs = dimension_split(3.0, 5.0, 1.0, 4.0)
        assert lhs == pytest.approx(15.25) and rhs == pytest.approx(15.25)

    @settings(max_examples=200)
    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(1, 50),
        st.floats(1, 50),
    )
    def test_identity_everywhere(self, a, b, d, N):
        lhs, rhs = dimension_split(a, b, d, N)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_bulk_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a, b = rng.normal(size=2) * 10
            d, N = 1 + rng.random(2) * 20
            lhs, rhs = dimension_split(a, b, d, N)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestBonnetMyers:
    def test_sphere_scale(self):
        assert bonnet_myers_bound(CurvatureDimension(1.0, 2.0)).as_float() == pytest.approx(math.pi)

    def test_nonpositive(self):
        assert bonnet_myers_bound(CurvatureDimension(0.0, 7.0)).is_infinite
        assert bonnet_myers_bound(CurvatureDimension(-3.0, 2.0)).is_infinite

    def test_scaled(self):
        assert bonnet_myers_bound(CurvatureDimension(4.0, 5.0)).as_float() == pytest.approx(math.pi)

    def test_point_case(self):
        assert bonnet_myers_bound(CurvatureDimension(2.0, 1.0)) == 0.0


def test_curvature_dimension_validation():
    with pytest.raises(ValueError):
        CurvatureDimension(1.0, 0.5)
    with pytest.raises(ValueError):
        CurvatureDimension(math.nan, 2.0)
    CurvatureDimension(-5.0, 1.0)  # any K sign is fine
