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
    passes,
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
    def test_no_float_leak(self):
        with pytest.raises(ValueError):
            ExtendedValue.infinity().as_float()
        with pytest.raises(ValueError):
            ExtendedValue(float("inf"))
        with pytest.raises(ValueError):
            ExtendedValue(-1.0)


class TestPasses:
    def test_verdict(self):
        assert passes([0.5, 0.0], 0.0)
        assert passes(-0.05, 0.1)
        assert passes(np.array([[0.1, -0.1], [0.2, 0.3]]), 0.1)
        assert not passes([0.5, -0.2], 0.1)

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=8),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 8),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_no_evidence_never_passes(self, finite, bad, where, tol):
        assert not passes([], tol)
        assert not passes(bad, tol)
        assert not passes(finite[:where] + [bad] + finite[where:], tol)
        assert passes(finite, tol) == (bool(finite) and min(finite) >= -tol)

    @given(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.floats(max_value=-1e-300)))
    def test_bad_tolerance_raises(self, tol):
        with pytest.raises(ValueError):
            passes([1.0], tol)
        with pytest.raises(ValueError):
            passes([], tol)


class TestSigma:
    def test_positive_curvature_value(self):
        cd = CurvatureDimension(1.0, 1.0)
        got = sigma_coeff(cd, 0.5, math.pi / 2)
        assert isinstance(got, float)
        assert got == pytest.approx(math.sin(math.pi / 4) / math.sin(math.pi / 2))
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_blowup(self):
        assert sigma_coeff(CurvatureDimension(1.0, 1.0), 0.5, math.pi) == math.inf
        assert sigma_coeff(CurvatureDimension(1.0, 1.0), 0.5, 4.0) == math.inf

    def test_flat_limit(self):
        assert sigma_coeff(CurvatureDimension(0.0, 5.0), 0.3, 2.0) == 0.3

    def test_theta_zero_limit(self):
        for K in (-3.0, 0.0, 2.0):
            for N in (1.0, 4.0):
                v = sigma_coeff(CurvatureDimension(K, N), 0.4, 1e-4)
                assert abs(v - 0.4) <= 1e-8

    def test_negative_curvature_sinh(self):
        cd = CurvatureDimension(-2.0, 3.0)
        x = math.sqrt(2.0 / 3.0) * 1.7
        expected = math.sinh(x * 0.25) / math.sinh(x)
        assert sigma_coeff(cd, 0.25, 1.7) == pytest.approx(expected, rel=1e-12)

    def test_negative_curvature_does_not_overflow(self):
        # x = sqrt(1e6 / 3) * 3 is about 1732, past where sinh overflows;
        # the ratio itself is below the smallest subnormal
        v = sigma_coeff(CurvatureDimension(-1e6, 3.0), 0.5, 3.0)
        assert math.isfinite(v) and v >= 0.0
        thetas = np.array([3.0, 3.5, 1e3])
        vals = sigma_coeff(CurvatureDimension(-1e6, 3.0), 0.5, thetas)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert np.isfinite(tau_coeff(CurvatureDimension(-1e6, 3.0), 0.5, 3.0))

    def test_taylor_band_consistency(self):
        # at small arguments the direct sine ratio matches its 3-term Taylor series
        def series(y, sign):
            y2 = sign * y * y
            return y * (1.0 - y2 / 6.0 + y2 * y2 / 120.0)

        t = 0.37
        for K in (1.0, -1.0):
            for theta in np.geomspace(1e-9, 1e-3, 61):
                want = series(theta * t, K) / series(theta, K)
                got = sigma_coeff(CurvatureDimension(K, 1.0), t, float(theta))
                assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_monotone_in_theta(self):
        cd = CurvatureDimension(2.0, 3.0)
        thetas = np.linspace(1e-3, math.pi * math.sqrt(3.0 / 2.0) - 1e-3, 200)
        vals = [sigma_coeff(cd, 0.5, float(t)) for t in thetas]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_tau_dominates_sigma(self):
        for K in (0.0, 1.0, 2.5):
            for N in (1.5, 2.0, 6.0):
                cd = CurvatureDimension(K, N)
                for theta in np.linspace(0.01, 2.0, 25):
                    s = sigma_coeff(cd, 0.5, float(theta))
                    t = tau_coeff(cd, 0.5, float(theta))
                    if math.isfinite(s) and math.isfinite(t):
                        assert t >= s - 1e-12

    @pytest.mark.parametrize("K", [-2.0, 0.0, 1.0])
    @pytest.mark.parametrize("coeff", [sigma_coeff, tau_coeff])
    def test_array_matches_scalar_calls(self, K, coeff):
        # theta runs through 0, the exact-limit band and, for K > 0, the blow-up
        # of both sigma_{K,N} (pi sqrt(N/K)) and tau's sigma_{K,N-1}
        thetas = np.concatenate([[0.0, 1e-10, 1e-9], np.linspace(0.01, 7.0, 119),
                                 [math.pi * math.sqrt(2.0), math.pi * math.sqrt(3.0)]])
        for N in (1.0, 3.0):
            cd = CurvatureDimension(K, N)
            got = coeff(cd, 0.5, thetas)
            assert isinstance(got, np.ndarray) and got.shape == thetas.shape
            want = np.array([coeff(cd, 0.5, float(th)) for th in thetas])
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(coeff(cd, 0.5, thetas.reshape(2, -1)),
                                          want.reshape(2, -1))
            if K > 0:
                assert np.isinf(got).any() and np.isfinite(got).any()

    @pytest.mark.parametrize("coeff", [sigma_coeff, tau_coeff])
    def test_bad_arguments(self, coeff):
        cd = CurvatureDimension(1.0, 2.0)
        for t in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError):
                coeff(cd, t, 1.0)
        for theta in (-0.1, math.nan, np.array([0.5, -1e-9])):
            with pytest.raises(ValueError):
                coeff(cd, 0.5, theta)


class TestTau:
    def test_flat_collapses_to_t(self):
        assert tau_coeff(CurvatureDimension(0.0, 4.0), 0.25, 3.0) == pytest.approx(0.25)

    def test_blowup_region(self):
        assert tau_coeff(CurvatureDimension(1.0, 2.0), 0.5, 2 * math.pi) == math.inf

    def test_one_dimensional(self):
        assert tau_coeff(CurvatureDimension(0.0, 1.0), 0.7, 1.0) == 0.7

    def test_holder_combination(self):
        cd = CurvatureDimension(1.0, 3.0)
        t, theta = 0.5, 1.2
        sig = sigma_coeff(CurvatureDimension(1.0, 2.0), t, theta)
        expected = t ** (1 / 3) * sig ** (2 / 3)
        assert tau_coeff(cd, t, theta) == pytest.approx(expected, rel=1e-12)


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
        assert bonnet_myers_bound(CurvatureDimension(2.0, 1.0)).as_float() == 0.0


def test_curvature_dimension_validation():
    with pytest.raises(ValueError):
        CurvatureDimension(1.0, 0.5)
    with pytest.raises(ValueError):
        CurvatureDimension(math.nan, 2.0)
    CurvatureDimension(-5.0, 1.0)  # any K sign is fine
