import math

import numpy as np
import pytest

from conecheck.gamma_calc import (
    INTERIOR_MARGIN,
    circle_fiber,
    cone_grid,
    converse_deduction_check,
    cycle_graph,
    gamma_2d,
    generator_2d,
    sharp_gamma2_estimate_check,
    warped_gamma2_identity_check,
    weighted_interval_fiber,
)
from conecheck.gamma_calc.grid import _mask_interior, gamma2_2d


def trig(rng, xs, degree=3, normalize=True):
    c = rng.standard_normal((2, degree + 1))
    if normalize:
        c /= np.abs(c).sum()
    return sum(c[0, k] * np.cos(k * xs) + c[1, k] * np.sin(k * xs)
               for k in range(degree + 1))


class TestConeOperators:
    def test_gamma_of_radial_function(self):
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 1.0, 101, fib)
        u1 = np.sin(2 * spec.r)
        U = np.outer(u1, np.ones(64))
        g = _mask_interior(gamma_2d(U, U, spec), spec, INTERIOR_MARGIN)
        expect = (2 * np.cos(2 * spec.r[INTERIOR_MARGIN:-INTERIOR_MARGIN])) ** 2
        assert np.max(np.abs(g - expect[:, None])) <= 1e-5

    def test_gamma_of_fiber_function(self):
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 1.0, 101, fib)
        u2 = np.cos(fib.x)
        U = np.outer(np.ones(101), u2)
        g = _mask_interior(gamma_2d(U, U, spec), spec, INTERIOR_MARGIN)
        f = spec.warp()[INTERIOR_MARGIN:-INTERIOR_MARGIN]
        expect = (np.sin(fib.x) ** 2)[None, :] / (f**2)[:, None]
        assert np.max(np.abs(g - expect)) <= 1e-4

    def test_distance_like_function_on_flat_cone(self):
        fib = circle_fiber(96)
        spec = cone_grid(0.0, 1.0, 101, fib, lo=0.5, hi=2.0)
        U = np.outer(spec.r, np.cos(fib.x))
        g = _mask_interior(gamma_2d(U, U, spec), spec, INTERIOR_MARGIN)
        assert np.max(np.abs(g - 1.0)) <= 1e-5

    def test_generator_on_fiber_eigenfunction(self):
        # u = 1 (x) u2 with a discrete fiber eigenfunction: L u = -lambda u / sin_K^2
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 2.0, 101, fib)
        u2 = np.cos(2 * fib.x)
        lam_d = 2.0 / fib.h**2 * (1.0 - math.cos(2 * fib.h))  # 3-point stencil eigenvalue
        U = np.outer(np.ones(101), u2)
        got = _mask_interior(generator_2d(U, spec), spec, INTERIOR_MARGIN)
        f = spec.warp()[INTERIOR_MARGIN:-INTERIOR_MARGIN]
        expect = -lam_d * u2[None, :] / (f**2)[:, None]
        assert np.max(np.abs(got - expect)) <= 1e-10
        assert lam_d == pytest.approx(4.0, rel=5e-3)

    def test_generator_on_radial_function(self):
        fib = circle_fiber(32)
        spec = cone_grid(1.0, 3.0, 201, fib)
        u1 = np.sin(2 * spec.r)
        U = np.outer(u1, np.ones(32))
        got = _mask_interior(generator_2d(U, spec), spec, INTERIOR_MARGIN)
        r = spec.r[INTERIOR_MARGIN:-INTERIOR_MARGIN]
        expect = -4 * np.sin(2 * r) + 3.0 * (np.cos(r) / np.sin(r)) * 2 * np.cos(2 * r)
        assert np.max(np.abs(got - expect[:, None])) <= 2e-4

    def test_separation_against_dense_product_operator(self):
        # FD evaluation of the product generator vs an assembled matrix on
        # the same grid (dense kron oracle)
        fib = circle_fiber(24)
        spec = cone_grid(1.0, 1.0, 41, fib)
        nr, nf = 41, 24
        h, hf = spec.h, fib.h
        rng = np.random.default_rng(0)
        U = np.outer(trig(rng, spec.r), trig(rng, fib.x))
        # dense 1-D operators (2nd order; the FD path uses 4th-order first
        # derivatives, so compare at 2nd-order accuracy)
        import scipy.sparse as sp

        e = np.ones(nr)
        D2r = sp.diags([e[:-1], -2 * e, e[:-1]], (-1, 0, 1)).toarray() / h**2
        D1r = sp.diags([-e[:-1], e[:-1]], (-1, 1)).toarray() / (2 * h)
        idx = np.arange(nf)
        D2x = (np.eye(nf, k=1) + np.eye(nf, k=-1) - 2 * np.eye(nf)) / hf**2
        D2x[0, -1] = D2x[-1, 0] = 1 / hf**2
        f = spec.warp()
        drift = np.cos(spec.r) / np.sin(spec.r)
        Lmat = (
            np.kron(D2r + drift[:, None] * D1r, np.eye(nf))
            + np.kron(np.diag(1 / f**2), D2x)
        )
        dense = (Lmat @ U.ravel()).reshape(nr, nf)
        fd = generator_2d(U, spec)
        diff = _mask_interior(np.abs(dense - fd), spec, INTERIOR_MARGIN)
        assert np.max(diff) <= 50 * h**2


class TestWarpedIdentity:
    def test_trivial_fiber_factor(self):
        fib = circle_fiber(32)
        spec = cone_grid(1.0, 2.0, 161, fib)
        f = spec.warp()
        rng = np.random.default_rng(1)
        u1 = trig(rng, spec.r)
        rep = warped_gamma2_identity_check(spec, f, u1, np.ones(32))
        assert rep.max_residual <= 5 * spec.h**2 * max(rep.scale, 1.0)

    def test_random_pairs_second_order(self):
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 2.0, 161, fib)
        f = spec.warp()
        rng = np.random.default_rng(2)
        for _ in range(5):
            rep = warped_gamma2_identity_check(spec, f, trig(rng, spec.r), trig(rng, fib.x))
            assert 1.7 <= rep.observed_order <= 2.3
            assert rep.max_residual <= 150 * spec.h**2 * max(rep.scale, 1.0)

    def test_special_radial_factor_matches_warp(self):
        # u1 = f on a window: the pure-gradient terms cancel and the identity
        # residual drops to plain FD error
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 2.0, 161, fib)
        f = spec.warp()
        rng = np.random.default_rng(3)
        rep = warped_gamma2_identity_check(spec, f, f.copy(), trig(rng, fib.x))
        assert rep.max_residual <= 150 * spec.h**2 * max(rep.scale, 1.0)

    def test_weighted_fiber_flavor(self):
        fib = weighted_interval_fiber(161, 1.0)
        spec = cone_grid(1.0, 2.0, 161, fib)
        f = spec.warp()
        rng = np.random.default_rng(4)
        rep = warped_gamma2_identity_check(spec, f, trig(rng, spec.r), trig(rng, fib.x))
        assert 1.6 <= rep.observed_order <= 2.4

    def test_general_warp_samples(self):
        # a non-model warp exercises the FD path for f', f''
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 2.0, 161, fib)
        f = np.sin(spec.r) * (1.0 + 0.1 * np.sin(spec.r))
        rng = np.random.default_rng(5)
        rep = warped_gamma2_identity_check(spec, f, trig(rng, spec.r), trig(rng, fib.x))
        assert 1.6 <= rep.observed_order <= 2.4


class TestSharpEstimate:
    def test_constants_give_zero(self):
        fib = circle_fiber(32)
        spec = cone_grid(1.0, 1.0, 81, fib)
        rep = sharp_gamma2_estimate_check(spec, [[(np.ones(81), np.ones(32))]], tol=1e-10)
        assert abs(rep.min_slack) <= 1e-10

    @pytest.mark.parametrize(
        "nu,fiber_maker",
        [(1.0, lambda: circle_fiber(128)), (2.0, lambda: weighted_interval_fiber(161, 1.0))],
    )
    def test_equality_family_second_order(self, nu, fiber_maker):
        fib = fiber_maker()
        spec = cone_grid(1.0, nu, 161, fib)
        member = [(np.sin(spec.r), np.cos(fib.x))]
        rep = sharp_gamma2_estimate_check(spec, [member], tol=60 * spec.h**2 + 1e-6)
        assert rep.passed
        order = math.log2(abs(rep.min_slack_coarse) / abs(rep.min_slack_fine_matched))
        assert order >= 1.9

    def test_random_family_passes(self):
        fib = weighted_interval_fiber(129, 1.0)
        spec = cone_grid(1.0, 2.0, 129, fib)
        rng = np.random.default_rng(6)
        fam = [[(trig(rng, spec.r), trig(rng, fib.x))] for _ in range(10)]
        rep = sharp_gamma2_estimate_check(spec, fam, tol=60 * spec.h**2 + 1e-6)
        assert rep.passed

    def test_nan_member_fails_in_either_order(self):
        fib = weighted_interval_fiber(129, 1.0)
        spec = cone_grid(1.0, 2.0, 129, fib)
        rng = np.random.default_rng(6)
        good = [(trig(rng, spec.r), trig(rng, fib.x))]
        u1 = trig(rng, spec.r)
        u1[64] = np.nan
        bad = [(u1, trig(rng, fib.x))]
        tol = 60 * spec.h**2 + 1e-6
        assert sharp_gamma2_estimate_check(spec, [good], tol).passed
        for family in ([good, bad], [bad, good]):
            rep = sharp_gamma2_estimate_check(spec, family, tol)
            assert not rep.passed
            assert math.isnan(rep.min_slack)

    def test_two_term_sums(self):
        fib = weighted_interval_fiber(129, 1.0)
        spec = cone_grid(1.0, 2.0, 129, fib)
        rng = np.random.default_rng(7)
        fam = [
            [(trig(rng, spec.r), trig(rng, fib.x)), (trig(rng, spec.r), trig(rng, fib.x))]
            for _ in range(5)
        ]
        rep = sharp_gamma2_estimate_check(spec, fam, tol=60 * spec.h**2 + 1e-6)
        assert rep.passed

    def test_inflated_curvature_found_by_search(self):
        fib = circle_fiber(128)
        spec = cone_grid(1.0, 1.0, 161, fib)
        U = np.outer(np.sin(spec.r), np.cos(fib.x))
        g2 = gamma2_2d(U, spec)
        g = gamma_2d(U, U, spec)
        lc = generator_2d(U, spec)
        slack = g2 - (spec.nu + 1.0) * spec.K * g - lc * lc / (spec.nu + 1.0)
        assert float(np.min(_mask_interior(slack, spec, INTERIOR_MARGIN))) < -0.5


@pytest.mark.parametrize("nr, nf, axis, n", [(20, 161, "radial", 20), (161, 16, "fiber", 16)])
def test_grid_checks_reject_an_empty_window(nr, nf, axis, n):
    spec = cone_grid(1.0, 2.0, nr, weighted_interval_fiber(nf, 1.0))
    rng = np.random.default_rng(3)
    pair = (trig(rng, spec.r), trig(rng, spec.fiber.x))
    msg = f"the {axis} axis has {n} samples, none inside a margin of 12 cells"
    with pytest.raises(ValueError, match=msg):
        sharp_gamma2_estimate_check(spec, [[pair]], tol=1.0)
    with pytest.raises(ValueError, match=msg):
        warped_gamma2_identity_check(spec, spec.warp(), *pair)


def test_grid_checks_run_on_25_samples_per_axis():
    spec = cone_grid(1.0, 2.0, 25, weighted_interval_fiber(25, 1.0))
    rng = np.random.default_rng(3)
    pair = (trig(rng, spec.r), trig(rng, spec.fiber.x))
    assert math.isfinite(sharp_gamma2_estimate_check(spec, [[pair]], tol=1.0).min_slack)
    assert math.isfinite(warped_gamma2_identity_check(spec, spec.warp(), *pair).max_residual)


class TestLeibnizGridFlavor:
    def test_product_rule_holds_to_second_order(self):
        # unlike the graph flavor, the FD calculus is a derivation up to O(h^2)
        fib = circle_fiber(64)
        spec = cone_grid(1.0, 1.0, 161, fib)
        rng = np.random.default_rng(8)
        U = np.outer(trig(rng, spec.r), trig(rng, fib.x))
        V = np.outer(trig(rng, spec.r), trig(rng, fib.x))
        W = np.outer(trig(rng, spec.r), trig(rng, fib.x))
        lhs = gamma_2d(U, V * W, spec)
        rhs = gamma_2d(U, V, spec) * W + V * gamma_2d(U, W, spec)
        diff = _mask_interior(np.abs(lhs - rhs), spec, INTERIOR_MARGIN)
        assert np.max(diff) <= 50 * spec.h**2


class TestConverse:
    def test_unit_circle_dimension_one_equality(self):
        fib = circle_fiber(256)
        u2 = np.cos(fib.x) + 0.4 * np.sin(2 * fib.x)
        rep = converse_deduction_check(1.0, fib, u2, tol=60 * fib.h**2 + 1e-6)
        assert rep.passed
        assert rep.min_residual >= -1e-12  # exact cancellation at nu = 1

    def test_constants_trivial(self):
        fib = circle_fiber(64)
        rep = converse_deduction_check(2.0, fib, np.ones(64), tol=1e-12)
        assert rep.passed and abs(rep.min_residual) <= 1e-12

    def test_big_circle_still_passes(self):
        fib = circle_fiber(256, circumference=4 * math.pi)
        u2 = np.cos(0.5 * fib.x) + 0.2 * np.sin(fib.x)
        rep = converse_deduction_check(1.0, fib, u2, tol=60 * fib.h**2 + 1e-6)
        assert rep.passed

    def test_weighted_fiber_model(self):
        # the sin-weighted window satisfies its own bound for any smooth u2
        fib = weighted_interval_fiber(201, 1.0)
        rng = np.random.default_rng(9)
        for _ in range(5):
            rep = converse_deduction_check(2.0, fib, trig(rng, fib.x), tol=60 * fib.h**2 + 1e-6)
            assert rep.passed

    def test_graph_flavor_shift_invariance(self):
        # the constant shift used in the deduction leaves all terms unchanged
        g = cycle_graph(48)
        rng = np.random.default_rng(10)
        u = rng.standard_normal(48)
        rep1 = converse_deduction_check(2.0, g, u, tol=10.0)
        rep2 = converse_deduction_check(2.0, g, u + 3.7, tol=10.0)
        assert rep1.min_residual == pytest.approx(rep2.min_residual, abs=1e-10)
        assert rep1.flavor == "graph"


def test_fine_field_built_once_per_member(monkeypatch):
    # each member costs one fine and one coarse evaluation; the two fine masks share one field
    from conecheck.gamma_calc import grid

    calls = []
    evaluate = grid.gamma2_2d

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(grid, "gamma2_2d", counting)
    spec = cone_grid(1.0, 2.0, 81, circle_fiber(32))
    rng = np.random.default_rng(3)
    members = [[(trig(rng, spec.r), trig(rng, spec.fiber.x))] for _ in range(3)]
    for (u1, u2), in members:
        warped_gamma2_identity_check(spec, spec.warp(), u1, u2)
    assert calls == [(81, 32), (41, 16)] * 3
    calls.clear()
    rep = sharp_gamma2_estimate_check(spec, members, tol=1.0)
    assert sorted(calls) == [(41, 16)] * 3 + [(81, 32)] * 3
    assert rep.min_slack_fine_matched >= rep.min_slack
