import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conecheck.mms import (
    FiniteMMS,
    circle_mms,
    cone,
    diameter,
    interval_model_mms,
    load_mms_json,
    midpoints,
    radial_grid,
    save_mms_json,
    suspension_check,
    validate,
    warped_product,
)


def _path_metric(n):
    """Distances |i - j| of n atoms on a line."""
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


def two_point(d=1.0):
    return FiniteMMS(("a", "b"), np.array([[0.0, d], [d, 0.0]]), np.array([1.0, 1.0]))


class TestValidate:
    def test_valid_two_point(self):
        assert validate(two_point()) == []

    def test_symmetry_defect(self):
        m = FiniteMMS(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]), np.ones(2))
        kinds = {v.kind for v in validate(m)}
        assert "symmetry" in kinds

    def test_triangle_defect(self):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        m = FiniteMMS(("a", "b", "c"), d, np.ones(3))
        viols = validate(m)
        assert any(v.kind == "triangle" for v in viols)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), where=st.integers(0, 35), in_dist=st.booleans())
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_at_construction(self, bad, n, where, in_dist):
        d, w = _path_metric(n), np.ones(n)
        if in_dist:
            d.flat[where % d.size] = bad
        else:
            w[where % n] = bad
        with pytest.raises(ValueError, match="finite"):
            FiniteMMS(tuple(range(n)), d, w)

    def test_zero_weight_flagged_when_disallowed(self):
        m = FiniteMMS(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        assert validate(m) == []
        assert any(v.kind == "weight" for v in validate(m, allow_zero_weight=False))


class TestRadialGrid:
    def test_nodes_inside_interval(self):
        g = radial_grid(1.0, 2.0, 50)
        assert np.all(g.nodes > 0) and np.all(g.nodes < math.pi)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.cell_weights > 0)

    def test_quadrature_second_order(self):
        # integral of sin^2 over (0, pi) is pi/2
        for n in (100, 200):
            g = radial_grid(1.0, 2.0, n)
            err = abs(g.cell_weights.sum() - math.pi / 2)
            assert err <= 2.0 * (math.pi / n) ** 2

    def test_kneg_requires_rmax(self):
        with pytest.raises(ValueError):
            radial_grid(0.0, 1.0, 10)
        g = radial_grid(-1.0, 1.0, 10, r_max=2.0)
        assert g.r_max == pytest.approx(2.0)


class TestCone:
    def test_cone_over_point_is_weighted_ray(self):
        pt = FiniteMMS(("p",), np.zeros((1, 1)), np.array([1.0]))
        g = radial_grid(0.0, 2.0, 16, r_max=2.0)
        c = cone(pt, 0.0, 2.0, g)
        # body distances are |s - t|, weights r^2 h
        body = c.dist[:16, :16]
        assert np.allclose(body, np.abs(g.nodes[:, None] - g.nodes[None, :]))
        assert np.allclose(c.weight[:16], g.nodes**2 * g.h)
        assert c.weight[16] == 0.0  # apex atom

    def test_flat_formula(self):
        fib = two_point(math.pi)
        g = radial_grid(0.0, 1.0, 8, r_max=2.0)
        c = cone(fib, 0.0, 1.0, g)
        # s = t = nodes[3]: antipodal fiber points sit at distance s + t
        i, j = 3 * 2 + 0, 3 * 2 + 1
        assert c.dist[i, j] == pytest.approx(2 * g.nodes[3])

    def test_unit_curvature_equator(self):
        # at s = t = pi/2 the cone distance equals the capped fiber distance
        fib = circle_mms(8, 1.0)
        g = radial_grid(1.0, 1.0, 11)  # odd: middle node exactly pi/2
        c = cone(fib, 1.0, 1.0, g)
        mid = 5
        for a in range(8):
            for b in range(8):
                got = c.dist[mid * 8 + a, mid * 8 + b]
                assert got == pytest.approx(min(fib.dist[a, b], math.pi), abs=1e-12)

    def test_metric_axioms(self):
        fib = circle_mms(10, 1.0)
        g = radial_grid(1.0, 2.0, 8)
        c = cone(fib, 1.0, 2.0, g)
        assert validate(c, slack=1e-9) == []

    def test_product_mass(self):
        fib = circle_mms(10, 1.0)
        g = radial_grid(1.0, 2.0, 8)
        c = cone(fib, 1.0, 2.0, g)
        assert c.total_mass() == pytest.approx(g.cell_weights.sum() * fib.weight.sum(), rel=1e-14)

    def test_monotone_in_fiber_distance(self):
        g = radial_grid(1.0, 1.0, 6)
        s, t = g.nodes[2], g.nodes[4]
        prev = -1.0
        for d in np.linspace(0, math.pi, 40):
            fib = two_point(float(d)) if d > 0 else FiniteMMS(
                ("a", "b"), np.zeros((2, 2)), np.ones(2)
            )
            c = cone(fib, 1.0, 1.0, g)
            val = c.dist[2 * 2 + 0, 4 * 2 + 1]
            assert val >= prev - 1e-12
            prev = val

    def test_ray_restriction_exact(self):
        fib = circle_mms(6, 1.0)
        g = radial_grid(0.0, 1.0, 12, r_max=3.0)
        c = cone(fib, 0.0, 1.0, g)
        for i in range(12):
            for j in range(12):
                assert c.dist[i * 6 + 2, j * 6 + 2] == pytest.approx(
                    abs(g.nodes[i] - g.nodes[j]), abs=1e-12
                )

    def test_grid_mismatch_rejected(self):
        fib = two_point()
        g = radial_grid(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            cone(fib, 1.0, 2.0, g)


class TestDiameterMidpoints:
    def test_single_point(self):
        pt = FiniteMMS(("p",), np.zeros((1, 1)), np.array([1.0]))
        assert diameter(pt) == 0.0

    def test_circle_diameter(self):
        c = circle_mms(100, 1.0)
        assert diameter(c) == pytest.approx(math.pi, abs=1e-12)

    def test_cone_diameter_is_apex_pair(self):
        fib = circle_mms(12, 1.0)
        g = radial_grid(1.0, 1.0, 10)
        c = cone(fib, 1.0, 1.0, g)
        assert diameter(c) == pytest.approx(math.pi, abs=1e-12)

    def test_midpoint_of_self(self):
        m = two_point()
        assert midpoints(m, [0], [0], 0.0).tolist() == [[True, False]]

    def test_path_midpoint(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        m = FiniteMMS(("0", "1", "2"), d, np.ones(3))
        assert midpoints(m, [0], [2], 0.0).tolist() == [[False, True, False]]

    def test_circle_antipodes_two_midpoints(self):
        n = 8
        c = circle_mms(n, 1.0)
        got = midpoints(c, np.array([0, 1]), np.array([n // 2, 1 + n // 2]), 0.0)
        assert got.shape == (2, n)
        for row, (i, j) in zip(got, [(0, n // 2), (1, 1 + n // 2)]):
            # brute force
            half = c.dist[i, j] / 2
            brute = [abs(c.dist[i, k] - half) == 0 and abs(c.dist[k, j] - half) == 0
                     for k in range(n)]
            assert row.tolist() == brute
            assert row.sum() == 2

    def test_empty_is_valid(self):
        m = two_point(1.0)
        assert not midpoints(m, [0], [1], 0.0).any()


class TestModels:
    def test_circle_square_pattern(self):
        c = circle_mms(4, 1.0)
        assert c.dist[0, 1] == pytest.approx(math.pi / 2)
        assert c.dist[0, 2] == pytest.approx(math.pi)
        assert np.allclose(c.weight, math.pi / 2)

    def test_interval_uniform_weights(self):
        m = interval_model_mms(1.0, 0.0, 32)
        assert np.allclose(m.weight, math.pi / 32)

    def test_interval_mass_quadrature(self):
        from scipy.integrate import quad

        exact, _ = quad(lambda r: math.sin(r) ** 2, 0, math.pi)
        for n in (50, 200):
            m = interval_model_mms(1.0, 2.0, n)
            assert abs(m.total_mass() - exact) <= 2.0 * (math.pi / n) ** 2


class TestWarpedProduct:
    def test_unwarped_product_metric(self):
        fib = circle_mms(12, 0.25)
        g = radial_grid(0.0, 0.0, 20, r_max=2.0)
        w = warped_product(g, np.ones(20), fib, 0.0)
        i, j = 3 * 12 + 0, 15 * 12 + 3
        dr = abs(g.nodes[15] - g.nodes[3])
        df = fib.dist[0, 3]
        assert w.dist[i, j] == pytest.approx(math.hypot(dr, df), rel=1e-9)

    def test_against_cone_with_order_one_convergence(self):
        errs, meshes = [], []
        for n, m in ((8, 12), (16, 24), (32, 48)):
            fib = circle_mms(m, 1.0)
            g = radial_grid(1.0, 1.0, n)
            c = cone(fib, 1.0, 1.0, g)
            w = warped_product(g, np.sin(g.nodes), fib, 1.0)
            nb = n * m
            errs.append(float(np.max(np.abs(w.dist - c.dist[:nb, :nb]))))
            meshes.append(g.h + 2 * math.pi / m)
        C = max(e / m for e, m in zip(errs, meshes))
        print(f"warped-vs-cone constant C = {C:.3f}, errors {errs}")
        assert C <= 0.5
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 0.8

    def test_collapsed_end_routes_through_it(self):
        fib = two_point(math.pi)
        g = radial_grid(1.0, 1.0, 40)
        w = warped_product(g, np.sin(g.nodes), fib, 1.0)
        r_idx = 20
        r = g.nodes[r_idx]
        got = w.dist[r_idx * 2, r_idx * 2 + 1]
        # brute-force shortest alternatives: direct ring arc vs path through
        # the (nearly) collapsed end
        direct = math.sin(r) * math.pi
        through_end = 2 * (r - g.nodes[0]) + math.sin(g.nodes[0]) * math.pi
        assert got <= min(direct, through_end) + 1e-9
        assert got >= 2 * r - 3 * g.h  # continuum geodesic through the apex

    def test_measure(self):
        fib = circle_mms(6, 1.0)
        g = radial_grid(1.0, 2.0, 10)
        f = np.sin(g.nodes)
        w = warped_product(g, f, fib, 2.0)
        assert np.allclose(w.weight, np.outer(f**2 * g.h, fib.weight).ravel())


class TestSuspension:
    def test_round_trip_on_cone(self):
        fib = circle_mms(40, 1.0)
        g = radial_grid(1.0, 1.0, 25)
        c = cone(fib, 1.0, 1.0, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, tol=2 * g.h, N=1.0)
        assert rep.is_suspension
        assert rep.max_residual <= 2 * g.h
        assert rep.equator.n == 40
        assert np.max(np.abs(rep.equator.dist - fib.dist)) <= 2 * g.h
        rel = np.abs(rep.equator.weight - fib.weight) / fib.weight
        assert np.max(rel) <= 0.05

    def test_two_point_degenerate_suspension(self):
        m = two_point(math.pi)
        rep = suspension_check(m, 0, 1, tol=1e-6, N=0.0)
        assert rep.is_suspension
        assert rep.equator is None
        assert rep.max_residual == 0.0

    def test_flat_torus_rejected(self):
        # product of two circles, max distance < pi: stage 1 must fail
        n1 = n2 = 8
        c1, c2 = circle_mms(n1, 0.5), circle_mms(n2, 0.5)
        d = np.sqrt(
            (c1.dist[:, None, :, None] ** 2 + c2.dist[None, :, None, :] ** 2)
        ).reshape(n1 * n2, n1 * n2)
        t = FiniteMMS(
            tuple(f"{i},{j}" for i in range(n1) for j in range(n2)),
            d,
            np.ones(n1 * n2),
        )
        x, y = np.unravel_index(np.argmax(t.dist), t.dist.shape)
        rep = suspension_check(t, int(x), int(y), tol=0.2, N=1.0)
        assert not rep.is_suspension
        assert rep.failed_stage in ("pole-distance", "geodesics-through-poles")

    @pytest.mark.parametrize("x, y", [(-1, 1), (0, 2), (2, 0)])
    def test_poles_must_be_atoms(self, x, y):
        with pytest.raises(ValueError, match="poles"):
            suspension_check(two_point(math.pi), x, y, tol=1e-6)

    def test_never_raises_on_geometric_failure(self):
        m = two_point(1.0)  # poles not even at distance pi
        rep = suspension_check(m, 0, 1, tol=1e-3)
        assert not rep.is_suspension and rep.failed_stage == "pole-distance"


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        m = circle_mms(6, 1.0)
        p = tmp_path / "m.json"
        save_mms_json(m, p)
        back = load_mms_json(p)
        assert back.labels == m.labels
        assert np.allclose(back.dist, m.dist)
        assert np.allclose(back.weight, m.weight)

    def test_json_rejects_asymmetric(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "labels": ["a", "b"],
            "dist": [[0.0, 1.0], [2.0, 0.0]],
            "weight": [1.0, 1.0],
        }))
        with pytest.raises(ValueError):
            load_mms_json(p)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 6), where=st.integers(0, 35), in_dist=st.booleans(),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_json_rejects_non_finite(self, tmp_path, n, where, in_dist, bad):
        # json writes NaN, Infinity and -Infinity, and reads them back as floats
        d, w = _path_metric(n), np.ones(n)
        if in_dist:
            d.flat[where % d.size] = bad  # any entry, the diagonal included
        else:
            w[where % n] = bad
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"labels": list(range(n)), "dist": d.tolist(), "weight": w.tolist()}))
        with pytest.raises(ValueError, match="finite"):
            load_mms_json(p)

    def test_json_enforces_zero_diagonal(self, tmp_path):
        p = tmp_path / "diag.json"
        p.write_text(json.dumps({
            "labels": ["a", "b"],
            "dist": [[1e-12, 1.0], [1.0, 1e-12]],
            "weight": [1.0, 1.0],
        }))
        m = load_mms_json(p)
        assert m.dist[0, 0] == 0.0
