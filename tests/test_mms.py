import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conecheck import mms
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
from conecheck.model_fns import cos_k, sin_k


def _path_metric(n):
    """Distances |i - j| of n atoms on a line."""
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


def two_point(d=1.0):
    return FiniteMMS(("a", "b"), np.array([[0.0, d], [d, 0.0]]), np.array([1.0, 1.0]))


def _euclidean_fiber(n, seed):
    """n random points of the square [0, 2]^2: every distance distinct and below pi."""
    x, y = np.random.default_rng(seed).uniform(0.0, 2.0, (2, n))
    return FiniteMMS(tuple(range(n)), np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y)),
                     np.ones(n))


# sizes at the edges of one and two sweep blocks, and of 48-row blocks, the other size measured
_BLOCK_SIZES = sorted({0, 1, 2, 47, 48, 49, 99, mms._VALIDATE_BLOCK - 1, mms._VALIDATE_BLOCK,
                       mms._VALIDATE_BLOCK + 1, 2 * mms._VALIDATE_BLOCK + 3})


def _validate_oracle(m):
    """validate as a plain loop over every intermediate j, in its report order."""
    d, n = m.dist, m.n
    out = [mms.Violation("diagonal", (i,), float(abs(d[i, i])))
           for i in range(n) if abs(d[i, i]) > 1e-9]
    out += [mms.Violation("symmetry", (i, k), float(abs(d[i, k] - d[k, i])))
            for i in range(n) for k in range(i + 1, n) if abs(d[i, k] - d[k, i]) > 1e-9]
    out += [mms.Violation("negative-distance", (i, k), float(-d[i, k]))
            for i in range(n) for k in range(i + 1, n) if d[i, k] < -1e-9]
    out += [mms.Violation("weight", (i,), float(-m.weight[i])) for i in range(n) if m.weight[i] < 0]
    ds = 0.5 * (d + d.T)
    worst = np.zeros((n, n))
    for j in range(n):
        worst = np.maximum(worst, ds - (ds[:, [j]] + ds[[j], :]))
    out += [mms.Violation("triangle", (i, k), float(worst[i, k]))
            for i in range(n) for k in range(i + 1, n) if worst[i, k] > 1e-9]
    return out


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

    def test_triangle_magnitudes_match_the_plain_sweep(self):
        n = 30
        d = _path_metric(n) * np.random.default_rng(3).uniform(0.5, 1.5, (n, n))
        d = 0.5 * (d + d.T)
        worst = np.zeros((n, n))
        for j in range(n):
            worst = np.maximum(worst, d - (d[:, [j]] + d[[j], :]))
        expect = [((int(i), int(k)), float(worst[i, k]))
                  for i, k in zip(*np.nonzero(np.triu(worst, 1) > 1e-9))]
        got = [(v.indices, v.magnitude) for v in validate(FiniteMMS(tuple(range(n)), d, np.ones(n)))
               if v.kind == "triangle"]
        assert expect and got == expect

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_violations_match_the_per_j_sweep(self, n, seed):
        # asymmetric noise, with planted triangle, negative-distance, diagonal and weight defects
        rng = np.random.default_rng(seed)
        d = _path_metric(n) * rng.uniform(0.5, 1.5, (n, n))
        p = rng.permutation(n)
        if n >= 4:
            d[p[0], p[1]] = d[p[1], p[0]] = 4.0 * n  # longer than any two-step path
            d[p[2], p[3]] = d[p[3], p[2]] = -0.25
            d[p[0], p[0]], d[p[1], p[1]] = 0.3, 1e-10  # one over the slack, one under
        m = FiniteMMS(tuple(range(n)), d, rng.uniform(-0.2, 1.0, n))
        got = validate(m)
        assert got == _validate_oracle(m)
        if n >= 4:
            kinds = {v.kind for v in got}
            assert kinds == {"diagonal", "symmetry", "negative-distance", "weight", "triangle"}

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_clean_spaces_across_block_edges(self, n):
        assert validate(FiniteMMS(tuple(range(n)), _path_metric(n), np.ones(n))) == []

    def test_weight_is_a_copy_of_the_callers_array(self):
        w = np.ones(4)
        space = FiniteMMS(tuple(range(4)), _path_metric(4), w)
        assert w.flags.writeable and not space.weight.flags.writeable
        w[0] = 0.0
        assert np.array_equal(space.weight, np.ones(4))

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

    @pytest.mark.parametrize("in_dist", [True, False], ids=["dist", "weight"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_each_non_finite_value_is_named(self, bad, in_dist, tmp_path):
        # one bad entry among finite ones, at construction and through a space file
        d, w = _path_metric(4), np.ones(4)
        if in_dist:
            d[1, 3] = d[3, 1] = bad
        else:
            w[2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            FiniteMMS(tuple(range(4)), d, w)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"labels": list(range(4)), "dist": d.tolist(), "weight": w.tolist()}))
        with pytest.raises(ValueError, match="must be finite"):
            load_mms_json(p)

    def test_empty_space_constructs(self):
        m = FiniteMMS((), np.zeros((0, 0)), np.zeros(0))
        assert m.n == 0 and m.total_mass() == 0.0 and validate(m) == []

    def test_zero_weight_flagged_when_disallowed(self):
        m = FiniteMMS(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        assert validate(m) == []  # zero weight is allowed, as for an apex
        neg = FiniteMMS(("a", "b"), m.dist, np.array([1.0, -0.5]))
        assert [v.kind for v in validate(neg)] == ["weight"]


def _plain(m):
    """``m`` with no isometry: validate sweeps every row."""
    return FiniteMMS(m.labels, m.dist.copy(), m.weight)


def _maps_onto_itself(m):
    sigma = m.isometry
    return np.array_equal(m.dist[sigma][:, sigma].view(np.int64), m.dist.view(np.int64))


def _rotating_space(nr, nf, fixed, seed, relabel=False):
    """Random, asymmetric, non-metric distances invariant under (a, x) -> (a, x+1 mod nf) on
    nr rings of nf atoms, with ``fixed`` atoms that the rotation keeps; ``relabel`` scatters
    the orbits over the indices by a random permutation."""
    rng = np.random.default_rng(seed)
    ring = rng.uniform(0.2, 2.0, (nr, nr, nf))
    a, x, b, y = np.ogrid[:nr, :nf, :nr, :nf]
    body = ring[a, b, (y - x) % nf].reshape(nr * nf, nr * nf)
    n = nr * nf + fixed
    d = np.zeros((n, n))
    d[: nr * nf, : nr * nf] = body
    d[nr * nf :, : nr * nf] = np.repeat(rng.uniform(0.5, 3.0, (fixed, nr)), nf, axis=1)
    d[: nr * nf, nr * nf :] = np.repeat(rng.uniform(0.5, 3.0, (fixed, nr)), nf, axis=1).T
    d[nr * nf :, nr * nf :] = rng.uniform(0.5, 1.5, (fixed, fixed))
    np.fill_diagonal(d, 0.0)
    sigma = np.r_[(np.arange(nr)[:, None] * nf + np.roll(np.arange(nf), -1)).ravel(), nr * nf : n]
    if relabel:  # atom p of the new labels is atom perm[p] of the old
        perm = rng.permutation(n)
        d, sigma = d[perm][:, perm], np.argsort(perm)[sigma[perm]]
    return FiniteMMS(tuple(range(n)), d, np.ones(n), isometry=sigma)


def _plant_on_orbit(m, a, b, by):
    """Lengthen d(a, b) by ``by`` on every pair of its orbit, keeping the isometry exact."""
    d, sigma = m.dist.copy(), m.isometry
    for _ in range(m.n):
        d[a, b] = d[b, a] = m.dist[a, b] + by
        a, b = sigma[a], sigma[b]
    return FiniteMMS(m.labels, d, m.weight, isometry=sigma)


def _cone_over_circle(K):
    return cone(circle_mms(12, 1.0), K, 1.0, radial_grid(K, 1.0, 5))


_ROTATING = {
    "cone K=1": lambda: _cone_over_circle(1.0),
    "cone K=0": lambda: _cone_over_circle(0.0),
    "cone K=-1": lambda: _cone_over_circle(-1.0),
    "big-circle cone": lambda: cone(circle_mms(10, 2.0), 1.0, 2.0, radial_grid(1.0, 2.0, 6)),
    "warped product": lambda: _sin_warped(radial_grid(1.0, 1.0, 6), circle_mms(8, 1.0)),
    "circle": lambda: circle_mms(15, 1.0),
}


class TestOrbitSweep:
    """validate with an isometry sweeps one row per orbit and reports what the full sweep does."""

    @pytest.mark.parametrize("name", sorted(_ROTATING))
    def test_each_construction_maps_its_distances_onto_themselves(self, name):
        m = _ROTATING[name]()
        assert m.isometry is not None and not m.isometry.flags.writeable
        assert _maps_onto_itself(m)

    @pytest.mark.parametrize("name", sorted(_ROTATING))
    def test_constructions_match_the_plain_sweep(self, name):
        m = _ROTATING[name]()
        assert validate(m) == validate(_plain(m)) == _validate_oracle(m)

    @pytest.mark.parametrize("name", sorted(_ROTATING))
    def test_a_defect_planted_on_a_whole_orbit_is_spread(self, name):
        m = _ROTATING[name]()
        a, b = 1, m.n - 3
        bent = _plant_on_orbit(m, a, b, float(m.dist.max()))
        assert _maps_onto_itself(bent)
        got = validate(bent)
        assert got == validate(_plain(bent)) == _validate_oracle(bent)
        # every rotated copy of (a, b) is reported, not only the one the sweep saw
        pairs = {v.indices for v in got if v.kind == "triangle"}
        for _ in range(m.n):
            assert (min(a, b), max(a, b)) in pairs
            a, b = m.isometry[a], m.isometry[b]

    @pytest.mark.parametrize("relabel", [False, True], ids=["ordered", "relabelled"])
    @pytest.mark.parametrize("nr, nf, fixed", [(1, 9, 0), (3, 4, 2), (mms._VALIDATE_BLOCK + 2, 3, 1),
                                               (2 * mms._VALIDATE_BLOCK - 1, 2, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_non_metric_rotating_spaces_match_the_oracle(self, nr, nf, fixed, seed, relabel):
        m = _rotating_space(nr, nf, fixed, seed, relabel)
        assert _maps_onto_itself(m)
        sigma, order, _ = mms._orbits(0.5 * (m.dist + m.dist.T), m.isometry)
        assert order == nf and sigma is m.isometry
        got = validate(m)
        assert {v.kind for v in got} >= {"symmetry", "triangle"}
        assert got == validate(_plain(m)) == _validate_oracle(m)

    def test_a_stale_isometry_falls_back_to_every_row(self):
        m = _plant_on_orbit(_cone_over_circle(1.0), 3, 40, 2.0)
        d = m.dist.copy()
        d[5, 50] = d[50, 5] = d[5, 50] + 2.0  # one pair off its orbit
        stale = FiniteMMS(m.labels, d, m.weight, isometry=m.isometry)
        assert not _maps_onto_itself(stale)
        assert mms._orbits(d, stale.isometry)[1] == 1
        assert validate(stale) == validate(_plain(stale)) == _validate_oracle(stale)

    def test_a_wrong_permutation_falls_back_to_every_row(self):
        m = _rotating_space(3, 4, 2, seed=2)
        wrong = FiniteMMS(m.labels, m.dist, m.weight,
                          isometry=np.random.default_rng(0).permutation(m.n))
        assert mms._orbits(0.5 * (m.dist + m.dist.T), wrong.isometry)[1] == 1
        assert validate(wrong) == _validate_oracle(m)

    def test_an_isometry_of_order_above_n_falls_back(self):
        # (0 1)(2 3 4) has order 6 on 5 atoms; d(0, 1) is longer than the way through 2
        d = np.ones((5, 5)) - np.eye(5)
        d[0, 1] = d[1, 0] = 5.0
        for sigma, order in (([1, 0, 3, 4, 2], 1), ([1, 0, 2, 3, 4], 2), ([0, 1, 3, 4, 2], 3)):
            m = FiniteMMS(tuple(range(5)), d, np.ones(5), isometry=sigma)
            assert _maps_onto_itself(m) and mms._orbits(d, m.isometry)[1] == order
            assert validate(m) == _validate_oracle(m)
            assert [v.indices for v in validate(m)] == [(0, 1)]

    @pytest.mark.parametrize("isometry", [[0, 0, 1], [0, 1], [1, 2, 3], [-1, 0, 1],
                                          [0.0, 1.0, 2.0], [True, False, True], [[0, 1, 2]]],
                             ids=["repeat", "short", "past-n", "negative", "float", "bool", "2-d"])
    def test_a_non_permutation_is_rejected(self, isometry):
        with pytest.raises(ValueError, match="isometry must be a permutation of the 3 atoms"):
            FiniteMMS(tuple(range(3)), _path_metric(3), np.ones(3), isometry=isometry)

    def test_the_isometry_is_a_read_only_copy(self):
        sigma = np.array([2, 0, 1], dtype=np.int32)
        m = FiniteMMS(tuple(range(3)), 1.0 - np.eye(3), np.ones(3), isometry=sigma)
        sigma[:] = [0, 1, 2]
        assert m.isometry.tolist() == [2, 0, 1] and m.isometry.dtype == np.intp
        assert not m.isometry.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: cone(_euclidean_fiber(12, 0), 1.0, 1.0, radial_grid(1.0, 1.0, 4)),
        lambda: cone(interval_model_mms(1.0, 1.0, 9), 0.0, 1.0, radial_grid(0.0, 1.0, 4)),
        lambda: interval_model_mms(1.0, 1.0, 9),
        lambda: warped_product(radial_grid(0.0, 0.0, 10, r_max=2.0), np.ones(10), _LINE3, 1.0),
        lambda: warped_product(radial_grid(1.0, 1.0, 6), np.ones(6), _perturbed_circle(12), 1.0),
    ], ids=["euclidean-cone", "interval-cone", "interval", "line-warped", "perturbed-warped"])
    def test_spaces_without_a_rotation_carry_none(self, make):
        assert make().isometry is None


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

    def test_kneg_defaults_to_length_pi(self):
        for K in (0.0, -1.0):
            assert radial_grid(K, 1.0, 10).r_max == pytest.approx(math.pi)
        g = radial_grid(-1.0, 1.0, 10, r_max=2.0)
        assert g.r_max == pytest.approx(2.0)


def _weight():
    w = np.ones(4)
    return [w], [FiniteMMS(tuple(range(4)), _path_metric(4), w).weight]


def _isometry():
    sigma = np.roll(np.arange(4), -1)
    return [sigma], [FiniteMMS(tuple(range(4)), circle_mms(4, 1.0).dist, np.ones(4), sigma).isometry]


def _radial_grid():
    g = radial_grid(1.0, 1.0, 5)
    nodes, w = g.nodes.copy(), g.cell_weights.copy()
    kept = mms.RadialGrid(K=g.K, N=g.N, n=g.n, nodes=nodes, cell_weights=w, h=g.h, r_max=g.r_max)
    return [nodes, w], [kept.nodes, kept.cell_weights]


def _density():
    from conecheck.transport import Density

    mass = np.full(4, 0.25)
    return [mass], [Density(circle_mms(4, 1.0), mass).mass]


def _coupling():
    from scipy.sparse import coo_array
    from conecheck.transport import Coupling, Density

    mu = Density(circle_mms(4, 1.0), np.full(4, 0.25))
    dense, sparse = np.diag(mu.mass), coo_array(np.diag(mu.mass))
    kept = [Coupling(plan, mu, mu).plan for plan in (dense, sparse)]
    return [dense, sparse.data, sparse.row, sparse.col], [
        a for plan in kept for a in (plan.data, plan.row, plan.col)]


def _sturm_liouville():
    from conecheck.spectral1d import SturmLiouville1D

    a, b = np.ones(5), np.ones(4)
    op = SturmLiouville1D(radial_grid(1.0, 1.0, 5), a, b)
    return [a, b], [op.a_diag, op.a_off, op.m_diag]


def _specs():
    from conecheck.gamma_calc.grid import ConeGridSpec, FiberSpec

    x, r = np.arange(4.0), np.arange(1.0, 5.0)
    spec = ConeGridSpec(r=r, fiber=FiberSpec(x=x, periodic=True), K=1.0, nu=1.0)
    return [x, r], [spec.fiber.x, spec.r]


def _weighted_graph():
    from conecheck.gamma_calc.graph import WeightedGraph

    m, w = np.ones(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    g = WeightedGraph(m, w)
    return [m, w], [g.vertex_measure, g.edge_weights]


@pytest.mark.parametrize("make", [_weight, _isometry, _radial_grid, _density, _coupling,
                                  _sturm_liouville, _specs, _weighted_graph],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_a_value_owns_its_arrays(make):
    # a value checks its arrays once, so the caller's arrays cannot change them afterwards
    callers, held = make()
    before = [a.copy() for a in held]
    for a in callers:
        a.flags.writeable = True  # the caller may make its own array writable again
        a.flat[0] = -5
    assert all(np.array_equal(a, b) for a, b in zip(held, before))
    assert not any(a.flags.writeable for a in held)


def test_dist_and_spectra_are_frozen_in_place():
    # the two exceptions: a cone's matrix is not copied, nor are arrays fresh from LAPACK
    from conecheck.spectral1d import Spectrum

    d = _path_metric(4)
    assert FiniteMMS(tuple(range(4)), d, np.ones(4)).dist is d and not d.flags.writeable
    arrays = np.ones(3), np.asfortranarray(np.eye(3)), np.zeros(3)
    spec = Spectrum(*arrays)
    held = spec.eigenvalues, spec.eigenvectors, spec.residuals
    assert all(a is b and not a.flags.writeable for a, b in zip(held, arrays))


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
        assert validate(c) == []

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

    @staticmethod
    def _broadcast_body(fiber, K, grid):
        """Oracle: the closed cone formula as one (nr, nf, nr, nf) broadcast."""
        r, dcap = grid.nodes, np.minimum(fiber.dist, math.pi)
        s, t = r[:, None, None, None], r[None, None, :, None]
        if K == 0:
            body = np.sqrt(np.maximum(s**2 + t**2 - 2.0 * s * t * np.cos(dcap)[None, :, None, :], 0.0))
        elif K > 0:
            arg = (cos_k(K, s) * cos_k(K, t)
                   + K * sin_k(K, s) * sin_k(K, t) * np.cos(dcap)[None, :, None, :])
            body = np.arccos(np.clip(arg, -1.0, 1.0)) / math.sqrt(K)
        else:  # the haversine form
            arg = (cos_k(K, np.abs(s - t))
                   + -2.0 * K * sin_k(K, s) * sin_k(K, t) * (np.sin(0.5 * dcap) ** 2)[None, :, None, :])
            body = np.arccosh(arg) / math.sqrt(-K)
        nbody = grid.n * fiber.n
        return body.reshape(nbody, nbody)

    @pytest.mark.parametrize("N", [0.5, 1.0, 2.5, 3.0])
    @pytest.mark.parametrize("K", [1.0, 4.0, 0.0, -1.0, -20.0])
    @pytest.mark.parametrize("fiber", [circle_mms(12, 1.0), interval_model_mms(1.0, 1.0, 9),
                                       _euclidean_fiber(30, 0), circle_mms(12, 2.0)],
                             ids=["circle", "interval", "euclidean", "big-circle"])
    def test_matches_the_broadcast_bit_for_bit(self, fiber, K, N):
        # distinct fiber distances: all of them on the euclidean fiber, merged by the cap at pi
        # on the big circle
        g = radial_grid(K, N, 10)
        c = cone(fiber, K, N, g)
        nbody = g.n * fiber.n
        body = self._broadcast_body(fiber, K, g)
        np.fill_diagonal(body, 0.0)
        assert np.array_equal(c.dist[:nbody, :nbody], body)

    @pytest.mark.parametrize("K", [-1.0, -20.0, -100.0])
    def test_hyperbolic_closed_forms(self, K):
        fib, k = circle_mms(16, 1.0), math.sqrt(-K)
        g = radial_grid(K, 1.0, 16)
        c = cone(fib, K, 1.0, g)
        body = c.dist[:256, :256].reshape(16, 16, 16, 16)
        s, theta = g.nodes, fib.dist
        # equal radius: 2 asinh(sinh(ks) sin(theta/2)) / k; same ray: |s - t|
        ring = 2.0 * np.arcsinh(np.sinh(k * s)[:, None, None] * np.sin(0.5 * theta)) / k
        got_ring = body[np.arange(16), :, np.arange(16), :]
        np.testing.assert_allclose(got_ring, ring, rtol=1e-12, atol=0.0)
        ray = np.abs(s[:, None] - s[None, :])
        for x in (0, 5):
            np.testing.assert_allclose(body[:, x, :, x], ray, rtol=1e-12, atol=0.0)

    def test_build_peak_memory_is_about_one_matrix(self):
        # a circle has 17 distinct distances; the euclidean fiber's 19 900 are all distinct
        for fib, K, nr, bound in ((circle_mms(32, 1.0), 0.0, 128, 1.25),
                                  (_euclidean_fiber(200, 1), 1.0, 10, 1.3)):
            g = radial_grid(K, 1.0, nr)
            tracemalloc.start()
            try:
                c = cone(fib, K, 1.0, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * c.dist.nbytes

    def test_validate_peak_memory_is_about_one_matrix(self):
        # |d - d^T| and then the symmetrized ds share one buffer, beside an n x n bool mask
        c = cone(circle_mms(32, 1.0), 1.0, 1.0, radial_grid(1.0, 1.0, 25))
        tracemalloc.start()
        try:
            assert validate(c) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * c.dist.nbytes


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_warp_rejected(self, bad):
        g = radial_grid(1.0, 1.0, 6)
        f = np.sin(g.nodes)
        f[2] = bad
        with pytest.raises(ValueError, match="warp function must be finite"):
            warped_product(g, f, circle_mms(6, 1.0), 1.0)

    def test_measure(self):
        fib = circle_mms(6, 1.0)
        g = radial_grid(1.0, 2.0, 10)
        f = np.sin(g.nodes)
        w = warped_product(g, f, fib, 2.0)
        assert np.allclose(w.weight, np.outer(f**2 * g.h, fib.weight).ravel())


def _reference_warped(base, f, fiber):
    """One edge at a time, Dijkstra from every atom, the smaller of d[a, b] and d[b, a]:
    the matrix warped_product must equal."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    cap = mms._HOP_CAP
    nr, nf, h = base.n, fiber.n, base.h
    masked = np.where(np.eye(nf, dtype=bool), np.inf, fiber.dist)
    hops = np.argsort(masked, axis=1)[:, : min(cap, nf - 1)]
    rows, cols, vals = [], [], []
    for i in range(nr):
        for x in range(nf):
            a = i * nf + x
            for dj in range(1, min(cap, nr - 1) + 1):
                if i + dj < nr:
                    rows.append(a)
                    cols.append((i + dj) * nf + x)
                    vals.append(dj * h)
            for j in range(i, min(i + cap, nr - 1) + 1):
                fbar = float(f[i : j + 1].mean())
                for y in hops[x]:
                    b = j * nf + int(y)
                    if b > a:
                        rows.append(a)
                        cols.append(b)
                        vals.append(math.hypot((j - i) * h, fbar * fiber.dist[x, int(y)]))
    g = coo_matrix((vals, (rows, cols)), shape=(nr * nf, nr * nf))
    d = dijkstra(g.tocsr(), directed=False)
    return np.minimum(d, d.T)


def _perturbed_circle(n):
    c = circle_mms(n, 1.0)
    d = c.dist.copy()
    d[2, 5] = d[5, 2] = 1.01 * d[2, 5]
    return FiniteMMS(c.labels, d, c.weight)


_LINE3 = FiniteMMS(("a", "b", "c"), _path_metric(3), np.ones(3))
_ALL_ONES = FiniteMMS(tuple(range(12)), 1.0 - np.eye(12), np.ones(12))


class TestWarpedProductSources:
    """One Dijkstra column per radial cell when the graph turns with the fiber, exactly."""

    @pytest.fixture
    def sources(self, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(int(np.size(kwargs["indices"])))
            return dijkstra(*args, **kwargs)

        dijkstra = mms.dijkstra
        monkeypatch.setattr(mms, "dijkstra", spy)
        return seen

    # a two-atom fiber's one rotation is the swap, which maps its graph onto itself
    @pytest.mark.parametrize("nr", [7, 24])
    @pytest.mark.parametrize("fiber", [circle_mms(nf, 0.5) for nf in (3, 8, 9, 12, 24)]
                             + [two_point(math.pi)], ids=lambda fib: f"{fib.n}-atom")
    def test_rotating_fiber_runs_one_column(self, fiber, nr, sources):
        g = radial_grid(1.0, 1.0, nr)
        w = warped_product(g, np.sin(g.nodes), fiber, 1.0)
        assert sources == [nr]
        assert np.array_equal(w.dist, _reference_warped(g, np.sin(g.nodes), fiber))

    # a path fiber; one distance of a circle perturbed; all-equal distances,
    # where argsort's ties pick hop sets that do not rotate with the fiber
    @pytest.mark.parametrize("fiber", [_LINE3, _perturbed_circle(12), _ALL_ONES],
                             ids=["line", "perturbed-circle", "all-ones"])
    def test_other_fibers_run_every_atom(self, fiber, sources):
        g = radial_grid(0.0, 0.0, 10, r_max=2.0)
        f = np.exp(g.nodes)
        w = warped_product(g, f, fiber, 1.0)
        assert sources == [10 * fiber.n]
        assert np.array_equal(w.dist, _reference_warped(g, f, fiber))


@pytest.mark.parametrize("fiber", [circle_mms(24, 1.0), _perturbed_circle(12)],
                         ids=["rotating", "every-atom"])
def test_warped_product_is_symmetric_and_round_trips_bit_for_bit(fiber, tmp_path):
    # Dijkstra's two directions sum a path's edges in opposite orders; the
    # raw matrices here differ from their transposes in thousands of entries
    g = radial_grid(1.0, 1.0, 24)
    w = warped_product(g, np.sin(g.nodes), fiber, 1.0)
    assert np.array_equal(w.dist, w.dist.T)
    p = tmp_path / "w.json"
    save_mms_json(w, p)
    back = load_mms_json(p)
    assert np.array_equal(back.dist.view(np.int64), w.dist.view(np.int64))
    assert np.array_equal(back.weight.view(np.int64), w.weight.view(np.int64))


class TestSuspension:
    @pytest.mark.parametrize("N", [math.nan, math.inf, -1.0])
    def test_bad_exponent_rejected(self, N):
        m = two_point(math.pi)
        with pytest.raises(ValueError, match=f"finite and >= 0, got {N}"):
            suspension_check(m, 0, 1, tol=1e-6, N=N)

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

    @pytest.mark.parametrize("N", [1.0, 2.5])
    def test_equator_weights_match_the_per_atom_loop(self, N):
        fib = circle_mms(40, 1.0)
        g = radial_grid(1.0, N, 25)
        c = cone(fib, 1.0, N, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, tol=2 * g.h, N=N)
        theta = c.dist[c.n - 2]
        eq_weight, sin_mass = np.zeros(fib.n), np.zeros(fib.n)
        for p in range(c.n - 2):  # atom (i, x) projects to the equator atom over x
            eq_weight[p % fib.n] += c.weight[p]
            sin_mass[p % fib.n] += math.sin(theta[p]) ** N
        h = np.median(np.diff(np.unique(np.round(theta[:-2], 9))))
        np.testing.assert_allclose(rep.equator.weight, eq_weight / (sin_mass * h),
                                   rtol=1e-13, atol=0.0)

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

    @pytest.mark.parametrize("x, y", [(-1, 1), (0, 2), (2, 0), (0, None), (None, 1)])
    def test_poles_must_be_atoms(self, x, y):
        with pytest.raises(ValueError, match="poles"):
            suspension_check(two_point(math.pi), x, y, tol=1e-6)

    def test_never_raises_on_geometric_failure(self):
        m = two_point(1.0)  # poles not even at distance pi
        rep = suspension_check(m, 0, 1, tol=1e-3)
        assert not rep.is_suspension and rep.failed_stage == "pole-distance"

    @pytest.mark.parametrize("grid, nf", [(25, 100), (31, 64), (25, 40)])
    def test_law_of_cosines_matches_the_dense_residual_on_cones(self, grid, nf):
        g = radial_grid(1.0, 1.0, grid)
        c = cone(circle_mms(nf, 1.0), 1.0, 1.0, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, tol=2 * g.h, N=1.0)
        proj = np.r_[np.arange(c.n - 2) % nf, 0, 0]  # each meridian; the apexes tie, take 0
        got = rep.stage_residuals["law-of-cosines"]
        assert got == _law_of_cosines_oracle(c.dist, c.dist[c.n - 2], proj, rep.equator.dist)
        assert got <= 1e-15

    @pytest.mark.parametrize("n, rows", [(5, 8), (8, 8), (9, 8), (9, 1)],
                             ids=["below-one-block", "one-block", "one-block-plus-1", "row-blocks"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocked_law_of_cosines_is_bit_identical(self, n, rows, seed, monkeypatch):
        # an asymmetric-noise space against a random projection onto a smaller equator
        monkeypatch.setattr(mms, "_SUSPENSION_BLOCK", n * rows)
        rng = np.random.default_rng(seed)
        d = _path_metric(n) * rng.uniform(0.5, 1.5, (n, n))
        m = FiniteMMS(tuple(range(n)), d, np.ones(n))
        theta, proj = rng.uniform(0.0, math.pi, n), rng.integers(0, 3, n)
        eq = m.dist[:3, :3]
        got = mms._law_of_cosines_residual(m.dist, theta, proj, np.cos(eq))
        assert got == _law_of_cosines_oracle(m.dist, theta, proj, eq)

    def test_law_of_cosines_peak_is_below_half_the_matrix(self):
        g = radial_grid(1.0, 1.0, 25)
        c = cone(circle_mms(100, 1.0), 1.0, 1.0, g)
        tracemalloc.start()
        try:
            rep = suspension_check(c, c.n - 2, c.n - 1, tol=2 * g.h, N=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.is_suspension
        assert peak < 0.5 * c.dist.nbytes

    @pytest.mark.parametrize("grid", [8, 24])
    def test_even_grid_takes_the_lower_of_the_tied_levels(self, grid):
        g = radial_grid(1.0, 1.0, grid)
        c = cone(circle_mms(40, 1.0), 1.0, 1.0, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, tol=2 * g.h, N=1.0)
        assert rep.is_suspension, rep.stage_residuals
        assert rep.equator.labels == tuple(f"{grid // 2 - 1}:c{k}" for k in range(40))
        # the chords of latitude pi/2 - h/2 are read back as the fiber's own distances
        assert np.abs(rep.equator.dist - circle_mms(40, 1.0).dist).max() <= 1e-12
        assert rep.stage_residuals["law-of-cosines"] <= 1e-12

    def test_a_perturbed_distance_fails_the_law_of_cosines(self):
        g = radial_grid(1.0, 1.0, 25)
        c = cone(circle_mms(40, 1.0), 1.0, 1.0, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, tol=1e-6, N=1.0)
        assert rep.is_suspension, rep.stage_residuals
        assert rep.stage_residuals["law-of-cosines"] <= 1e-15
        assert rep.stage_residuals["equator-geodesic"] == pytest.approx(math.pi / 40, rel=1e-12)
        d = c.dist.copy()
        a, b = 5 * 40 + 3, 18 * 40 + 27  # off the poles and off the equator ring 12
        d[a, b] += 0.3
        d[b, a] = d[a, b]
        bent = FiniteMMS(c.labels, d, c.weight)
        rep = suspension_check(bent, c.n - 2, c.n - 1, tol=1e-6, N=1.0)
        assert rep.failed_stage == "law-of-cosines" and not rep.is_suspension
        assert list(rep.stage_residuals) == ["pole-distance", "geodesics-through-poles",
                                             "law-of-cosines"]
        assert rep.stage_residuals["law-of-cosines"] == pytest.approx(0.0864, abs=1e-4)

    @pytest.mark.parametrize("radius, stage, residual", [
        (0.5, None, math.pi / 80), (1.0, None, math.pi / 40),  # half the fiber step
        (1.5, "equator-geodesic", math.pi / 4), (2.0, "equator-geodesic", math.pi / 2)])
    def test_equator_must_be_a_length_space_of_diameter_pi(self, radius, stage, residual):
        # the capped circle of radius > 1 has no midpoint for pairs near pi apart
        g = radial_grid(1.0, 1.0, 25)
        c = cone(circle_mms(40, radius), 1.0, 1.0, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, tol=2 * g.h, N=1.0)
        assert rep.failed_stage == stage and rep.is_suspension is (stage is None)
        assert list(rep.stage_residuals) == ["pole-distance", "geodesics-through-poles",
                                             "law-of-cosines", "equator-geodesic"]
        assert rep.stage_residuals["equator-geodesic"] == pytest.approx(residual, rel=1e-12)
        assert rep.max_residual == max(rep.stage_residuals.values())

    @pytest.mark.parametrize("grid, nf, N, radius", [(25, 100, 1.0, 1.0), (16, 16, 2.0, 1.5),
                                                     (8, 12, 1.0, 1.0)])
    def test_default_poles_are_a_cones_apexes(self, grid, nf, N, radius):
        c = cone(circle_mms(nf, radius), 1.0, N, radial_grid(1.0, N, grid))
        rep = suspension_check(c, N=N)
        assert rep.poles == (c.n - 2, c.n - 1)
        assert rep.stage_residuals["pole-distance"] <= 1e-12

    def test_default_tolerance_of_a_16_cell_cone_file(self, tmp_path):
        # twice its radial step pi/16, read from levels rounded to 1e-9, is just above pi/8
        p = tmp_path / "cone16.json"
        save_mms_json(cone(circle_mms(16, 1.0), 1.0, 1.0, radial_grid(1.0, 1.0, 16)), p)
        rep = suspension_check(load_mms_json(p))
        assert rep.tolerance == math.pi / 8
        assert rep.poles == (256, 257) and rep.is_suspension

    def test_explicit_arguments_keep_the_report(self):
        # the benchmark's call on the 25 x 100 cone: poles and tol are echoed, not changed
        g = radial_grid(1.0, 1.0, 25)
        c = cone(circle_mms(100, 1.0), 1.0, 1.0, g)
        rep = suspension_check(c, c.n - 2, c.n - 1, 2.0 * g.h, N=1.0)
        assert rep.poles == (c.n - 2, c.n - 1) and rep.tolerance == 2.0 * g.h
        assert rep.is_suspension and rep.failed_stage is None
        res = rep.stage_residuals
        assert list(res) == ["pole-distance", "geodesics-through-poles", "law-of-cosines",
                             "equator-geodesic"]
        assert res["pole-distance"] == res["geodesics-through-poles"] == 0.0
        assert res["law-of-cosines"] <= 1e-15
        assert rep.max_residual == res["equator-geodesic"] == pytest.approx(math.pi / 100,
                                                                            rel=1e-12)
        assert rep.equator.labels == tuple(f"12:c{k}" for k in range(100))
        same = suspension_check(c, tol=2.0 * g.h)  # the default poles are the same apexes
        assert same.stage_residuals == res
        assert np.array_equal(same.equator.dist, rep.equator.dist)
        assert np.array_equal(same.equator.weight, rep.equator.weight)

    @pytest.mark.parametrize("poles", [(), (0, 1)], ids=["default", "given"])
    def test_an_empty_space_is_named(self, poles):
        with pytest.raises(ValueError, match="empty space"):
            suspension_check(FiniteMMS((), np.zeros((0, 0)), np.zeros(0)), *poles)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_midpoint_defect_matches_the_triple_loop(self, n):
        rng = np.random.default_rng(n)
        d = rng.uniform(0.0, 2.0, (n, n))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        m = FiniteMMS(tuple(range(n)), d, np.ones(n))
        a, b = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)  # every pair, row-major
        want = [[max(abs(d[i, k] - d[i, j] / 2), abs(d[k, j] - d[i, j] / 2)) for k in range(n)]
                for i, j in zip(a, b)]
        got = mms._midpoint_defect(m, a, b)
        assert got.tolist() == want
        for eps in (0.0, *got.ravel()):
            assert np.array_equal(mms.midpoints(m, a, b, eps), got <= eps)


def _law_of_cosines_oracle(d, theta, proj, eq_dist):
    """The law-of-cosines residual over the whole n x n matrix at once."""
    cos_th, sin_th = np.cos(theta), np.sin(theta)
    buf = np.cos(eq_dist)[np.ix_(proj, proj)]
    buf *= np.outer(sin_th, sin_th)
    buf += np.outer(cos_th, cos_th)
    buf -= np.cos(d)
    return float(np.abs(buf, out=buf).max())


def _euclidean(n, seed=5):
    x = np.random.default_rng(seed).normal(size=(n, 3))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    return FiniteMMS(tuple(f"p{i}" for i in range(n)), d, np.random.default_rng(seed).uniform(0, 1, n))


def _sin_warped(g, fiber):
    return warped_product(g, np.sin(g.nodes), fiber, 1.0)


def _signed_zero():
    d = _path_metric(3)
    d[0, 1] = d[1, 0] = -0.0
    return FiniteMMS(("a", "b", "c"), d, np.array([1.0, -0.0, 2.5]))


_SAVE_CASES = {
    "cone K=1": lambda: cone(circle_mms(9, 1.0), 1.0, 2.0, radial_grid(1.0, 2.0, 7)),
    "cone K=-1": lambda: cone(circle_mms(9, 0.7), -1.0, 1.5, radial_grid(-1.0, 1.5, 6)),
    "warped product": lambda: _sin_warped(radial_grid(1.0, 1.0, 6), circle_mms(8, 1.0)),
    "euclidean": lambda: _euclidean(40),
    "signed zero": _signed_zero,
    "empty": lambda: FiniteMMS((), np.zeros((0, 0)), np.zeros(0)),
    "one atom": lambda: FiniteMMS(("x",), np.zeros((1, 1)), np.array([0.125])),
    "integer labels": lambda: FiniteMMS(tuple(range(5)), _path_metric(5) / 3.0, np.full(5, 1e-300)),
}


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        m = circle_mms(6, 1.0)
        p = tmp_path / "m.json"
        save_mms_json(m, p)
        back = load_mms_json(p)
        assert back.labels == m.labels
        assert np.allclose(back.dist, m.dist)
        assert np.allclose(back.weight, m.weight)

    def test_json_load_is_bit_identical_to_json_load(self, tmp_path):
        # repeated tokens, tokens of one value spelt two ways, -0.0, integers and exponents
        row = ["0.1", "0.10", "-0.0", "3", "1.5e-300", "7E2", "1.0000000000000002", "0.1"]
        n = len(row) + 1
        d = [["0"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = row[(i + j) % len(row)]
        text = ('{"labels": %s, "dist": [%s], "weight": [%s]}'
                % (json.dumps(list(range(n))), ", ".join("[" + ", ".join(r) + "]" for r in d),
                   ", ".join(["0.25", "2", "1e-3"] * 3)))
        p = tmp_path / "tokens.json"
        p.write_text(text)
        plain = json.loads(text)
        m = load_mms_json(p)
        # the file is exactly symmetric with a zero diagonal, so loading keeps every bit
        for got, key in ((m.dist, "dist"), (m.weight, "weight")):
            want = np.asarray(plain[key], dtype=float)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.signbit(m.dist[0, 2]) and m.dist[0, 2] == 0.0  # row[2], the -0.0
        p.write_text(text.replace("7E2", "NaN"))
        with pytest.raises(ValueError, match="finite"):
            load_mms_json(p)

    @pytest.mark.parametrize("name", sorted(_SAVE_CASES))
    def test_json_text_is_json_dumps(self, tmp_path, name):
        m = _SAVE_CASES[name]()
        p = tmp_path / "m.json"
        save_mms_json(m, p)
        payload = {"labels": list(m.labels), "dist": m.dist.tolist(), "weight": m.weight.tolist()}
        assert p.read_text() == json.dumps(payload)
        back = load_mms_json(p)
        assert back.labels == m.labels
        for a, b in ((back.dist, m.dist), (back.weight, m.weight)):
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("name", ["cone K=1", "cone K=-1", "warped product"])
    def test_an_isometry_leaves_the_file_unchanged(self, tmp_path, name):
        m = _SAVE_CASES[name]()
        assert m.isometry is not None
        save_mms_json(m, tmp_path / "with.json")
        save_mms_json(_plain(m), tmp_path / "without.json")
        text = (tmp_path / "with.json").read_bytes()
        assert text == (tmp_path / "without.json").read_bytes()
        assert b"isometry" not in text
        assert load_mms_json(tmp_path / "with.json").isometry is None

    def test_a_circle_file_keeps_its_bytes(self, tmp_path):
        # hop counts times one step: the same floats on every platform
        p = tmp_path / "c.json"
        save_mms_json(circle_mms(9, 1.0), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "2615a7df24031513cdd96844b60e37de22e1b6cddbe5fac00dbf62480b04921a")

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

    @pytest.mark.parametrize("entry", [5.0, -2e-9], ids=["five", "past-the-slack"])
    def test_json_rejects_a_nonzero_diagonal(self, tmp_path, entry):
        # a 6-atom circle with d(2, 2) != 0 was zeroed without a word
        d = circle_mms(6, 1.0).dist.copy()
        d[2, 2] = entry
        p = tmp_path / "diag.json"
        p.write_text(json.dumps({"labels": list("abcdef"), "dist": d.tolist(),
                                 "weight": [1.0] * 6}))
        with pytest.raises(ValueError, match=r"atom 2 is at distance .* from itself"):
            load_mms_json(p)

    @pytest.mark.parametrize("key, value", [
        ("labels", "ab"), ("labels", {"a": 1, "b": 2}), ("labels", 2),
        ("dist", [[0, "1"], ["1", 0]]), ("dist", [[0, True], [True, 0]]),
        ("dist", [[False, True], [True, False]]), ("dist", [[0.0, None], [None, 0.0]]),
        ("dist", [[0.0, 1.5], [1.5]]), ("weight", [True, 1.0]), ("weight", ["1", 1.0]),
        ("weight", [1.0, [1.0]]),
    ], ids=["labels-string", "labels-object", "labels-number", "dist-strings",
            "dist-booleans-beside-numbers", "dist-booleans", "dist-null", "dist-ragged",
            "weight-boolean", "weight-string", "weight-nested"])
    def test_json_rejects_entries_of_the_wrong_type(self, tmp_path, key, value):
        payload = {"labels": ["a", "b"], "dist": [[0.0, 1.5], [1.5, 0.0]], "weight": [1.0, 1.0],
                   key: value}
        p = tmp_path / "typed.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"malformed entry: '{key}'"):
            load_mms_json(p)

    def test_json_numbers_may_be_integers(self, tmp_path):
        # a 0 or 1 written as an integer is a number, not a boolean
        p = tmp_path / "ints.json"
        p.write_text(json.dumps({"labels": [0, 1, 2], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                 "weight": [1, 0, 1]}))
        m = load_mms_json(p)
        assert m.labels == (0, 1, 2) and m.dist.dtype == float
        assert m.dist.tolist() == [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        assert m.weight.tolist() == [1.0, 0.0, 1.0]
        # numpy infers an integer past int64 as an object; it is still a number
        p.write_text(json.dumps({"labels": ["a", "b"], "dist": [[0, 10**30], [10**30, 0]],
                                 "weight": [1, 2**70]}))
        m = load_mms_json(p)
        assert m.dist[0, 1] == 1e30 and m.weight[1] == 2.0**70
