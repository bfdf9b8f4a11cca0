import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array, coo_matrix

from conecheck import mms
from conecheck import transport as tr
from conecheck.model_fns import CurvatureDimension, sigma_coeff, tau_coeff
from conecheck.transport import (
    Coupling,
    Density,
    NoMidpointError,
    cd_check,
    cd_star_check,
    convexity_reports,
    density_from_mass,
    displacement_midpoint,
    mcp_check,
    renyi_entropy,
    uniform_density,
    wasserstein2,
)


def lebesgue_interval(n=120, length=math.pi):
    return mms.interval_model_mms(0.0, 0.0, n, r_max=length)


def brute_force_w2(space, support0, support1):
    """Exhaustive minimum over permutation plans for uniform marginals on
    equal-size supports (the vertices of the corresponding polytope)."""
    k = len(support0)
    best = math.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(space.dist[support0[i], support1[perm[i]]] ** 2 for i in range(k)) / k
        best = min(best, cost)
    return math.sqrt(best)


class TestWasserstein:
    def test_identical_densities(self):
        space = lebesgue_interval(30)
        mu = uniform_density(space)
        cost, q = wasserstein2(space, mu, mu)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(q.plan - np.diag(mu.mass))) <= 1e-9

    def test_two_atoms(self):
        space = lebesgue_interval(30)
        m0 = np.zeros(30); m0[3] = 1.0
        m1 = np.zeros(30); m1[17] = 1.0
        cost, _ = wasserstein2(space, Density(space, m0), Density(space, m1))
        assert cost == pytest.approx(space.dist[3, 17], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_vertices(self, seed):
        rng = np.random.default_rng(seed)
        space = mms.circle_mms(9, 1.0)
        s0 = sorted(rng.choice(9, size=4, replace=False).tolist())
        s1 = sorted(rng.choice(9, size=4, replace=False).tolist())
        mu0 = uniform_density(space, np.array(s0))
        mu1 = uniform_density(space, np.array(s1))
        cost, _ = wasserstein2(space, mu0, mu1)
        assert cost == pytest.approx(brute_force_w2(space, s0, s1), rel=1e-10)

    def test_marginals_and_certificate(self):
        rng = np.random.default_rng(1)
        space = lebesgue_interval(60)
        mu0 = density_from_mass(space, rng.gamma(2.0, size=60))
        mu1 = density_from_mass(space, rng.gamma(2.0, size=60))
        _, q = wasserstein2(space, mu0, mu1)
        assert np.max(np.abs(q.plan.sum(axis=1) - mu0.mass)) <= 1e-9
        assert np.max(np.abs(q.plan.sum(axis=0) - mu1.mass)) <= 1e-9

    def test_plan_is_sparse_support_of_a_vertex(self):
        rng = np.random.default_rng(4)
        space = mms.interval_model_mms(1.0, 2.0, 60)
        raw1 = space.weight * rng.gamma(2.0, size=60)
        raw1[:20] = 0.0
        mu0 = density_from_mass(space, space.weight * rng.gamma(2.0, size=60))
        mu1 = density_from_mass(space, raw1)
        _, q = wasserstein2(space, mu0, mu1)
        nr, nc = np.count_nonzero(mu0.mass), np.count_nonzero(mu1.mass)
        assert isinstance(q.plan, coo_array) and q.plan.shape == (60, 60)
        assert 0 < q.plan.nnz <= nr + nc - 1
        assert np.all(q.plan.data > 0)
        order = q.plan.row * 60 + q.plan.col
        assert np.all(np.diff(order) > 0)  # row-major, no duplicates

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        space = lebesgue_interval(40)
        mus = [density_from_mass(space, rng.gamma(2.0, size=40)) for _ in range(3)]
        d01, _ = wasserstein2(space, mus[0], mus[1])
        d10, _ = wasserstein2(space, mus[1], mus[0])
        assert d01 == pytest.approx(d10, abs=1e-9)
        d12, _ = wasserstein2(space, mus[1], mus[2])
        d02, _ = wasserstein2(space, mus[0], mus[2])
        assert d02 <= d01 + d12 + 1e-8


def _bump(space, r, centre, width):
    raw = space.weight * np.exp(-(((r - centre) / width) ** 2))
    raw[np.abs(r - centre) > 3 * width] = 0.0
    return density_from_mass(space, raw)


def _count_lp_calls(monkeypatch):
    """Route ``transport.linprog`` through a counter; returns the list it appends to."""
    calls, linprog = [], tr.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(tr, "linprog", counted)
    return calls


class TestMonotonePath:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lp_on_random_bump_pairs(self, seed, monkeypatch):
        n = 400
        space = mms.interval_model_mms(1.0, 2.0, n)
        h = math.pi / n
        r = (np.arange(n) + 0.5) * h
        rng = np.random.default_rng(seed)
        mu0, mu1 = (_bump(space, r, rng.uniform(0.6, math.pi - 0.6), rng.uniform(0.04, 0.15))
                    for _ in range(2))
        rows, cols = np.nonzero(mu0.mass)[0], np.nonzero(mu1.mass)[0]
        C = space.dist[np.ix_(rows, cols)] ** 2
        a, b = mu0.mass[rows], mu1.mass[cols]
        lp = tr._lp_plan(C, a, b)[0]
        mono = tr._monotone_plan(C, a, b, r[rows], r[cols])[0]
        w_lp, w_mono = math.sqrt(np.sum(lp * C)), math.sqrt(np.sum(mono * C))
        assert w_mono == pytest.approx(w_lp, rel=1e-12)
        assert np.count_nonzero(mono) == np.count_nonzero(lp)

        cd = CurvatureDimension(2.0, 3.0)
        args = (space, mu0, mu1, cd, (3.0, 6.0), 2 * h, 0.1, sigma_coeff)
        calls = _count_lp_calls(monkeypatch)
        fast = convexity_reports(*args)
        assert calls == []
        monkeypatch.setattr(tr, "_line_coordinates", lambda dist: None)
        slow = convexity_reports(*args)
        assert len(calls) == 1
        for f, s in zip(fast, slow):
            assert f.slack == pytest.approx(s.slack, rel=0, abs=1e-12)
            assert f.passed == s.passed

    def test_shifted_uniform_ties_at_every_step(self):
        space = lebesgue_interval(60)
        h = math.pi / 60
        idx = np.arange(60)
        mu0 = density_from_mass(space, (idx < 20).astype(float))
        mu1 = density_from_mass(space, ((idx >= 10) & (idx < 30)).astype(float))
        cost, q = wasserstein2(space, mu0, mu1)
        assert q.plan.row.tolist() == list(range(20))
        assert q.plan.col.tolist() == list(range(10, 30))
        assert np.all(q.plan.data == 1.0 / 20)
        assert cost == pytest.approx(10 * h, rel=1e-12)
        rows, cols = idx[:20], idx[10:30]
        C = space.dist[np.ix_(rows, cols)] ** 2
        plan, alpha, beta = tr._monotone_plan(C, mu0.mass[rows], mu1.mass[cols], rows * h, cols * h)
        tr._certify_optimality(C, plan, alpha, beta)
        tight = np.abs(C - alpha[:, None] - beta[None, :]) <= 1e-15
        assert np.count_nonzero(tight) >= rows.size + cols.size - 1  # zero-mass cells too

    def test_certificate_rejects_the_antimonotone_plan(self):
        rng = np.random.default_rng(8)
        space = lebesgue_interval(40)
        x = space.dist[0]
        rows, cols = np.arange(5, 20), np.arange(12, 35)
        a = rng.gamma(2.0, size=rows.size)
        b = rng.gamma(2.0, size=cols.size)
        a, b = a / a.sum(), b / b.sum()
        C = space.dist[np.ix_(rows, cols)] ** 2
        tr._certify_optimality(C, *tr._monotone_plan(C, a, b, x[rows], x[cols]))
        with pytest.raises(RuntimeError, match="dual infeasibility"):
            tr._certify_optimality(C, *tr._monotone_plan(C, a, b, x[rows], -x[cols]))

    def test_cone_takes_the_lp_only_across_the_fiber(self, monkeypatch):
        nf, nr = 16, 12
        c = mms.cone(mms.circle_mms(nf, 1.0), 1.0, 2.0, mms.radial_grid(1.0, 2.0, nr))

        def on_rays(cells, rays):
            return uniform_density(c, np.array([k * nf + j for k in cells for j in rays]))

        calls = _count_lp_calls(monkeypatch)
        wasserstein2(c, on_rays(range(2, 6), [0, 1]), on_rays(range(6, 10), [8, 9]))
        assert len(calls) == 1

        ray0, ray1 = on_rays(range(1, 5), [3]), on_rays(range(5, 11), [3])
        cost, _ = wasserstein2(c, ray0, ray1)
        assert len(calls) == 1
        monkeypatch.setattr(tr, "_line_coordinates", lambda dist: None)
        cost_lp, _ = wasserstein2(c, ray0, ray1)
        assert len(calls) == 2
        assert cost == pytest.approx(cost_lp, rel=1e-12)


class TestDensity:
    def test_mass_normalization_enforced(self):
        space = lebesgue_interval(10)
        with pytest.raises(ValueError):
            Density(space, np.full(10, 0.2))

    def test_absolute_continuity(self):
        fib = mms.circle_mms(6, 1.0)
        grid = mms.radial_grid(1.0, 1.0, 5)
        c = mms.cone(fib, 1.0, 1.0, grid)
        bad = np.zeros(c.n)
        bad[-1] = 1.0  # apex has zero weight
        with pytest.raises(ValueError):
            Density(c, bad)
        fixed = density_from_mass(c, np.ones(c.n))
        assert fixed.mass[-1] == 0.0 and fixed.mass[-2] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(where=st.integers(0, 31), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_mass_rejected(self, where, bad):
        # a 32-atom cone; atoms 30 and 31 are its weightless apexes
        c = mms.cone(mms.circle_mms(6, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, 5))
        raw = np.ones(c.n)
        raw[where] = bad
        with pytest.raises(ValueError, match=f"non-finite entry {bad} at atom {where}"):
            density_from_mass(c, raw)

    def test_coupling_marginal_guard(self):
        space = lebesgue_interval(4)
        mu = uniform_density(space)
        bad_plan = np.zeros((4, 4))
        bad_plan[0, 0] = 1.0
        with pytest.raises(ValueError):
            Coupling(bad_plan, mu, mu)
        with pytest.raises(ValueError):  # np.matrix sums from the legacy sparse type
            Coupling(coo_matrix(bad_plan), mu, mu)
        signed = np.diag(mu.mass)
        signed[:2, :2] += [[-0.3, 0.3], [0.3, -0.3]]  # right marginals, negative mass
        with pytest.raises(ValueError):
            Coupling(signed, mu, mu)
        q = Coupling(coo_matrix(np.diag(mu.mass)), mu, mu)
        assert isinstance(q.plan, coo_array) and q.plan.nnz == 4


class TestDisplacementMidpoint:
    def test_diagonal_plan_is_identity(self):
        space = lebesgue_interval(25)
        mu = uniform_density(space)
        _, q = wasserstein2(space, mu, mu)
        mid = displacement_midpoint(space, q, eps=2 * math.pi / 25)
        assert np.max(np.abs(mid.mass - mu.mass)) <= 1e-12

    def test_path_unique_midpoint(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        space = mms.FiniteMMS(("0", "1", "2"), d, np.ones(3))
        m0 = np.array([1.0, 0.0, 0.0])
        m1 = np.array([0.0, 0.0, 1.0])
        _, q = wasserstein2(space, Density(space, m0), Density(space, m1))
        mid = displacement_midpoint(space, q, eps=0.0)
        assert np.allclose(mid.mass, [0.0, 1.0, 0.0])

    def test_translated_uniforms(self):
        n = 240
        length = 4.0
        space = lebesgue_interval(n, length)
        h = length / n
        r = (np.arange(n) + 0.5) * h
        a, b = 0.9, 2.0
        mu0 = density_from_mass(space, np.where(r < a, 1.0, 0.0))
        mu1 = density_from_mass(space, np.where((r >= b) & (r < b + a), 1.0, 0.0))
        _, q = wasserstein2(space, mu0, mu1)
        mid = displacement_midpoint(space, q, eps=2 * h)
        # analytic midpoint: uniform on [b/2, b/2 + a], one cell of slack
        lo, hi = b / 2, b / 2 + a
        inside = (r > lo + 2 * h) & (r < hi - 2 * h)
        rho = mid.rho()
        assert np.max(np.abs(rho[inside] - 1.0 / a)) <= 0.35 / a
        outside = (r < lo - 3 * h) | (r > hi + 3 * h)
        assert np.max(mid.mass[outside], initial=0.0) == 0.0

    def test_no_midpoint_raises(self):
        space = mms.FiniteMMS(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
        mu0 = Density(space, np.array([1.0, 0.0]))
        mu1 = Density(space, np.array([0.0, 1.0]))
        _, q = wasserstein2(space, mu0, mu1)
        with pytest.raises(NoMidpointError):
            displacement_midpoint(space, q, eps=0.0)

    def test_apex_rerouting(self):
        # transport through the apex of a flat cone: apex carries no mass
        fib = mms.circle_mms(16, 2.0)
        grid = mms.radial_grid(0.0, 1.0, 32, r_max=2.0)
        c = mms.cone(fib, 0.0, 1.0, grid)
        h = grid.h
        ring = 20
        m0 = np.zeros(c.n); m0[ring * 16 + 0] = 1.0
        m1 = np.zeros(c.n); m1[ring * 16 + 8] = 1.0  # capped fiber distance
        _, q = wasserstein2(c, Density(c, m0), Density(c, m1))
        mid = displacement_midpoint(c, q, eps=h / 2)
        assert mid.mass[-1] == 0.0  # apex excluded
        assert mid.mass.sum() == pytest.approx(1.0)
        # re-routed mass sits next to the apex
        support = np.nonzero(mid.mass)[0]
        assert np.all(c.dist[-1, support] <= 2 * h)


def _reference_push(m, q, eps):
    """The push one plan cell at a time: the reference the vectorized push must equal."""
    out = np.zeros(m.n)
    w = m.weight
    for i, j, mass in zip(q.plan.row.tolist(), q.plan.col.tolist(), q.plan.data.tolist()):
        if i == j:
            out[i] += mass
            continue
        half = 0.5 * m.dist[i, j]
        mids = np.flatnonzero((np.abs(m.dist[i] - half) <= eps)
                              & (np.abs(m.dist[:, j] - half) <= eps)).tolist()
        assert mids
        carried = [k for k in mids if w[k] > 0]
        if not carried:
            rerouted = set()
            for k in mids:
                order = np.argsort(m.dist[k] + np.where(w > 0, 0.0, np.inf))
                rerouted.add(int(order[0]))
            carried = sorted(rerouted)
        share = mass / len(carried)
        for k in carried:
            out[k] += share
    return density_from_mass(m, out).mass


def _push_cases():
    """(space, mu0, mu1, eps): line bump pairs, full-support pairs, a cone bump
    pair and the transport through a flat cone's apex."""
    n = 400
    line = mms.interval_model_mms(1.0, 2.0, n)
    h = math.pi / n
    r = (np.arange(n) + 0.5) * h
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(4):
        c0 = rng.uniform(0.6, math.pi - 1.4)
        cases.append((line, _bump(line, r, c0, 0.12), _bump(line, r, c0 + 0.8, 0.12), 2 * h))
    for _ in range(2):
        mu0, mu1 = (density_from_mass(line, line.weight * rng.gamma(2.0, size=n))
                    for _ in range(2))
        cases.append((line, mu0, mu1, 2 * h))

    sphere = mms.cone(mms.circle_mms(16, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, 12))
    hc = math.pi / 12

    def cone_bump(atom):
        d = sphere.dist[atom]
        return density_from_mass(sphere, sphere.weight * np.where(d <= 0.9, np.exp(-(d / 0.6) ** 2), 0.0))

    cases.append((sphere, cone_bump(4 * 16), cone_bump(7 * 16 + 5), 2 * hc))

    flat = mms.cone(mms.circle_mms(16, 2.0), 0.0, 1.0, mms.radial_grid(0.0, 1.0, 32, r_max=2.0))
    m0 = np.zeros(flat.n); m0[20 * 16] = 1.0
    m1 = np.zeros(flat.n); m1[20 * 16 + 8] = 1.0
    cases.append((flat, Density(flat, m0), Density(flat, m1), 1.0 / 64))  # only the apex
    return cases


@pytest.mark.parametrize("case", range(8))
def test_push_matches_the_per_cell_reference(case):
    space, mu0, mu1, eps = _push_cases()[case]
    _, q = wasserstein2(space, mu0, mu1)
    assert np.array_equal(displacement_midpoint(space, q, eps).mass, _reference_push(space, q, eps))


class TestRenyi:
    def test_uniform_closed_form(self):
        space = lebesgue_interval(50)
        sub = np.arange(10, 30)
        mu = uniform_density(space, sub)
        w = float(space.weight[sub].sum())
        for Np in (1.5, 3.0, 7.0):
            assert renyi_entropy(space, mu, Np) == pytest.approx(w ** (1.0 / Np), rel=1e-12)

    def test_large_exponent_limit(self):
        space = lebesgue_interval(50)
        mu = uniform_density(space)
        w = space.total_mass()
        assert renyi_entropy(space, mu, 1e9) == pytest.approx(w ** (1e-9), rel=1e-9)

    def test_single_atom(self):
        space = lebesgue_interval(8)
        m = np.zeros(8); m[3] = 1.0
        mu = Density(space, m)
        w = space.weight[3]
        assert renyi_entropy(space, mu, 4.0) == pytest.approx(w ** 0.25, rel=1e-12)


class TestCDChecks:
    def test_equal_densities_equality(self):
        space = mms.interval_model_mms(1.0, 2.0, 60)
        rng = np.random.default_rng(0)
        mu = density_from_mass(space, space.weight * rng.gamma(2.0, size=60))
        rep = cd_star_check(space, mu, mu, CurvatureDimension(2.0, 3.0), 3.0,
                            eps=2 * math.pi / 60, tol=1e-12)
        assert abs(rep.slack) <= 1e-12
        assert rep.passed

    def test_translated_uniform_equality_case(self):
        n = 240
        space = lebesgue_interval(n, 4.0)
        h = 4.0 / n
        r = (np.arange(n) + 0.5) * h
        a, b = 0.9, 2.0
        mu0 = density_from_mass(space, np.where(r < a, 1.0, 0.0))
        mu1 = density_from_mass(space, np.where((r >= b) & (r < b + a), 1.0, 0.0))
        for Np in (2.0, 5.0):
            rep = cd_star_check(space, mu0, mu1, CurvatureDimension(0.0, 2.0), Np,
                                eps=2 * h, tol=1.0)
            assert abs(rep.lhs - rep.rhs.as_float()) <= 2.0 * h ** (1.0 / Np)

    def test_model_passes(self):
        space = mms.interval_model_mms(1.0, 2.0, 200)
        h = math.pi / 200
        rng = np.random.default_rng(42)
        cd = CurvatureDimension(2.0, 3.0)
        for _ in range(3):
            mu0 = density_from_mass(space, space.weight * rng.gamma(2.0, size=200))
            mu1 = density_from_mass(space, space.weight * rng.gamma(2.0, size=200))
            rep = cd_star_check(space, mu0, mu1, cd, 3.0, eps=2 * h, tol=5 * 3 * h)
            assert rep.passed

    def test_flat_tau_equals_sigma(self):
        space = lebesgue_interval(80)
        h = math.pi / 80
        rng = np.random.default_rng(3)
        mu0 = density_from_mass(space, rng.gamma(2.0, size=80))
        mu1 = density_from_mass(space, rng.gamma(2.0, size=80))
        cd = CurvatureDimension(0.0, 2.0)
        r1 = cd_star_check(space, mu0, mu1, cd, 2.0, eps=2 * h, tol=1.0)
        r2 = cd_check(space, mu0, mu1, cd, 2.0, eps=2 * h, tol=1.0)
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.rhs.as_float() == pytest.approx(r2.rhs.as_float(), rel=1e-12)

    def test_hierarchy_full_implies_reduced(self):
        space = mms.interval_model_mms(1.0, 2.0, 120)
        h = math.pi / 120
        rng = np.random.default_rng(9)
        cd = CurvatureDimension(1.0, 2.0)
        tol = 5 * 3 * h
        for _ in range(3):
            mu0 = density_from_mass(space, space.weight * rng.gamma(2.0, size=120))
            mu1 = density_from_mass(space, space.weight * rng.gamma(2.0, size=120))
            full = cd_check(space, mu0, mu1, cd, 2.0, eps=2 * h, tol=tol)
            red = cd_star_check(space, mu0, mu1, cd, 2.0, eps=2 * h, tol=tol)
            # tau >= sigma for K >= 0, so the reduced rhs is never larger
            assert red.rhs.as_float() <= full.rhs.as_float() + 1e-12
            if full.passed:
                assert red.passed

    def test_infinite_coefficient_fails(self):
        # distances beyond the blow-up threshold force an infinite rhs
        space = lebesgue_interval(40, length=math.pi)
        m0 = np.zeros(40); m0[0] = 1.0
        m1 = np.zeros(40); m1[39] = 1.0
        cd = CurvatureDimension(30.0, 1.5)
        rep = cd_star_check(space, Density(space, m0), Density(space, m1), cd, 1.5,
                            eps=math.pi / 10, tol=10.0)
        assert rep.rhs.is_infinite
        assert not rep.passed
        assert rep.slack == -math.inf

    def test_weight_scaling_invariance(self):
        base = mms.interval_model_mms(1.0, 2.0, 100)
        h = math.pi / 100
        c = 7.0
        scaled = mms.FiniteMMS(base.labels, base.dist, base.weight * c)
        rng0 = np.random.default_rng(5)
        g0, g1 = rng0.gamma(2.0, size=100), rng0.gamma(2.0, size=100)
        cd = CurvatureDimension(2.0, 3.0)
        Np = 3.0
        rep = cd_star_check(base, density_from_mass(base, base.weight * g0),
                            density_from_mass(base, base.weight * g1), cd, Np,
                            eps=2 * h, tol=15 * h)
        rep_s = cd_star_check(scaled, density_from_mass(scaled, scaled.weight * g0),
                              density_from_mass(scaled, scaled.weight * g1), cd, Np,
                              eps=2 * h, tol=15 * h * c ** (1.0 / Np))
        assert rep_s.lhs == pytest.approx(rep.lhs * c ** (1.0 / Np), rel=1e-9)
        assert rep_s.rhs.as_float() == pytest.approx(
            rep.rhs.as_float() * c ** (1.0 / Np), rel=1e-9)
        assert rep.passed == rep_s.passed


def _pair_cases():
    """(space, mu0, mu1, cd, eps): a bump pair, a full-support pair, and a
    pair whose tau coefficient is infinite at N' = N but finite at 2N."""
    n = 120
    space = mms.interval_model_mms(1.0, 2.0, n)
    h = math.pi / n
    r = (np.arange(n) + 0.5) * h

    def bump(c):
        raw = space.weight * np.exp(-(((r - c) / 0.25) ** 2))
        raw[np.abs(r - c) > 0.75] = 0.0
        return density_from_mass(space, raw)

    rng = np.random.default_rng(11)
    cd = CurvatureDimension(2.0, 3.0)
    cases = [
        (space, bump(1.0), bump(2.0), cd, 2 * h),
        (space, density_from_mass(space, space.weight * rng.gamma(2.0, size=n)),
         density_from_mass(space, space.weight * rng.gamma(2.0, size=n)), cd, 2 * h),
    ]
    leb = lebesgue_interval(40, length=math.pi)
    m0 = np.zeros(40); m0[[0, 1]] = 0.5
    m1 = np.zeros(40); m1[36:] = 0.25
    cases.append((leb, Density(leb, m0), Density(leb, m1), CurvatureDimension(1.0, 1.5),
                  math.pi / 10))
    return cases


@pytest.mark.parametrize("case", range(3))
def test_multi_nprime_core_matches_single_checks(case):
    space, mu0, mu1, cd, eps = _pair_cases()[case]
    nprimes = (cd.N, 2.0 * cd.N)
    tol = 0.1
    for coeff, single in ((sigma_coeff, cd_star_check), (tau_coeff, cd_check)):
        reports = convexity_reports(space, mu0, mu1, cd, nprimes, eps, tol, coeff)
        assert [r.Nprime for r in reports] == list(nprimes)
        for Np, rep in zip(nprimes, reports):
            ref = single(space, mu0, mu1, cd, Np, eps, tol)
            assert (rep.lhs, rep.rhs, rep.slack, rep.passed) == (
                ref.lhs, ref.rhs, ref.slack, ref.passed)
            assert repr(rep.rhs) == repr(ref.rhs)
    if case == 2:
        tau = convexity_reports(space, mu0, mu1, cd, nprimes, eps, tol, tau_coeff)
        assert tau[0].rhs.is_infinite and not tau[0].passed
        assert not tau[1].rhs.is_infinite


def test_multi_nprime_core_rejects_small_nprime():
    space, mu0, mu1, cd, eps = _pair_cases()[0]
    with pytest.raises(ValueError):
        convexity_reports(space, mu0, mu1, cd, (2 * cd.N, cd.N - 0.5), eps, 0.1, sigma_coeff)


class TestMCP:
    def test_fixed_point_trivial(self):
        space = lebesgue_interval(20)
        rep = mcp_check(space, 5, np.array([5]), CurvatureDimension(0.0, 2.0),
                        t=0.5, tol=0.0, eps=0.4)
        assert rep.passed

    def test_lebesgue_contraction(self):
        # flat interval: tau = 1/2, pushed density doubles locally; the
        # midpoint map contracts by 2 so cells receive ~2 sources each
        n = 200
        space = lebesgue_interval(n, 2.0)
        h = 2.0 / n
        A = np.arange(n // 2, n)
        rep = mcp_check(space, 0, A, CurvatureDimension(0.0, 1.0),
                        t=0.5, tol=2.5 * h, eps=h)
        assert rep.passed

    def test_wrong_parameters_fail_on_cone(self):
        fib = mms.circle_mms(12, 1.0)
        grid = mms.radial_grid(1.0, 1.0, 15)
        c = mms.cone(fib, 1.0, 1.0, grid)
        apex = c.n - 2
        A = np.array([ring * 12 + j for ring in (9, 10) for j in range(12)])
        h = grid.h
        ok = mcp_check(c, apex, A, CurvatureDimension(1.0, 2.0), 0.5, tol=2.5 * h, eps=h)
        assert ok.passed
        # overstated curvature drives the distortion coefficient up
        bad_k = mcp_check(c, apex, A, CurvatureDimension(2.2, 2.0), 0.5, tol=2.5 * h, eps=h)
        assert not bad_k.passed
        # understated dimension hits the blow-up branch of the coefficient
        bad_n = mcp_check(c, apex, A, CurvatureDimension(1.0, 1.3), 0.5, tol=2.5 * h, eps=h)
        assert not bad_n.passed

    def test_apex_midpoint_is_rerouted_as_in_the_displacement_midpoint(self):
        # flat cone over a radius-2 circle: atoms 320 and 328 are antipodal on
        # ring 20, and at eps = h/4 their only midpoint is the weightless apex
        c = mms.cone(mms.circle_mms(16, 2.0), 0.0, 1.0, mms.radial_grid(0.0, 1.0, 32, r_max=2.0))
        h = 2.0 / 32
        m0 = np.zeros(c.n); m0[320] = 1.0
        m1 = np.zeros(c.n); m1[328] = 1.0
        _, q = wasserstein2(c, Density(c, m0), Density(c, m1))
        assert np.flatnonzero(displacement_midpoint(c, q, h / 4).mass).tolist() == [0]
        cd = CurvatureDimension(0.0, 2.0)
        rep = mcp_check(c, 320, np.array([328]), cd, 0.5, tol=2.5 * h, eps=h / 4)
        load = c.weight[328] * tau_coeff(cd, 0.5, c.dist[320, 328]).value ** cd.N
        assert rep.worst_cell == 0
        assert rep.max_violation == pytest.approx(load - c.weight[0], rel=1e-12)
