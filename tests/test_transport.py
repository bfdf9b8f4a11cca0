import gc
import itertools
import math
import tracemalloc
import weakref

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


def _fresh(space, mu):
    """A new Density with mu's mass, which the kept pair of ``convexity_reports`` does not match."""
    return Density(space, mu.mass)


def _counted(monkeypatch, name="linprog"):
    """Route ``transport.<name>`` through a counter; returns the list it appends to."""
    calls, fn = [], getattr(tr, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(tr, name, counted)
    return calls


def _reject_the_staircase(monkeypatch):
    """Make the next ``_certify_optimality`` call reject its plan.

    The first plan ``wasserstein2`` certifies is its staircase, so its next
    call takes the LP, whose plan the real certificate then checks.
    """
    certify, seen = tr._certify_optimality, []

    def reject_once(*args):
        seen.append(1)
        if len(seen) == 1:
            raise RuntimeError("dual infeasibility forced by the test")
        return certify(*args)

    monkeypatch.setattr(tr, "_certify_optimality", reject_once)


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
        calls = _counted(monkeypatch)
        fast = convexity_reports(*args)
        assert calls == []
        _reject_the_staircase(monkeypatch)
        # fresh densities, so the pair's kept coupling is not reused
        slow = convexity_reports(space, _fresh(space, mu0), _fresh(space, mu1), *args[3:])
        assert len(calls) == 1
        assert (fast[0].certificate.solver, slow[0].certificate.solver) == ("monotone", "lp")
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

        calls = _counted(monkeypatch)
        _, q = wasserstein2(c, on_rays(range(2, 6), [0, 1]), on_rays(range(6, 10), [8, 9]))
        assert len(calls) == 1 and q.certificate.solver == "lp"

        # one ray is a line: its staircase passes the certificate, and no LP runs
        ray0, ray1 = on_rays(range(1, 5), [3]), on_rays(range(5, 11), [3])
        cost, q = wasserstein2(c, ray0, ray1)
        assert len(calls) == 1 and q.certificate.solver == "monotone"
        _reject_the_staircase(monkeypatch)
        cost_lp, q = wasserstein2(c, ray0, ray1)
        assert len(calls) == 2 and q.certificate.solver == "lp"
        assert cost == pytest.approx(cost_lp, rel=1e-12)

    def test_full_support_interval_pair_holds_four_cost_matrices(self):
        n = 1000
        space = mms.interval_model_mms(1.0, 2.0, n)
        rng = np.random.default_rng(0)
        mu0, mu1 = (density_from_mass(space, space.weight * rng.gamma(2.0, size=n))
                    for _ in range(2))
        tracemalloc.start()
        try:
            _, q = wasserstein2(space, mu0, mu1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.certificate.solver == "monotone"
        assert peak < 4.5 * n * n * 8  # C, the staircase and the certificate's reduced costs


def _lp_on(C, a, b, keep):
    """The transportation LP over the cells ``keep`` marks, by dual simplex."""
    from scipy.optimize import linprog

    nr, nc = C.shape
    ii, jj = np.nonzero(keep)
    var = np.arange(ii.size)
    A_eq = coo_array((np.ones(2 * ii.size), (np.concatenate([ii, nr + jj]), np.concatenate([var, var]))),
                     shape=(nr + nc, ii.size)).tocsr()
    return linprog(C[ii, jj], A_eq=A_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
                   method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})


def _dense_lp_w2(C, a, b):
    """W2 of the LP over every cell at once, the formulation the shortlist replaced: its oracle."""
    res = _lp_on(C, a, b, np.ones(C.shape, dtype=bool))
    assert res.success
    return math.sqrt(float(np.sum(res.x * C.ravel())))


def _masses(rng, n):
    m = rng.uniform(0.1, 1.0, n)
    return m / m.sum()


def _cloud_problem(seed, offset=0.0):
    """Random 2-D clouds, the second shifted by ``offset``, with random masses."""
    rng = np.random.default_rng(seed)
    nr, nc = rng.integers(20, 70, size=2)
    x, y = rng.uniform(0, 1, (nr, 2)), rng.uniform(0, 1, (nc, 2)) + [offset, 0.0]
    C = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    return C, _masses(rng, nr), _masses(rng, nc)


def _ring_problem(n, shift):
    """Uniform masses on n points of the unit circle and on the same points turned by shift steps."""
    t = 2 * math.pi * np.arange(n) / n
    x = np.stack([np.cos(t), np.sin(t)], axis=1)
    y = np.roll(x, shift, axis=0) * 1.5
    C = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    return C, np.full(n, 1.0 / n), np.full(n, 1.0 / n)


def _thin_problem(seed, transpose):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    C = rng.uniform(0, 2, (1, n))
    a, b = np.ones(1), _masses(rng, n)
    return (C.T, b, a) if transpose else (C, a, b)


_LP_PROBLEMS = (
    [(f"cloud-{s}", lambda s=s: _cloud_problem(s)) for s in range(10)]
    + [(f"far-apart-{s}", lambda s=s: _cloud_problem(100 + s, offset=50.0)) for s in range(4)]
    + [(f"ring-{n}-{k}", lambda n=n, k=k: _ring_problem(n, k)) for n, k in ((12, 0), (12, 3),
                                                                          (20, 5), (31, 7))]
    + [(f"1xn-{s}", lambda s=s: _thin_problem(s, False)) for s in range(2)]
    + [(f"nx1-{s}", lambda s=s: _thin_problem(s, True)) for s in range(2)]
)


def _cone_bump_pair(K, seed):
    """Two bumps centred on different rays of a cone over a 16-atom circle, 12 radial cells."""
    c = mms.cone(mms.circle_mms(16, 1.0), K, 1.0, mms.radial_grid(K, 1.0, 12))
    rng = np.random.default_rng(seed)

    def bump(centre):
        d = c.dist[centre]
        raw = c.weight * np.exp(-((d / 0.6) ** 2))
        raw[d > 0.9] = 0.0
        return density_from_mass(c, raw)

    i0, i1 = rng.choice(np.arange(3, 9), size=2)
    j0 = int(rng.integers(16))
    return c, bump(i0 * 16 + j0), bump(i1 * 16 + (j0 + int(rng.integers(3, 14))) % 16)


def _bench_cone_pair():
    """The 139 x 139 bump pair on the (K=1, N=1) cone over a 32-atom circle, 25 cells."""
    c = mms.cone(mms.circle_mms(32, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, 25))

    def bump(i, j, rho=0.65):
        d = c.dist[i * 32 + j]
        raw = c.weight * np.exp(-((d / rho) ** 2))
        raw[d > 1.5 * rho] = 0.0
        return density_from_mass(c, raw)

    return c, bump(9, 0), bump(15, 8)


def _lp_inputs(c, mu0, mu1):
    rows, cols = np.nonzero(mu0.mass)[0], np.nonzero(mu1.mass)[0]
    return c.dist[np.ix_(rows, cols)] ** 2, mu0.mass[rows], mu1.mass[cols]


class TestShortlistLP:
    @pytest.mark.parametrize("name", [n for n, _ in _LP_PROBLEMS])
    def test_matches_the_dense_oracle(self, name):
        C, a, b = dict(_LP_PROBLEMS)[name]()
        plan, alpha, beta, cells, rounds = tr._lp_plan(C, a, b)
        dual, slack = tr._certify_optimality(C, plan, alpha, beta)
        assert dual <= tr._DUAL_RTOL * max(C.max(), 1.0) and slack <= 1e-7 * max(C.max(), 1.0)
        assert math.sqrt(np.sum(plan * C)) == pytest.approx(_dense_lp_w2(C, a, b), rel=1e-9)
        assert cells <= C.size and rounds >= 0
        assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-9

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_cone_bump_pairs_match_the_dense_oracle(self, K, seed):
        c, mu0, mu1 = _cone_bump_pair(K, seed)
        C, a, b = _lp_inputs(c, mu0, mu1)
        oracle, scale = _dense_lp_w2(C, a, b), max(C.max(), 1.0)
        w, q = wasserstein2(c, mu0, mu1)  # the staircase where it certifies, else the LP
        cert = q.certificate
        assert cert.dual_infeasibility <= tr._DUAL_RTOL * scale and cert.slackness <= 1e-7 * scale
        assert w == pytest.approx(oracle, rel=1e-9)
        plan, alpha, beta, _, _ = tr._lp_plan(C, a, b)
        tr._certify_optimality(C, plan, alpha, beta)
        assert math.sqrt(np.sum(plan * C)) == pytest.approx(oracle, rel=1e-9)

    def test_a_staircase_off_the_line_is_kept_when_it_certifies(self, monkeypatch):
        c, mu0, mu1 = _cone_bump_pair(-1.0, 0)
        rows, cols = np.nonzero(mu0.mass)[0], np.nonzero(mu1.mass)[0]
        support = np.union1d(rows, cols)
        x = c.dist[support[np.argmax(c.dist[support[0], support])]][support]
        line_defect = np.abs(np.abs(np.subtract.outer(x, x)) - c.dist[np.ix_(support, support)])
        assert line_defect.max() > 1e-2 * x.max()  # the supports do not embed in R
        calls = _counted(monkeypatch)
        w, q = wasserstein2(c, mu0, mu1)
        assert calls == [] and q.certificate.solver == "monotone"
        assert w == pytest.approx(_dense_lp_w2(*_lp_inputs(c, mu0, mu1)), rel=1e-12)

    def test_far_apart_supports_take_few_pricing_rounds(self):
        # every cost carries an offset near 2500; the Sinkhorn scale follows the spread instead
        C, a, b = dict(_LP_PROBLEMS)["far-apart-0"]()
        assert C.min() > 2000
        assert tr._lp_plan(C, a, b)[4] <= 2

    def test_cone_pair_keeps_a_fraction_of_the_cells(self, monkeypatch):
        c, mu0, mu1 = _bench_cone_pair()
        sizes, linprog = [], tr.linprog

        def spy(cost, *args, **kwargs):
            sizes.append(np.size(cost))
            return linprog(cost, *args, **kwargs)

        monkeypatch.setattr(tr, "linprog", spy)
        w, q = wasserstein2(c, mu0, mu1)
        C, a, b = _lp_inputs(c, mu0, mu1)
        assert C.shape == (139, 139)
        assert sizes[-1] < C.size / 4
        assert (q.certificate.cells, q.certificate.rounds) == (sizes[-1], len(sizes) - 1)
        assert w == pytest.approx(_dense_lp_w2(C, a, b), rel=1e-9)

    @pytest.mark.parametrize("problem", ["cloud", "cone"])
    def test_pricing_recovers_from_a_one_cell_shortlist(self, problem, monkeypatch):
        monkeypatch.setattr(tr, "_SHORTLIST_WIDTH", 1)
        C, a, b = _cloud_problem(7) if problem == "cloud" else _lp_inputs(*_bench_cone_pair())
        plan, alpha, beta, cells, rounds = tr._lp_plan(C, a, b)
        tr._certify_optimality(C, plan, alpha, beta)
        assert rounds >= 1
        assert math.sqrt(np.sum(plan * C)) == pytest.approx(_dense_lp_w2(C, a, b), rel=1e-9)

    @pytest.mark.parametrize("seed", range(100, 104))
    def test_far_apart_nearest_cells_alone_are_infeasible(self, seed):
        # each row's and column's cheapest cells by raw cost leave some
        # marginals unreachable; the north-west corner cells are what fit a plan
        C, a, b = _cloud_problem(seed, offset=50.0)
        nr, nc = C.shape
        w = tr._SHORTLIST_WIDTH
        keep = np.zeros(C.shape, dtype=bool)
        keep[np.arange(nr)[:, None], np.argpartition(C, w - 1, axis=1)[:, :w]] = True
        keep[np.argpartition(C, w - 1, axis=0)[:w], np.arange(nc)] = True
        assert _lp_on(C, a, b, keep).status == 2  # infeasible
        assert tr._lp_plan(C, a, b)[4] >= 1  # and the Sinkhorn shortlist needs pricing here

    def test_certificate_records_solver_and_magnitudes(self):
        space = lebesgue_interval(40)
        rng = np.random.default_rng(3)
        mu0, mu1 = (density_from_mass(space, rng.gamma(2.0, size=40)) for _ in range(2))
        cert = wasserstein2(space, mu0, mu1)[1].certificate
        assert (cert.solver, cert.cells, cert.rounds) == ("monotone", 79, 0)
        assert 0.0 <= cert.dual_infeasibility <= 1e-9 and 0.0 <= cert.slackness <= 1e-7
        point = np.zeros(40)
        point[5] = 1.0
        cert = wasserstein2(space, density_from_mass(space, point), mu1)[1].certificate
        assert (cert.solver, cert.cells, cert.rounds) == ("monotone", 40, 0)
        assert cert.dual_infeasibility == 0.0 and cert.slackness == 0.0
        w, q = wasserstein2(space, mu0, density_from_mass(space, point))  # one column
        assert (q.certificate.solver, q.certificate.cells) == ("monotone", 40)
        assert w == pytest.approx(math.sqrt(np.sum(mu0.mass * space.dist[:, 5] ** 2)), rel=1e-12)


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

    def test_mass_is_a_copy_of_the_callers_array(self):
        space = mms.circle_mms(6, 1.0)
        m = np.full(6, 1 / 6)
        d = Density(space, m)
        assert m.flags.writeable and not d.mass.flags.writeable
        m[0], m[1] = 0.5, 0.0
        assert np.array_equal(d.mass, np.full(6, 1 / 6))

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


def _reference_midpoint(m, q, eps):
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
    assert np.array_equal(displacement_midpoint(space, q, eps).mass, _reference_midpoint(space, q, eps))


class TestRenyi:
    def test_uniform_closed_form(self):
        space = lebesgue_interval(50)
        sub = np.arange(10, 30)
        mu = uniform_density(space, sub)
        w = float(space.weight[sub].sum())
        for Np in (1.5, 3.0, 7.0):
            assert renyi_entropy(mu, Np) == pytest.approx(w ** (1.0 / Np), rel=1e-12)

    def test_large_exponent_limit(self):
        space = lebesgue_interval(50)
        mu = uniform_density(space)
        w = space.total_mass()
        assert renyi_entropy(mu, 1e9) == pytest.approx(w ** (1e-9), rel=1e-9)

    def test_single_atom(self):
        space = lebesgue_interval(8)
        m = np.zeros(8); m[3] = 1.0
        mu = Density(space, m)
        w = space.weight[3]
        assert renyi_entropy(mu, 4.0) == pytest.approx(w ** 0.25, rel=1e-12)


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


def _oracle_coeff(full, K, N, t, theta):
    """The scalar sigma / tau with math-module branches, one cell at a time."""
    def sigma(N):
        x = math.sqrt(abs(K) / N) * theta
        if x < 1e-8:
            return t
        if K < 0:
            return math.sinh(x * t) / math.sinh(x)
        return math.sin(x * t) / math.sin(x) if x < math.pi else math.inf

    if not full:
        return sigma(N)
    if N == 1.0:
        return math.inf if K * theta * theta > 0 else t
    if K * theta * theta > (N - 1.0) * math.pi ** 2:
        return math.inf
    return t ** (1.0 / N) * sigma(N - 1.0) ** (1.0 - 1.0 / N)


def _oracle_rhs(space, mu0, mu1, full, K, Np):
    """The right-hand side as a per-cell loop over the plan, inf on an infinite cell."""
    _, q = wasserstein2(space, mu0, mu1)
    rho0, rho1 = mu0.rho(), mu1.rho()
    total = 0.0
    for i, j, mass in zip(q.plan.row.tolist(), q.plan.col.tolist(), q.plan.data.tolist()):
        c = _oracle_coeff(full, K, Np, 0.5, float(space.dist[i, j]))
        if c == math.inf:
            return math.inf
        total += mass * c * (rho0[i] ** (-1.0 / Np) + rho1[j] ** (-1.0 / Np))
    return total


@pytest.mark.parametrize("K", [2.0, 0.0, -2.0, 30.0])
@pytest.mark.parametrize("full", [False, True], ids=["sigma", "tau"])
def test_convexity_reports_match_the_per_cell_oracle(K, full):
    infinite = 0
    for space, mu0, mu1, cd, eps in _pair_cases():
        cd = CurvatureDimension(K, cd.N)
        nprimes = (cd.N, 2.0 * cd.N)
        reports = convexity_reports(space, mu0, mu1, cd, nprimes, eps, 0.1,
                                    tau_coeff if full else sigma_coeff)
        for Np, rep in zip(nprimes, reports):
            want = _oracle_rhs(space, mu0, mu1, full, K, Np)
            if want == math.inf:
                infinite += 1
                assert rep.rhs.is_infinite and rep.slack == -math.inf and not rep.passed
            else:
                assert rep.rhs.as_float() == pytest.approx(want, rel=1e-12)
                assert rep.slack == pytest.approx(rep.lhs - want, rel=1e-12, abs=1e-12)
    # for K > 0 the third case has cells past the blow-up of both coefficients
    assert (infinite > 0) == (K > 0)


def test_convexity_reports_call_coeff_once_per_nprime():
    space, mu0, mu1, cd, eps = _pair_cases()[1]
    calls = []

    def spy(cdN, t, theta):
        calls.append((cdN.N, t, np.shape(theta)))
        return sigma_coeff(cdN, t, theta)

    nprimes = (cd.N, 1.5 * cd.N, 2.0 * cd.N)
    convexity_reports(space, mu0, mu1, cd, nprimes, eps, 0.1, spy)
    cells = wasserstein2(space, mu0, mu1)[1].plan.nnz
    assert calls == [(Np, 0.5, (cells,)) for Np in nprimes]


class TestPairCache:
    """cd_star_check and cd_check share one pair's coupling and midpoint."""

    def test_one_coupling_and_one_midpoint_per_pair(self, monkeypatch):
        space, mu0, mu1, cd, eps = _pair_cases()[0]
        solves = _counted(monkeypatch, "wasserstein2")
        pushes = _counted(monkeypatch, "displacement_midpoint")
        for check in (cd_star_check, cd_check):
            for Np in (3.0, 6.0):
                check(space, mu0, mu1, cd, Np, eps, 0.1)
        assert (len(solves), len(pushes)) == (1, 1)

    @pytest.mark.parametrize("case", range(3))
    def test_reports_match_fresh_densities(self, case):
        space, mu0, mu1, cd, eps = _pair_cases()[case]
        runs = [(check, Np) for check in (cd_star_check, cd_check) for Np in (cd.N, 2.0 * cd.N)]
        kept = [check(space, mu0, mu1, cd, Np, eps, 0.1) for check, Np in runs]
        for rep, (check, Np) in zip(kept, runs):
            ref = check(space, _fresh(space, mu0), _fresh(space, mu1), cd, Np, eps, 0.1)
            assert rep == ref and repr(rep) == repr(ref)

    def test_new_eps_density_or_space_recomputes(self, monkeypatch):
        space, mu0, mu1, cd, eps = _pair_cases()[0]
        other = mms.FiniteMMS(space.labels, space.dist, space.weight)
        solves = _counted(monkeypatch, "wasserstein2")
        pushes = _counted(monkeypatch, "displacement_midpoint")
        for m, a, b, e in ((space, mu0, mu1, eps), (space, mu0, mu1, 2 * eps),
                           (space, _fresh(space, mu0), mu1, 2 * eps),
                           (space, mu0, _fresh(space, mu1), 2 * eps),
                           (other, _fresh(other, mu0), _fresh(other, mu1), 2 * eps)):
            cd_star_check(m, a, b, cd, 3.0, e, 0.1)
        assert (len(solves), len(pushes)) == (5, 5)

    def test_missing_midpoint_raises_on_every_call(self, monkeypatch):
        space = mms.FiniteMMS(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
        mu0 = Density(space, np.array([1.0, 0.0]))
        mu1 = Density(space, np.array([0.0, 1.0]))
        cd = CurvatureDimension(0.0, 2.0)
        solves = _counted(monkeypatch, "wasserstein2")
        for _ in range(2):
            with pytest.raises(NoMidpointError):
                cd_star_check(space, mu0, mu1, cd, 2.0, 0.0, 0.1)
        assert len(solves) == 2

    def test_kept_pair_is_released_by_the_next_pair(self):
        def checked_space():
            space, mu0, mu1, cd, eps = _pair_cases()[2]
            cd_star_check(space, mu0, mu1, cd, cd.N, eps, 0.1)
            return weakref.ref(space)

        first = checked_space()
        space, mu0, mu1, cd, eps = _pair_cases()[2]
        cd_check(space, mu0, mu1, cd, cd.N, eps, 0.1)
        gc.collect()
        assert first() is None
