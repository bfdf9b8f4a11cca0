import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecheck.gamma_calc import (
    WeightedGraph,
    be_check,
    complete_graph,
    curvature_dimension,
    cycle_graph,
    gamma,
    gamma2,
    path_graph_from_interval_model,
)
from conecheck.gamma_calc.graph import _local_forms


def loop_gamma(g, u, v):
    """Stencil-sum oracle with explicit Python loops."""
    n = g.n
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for y in range(n):
            acc += g.edge_weights[x, y] * (u[y] - u[x]) * (v[y] - v[x])
        out[x] = acc / (2.0 * g.vertex_measure[x])
    return out


def loop_gamma2(g, u):
    """Two-ball expansion oracle: every ingredient re-derived with loops."""
    n = g.n

    def loop_L(w):
        out = np.zeros(n)
        for x in range(n):
            out[x] = sum(
                g.edge_weights[x, y] * (w[y] - w[x]) for y in range(n)
            ) / g.vertex_measure[x]
        return out

    gam = loop_gamma(g, u, u)
    lu = loop_L(u)
    return 0.5 * loop_L(gam) - loop_gamma(g, u, lu)


def random_graph(rng, n):
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    w = np.triu(w, 1)
    w = w + w.T
    m = 0.5 + rng.random(n)
    return WeightedGraph(m, w)


class TestGammaBasics:
    def test_constant_kills_gamma(self):
        g = random_graph(np.random.default_rng(0), 6)
        assert np.allclose(gamma(g, np.ones(6)), 0.0)
        assert np.allclose(gamma2(g, np.full(6, 3.7)), 0.0)

    def test_two_vertex_hand_values(self):
        g = complete_graph(2)
        u = np.array([0.0, 1.0])
        assert np.allclose(gamma(g, u), [0.5, 0.5])
        # hand expansion: L Gamma(u) = 0 (Gamma constant), Gamma(u, Lu) = -1
        assert np.allclose(gamma2(g, u), [1.0, 1.0])
        assert np.allclose(gamma2(g, u), loop_gamma2(g, u))

    def test_expanded_form_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 9)))
            u, v = rng.standard_normal(g.n), rng.standard_normal(g.n)
            assert np.max(np.abs(gamma(g, u, v) - loop_gamma(g, u, v))) <= 1e-12

    def test_gamma2_matches_two_ball_expansion(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 9)))
            u = rng.standard_normal(g.n)
            assert np.max(np.abs(gamma2(g, u) - loop_gamma2(g, u))) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
    def test_bilinearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 6)
        u, w, v = (rng.standard_normal(6) for _ in range(3))
        lhs = gamma(g, a * u + b * w, v)
        rhs = a * gamma(g, u, v) + b * gamma(g, w, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + abs(a) + abs(b))

    def test_leibniz_defect_guard(self):
        # the discrete Gamma is not a derivation: the defect on K3 is nonzero
        g = complete_graph(3)
        rng = np.random.default_rng(3)
        u, v, w = (rng.standard_normal(3) for _ in range(3))
        defect = gamma(g, u, v * w) - (gamma(g, u, v) * w + v * gamma(g, u, w))
        assert np.max(np.abs(defect)) > 1e-3

    def test_self_adjointness_of_generator(self):
        g = random_graph(np.random.default_rng(4), 7)
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(7), rng.standard_normal(7)
        m = g.vertex_measure
        assert float((g.apply_L(u) * v) @ m) == pytest.approx(
            float((g.apply_L(v) * u) @ m), abs=1e-12
        )
        assert np.allclose(g.apply_L(np.ones(7)), 0.0)

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            WeightedGraph(np.array([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            WeightedGraph(np.ones(2), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            WeightedGraph(np.ones(2), np.array([[1.0, 1.0], [1.0, 0.0]]))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), where=st.integers(0, 35), in_edges=st.booleans())
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad, n, where, in_edges):
        m, w = np.ones(n), np.ones((n, n)) - np.eye(n)
        if in_edges:
            w.flat[where % w.size] = bad
        else:
            m[where % n] = bad
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph(m, w)


class TestCurvature:
    def test_isolated_vertex_undefined(self):
        w = np.zeros((3, 3))
        w[1, 2] = w[2, 1] = 1.0
        g = WeightedGraph(np.ones(3), w)
        res = curvature_dimension(g, 0, 2.0)
        assert res.kappa is None and res.certificate is None

    def test_two_vertex_values(self):
        g = complete_graph(2)
        # kappa(x, N) = 2 - 2/N from the single admissible direction
        for N in (2.0, 5.0, math.inf):
            res = curvature_dimension(g, 0, N)
            expected = 2.0 if math.isinf(N) else 2.0 - 2.0 / N
            assert res.kappa == pytest.approx(expected, abs=1e-10)

    def test_k3_brute_force(self):
        g = complete_graph(3)
        res = curvature_dimension(g, 0, math.inf)
        rng = np.random.default_rng(0)
        best = math.inf
        for _ in range(20_000):
            u = rng.standard_normal(3)
            gm = gamma(g, u)[0]
            if gm > 1e-9:
                best = min(best, gamma2(g, u)[0] / gm)
        assert res.kappa == pytest.approx(best, abs=1e-6)

    def test_certificate_attains_value(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_graph(rng, 7)
            x = int(rng.integers(0, 7))
            if not np.any(g.edge_weights[x] > 0):
                continue
            N = float(rng.choice([2.0, 4.0, math.inf]))
            res = curvature_dimension(g, x, N)
            if res.kappa is None or math.isinf(res.kappa):
                continue
            u = res.certificate
            assert gamma(g, u)[x] == pytest.approx(1.0, abs=1e-10)
            inv_n = 0.0 if math.isinf(N) else 1.0 / N
            val = gamma2(g, u)[x] - inv_n * g.apply_L(u)[x] ** 2
            assert val == pytest.approx(res.kappa, abs=1e-8)

    def test_monotone_in_dimension(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, 6)
            x = int(rng.integers(0, 6))
            if not np.any(g.edge_weights[x] > 0):
                continue
            ks = [curvature_dimension(g, x, N).kappa for N in (1.5, 3.0, 10.0, math.inf)]
            ks = [k for k in ks if k is not None and not math.isinf(k)]
            assert all(a <= b + 1e-9 for a, b in zip(ks, ks[1:]))

    def test_infinite_dimension_limit(self):
        g = complete_graph(4, weight=0.7, measure=1.3)
        k_inf = curvature_dimension(g, 1, math.inf).kappa
        k_big = curvature_dimension(g, 1, 1e6).kappa
        assert abs(k_inf - k_big) <= 1e-5


def polarized_gamma2_form(g, x, ball2):
    """Gamma2(x) form by polarization of the exact whole-graph gamma2."""
    basis = np.zeros((ball2.size, g.n))
    basis[np.arange(ball2.size), ball2] = 1.0
    diag = np.array([gamma2(g, e)[x] for e in basis])
    Q = np.diag(diag)
    for a in range(ball2.size):
        for b in range(a + 1, ball2.size):
            cross = gamma2(g, basis[a] + basis[b])[x]
            Q[a, b] = Q[b, a] = 0.5 * (cross - diag[a] - diag[b])
    return Q


class TestLocalForms:
    def check_forms(self, g, x):
        ball2, P, ell, Q = _local_forms(g, x)
        Qp = polarized_gamma2_form(g, x, ball2)
        assert np.max(np.abs(Q - Qp)) <= 1e-12 * np.max(np.abs(Qp))
        rng = np.random.default_rng(x)
        u = np.zeros(g.n)
        u[ball2] = rng.standard_normal(ball2.size)
        scale = max(1.0, float(np.max(np.abs(P))), float(np.max(np.abs(ell))))
        assert u[ball2] @ P @ u[ball2] == pytest.approx(gamma(g, u)[x], abs=1e-12 * scale)
        assert ell @ u[ball2] == pytest.approx(g.apply_L(u)[x], abs=1e-12 * scale)

    def test_closed_form_matches_polarization_random(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(5, 25))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
            w = np.triu(w, 1)
            g = WeightedGraph(0.5 + rng.random(n), w + w.T)
            for x in range(n):
                if np.any(g.edge_weights[x] > 0):
                    self.check_forms(g, x)

    def test_closed_form_matches_polarization_complete(self):
        self.check_forms(complete_graph(40), 7)

    def test_curvature_does_not_call_gamma2(self, monkeypatch):
        import conecheck.gamma_calc.graph as graph_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("curvature_dimension called gamma2")

        monkeypatch.setattr(graph_mod, "gamma2", forbidden)
        res = graph_mod.curvature_dimension(complete_graph(5), 0, 3.0)
        assert res.kappa is not None

    def test_cycle_is_ricci_flat(self):
        g = cycle_graph(200)
        for x in range(g.n):
            res = curvature_dimension(g, x, 2.0)
            assert abs(res.kappa) <= 1e-9
            assert 0.0 < res.roundoff <= 1e-9


def null_space_kappa(g, x, N):
    """The former algorithm, kept as an oracle: eliminate the null space of Gamma(x).

    Eigendecomposes the Gamma(x)-form, splits off its numerical null space,
    takes a pseudo-inverse Schur complement there and solves a generalized
    eigenproblem on the range; -inf where the objective is unbounded below.
    """
    import scipy.linalg

    ball2, P, ell, Q = _local_forms(g, x)
    Q = Q - np.outer(ell, ell) / N
    evals, evecs = scipy.linalg.eigh(P)
    cut = 1e-12 * max(float(evals[-1]), 1.0)
    null, rang, p_kept = evecs[:, evals <= cut], evecs[:, evals > cut], evals[evals > cut]
    scale = max(float(np.abs(Q).max()), 1.0)
    Qt = rang.T @ Q @ rang
    if null.shape[1]:
        Qnn, Qnr = null.T @ Q @ null, null.T @ Q @ rang
        nn_vals, nn_vecs = scipy.linalg.eigh(Qnn)
        if float(nn_vals[0]) < -1e-10 * scale:
            return -math.inf
        keep = nn_vals > 1e-10 * scale
        zero_dirs = nn_vecs[:, ~keep]
        if zero_dirs.size and float(np.abs(zero_dirs.T @ Qnr).max()) > 1e-8 * scale:
            return -math.inf
        Qnn_pinv = (nn_vecs[:, keep] / nn_vals[keep]) @ nn_vecs[:, keep].T
        Qt = Qt - Qnr.T @ Qnn_pinv @ Qnr
    return float(scipy.linalg.eigh(Qt, np.diag(p_kept), eigvals_only=True)[0])


def random_graph_family(rng, count):
    """Sparse and dense random weighted graphs; every fourth is a union of two."""
    for i in range(count):
        parts = [int(rng.integers(1, 8)) for _ in range(1 + (i % 4 == 0))]
        n = sum(parts)
        w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.15, 0.8))
        mask = np.zeros((n, n), dtype=bool)
        start = 0
        for k in parts:
            mask[start:start + k, start:start + k] = True
            start += k
        w = np.triu(w * mask, 1)
        yield WeightedGraph(0.5 + rng.random(n), w + w.T)


class TestShellsAgainstNullSpaceOracle:
    def assert_matches_oracle(self, g, x, N):
        kappa = curvature_dimension(g, x, N).kappa
        want = null_space_kappa(g, x, N)
        assert math.isfinite(kappa) and math.isfinite(want)
        assert abs(kappa - want) <= 1e-9 * max(1.0, abs(want)), (x, N, kappa, want)

    def test_random_graphs(self):
        rng = np.random.default_rng(21)
        disconnected = 0
        for g in random_graph_family(rng, 240):
            disconnected += g.ball(0, g.n).size < g.n
            for x in range(g.n):
                if not np.any(g.edge_weights[x] > 0):
                    assert curvature_dimension(g, x, 2.0).kappa is None
                    continue
                for N in (1.0, 2.0, 4.0, math.inf):
                    self.assert_matches_oracle(g, x, N)
        assert disconnected >= 60

    @pytest.mark.parametrize("g", [cycle_graph(200), complete_graph(40),
                                   path_graph_from_interval_model(1.0, 2.0, 160)],
                             ids=["cycle200", "K40", "path160"])
    def test_model_graphs(self, g):
        for x in range(g.n):
            for N in (1.0, 2.0, 4.0, math.inf):
                self.assert_matches_oracle(g, x, N)

    def test_one_eigensolve_per_vertex(self, monkeypatch):
        import conecheck.gamma_calc.graph as graph_mod

        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(graph_mod.np.linalg, "eigh", counting_eigh)
        g = next(random_graph_family(np.random.default_rng(22), 1))
        connected = [x for x in range(g.n) if np.any(g.edge_weights[x] > 0)]
        for x in range(g.n):
            graph_mod.curvature_dimension(g, x, 2.0)
        assert len(calls) == len(connected) > 0


class TestBECheck:
    def test_exhaustive_tolerance_scales_with_forms(self):
        # CD(0, 2) holds on the cycle; roundoff in kappa must not fail it at tol = 0
        g = cycle_graph(200)
        assert be_check(g, 0.0, 2.0, strategy="exhaustive-local").passed
        assert not be_check(g, 1e-6, 2.0, strategy="exhaustive-local").passed

    def test_vacuous_bound_passes(self):
        g = random_graph(np.random.default_rng(8), 6)
        rep = be_check(g, kappa=-1e6, N=2.0, strategy="sampled", samples=50)
        assert rep.passed

    def test_exhaustive_matches_curvature(self):
        g = complete_graph(3)
        kappa3 = curvature_dimension(g, 0, math.inf).kappa
        good = be_check(g, kappa=kappa3 - 1e-6, N=math.inf, strategy="exhaustive-local")
        assert good.passed
        bad = be_check(g, kappa=kappa3 + 1e-3, N=math.inf, strategy="exhaustive-local")
        assert not bad.passed

    def test_sampled_never_beats_exhaustive(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 6)
        kappa, N = 0.1, 4.0
        s = be_check(g, kappa, N, strategy="sampled", samples=400, seed=1)
        e = be_check(g, kappa, N, strategy="exhaustive-local")
        assert s.min_defect >= e.min_defect - 1e-9

    def test_model_path_smooth_window(self):
        # discretized weighted interval: smooth test functions on an interior
        # window show the expected O(h) defect against (nu, nu+1)
        n = 200
        h = math.pi / n
        g = path_graph_from_interval_model(1.0, 1.0, n)
        r = (np.arange(n) + 0.5) * h
        window = np.nonzero((r > 0.4) & (r < math.pi - 0.4))[0]
        rng = np.random.default_rng(10)

        def smooth(rng_):
            c = rng_.standard_normal((2, 5))
            c /= np.abs(c).sum()
            return sum(c[0, k] * np.cos(k * r) + c[1, k] * np.sin(k * r) for k in range(5))

        rep = be_check(g, kappa=1.0, N=2.0, strategy="sampled", tol=5 * h,
                       samples=60, seed=11, vertices=window, sample_fn=smooth)
        assert rep.passed

    def test_sampled_nan_fails(self):
        # one NaN coordinate must not hide the violations in that sample
        g = cycle_graph(50)

        def with_nan(rng):
            u = rng.standard_normal(g.n)
            u[7] = np.nan
            return u

        rep = be_check(g, kappa=1e6, N=2.0, strategy="sampled", samples=5, sample_fn=with_nan)
        assert not rep.passed
        assert not math.isfinite(rep.min_defect)
        assert rep.witness_vertex is not None

    def test_no_evidence_fails(self):
        # an edgeless graph has no vertex where the inequality says anything,
        # and zero samples test nothing: neither is a pass
        edgeless = WeightedGraph(np.ones(4), np.zeros((4, 4)))
        rep = be_check(edgeless, -1e6, 2.0, strategy="exhaustive-local")
        assert not rep.passed and rep.witness_vertex is None
        assert not be_check(cycle_graph(8), -1e6, 2.0, strategy="sampled", samples=0).passed

    def test_bad_tolerance_raises(self):
        for tol in (math.nan, math.inf, -1e-3):
            with pytest.raises(ValueError):
                be_check(cycle_graph(8), 0.0, 2.0, strategy="sampled", tol=tol, samples=2)

    def test_unknown_strategy(self):
        g = complete_graph(2)
        with pytest.raises(ValueError):
            be_check(g, 0.0, 2.0, strategy="nope")


class TestModelGraphs:
    def test_path_graph_matches_fd_operator(self):
        from conecheck.spectral1d import discretize_fiber_operator

        n = 60
        g = path_graph_from_interval_model(1.0, 2.0, n)
        op = discretize_fiber_operator(1.0, 2.0, 0.0, n)
        rng = np.random.default_rng(12)
        u = rng.standard_normal(n)
        assert np.max(np.abs(g.apply_L(u) - op.apply_generator(u))) <= 1e-10

    @pytest.mark.parametrize("K, nu, r_max", [(1.0, 2.0, None), (1.0, 0.5, None), (-1.0, 3.0, 3.0)])
    @pytest.mark.parametrize("n", [60, 160])
    def test_path_graph_is_the_radial_scheme(self, K, nu, r_max, n):
        # independent assembly: cell-weight measure, sin_K^nu(face)/h conductances
        from conecheck.mms import radial_grid
        from conecheck.model_fns import sin_k

        grid = radial_grid(K, nu, n, r_max=r_max)
        a = sin_k(K, np.arange(1, n) * grid.h) ** nu / grid.h
        w = np.zeros((n, n))
        w[np.arange(n - 1), np.arange(1, n)] = a
        w[np.arange(1, n), np.arange(n - 1)] = a
        g = path_graph_from_interval_model(K, nu, n, r_max=r_max)
        assert np.array_equal(g.vertex_measure, grid.cell_weights)
        assert np.array_equal(g.edge_weights, w)

    def test_cycle_discretizes_circle(self):
        n = 128
        g = cycle_graph(n, 2 * math.pi)
        x = 2 * math.pi * np.arange(n) / n
        u = np.cos(x)
        # Lu -> -u with O(h^2) error
        assert np.max(np.abs(g.apply_L(u) + u)) <= (2 * math.pi / n) ** 2
