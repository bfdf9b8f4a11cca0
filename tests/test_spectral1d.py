import math

import numpy as np
import pytest

from conecheck import gamma_calc as gc
from conecheck.model_fns import CurvatureDimension, cos_k, sin_k
from conecheck.spectral1d import (
    bakry_ledoux_check,
    cone_spectrum,
    discretize_fiber_operator,
    eigen,
    essential_self_adjointness,
    heat_semigroup_1d,
    spectral_gap_bound_check,
)
from conecheck.spectral1d import _HEAT_CUT, _gamma_fd, _inverse_square_coefficient


def schrodinger_potential(K, nu, lam):
    """V of the unitarily equivalent -d^2/dr^2 + V form, up to an additive constant."""
    def V(r):
        s, c = sin_k(K, r), cos_k(K, r)
        return ((nu * nu / 4.0) * c * c - nu / 2.0 + lam) / (s * s)
    return V


class TestDiscretization:
    @pytest.mark.parametrize("K,nu,n,r_max", [(1.0, 2.0, 60, None), (4.0, 1.5, 97, None),
                                              (0.0, 1.0, 50, 2.0), (-1.0, 3.0, 60, 3.0),
                                              (1.0, 1.0, 25, None), (1.0, 1.0, 400, None),
                                              (1.0, 1.0, 800, None)])
    def test_one_step_and_one_mass(self, K, nu, n, r_max):
        op = discretize_fiber_operator(K, nu, 0.0, n, r_max=r_max)
        L = math.pi / math.sqrt(K) if r_max is None else r_max
        assert op.grid.h == L / n
        assert op.grid.r_max == L  # the interval itself, not rebuilt from the nodes
        assert np.array_equal(op.m_diag, op.grid.cell_weights)
        assert np.array_equal(op.m_diag, sin_k(K, op.grid.nodes) ** nu * op.grid.h)

    def test_self_adjoint_and_psd(self):
        op = discretize_fiber_operator(1.0, 2.0, 1.5, 64)
        # <Lu, v>_M = <u, Lv>_M
        u, v = np.random.default_rng(3).standard_normal((2, op.n))
        Lu, Lv = op.apply_generator(u), op.apply_generator(v)
        assert abs(v @ (op.m_diag * Lu) - u @ (op.m_diag * Lv)) <= 1e-12 * np.abs(op.a_diag).sum()
        spec = eigen(op, op.n)
        assert spec.eigenvalues[0] >= -1e-10

    def test_neumann_oracle(self):
        # nu = 0: standard Neumann Laplacian on (0, L); eigenvalues (k pi/L)^2
        L = 2.0
        op = discretize_fiber_operator(0.0, 0.0, 0.0, 400, r_max=L)
        vals = eigen(op, 4).eigenvalues
        expected = [(k * math.pi / L) ** 2 for k in range(4)]
        assert np.allclose(vals, expected, atol=1e-3)

    def test_first_eigenfunction_is_generalized_cosine(self):
        # nu = N-1, K=1: lowest nonzero eigenvalue N with eigenfunction cos r
        for N in (2.0, 3.0):
            op = discretize_fiber_operator(1.0, N - 1.0, 0.0, 800)
            spec = eigen(op, 2)
            assert spec.eigenvalues[1] == pytest.approx(N, rel=1e-4)
            v = spec.eigenvectors[:, 1]
            c = np.cos(op.grid.nodes)
            v = v * np.sign(v @ (op.m_diag * c))
            c_norm = c / math.sqrt(c @ (op.m_diag * c))
            assert np.max(np.abs(v - c_norm)) <= 1e-3 * np.max(np.abs(c_norm))

    def test_weight_exponent_shift(self):
        # nu = N: L cos = -(N+1) cos
        op = discretize_fiber_operator(1.0, 3.0, 0.0, 800)
        vals = eigen(op, 2).eigenvalues
        assert vals[1] == pytest.approx(4.0, rel=1e-4)

    def test_legendre_oracle(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 1200)
        vals = eigen(op, 5).eigenvalues
        assert np.allclose(vals, [0, 2, 6, 12, 20], atol=2e-3)

    def test_associated_legendre_oracle(self):
        op = discretize_fiber_operator(1.0, 1.0, 1.0, 1200)
        vals = eigen(op, 3).eigenvalues
        assert np.allclose(vals, [2, 6, 12], atol=2e-3)

    def test_m_orthonormality(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 128)
        spec = eigen(op, 6)
        G = spec.eigenvectors.T @ (op.m_diag[:, None] * spec.eigenvectors)
        assert np.max(np.abs(G - np.eye(6))) <= 1e-8

    def test_second_order_convergence(self):
        errs = []
        for n in (200, 400):
            op = discretize_fiber_operator(1.0, 2.0, 0.0, n)
            errs.append(abs(eigen(op, 2).eigenvalues[1] - 3.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("K,nu,lam", [(1.0, 1.0, 0.0), (1.0, 2.0, 1.0)])
    def test_full_spectrum_matches_bisection(self, K, nu, lam):
        # the whole spectrum comes from MRRR; bisection is the reference
        from scipy.linalg import eigh_tridiagonal

        op = discretize_fiber_operator(K, nu, lam, 800)
        spec = eigen(op, op.n)
        s = 1.0 / np.sqrt(op.m_diag)
        ref = eigh_tridiagonal(op.a_diag * s * s, op.a_off * s[:-1] * s[1:], select="i",
                               select_range=(0, op.n - 1), eigvals_only=True)
        # relative, with a floor of 1 for the zero mode
        assert np.all(np.abs(spec.eigenvalues - ref) <= 1e-9 * np.maximum(np.abs(ref), 1.0))
        V = spec.eigenvectors
        G = V.T @ (op.m_diag[:, None] * V)
        assert np.max(np.abs(G - np.eye(op.n))) <= 1e-10
        u = np.random.default_rng(4).standard_normal(op.n)
        lhs = heat_semigroup_1d(op, heat_semigroup_1d(op, u, 0.2), 0.3)
        assert np.max(np.abs(lhs - heat_semigroup_1d(op, u, 0.5))) <= 1e-8

    @pytest.mark.parametrize("k", [5, 60])
    def test_residuals_are_the_per_pair_norms(self, k):
        # the gate's one expression over all k columns against one norm per pair
        op = discretize_fiber_operator(1.0, 2.0, 1.0, 60)
        spec = eigen(op, k)
        V, mu = spec.eigenvectors, spec.eigenvalues
        loop = [np.linalg.norm(op._apply_stiffness(V[:, i]) - mu[i] * op.m_diag * V[:, i])
                for i in range(k)]
        assert spec.residuals == pytest.approx(loop, rel=1e-12, abs=1e-300)

    def test_by_value_keeps_the_pairs_below_the_cut(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 200)
        full = eigen(op, op.n)
        part = eigen(op, op.n, mu_max=300.0)
        assert part.eigenvalues.size == np.count_nonzero(full.eigenvalues <= 300.0) > 0
        assert np.all(part.eigenvalues <= 300.0)
        assert part.eigenvalues == pytest.approx(full.eigenvalues[:part.eigenvalues.size],
                                                 rel=1e-9, abs=1e-9)
        assert eigen(op, 3, mu_max=300.0).eigenvalues.size == 3  # k still caps the count
        assert eigen(op, op.n, mu_max=-1.0).eigenvalues.size == 0  # nothing below: no pair

    @pytest.mark.parametrize("k, driver", [(3, "stebz"), (39, "stebz"), (40, "stemr")])
    def test_driver_follows_k(self, k, driver, monkeypatch):
        # a partial spectrum keeps bisection; only the whole one takes MRRR
        import scipy.linalg

        seen = []
        real = scipy.linalg.eigh_tridiagonal

        def spy(d, e, **kwargs):
            seen.append(kwargs)
            return real(d, e, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        eigen(discretize_fiber_operator(1.0, 1.0, 0.0, 40), k)
        assert len(seen) == 1
        if driver == "stebz":
            assert seen[0] == {"select": "i", "select_range": (0, k - 1)}
        else:
            assert seen[0] == {"lapack_driver": "stemr"}

    def test_small_n_warns(self):
        with pytest.warns(RuntimeWarning):
            discretize_fiber_operator(1.0, 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            discretize_fiber_operator(1.0, 1.0, 0.0, 2)


class TestSchrodingerWeyl:
    def test_free_potential(self):
        assert _inverse_square_coefficient(0.0, 0.0) == 0.0
        assert abs(schrodinger_potential(1.0, 0.0, 0.0)(math.pi / 2)) <= 1e-12

    def test_threshold_cases(self):
        assert _inverse_square_coefficient(3.0, 0.0) == pytest.approx(0.75)
        assert _inverse_square_coefficient(1.0, 1.0) == pytest.approx(0.75)

    def test_endpoint_asymptotics(self):
        # V(r) ~ c0 / r^2 near both endpoints
        for nu, lam in ((2.5, 0.7), (1.0, 2.0)):
            V, c0 = schrodinger_potential(1.0, nu, lam), _inverse_square_coefficient(nu, lam)
            for r in (1e-4, 1e-5):
                assert V(r) * r * r == pytest.approx(c0, rel=1e-3)
                assert V(math.pi - r) * r * r == pytest.approx(c0, rel=1e-3)

    def test_transform_consistency_with_discretization(self):
        # the transformed operator -psi'' + V psi must be isospectral with
        # the weighted operator; compare on an interior Dirichlet window
        nu, lam = 2.0, 1.0
        op = discretize_fiber_operator(1.0, nu, lam, 1500)
        vals = eigen(op, 3).eigenvalues
        V = schrodinger_potential(1.0, nu, lam)
        n = 3000
        h = math.pi / (n + 1)
        r = np.arange(1, n + 1) * h
        main = 2.0 / h**2 + V(r)
        off = np.full(n - 1, -1.0 / h**2)
        from scipy.linalg import eigh_tridiagonal

        tv = eigh_tridiagonal(main, off, select="i", select_range=(0, 2),
                              eigvals_only=True)
        assert np.allclose(tv, vals, atol=5e-3)

    def test_weyl_table(self):
        assert essential_self_adjointness(3.0, 0.0) is True  # c0 = 3/4: limit point
        assert essential_self_adjointness(2.0, 0.0) is False  # c0 = 0: limit circle
        assert essential_self_adjointness(1.0, 1.0) is True  # c0 = 3/4: limit point

    def test_esa_cases(self):
        assert essential_self_adjointness(3.0, 0.0) is True
        assert essential_self_adjointness(1.5, 0.0) is False
        assert essential_self_adjointness(1.0, 1.0) is True

    def test_esa_full_table(self):
        for nu in (1.0, 1.5, 2.0, 2.9, 3.0, 5.0):
            for lam in (0.0, nu, nu + 1.0):
                got = essential_self_adjointness(nu, lam)
                c0 = nu * (nu - 2.0) / 4.0 + lam
                assert got == (c0 >= 0.75)
                if lam == 0.0:
                    assert got == (nu >= 3.0)
                else:
                    assert got  # lambda >= nu >= 1 always has c0 >= 3/4


class TestHeat:
    def test_constant_is_stationary(self):
        op = discretize_fiber_operator(1.0, 2.0, 0.0, 100)
        u = np.ones(100)
        assert np.max(np.abs(heat_semigroup_1d(op, u, 3.0) - u)) <= 1e-10

    def test_eigenvector_decay(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 150)
        spec = eigen(op, 3)
        v = spec.eigenvectors[:, 2]
        mu = spec.eigenvalues[2]
        got = heat_semigroup_1d(op, v, 0.37)
        assert np.max(np.abs(got - math.exp(-mu * 0.37) * v)) <= 1e-8

    def test_semigroup_law(self):
        op = discretize_fiber_operator(1.0, 2.0, 1.0, 200)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(200)
        lhs = heat_semigroup_1d(op, heat_semigroup_1d(op, u, 0.2), 0.3)
        rhs = heat_semigroup_1d(op, u, 0.5)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_mass_conservation_and_contraction(self):
        op = discretize_fiber_operator(1.0, 2.0, 0.0, 200)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(200)
        ut = heat_semigroup_1d(op, u, 0.7)
        assert float(op.m_diag @ ut) == pytest.approx(float(op.m_diag @ u), abs=1e-10)
        norm = lambda v: math.sqrt(float(v @ (op.m_diag * v)))
        assert norm(ut) <= norm(u) + 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, t):
        # inf used to send the constant to 0 and nan to return NaN
        op = discretize_fiber_operator(1.0, 2.0, 0.0, 50)
        with pytest.raises(ValueError, match="finite"):
            heat_semigroup_1d(op, np.ones(50), t)

    def test_identity_at_time_zero(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 80)
        u = np.sin(op.grid.nodes)
        assert np.max(np.abs(heat_semigroup_1d(op, u, 0.0) - u)) <= 1e-10


def _rel(got, want, u):
    """Max error relative to the larger of the oracle and the input u."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.max(np.abs(u))))


class TestHeatTruncation:
    """The semigroup expands in the pairs below _HEAT_CUT / t; a whole spectrum is the oracle.

    Two eigensolves differ by roundoff, which L amplifies: over the sweep the
    generator's error sits near 4e-11 of the scale in ``_rel``.  A cut of
    30/t already fails the 1e-10 bound, 20/t by four orders of magnitude.
    """

    @staticmethod
    def oracle(full, op, u, t):
        V = full.eigenvectors
        return V @ (np.exp(-full.eigenvalues * t) * (V.T @ (op.m_diag * u)))

    @pytest.mark.parametrize("n", [50, 200, 800])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("K", [1.0, 0.0, -1.0])
    def test_matches_the_whole_spectrum(self, K, nu, lam, n):
        full = eigen(discretize_fiber_operator(K, nu, lam, n), n)
        u = np.random.default_rng(n).standard_normal(n)  # every frequency present
        for t in (1e-4, 0.01, 0.1, 1.0, 3.0):
            op = discretize_fiber_operator(K, nu, lam, n)  # a fresh cache, cut at this t alone
            got, want = heat_semigroup_1d(op, u, t), self.oracle(full, op, u, t)
            assert _rel(got, want, u) <= 1e-10
            assert _rel(op.apply_generator(got), op.apply_generator(want), u) <= 1e-10
            ran_on = op.spectrum_below(0.0).eigenvalues.size
            assert ran_on == np.count_nonzero(full.eigenvalues <= _HEAT_CUT / t)

    def test_smaller_time_extends_the_cache(self):
        op = discretize_fiber_operator(1.0, 2.0, 0.0, 400)
        full = eigen(op, op.n)  # eigen itself leaves the cache alone
        u = np.random.default_rng(5).standard_normal(400)
        heat_semigroup_1d(op, u, 1.0)
        first = op.spectrum_below(0.0)
        got = heat_semigroup_1d(op, u, 0.01)
        second = op.spectrum_below(0.0)
        assert second is not first
        assert first.eigenvalues.size < second.eigenvalues.size < op.n
        want = self.oracle(full, op, u, 0.01)
        assert _rel(got, want, u) <= 1e-10
        assert _rel(op.apply_generator(got), op.apply_generator(want), u) <= 1e-10
        heat_semigroup_1d(op, u, 0.1)  # a cut the cache covers reads it
        assert op.spectrum_below(0.0) is second

    def test_time_zero_runs_on_every_mode(self):
        op = discretize_fiber_operator(1.0, 2.0, 1.0, 200)
        u = np.random.default_rng(6).standard_normal(200)
        got = heat_semigroup_1d(op, u, 0.0)
        assert op.spectrum_below(0.0).eigenvalues.size == op.n
        assert _rel(got, u, u) <= 1e-10

    def test_no_mode_below_the_cut_gives_zero(self):
        # lambda > 0 lifts the lowest mode above the cut 50/t at t = 1000
        op = discretize_fiber_operator(1.0, 2.0, 1.0, 100)
        got = heat_semigroup_1d(op, np.ones(100), 1000.0)
        assert op.spectrum_below(0.0).eigenvalues.size == 0
        assert np.array_equal(got, np.zeros(100))


class TestBakryLedoux:
    def test_time_zero_residual_vanishes(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 120)
        u = np.cos(op.grid.nodes) + 0.3 * np.sin(2 * op.grid.nodes)
        rep = bakry_ledoux_check(op, kappa=1.0, Nbe=2.0, u0=u, t=0.0, tol=1e-9)
        assert abs(rep.min) <= 1e-9 and abs(rep.max) <= 1e-9

    @pytest.mark.parametrize("N", [1.0, 2.0])
    def test_model_estimate_holds(self, N):
        op = discretize_fiber_operator(1.0, N, 0.0, 400)
        r = op.grid.nodes
        rng = np.random.default_rng(3)
        tol = 100.0 * op.grid.h**2 + 1e-6
        for _ in range(8):
            c = rng.standard_normal((2, 4))
            u = sum(c[0, k] * np.cos(k * r) + c[1, k] * np.sin(k * r) for k in range(4))
            for t in (0.01, 0.1, 1.0):
                rep = bakry_ledoux_check(op, kappa=N, Nbe=N + 1.0, u0=u, t=t, tol=tol)
                assert rep.passed

    @pytest.mark.parametrize("N", [1.0, 2.0])
    def test_inflated_curvature_fails(self, N):
        op = discretize_fiber_operator(1.0, N, 0.0, 400)
        u = np.cos(op.grid.nodes)
        rep = bakry_ledoux_check(op, kappa=2 * N, Nbe=N + 1.0, u0=u, t=0.05,
                                 tol=100.0 * op.grid.h**2 + 1e-6)
        assert not rep.passed

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, t):
        # at t = inf the residual used to be all zeros and pass
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 50)
        with pytest.raises(ValueError, match="finite"):
            bakry_ledoux_check(op, kappa=1.0, Nbe=2.0, u0=np.cos(op.grid.nodes), t=t, tol=1e-3)

    def test_zero_curvature_limit_factor(self):
        op = discretize_fiber_operator(0.0, 0.0, 0.0, 200, r_max=math.pi)
        u = np.cos(op.grid.nodes)
        rep = bakry_ledoux_check(op, kappa=0.0, Nbe=1.0, u0=u, t=0.2, tol=5e-3)
        assert rep.passed  # flat line satisfies the dimension-1 estimate


class TestGapBound:
    def test_model_equality(self):
        for N in (2.0, 3.0):
            op = discretize_fiber_operator(1.0, N - 1.0, 0.0, 1000)
            spec = eigen(op, 3)
            rep = spectral_gap_bound_check(spec, CurvatureDimension(N - 1.0, N), tol=0.01 * N)
            assert rep.passed
            assert rep.detail["lambda1"] == pytest.approx(rep.detail["bound"], rel=0.01)

    def test_precondition(self):
        op = discretize_fiber_operator(1.0, 1.0, 0.0, 64)
        spec = eigen(op, 2)
        with pytest.raises(ValueError):
            spectral_gap_bound_check(spec, CurvatureDimension(0.0, 1.0))

    def test_inflated_curvature_fails(self):
        # lambda1 = N but the inflated bound asks for (N-0.5)N/(N-1) > N when N < 3
        N = 2.0
        op = discretize_fiber_operator(1.0, N - 1.0, 0.0, 1000)
        spec = eigen(op, 3)
        rep = spectral_gap_bound_check(spec, CurvatureDimension(N - 0.5, N), tol=1e-3)
        assert not rep.passed


class TestConeSpectrum:
    def test_trivial_fiber(self):
        op = discretize_fiber_operator(1.0, 3.0, 0.0, 500)
        alone = eigen(op, 4).eigenvalues
        got = cone_spectrum([0.0], 1.0, 3.0, 4, 500)
        assert len(got) == 1
        assert np.allclose(got[0][1], alone)

    def test_circle_gives_sphere_levels(self):
        # fiber circle eigenvalues k^2 (multiplicity 2 for k >= 1)
        fibs = [0.0, 1.0, 1.0, 4.0, 4.0]
        res = cone_spectrum(fibs, 1.0, 1.0, 3, 800)
        allv = np.sort(np.concatenate([v for _, v in res]))
        for target, mult in ((0.0, 1), (2.0, 3), (6.0, 5)):
            close = np.abs(allv - target) <= max(0.02 * target, 0.02)
            assert int(close.sum()) == mult

    def test_lowest_eigenvalue_monotone_in_fiber(self):
        res = cone_spectrum([0.0, 1.0, 4.0, 9.0], 1.0, 1.0, 1, 400)
        lows = [v[0] for _, v in res]
        assert all(a < b for a, b in zip(lows, lows[1:]))

    def test_separated_heat_matches_dense_product(self):
        # dense product-grid oracle at small n
        nr, nf = 40, 12
        g = gc.cycle_graph(nf, 2 * math.pi)
        Lf = g.laplacian_matrix()
        lam, vecs = np.linalg.eigh(-0.5 * (Lf + Lf.T))
        k = 1
        lam_k = float(lam[k])
        v_k = vecs[:, k]
        op = discretize_fiber_operator(1.0, 1.0, lam_k, nr)
        r = op.grid.nodes
        u1 = np.sin(r) ** 2
        t = 0.15
        # the flow acts on the radial factor only: P_t (u1 (x) v_k) = (P_t u1) (x) v_k
        sep = np.outer(heat_semigroup_1d(op, u1, t), v_k)

        # dense product generator: radial part + (1/sin^2) fiber part
        op0 = discretize_fiber_operator(1.0, 1.0, 0.0, nr)
        A = np.diag(op0.a_diag) + np.diag(op0.a_off, 1) + np.diag(op0.a_off, -1)
        Lr = np.diag(1.0 / op0.m_diag) @ -A
        inv_sin2 = np.diag(1.0 / np.sin(r) ** 2)
        Lprod = np.kron(Lr, np.eye(nf)) + np.kron(inv_sin2, Lf)
        M = np.kron(np.diag(op0.m_diag), np.diag(g.vertex_measure))
        # symmetrized exponential through the generalized eigenproblem
        Ms = np.sqrt(np.diag(M))
        B = np.diag(Ms) @ Lprod @ np.diag(1.0 / Ms)
        B = 0.5 * (B + B.T)
        w, V = np.linalg.eigh(B)
        u0 = np.outer(u1, v_k).ravel()
        dense = (V @ (np.exp(w * t) * (V.T @ (Ms * u0)))) / Ms
        assert np.max(np.abs(sep.ravel() - dense)) <= 1e-8


def test_gamma_fd_exactness_on_quadratics():
    # central difference of a quadratic is exact in the interior
    h = 0.1
    x = np.arange(12) * h
    u = 3.0 * x * x + 2.0 * x + 1.0
    g = _gamma_fd(u, h)
    assert np.allclose(g[1:-1], (6.0 * x[1:-1] + 2.0) ** 2)


def test_operator_and_spectrum_arrays_are_frozen():
    op = discretize_fiber_operator(1.0, 2.0, 0.0, 20)
    spec = eigen(op, 5)
    arrays = {"a_diag": op.a_diag, "a_off": op.a_off, "m_diag": op.m_diag,
              "eigenvalues": spec.eigenvalues, "eigenvectors": spec.eigenvectors,
              "residuals": spec.residuals}
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # the lazily cached spectrum below a cut is the one mutation after construction
    assert op.spectrum_below(100.0) is op.spectrum_below(100.0)
