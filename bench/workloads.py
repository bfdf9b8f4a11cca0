"""The benchmark's four workloads: seeded inputs, operations and their checks.

``build(seed, workdir)`` makes a workload's inputs from the seed alone and
returns its fixed list of operations.  An operation's ``run`` is the timed
call into the program; its ``check`` compares the output with a reference
from ``refs`` or a property the mathematics forces, and returns the reason
when the output is wrong.  An operation with a ``fault`` shows a named
fault of the program that makes it fail on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs

# Named faults of the program, each shown by one operation on every seed.
FAULT_BE_TOL = "be_check-tolerance-unscaled"
FAULT_NAN = "nan-distance-accepted"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    fault: str | None = None
    space_file: str | None = None  # a space file the operation writes
    report: str | None = None  # a CLI report the operation writes


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# line-transport
# ---------------------------------------------------------------------------

# Every pair has the same width and separation; the seed moves the pair
# along the interval.  HiGHS's time on one pair varies by about 11 % between
# such pairs (and by a factor of eight between pairs of random width and
# separation), so a pass holds many pairs to keep its total steady.  Twelve
# pairs keep a pass near 10 s, so a 25 s run makes two passes.
LINE_PAIRS = 12
LINE_WIDTH = 0.12
LINE_SEPARATION = 0.8


_COUPLINGS = None


def _recorded_couplings() -> list:
    """Every (mu0, mu1, (W2, coupling)) the program solves, for the checks to read.

    On first use this wraps ``conecheck.transport.wasserstein2`` in this
    process; each check reads and clears the list after its operation.
    """
    global _COUPLINGS
    if _COUPLINGS is None:
        import conecheck.transport as tr

        orig, _COUPLINGS = tr.wasserstein2, []

        def record(m, mu0, mu1, *args, **kwargs):
            out = orig(m, mu0, mu1, *args, **kwargs)
            _COUPLINGS.append((mu0, mu1, out))
            return out

        tr.wasserstein2 = record
    return _COUPLINGS


def _plan_marginals(coupling):
    plan = getattr(coupling, "plan", None)
    if plan is None:
        return None
    return (np.asarray(plan.sum(axis=1)).ravel(), np.asarray(plan.sum(axis=0)).ravel())


def _w2_reason(space, x, mu0, mu1) -> str | None:
    """Check every coupling the last operation solved against the quantile W2."""
    recorded = _recorded_couplings()
    if not recorded:  # the program no longer calls wasserstein2 here: ask it directly
        import conecheck.transport as tr

        tr.wasserstein2(space, mu0, mu1)
    calls = list(recorded)
    recorded.clear()
    for a, b, (w2, q) in calls:
        want = refs.quantile_w2(x, a.mass, x, b.mass)
        if not _rel(w2, want) <= 1e-9:
            return f"W2 {w2!r} differs from the quantile W2 {want!r}"
        marg = _plan_marginals(q)
        if marg is None:
            return "the coupling exposes no plan to check marginals on"
        err = max(float(np.max(np.abs(marg[0] - a.mass))), float(np.max(np.abs(marg[1] - b.mass))))
        if not err <= 1e-9:
            return f"coupling marginals off by {err:.3e}"
    return None


def line_transport(seed: int, workdir: str) -> list:
    import conecheck.transport as tr
    from conecheck import mms
    from conecheck.model_fns import CurvatureDimension

    _recorded_couplings()
    n = 400
    space = mms.interval_model_mms(1.0, 2.0, n)
    h = math.pi / n
    r = (np.arange(n) + 0.5) * h
    eps, tol = 2.0 * h, 5.0 * (h + 2.0 * h)
    cd = CurvatureDimension(2.0, 3.0)
    rng = np.random.default_rng(seed)

    def bump(c):
        raw = space.weight * np.exp(-(((r - c) / LINE_WIDTH) ** 2))
        raw[np.abs(r - c) > 3 * LINE_WIDTH] = 0.0
        return tr.density_from_mass(space, raw)

    ops = []
    for p in range(LINE_PAIRS):
        c0 = rng.uniform(0.6, math.pi - 0.6 - LINE_SEPARATION)
        c1 = c0 + LINE_SEPARATION
        if rng.random() < 0.5:
            c0, c1 = c1, c0
        mu0, mu1 = bump(c0), bump(c1)
        for flavor in ("cd_star_check", "cd_check"):
            for Np in (3.0, 6.0):
                def run(flavor=flavor, Np=Np, mu0=mu0, mu1=mu1):
                    return getattr(tr, flavor)(space, mu0, mu1, cd, Np, eps, tol)

                def check(rep, mu0=mu0, mu1=mu1):
                    if not (rep.passed and math.isfinite(rep.slack)):
                        return f"verdict fails on the CD(2,3) model: slack {rep.slack!r}"
                    return _w2_reason(space, r, mu0, mu1)

                ops.append(Op(f"pair{p}.{flavor}.N'={Np:g}", run, check))

    # equality case: translated uniforms on a Lebesgue interval
    nl, length = 400, 4.0
    hl = length / nl
    leb = mms.interval_model_mms(0.0, 0.0, nl, r_max=length)
    rl = (np.arange(nl) + 0.5) * hl
    a, b = 0.9, 2.0
    u0 = tr.density_from_mass(leb, np.where(rl < a, 1.0, 0.0))
    u1 = tr.density_from_mass(leb, np.where((rl >= b) & (rl < b + a), 1.0, 0.0))
    flat = CurvatureDimension(0.0, 3.0)
    for Np in (3.0, 6.0):
        def run_eq(Np=Np):
            return tr.cd_star_check(leb, u0, u1, flat, Np, 2.0 * hl, 1.0)

        def check_eq(rep, Np=Np):
            gap = abs(rep.lhs - rep.rhs.as_float())
            if not gap <= 2.0 * hl ** (1.0 / Np):
                return f"equality gap {gap!r} above 2 h^(1/N')"
            return _w2_reason(leb, rl, u0, u1)

        ops.append(Op(f"equality.N'={Np:g}", run_eq, check_eq))
    return ops


# ---------------------------------------------------------------------------
# cone-spaces
# ---------------------------------------------------------------------------

def _circle_dist(n: int, radius: float) -> np.ndarray:
    k = np.arange(n)
    hops = np.abs(k[:, None] - k[None, :])
    return np.minimum(hops, n - hops) * (2.0 * math.pi * radius / n)


def cone_spaces(seed: int, workdir: str) -> list:
    import conecheck.transport as tr
    from conecheck import mms
    from conecheck.model_fns import CurvatureDimension

    rng = np.random.default_rng(seed)
    ops = []

    # the `cone` subcommand's default space, (K=1, N=1) over a 32-atom
    # circle, on half its 64 radial cells: the default's JSON round trip
    # alone takes 10 s, which leaves no room for a second pass in a run
    nf, ng = 32, 32
    hr = math.pi / ng
    path = os.path.join(workdir, "cone.json")
    body = ng * nf
    sample = rng.integers(0, body, size=(400, 2))
    sample = sample[sample[:, 0] != sample[:, 1]]
    fib_d = _circle_dist(nf, 1.0)

    def run_roundtrip():
        space = mms.cone(mms.circle_mms(nf, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, ng))
        mms.save_mms_json(space, path)
        return space, mms.load_mms_json(path)

    def check_roundtrip(out):
        space, back = out
        if space.n != body + 2:
            return f"cone has {space.n} atoms, expected {body + 2}"
        if not (back.labels == space.labels and np.array_equal(back.dist, space.dist)
                and np.array_equal(back.weight, space.weight)):
            return "space file round trip is not bit-identical"
        i, j = sample[:, 0], sample[:, 1]
        ri, rj = (i // nf + 0.5) * hr, (j // nf + 0.5) * hr
        want = refs.cone_distance(1.0, ri, rj, fib_d[i % nf, j % nf])
        err = float(np.max(np.abs(space.dist[i, j] - want)))
        err = max(err, float(np.max(np.abs(space.dist[body, i] - ri))),
                  float(np.max(np.abs(space.dist[body + 1, i] - (math.pi - ri)))))
        if not err <= 1e-9:
            return f"cone distances off the law of cosines by {err:.3e}"
        diam = float(space.dist.max())
        if not abs(diam - math.pi) <= hr:
            return f"diameter {diam!r} not pi within h"
        return None

    ops.append(Op("cone-roundtrip", run_roundtrip, check_roundtrip, space_file=path))

    # validate on a cone of about 800 atoms
    c802 = mms.cone(mms.circle_mms(32, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, 25))

    def check_validate(viols):
        if viols != []:
            return f"validate reports {len(viols)} violations on a cone"
        err = float(np.max(np.abs(refs.metric_closure(c802.dist) - c802.dist)))
        if not err <= 1e-9:
            return f"metric closure differs from dist by {err:.3e}"
        return None

    ops.append(Op("validate-cone802", lambda: mms.validate(c802), check_validate))

    # sin-warped product over a 40-atom circle on 40 radial cells
    wgrid = mms.radial_grid(1.0, 1.0, 40)
    wr = np.repeat(wgrid.nodes, 40)

    def check_warped(wp):
        d = wp.dist
        if not np.all(np.isfinite(d)):
            return "warped product has non-finite distances"
        # the two directions of a shortest path sum its edges in opposite orders
        asym = float(np.max(np.abs(d - d.T)))
        if not (asym <= 1e-12 * float(d.max()) and np.all(np.diag(d) == 0.0)):
            return f"warped product is not symmetric ({asym:.3e}) with zero diagonal"
        low = float(np.min(d - np.abs(wr[:, None] - wr[None, :])))
        if not low >= -1e-12:
            return f"d(a,b) below |r_a - r_b| by {-low:.3e}"
        return None

    ops.append(Op("warped-40x40",
                  lambda: mms.warped_product(wgrid, np.sin(wgrid.nodes), mms.circle_mms(40, 1.0), 1.0),
                  check_warped))

    # maximal-diameter suspension on the 25 x 100 cone
    sgrid = mms.radial_grid(1.0, 1.0, 25)
    sus = mms.cone(mms.circle_mms(100, 1.0), 1.0, 1.0, sgrid)
    hs = sgrid.h
    circ100 = _circle_dist(100, 1.0)

    def check_suspension(rep):
        if not (rep.is_suspension and rep.max_residual <= 2.0 * hs):
            return f"suspension not recognised: residual {rep.max_residual!r}"
        if rep.equator is None or rep.equator.n != 100:
            return "equator is not the 100-atom fibre"
        derr = float(np.max(np.abs(rep.equator.dist - circ100)))
        werr = float(np.max(np.abs(rep.equator.weight - 2.0 * math.pi / 100) / (2.0 * math.pi / 100)))
        if not (derr <= 2.0 * hs and werr <= 0.05):
            return f"equator distance error {derr:.3e}, weight error {werr:.2%}"
        return None

    ops.append(Op("suspension-25x100",
                  lambda: mms.suspension_check(sus, sus.n - 2, sus.n - 1, 2.0 * hs, N=1.0),
                  check_suspension))

    # bump pairs on the (K=1, N=1) cone: the round sphere, CD(1, 2).  The
    # pairs are fixed: HiGHS's time on one pair turned about the axis varies
    # by 10-25 %, and three pairs put the median operation among six LPs.
    hc = math.pi / 25
    sphere = CurvatureDimension(1.0, 2.0)

    def cone_bump(i, j, rho=0.65):
        d = c802.dist[i * 32 + j]
        raw = c802.weight * np.exp(-((d / rho) ** 2))
        raw[d > 1.5 * rho] = 0.0
        return tr.density_from_mass(c802, raw)

    for i0, i1, turn in ((9, 15, 8), (8, 16, 6), (10, 14, 10)):
        b0, b1 = cone_bump(i0, 0), cone_bump(i1, turn)
        for Np in (2.0, 4.0):
            def run_pair(Np=Np, b0=b0, b1=b1):
                return tr.cd_star_check(c802, b0, b1, sphere, Np, 2.0 * hc, 5.0 * (hc + 2.0 * hc))

            def check_pair(rep):
                if not (rep.passed and math.isfinite(rep.slack)):
                    return f"cone pair fails on the CD(1,2) sphere: slack {rep.slack!r}"
                return None

            ops.append(Op(f"cone-pair{i0}-{i1}.N'={Np:g}", run_pair, check_pair))

    # big-circle K=0 cone control (4097 atoms): not CD(0, 2), must fail
    bgrid = mms.radial_grid(0.0, 1.0, 128, r_max=2.0)
    big = mms.cone(mms.circle_mms(32, 2.0), 0.0, 1.0, bgrid)
    hb = bgrid.h
    sel0 = np.array([92 * 32 + j for j in range(8)])
    sel1 = np.array([92 * 32 + (j + 16) % 32 for j in range(8)])
    v0, v1 = tr.uniform_density(big, sel0), tr.uniform_density(big, sel1)
    tol_b = 5.0 * (hb + hb)

    def check_control(rep):
        if rep.passed or not rep.slack < -tol_b:
            return f"big-circle cone passes (slack {rep.slack!r}); it is not CD(0,2)"
        return None

    ops.append(Op("bigcone-control",
                  lambda: tr.cd_star_check(big, v0, v1, CurvatureDimension(0.0, 2.0), 2.0, hb, tol_b),
                  check_control))
    return ops


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def _trig(rng, xs, degree=3):
    c = rng.standard_normal((2, degree + 1))
    c /= np.abs(c).sum()
    return sum(c[0, k] * np.cos(k * xs) + c[1, k] * np.sin(k * xs) for k in range(degree + 1))


def calculus(seed: int, workdir: str) -> list:
    from conecheck import gamma_calc as gc
    from conecheck import spectral1d as sp
    from conecheck.model_fns import CurvatureDimension

    rng = np.random.default_rng(seed)
    ops = []

    for N in (2.0, 3.0, 5.0):
        def run_gap(N=N):
            spec = sp.eigen(sp.discretize_fiber_operator(1.0, N - 1.0, 0.0, 2000), 3)
            gap = sp.spectral_gap_bound_check(spec, CurvatureDimension(N - 1.0, N), tol=0.01 * N)
            return float(spec.eigenvalues[spec.eigenvalues > 1e-8][0]), gap.passed

        def check_gap(out, N=N):
            lam1, passed = out
            if not (_rel(lam1, refs.model_lambda1(N)) <= 0.01 and passed):
                return f"lambda1 {lam1!r} is not N = {N:g} within 1 %"
            return None

        ops.append(Op(f"gap.N={N:g}", run_gap, check_gap))

    # gradient estimate at n = 800, then the doubled-curvature control
    n = 800
    grad_u = {N: [_trig(rng, (np.arange(n) + 0.5) * math.pi / n) for _ in range(4)]
              for N in (1.0, 2.0)}
    for N in (1.0, 2.0):
        def run_grad(N=N):
            op = sp.discretize_fiber_operator(1.0, N, 0.0, n)
            tol = 100.0 * op.grid.h ** 2 + 1e-6
            return [sp.bakry_ledoux_check(op, kappa=N, Nbe=N + 1.0, u0=u, t=t, tol=tol)
                    for u in grad_u[N] for t in (0.01, 0.1, 1.0)]

        def check_grad(reps):
            worst = min(rep.min for rep in reps)
            if not all(rep.passed for rep in reps):
                return f"gradient estimate fails at the true curvature: {worst!r}"
            return None

        def run_ctrl(N=N):
            op = sp.discretize_fiber_operator(1.0, N, 0.0, n)
            tol = 100.0 * op.grid.h ** 2 + 1e-6
            return sp.bakry_ledoux_check(op, kappa=2.0 * N, Nbe=N + 1.0,
                                         u0=np.cos(op.grid.nodes), t=0.05, tol=tol)

        def check_ctrl(rep):
            return "gradient estimate passes at doubled curvature" if rep.passed else None

        ops.append(Op(f"gradient.N={N:g}", run_grad, check_grad))
        ops.append(Op(f"gradient-doubled.N={N:g}", run_ctrl, check_ctrl))

    u_law = rng.standard_normal(n)

    def run_law():
        op = sp.discretize_fiber_operator(1.0, 2.0, 1.0, n)
        twice = sp.heat_semigroup_1d(op, sp.heat_semigroup_1d(op, u_law, 0.2), 0.3)
        return float(np.max(np.abs(twice - sp.heat_semigroup_1d(op, u_law, 0.5))))

    def run_mass():
        op = sp.discretize_fiber_operator(1.0, 2.0, 0.0, n)
        return abs(float(op.m_diag @ sp.heat_semigroup_1d(op, u_law, 0.7))
                   - float(op.m_diag @ u_law))

    ops.append(Op("semigroup-law", run_law,
                  lambda e: None if e <= 1e-8 else f"semigroup law residual {e!r}"))
    ops.append(Op("semigroup-mass", run_mass,
                  lambda e: None if e <= 1e-10 else f"heat flow loses mass {e!r}"))

    # separated cone spectrum over the discretized unit circle
    g400 = gc.cycle_graph(400, 2.0 * math.pi)
    lap = g400.laplacian_matrix()
    fiber_eigs = [float(v) for v in np.sort(np.linalg.eigvalsh(-0.5 * (lap + lap.T)))[:7]]

    def check_levels(res):
        allv = np.sort(np.concatenate([v for _, v in res]))
        want = refs.sphere_levels(2)
        got = {t: int(np.sum(np.abs(allv - t) <= max(0.02 * t, 0.02))) for t in want}
        return None if got == want else f"cone spectrum levels {got}, expected {want}"

    ops.append(Op("cone-spectrum",
                  lambda: sp.cone_spectrum(fiber_eigs, 1.0, 1.0, 4, 1500), check_levels))

    # warped Gamma2 identity and the sharp estimate on 161-cell grids
    ispec = gc.cone_grid(1.0, 2.0, 161, gc.circle_fiber(128))
    pairs = [(_trig(rng, ispec.r), _trig(rng, ispec.fiber.x)) for _ in range(8)]

    def run_identity():
        f = ispec.warp()
        return [gc.warped_gamma2_identity_check(ispec, f, u1, u2) for u1, u2 in pairs]

    def check_identity(reps):
        bound = 150.0 * ispec.h ** 2
        worst = max(rep.max_residual / max(rep.scale, 1e-12) for rep in reps)
        orders = [rep.observed_order for rep in reps]
        if not (worst <= bound and all(1.7 <= o <= 2.3 for o in orders)):
            return f"identity residual {worst!r} (bound {bound!r}), orders {orders}"
        return None

    ops.append(Op("gamma2-identity", run_identity, check_identity))

    wspec = gc.cone_grid(1.0, 2.0, 161, gc.weighted_interval_fiber(161, 1.0))
    family = [[(_trig(rng, wspec.r), _trig(rng, wspec.fiber.x))] for _ in range(8)]

    ops.append(Op("sharp-estimate",
                  lambda: gc.sharp_gamma2_estimate_check(wspec, family, tol=150.0 * wspec.h ** 2 + 1e-6),
                  lambda rep: None if rep.passed else f"sharp estimate fails: {rep.min_slack!r}"))

    # graph curvature: every vertex of a Ricci-flat cycle, one vertex of K_n
    cyc = gc.cycle_graph(200)

    def check_sweep(res):
        worst = max(abs(x.kappa - refs.cycle_curvature()) for x in res)
        return None if worst <= 1e-9 else f"cycle curvature off 0 by {worst!r}"

    ops.append(Op("curvature-cycle200",
                  lambda: [gc.curvature_dimension(cyc, x, 2.0) for x in range(cyc.n)], check_sweep))

    kn = 40
    kg = gc.complete_graph(kn)
    x0 = int(rng.integers(kn))

    def check_kn(res):
        want = refs.complete_graph_curvature(kn)
        return None if abs(res.kappa - want) <= 1e-9 else f"K_{kn} curvature {res.kappa!r}, expected {want}"

    ops.append(Op(f"curvature-K{kn}", lambda: gc.curvature_dimension(kg, x0, math.inf), check_kn))

    def check_be(rep):
        if not rep.passed:
            return f"CD(0,2) cycle fails exhaustive-local at default tol: min defect {rep.min_defect!r}"
        return None

    ops.append(Op("be_check-cycle200",
                  lambda: gc.be_check(cyc, 0.0, 2.0, strategy="exhaustive-local"),
                  check_be, fault=FAULT_BE_TOL))
    return ops


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in report")

    return json.loads(text, parse_constant=reject)


def _nan_space(path: str) -> None:
    """A (K=1, N=1) cone over a 12-atom circle with one NaN distance, as JSON."""
    nf, ng = 12, 6
    h = math.pi / ng
    r = (np.arange(ng) + 0.5) * h
    ri, fi = np.repeat(r, nf), np.tile(np.arange(nf), ng)
    fd = _circle_dist(nf, 1.0)
    body = ng * nf
    d = np.zeros((body + 2, body + 2))
    d[:body, :body] = refs.cone_distance(1.0, ri[:, None], ri[None, :], fd[fi[:, None], fi[None, :]])
    d[body, :body] = d[:body, body] = ri
    d[body + 1, :body] = d[:body, body + 1] = math.pi - ri
    d[body, body + 1] = d[body + 1, body] = math.pi
    np.fill_diagonal(d, 0.0)
    d[3, 5] = d[5, 3] = float("nan")
    weight = np.concatenate([np.sin(ri) * h * (2.0 * math.pi / nf), [0.0, 0.0]])
    payload = {"labels": [f"a{i}" for i in range(body + 2)], "dist": d.tolist(),
               "weight": weight.tolist()}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def cli_argvs(seed: int, workdir: str) -> list:
    """(name, argv, report path, space path, check on the parsed report, fault)."""
    def rep(name):
        return os.path.join(workdir, f"{name}.report.json")

    s = str(seed)
    space = os.path.join(workdir, "cone-space.json")
    nan = os.path.join(workdir, "nan-space.json")

    def check_weyl(r):
        bad = [row for row in r["detail"]["table"]
               if row["self_adjoint"] != refs.weyl_self_adjoint(row["nu"], row["lambda"])]
        return f"Weyl rows off the closed form: {bad}" if bad else None

    def check_spectrum(r):
        ev = [v for v in r["detail"]["eigenvalues"] if v > 1e-8]
        return None if _rel(ev[0], refs.model_lambda1(2.0)) <= 0.01 else f"lambda1 {ev[0]!r} is not 2"

    def check_heat(r):
        e = r["detail"]["semigroup_law_residual"]
        return None if e <= 1e-8 else f"semigroup law residual {e!r}"

    def check_susp(r):
        return None if r["detail"]["equator_size"] == 100 else "equator is not the 100-atom fibre"

    def check_cone(r):
        with open(space) as fh:
            payload = json.load(fh)
        d = np.asarray(payload["dist"], dtype=float)
        if d.shape != (16 * 16 + 2,) * 2:
            return f"cone space has shape {d.shape}, expected {16 * 16 + 2} atoms"
        if not abs(float(d.max()) - math.pi) <= math.pi / 16:
            return f"cone diameter {float(d.max())!r} is not pi"
        return None

    def check_cd(r):
        lo, tol = r["residuals"]["min"], r["tolerance"]
        return None if lo >= -tol else f"cd-check min slack {lo!r} below -{tol!r}"

    def none(r):
        return None

    return [
        ("weyl", ["weyl", "--out", rep("weyl")], rep("weyl"), None, check_weyl, None),
        ("spectrum", ["spectrum", "--out", rep("spectrum")], rep("spectrum"), None, check_spectrum, None),
        ("heat", ["heat", "--seed", s, "--out", rep("heat")], rep("heat"), None, check_heat, None),
        ("suspension", ["suspension", "--out", rep("susp")], rep("susp"), None, check_susp, None),
        ("be-check-graph", ["be-check", "--seed", s, "--out", rep("beg")], rep("beg"), None, none, None),
        ("be-check-grid", ["be-check", "--flavor", "grid", "--seed", s, "--out", rep("bgr")],
         rep("bgr"), None, none, None),
        ("gamma2-identity", ["gamma2-identity", "--seed", s, "--out", rep("g2i")], rep("g2i"), None,
         none, None),
        ("cone", ["cone", "--grid", "16", "--fiber-n", "16", "--out", space, "--report", rep("cone")],
         rep("cone"), space, check_cone, None),
        ("cd-check", ["cd-check", "--grid", "100", "--pairs", "2", "--seed", s, "--out", rep("cd")],
         rep("cd"), None, check_cd, None),
        ("suspension-nan", ["suspension", "--input", nan, "--x", str(6 * 12), "--y", str(6 * 12 + 1),
                            "--out", rep("nan")], rep("nan"), None, None, FAULT_NAN),
    ]


def _cli_check(code, report_path, check, fault, stderr_path=None):
    if fault is not None:  # the correct result is any non-pass exit
        return None if code != 0 else "exit 0 and a pass on a space with a NaN distance"
    if code not in (0, 1):
        tail = ""
        if stderr_path and os.path.exists(stderr_path):
            with open(stderr_path) as fh:
                tail = ": " + fh.read()[-500:].strip()
        return f"exit code {code}{tail}"
    try:
        with open(report_path) as fh:
            r = _strict_json(fh.read())
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    if (code == 0) != (r["pass"] is True):
        return f"exit code {code} disagrees with pass={r['pass']!r}"
    if not r["pass"]:
        return "check reports a fail"
    return check(r)


def cli_cold(seed: int, workdir: str, src: str, inprocess: bool = False) -> list:
    """One fresh `python -m conecheck.cli` per operation, or main(argv) in-process."""
    _nan_space(os.path.join(workdir, "nan-space.json"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    err = None if inprocess else os.path.join(workdir, "stderr.txt")
    ops = []
    for name, argv, report, space, check, fault in cli_argvs(seed, workdir):
        if inprocess:
            def run(argv=argv):
                import conecheck.cli as cli

                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    return cli.main(list(argv))
        else:
            def run(argv=argv):
                with open(err, "w") as fh:
                    proc = subprocess.run([sys.executable, "-m", "conecheck.cli", *argv],
                                          cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                                          stderr=fh, timeout=170)
                return proc.returncode

        def chk(code, report=report, check=check, fault=fault):
            return _cli_check(code, report, check, fault, err)

        ops.append(Op(name, run, chk, fault=fault, space_file=space, report=report))
    return ops
