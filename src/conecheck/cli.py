"""Command-line front end: experiment orchestration, reports, CSV/plot output.

One binary, subcommand style.  Flag precedence is flags > config file >
defaults; every numeric parameter is echoed verbatim into the report.
Exit codes: 0 pass, 1 check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model_fns import CurvatureDimension
from . import mms as mmsmod
from . import spectral1d as sp1d
from . import transport as tr
from . import gamma_calc as gc

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE = 0, 1, 2


@dataclass
class Report:
    check: str
    params: dict
    residuals: dict
    passed: bool
    tolerance: float
    seed: int | None = None
    warnings: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def to_json(self, runtime_ms: int) -> str:
        payload = {
            "check": self.check,
            "params": self.params,
            "residuals": self.residuals,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "runtime_ms": runtime_ms,
            "provenance": {"tool_version": __version__, "seed": self.seed},
        }
        if self.warnings:
            payload["warnings"] = self.warnings
        if self.detail:
            payload["detail"] = self.detail
        return json.dumps(payload, sort_keys=True, indent=2)


def _residuals(values) -> dict:
    arr = np.asarray(list(values), dtype=float)
    return {"max": float(arr.max()), "mean": float(arr.mean()), "min": float(arr.min())}


def _emit(report: Report, out: str | None, started: float) -> int:
    text = report.to_json(runtime_ms=int((time.perf_counter() - started) * 1000))
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return _EXIT_PASS if report.passed else _EXIT_FAIL


def _maybe_plot(path: str | None, xs, ys, title: str) -> None:
    """Best-effort SVG line chart; plotting failures never change exit codes."""
    if not path:
        return
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(5, 3.2))
        ax.plot(list(xs), list(ys), marker=".")
        ax.set_title(title)
        fig.tight_layout()
        fig.savefig(path, format="svg")
        plt.close(fig)
    except Exception as exc:  # pragma: no cover - depends on plotting stack
        print(f"plotting skipped: {exc}", file=sys.stderr)


def _load_space(args) -> mmsmod.FiniteMMS:
    if args.input:
        return mmsmod.load_mms_json(args.input)
    return mmsmod.interval_model_mms(args.K, args.nu, args.grid)


def _sample_density_pairs(space, pairs, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(pairs):
        raw0 = space.weight * rng.gamma(2.0, size=space.n)
        raw1 = space.weight * rng.gamma(2.0, size=space.n)
        out.append((tr.density_from_mass(space, raw0), tr.density_from_mass(space, raw1)))
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    started = time.perf_counter()
    warnings_list = []
    if args.grid < 64:
        warnings_list.append(f"grid under-resolved (n={args.grid}); convergence not reached")
    op = sp1d.discretize_fiber_operator(args.K, args.nu, getattr(args, "lambda"), args.grid)
    k = min(args.grid, 12)
    spec = sp1d.eigen(op, k)
    detail = {"eigenvalues": [float(v) for v in spec.eigenvalues]}
    passed = True
    slack_values = [0.0]
    if args.nu > 0 and args.K > 0:
        cd = CurvatureDimension(args.K * args.nu, args.nu + 1.0)
        gap = sp1d.spectral_gap_bound_check(spec, cd, tol=args.tol)
        detail["gap"] = gap.detail
        passed = gap.passed
        slack_values = [gap.min]
    if args.out:
        csv_path = args.out.rsplit(".", 1)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write("index,eigenvalue,residual\n")
            for i, (v, r) in enumerate(zip(spec.eigenvalues, spec.residuals)):
                fh.write(f"{i},{float(v)!r},{float(r)!r}\n")
        detail["csv"] = csv_path
    _maybe_plot(args.plot, range(k), spec.eigenvalues, "spectrum")
    report = Report(
        check="spectrum",
        params={"K": args.K, "nu": args.nu, "lambda": getattr(args, "lambda"),
                "grid": args.grid, "tol": args.tol},
        residuals=_residuals(slack_values),
        passed=passed,
        tolerance=args.tol,
        seed=args.seed,
        warnings=warnings_list,
        detail=detail,
    )
    return _emit(report, args.out, started)


def cmd_cone(args) -> int:
    started = time.perf_counter()
    if args.input:
        fiber = mmsmod.load_mms_json(args.input)
    else:
        fiber = mmsmod.circle_mms(args.fiber_n, args.radius)
    grid = mmsmod.radial_grid(args.K, args.N, args.grid,
                              r_max=args.rmax if args.K <= 0 else None)
    space = mmsmod.cone(fiber, args.K, args.N, grid)
    mmsmod.save_mms_json(space, args.out)
    violations = mmsmod.validate(space) if space.n <= 1200 else []
    report = Report(
        check="cone",
        params={"K": args.K, "N": args.N, "grid": args.grid,
                "fiber_n": fiber.n, "out": args.out},
        residuals=_residuals([len(violations)]),
        passed=not violations,
        tolerance=0.0,
        seed=args.seed,
        detail={"points": space.n, "diameter": mmsmod.diameter(space),
                "total_mass": space.total_mass()},
    )
    return _emit(report, args.report, started)


def cmd_cd_check(args) -> int:
    started = time.perf_counter()
    space = _load_space(args)
    cd = CurvatureDimension(args.cd_K, args.N)
    eps = args.eps if args.eps is not None else 2.0 * _max_gap(space)
    pairs = _sample_density_pairs(space, args.pairs, args.seed)
    coeff = tr.tau_coeff if args.full else tr.sigma_coeff
    nprimes = (cd.N, 2.0 * cd.N)
    results = [tr._convexity_reports(space, mu0, mu1, cd, nprimes, eps, args.tol, coeff)
               for mu0, mu1 in pairs]
    slacks = [r.slack for rs in results for r in rs]
    passed = all(r.passed for rs in results for r in rs)
    for i, rs in enumerate(results):
        print(f"pair {i}: " + ", ".join(
            f"N'={r.Nprime:g} slack={r.slack:.3e}" for r in rs), file=sys.stderr)
    _maybe_plot(args.plot, range(len(slacks)), slacks, "cd slack per pair")
    report = Report(
        check="cd" if args.full else "cd-star",
        params={"K": args.K, "nu": args.nu, "cd_K": args.cd_K, "N": args.N,
                "grid": args.grid, "pairs": args.pairs, "eps": eps, "tol": args.tol},
        residuals=_residuals(slacks),
        passed=passed,
        tolerance=args.tol,
        seed=args.seed,
        detail={"nprimes": list(nprimes)},
    )
    return _emit(report, args.out, started)


def _max_gap(space) -> float:
    d = space.dist[space.dist > 0]
    return float(d.min()) if d.size else 1.0


def cmd_be_check(args) -> int:
    started = time.perf_counter()
    if args.flavor == "graph":
        n = args.grid
        h = math.pi / n
        tol = args.tol if args.tol is not None else 5.0 * h
        g = gc.path_graph_from_interval_model(args.K, args.nu, n)
        # smooth seeded test functions; the window avoids the degenerate-weight
        # endpoints, where rough functions have divergent discrete curvature
        r = (np.arange(n) + 0.5) * h
        window = np.nonzero((r > 0.4) & (r < math.pi - 0.4))[0]
        rep = gc.be_check(g, kappa=args.nu * args.K, N=args.nu + 1.0,
                          strategy="sampled", tol=tol, samples=args.pairs,
                          seed=args.seed, vertices=window,
                          sample_fn=lambda rng: _trig(rng, r, 4))
        resid = [rep.min_defect]
        passed = rep.passed
        detail = {"kappa": args.nu * args.K, "N": args.nu + 1.0,
                  "witness": rep.witness_vertex}
    else:
        rng = np.random.default_rng(args.seed)
        # the fiber must satisfy its own curvature bound: the flat circle
        # works for nu = 1, the sin^(nu-1)-weighted window beyond that
        if args.nu == 1.0:
            fiber = gc.circle_fiber(args.fiber_n)
        else:
            fiber = gc.weighted_interval_fiber(args.fiber_n, args.nu - 1.0)
        spec = gc.cone_grid(args.K, args.nu, args.grid, fiber)
        tol = args.tol if args.tol is not None else 60.0 * spec.h**2 + 1e-6
        family = [_random_tensor_member(rng, spec) for _ in range(args.pairs)]
        rep = gc.sharp_gamma2_estimate_check(spec, family, tol=tol)
        resid = [rep.min_slack]
        passed = rep.passed
        detail = {"min_slack_coarse": rep.min_slack_coarse}
    report = Report(
        check=f"be-{args.flavor}",
        params={"K": args.K, "nu": args.nu, "grid": args.grid,
                "pairs": args.pairs, "tol": tol},
        residuals=_residuals(resid),
        passed=passed,
        tolerance=tol,
        seed=args.seed,
        detail=detail,
    )
    return _emit(report, args.out, started)


def _trig(rng, xs, degree: int):
    """Seeded trigonometric polynomial of the given degree, l1-normalized coefficients."""
    c = rng.standard_normal((2, degree + 1))
    c /= np.abs(c).sum()
    return sum(c[0, k] * np.cos(k * xs) + c[1, k] * np.sin(k * xs)
               for k in range(degree + 1))


def _random_tensor_member(rng, spec, degree: int = 3):
    return [(_trig(rng, spec.r, degree), _trig(rng, spec.fiber.x, degree))]


_WEYL_CASES = [(1.0, 1.5, 2.0, 2.9, 3.0, 5.0), (0.0, "nu", "nu+1")]


def cmd_weyl(args) -> int:
    started = time.perf_counter()
    table, mismatches = [], 0
    for nu in _WEYL_CASES[0]:
        for lam_spec in _WEYL_CASES[1]:
            lam = nu if lam_spec == "nu" else (nu + 1.0 if lam_spec == "nu+1" else 0.0)
            got = sp1d.essential_self_adjointness(nu, lam)
            if lam == 0.0:
                expected = nu >= 3.0
            else:  # lambda >= nu >= 1 is always in the unique-extension range
                expected = True
            table.append({"nu": nu, "lambda": lam, "self_adjoint": got,
                          "expected": expected})
            mismatches += got != expected
    report = Report(
        check="weyl",
        params={"table_size": len(table)},
        residuals=_residuals([mismatches]),
        passed=mismatches == 0,
        tolerance=0.0,
        seed=args.seed,
        detail={"table": table},
    )
    return _emit(report, args.out, started)


def cmd_suspension(args) -> int:
    started = time.perf_counter()
    if args.input:
        space = mmsmod.load_mms_json(args.input)
        x, y = args.x, args.y
        if x is None or y is None:
            x, y = (int(v) for v in np.unravel_index(np.argmax(space.dist), space.dist.shape))
        N = args.N
    else:
        fiber = mmsmod.circle_mms(args.fiber_n, args.radius)
        grid = mmsmod.radial_grid(1.0, args.N, args.grid)
        space = mmsmod.cone(fiber, 1.0, args.N, grid)
        x, y = space.n - 2, space.n - 1  # the two apex atoms
        N = args.N
    tol = args.tol if args.tol is not None else 2.0 * math.pi / args.grid
    rep = mmsmod.suspension_check(space, x, y, tol, N=N)
    report = Report(
        check="suspension",
        params={"grid": args.grid, "N": N, "tol": tol, "x": x, "y": y},
        residuals=_residuals([rep.max_residual]),
        passed=rep.is_suspension,
        tolerance=tol,
        seed=args.seed,
        detail={"failed_stage": rep.failed_stage,
                "equator_size": rep.equator.n if rep.equator is not None else 0},
    )
    return _emit(report, args.out, started)


def cmd_heat(args) -> int:
    started = time.perf_counter()
    op = sp1d.discretize_fiber_operator(args.K, args.nu, getattr(args, "lambda"), args.grid)
    rng = np.random.default_rng(args.seed)
    r = op.grid.nodes
    worst = math.inf
    times = (0.01, 0.1, 1.0)
    for _ in range(args.pairs):
        u0 = sum(rng.standard_normal() * np.cos(k * r) for k in range(4))
        for t in times:
            rep = sp1d.bakry_ledoux_check(op, kappa=args.K * args.nu,
                                          Nbe=args.nu + 1.0, u0=u0, t=t, tol=args.tol)
            worst = min(worst, rep.min)
    # semigroup law as a sanity residual
    u0 = np.cos(r)
    law = sp1d.heat_semigroup_1d(op, sp1d.heat_semigroup_1d(op, u0, 0.1), 0.2)
    law_res = float(np.max(np.abs(law - sp1d.heat_semigroup_1d(op, u0, 0.3))))
    passed = worst >= -args.tol and law_res <= 1e-8
    report = Report(
        check="heat",
        params={"K": args.K, "nu": args.nu, "lambda": getattr(args, "lambda"),
                "grid": args.grid, "pairs": args.pairs, "tol": args.tol},
        residuals=_residuals([worst]),
        passed=passed,
        tolerance=args.tol,
        seed=args.seed,
        detail={"semigroup_law_residual": law_res, "times": list(times)},
    )
    return _emit(report, args.out, started)


def cmd_gamma2_identity(args) -> int:
    started = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    fiber = gc.circle_fiber(args.fiber_n)
    spec = gc.cone_grid(args.K, args.nu, args.grid, fiber)
    tol = args.tol if args.tol is not None else 150.0 * spec.h**2 + 1e-6
    f = spec.warp()
    residuals, orders = [], []
    for _ in range(args.pairs):
        (u1, u2), = _random_tensor_member(rng, spec)
        rep = gc.warped_gamma2_identity_check(spec, f, u1, u2)
        residuals.append(rep.max_residual / max(rep.scale, 1e-12))
        orders.append(rep.observed_order)
    passed = max(residuals) <= tol
    _maybe_plot(args.plot, range(len(residuals)), residuals, "identity residuals")
    report = Report(
        check="gamma2-identity",
        params={"K": args.K, "nu": args.nu, "grid": args.grid,
                "fiber_n": args.fiber_n, "pairs": args.pairs, "tol": tol},
        residuals=_residuals(residuals),
        passed=passed,
        tolerance=tol,
        seed=args.seed,
        detail={"orders": orders},
    )
    return _emit(report, args.out, started)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "spectrum": {"K": 1.0, "nu": 1.0, "lambda": 0.0, "grid": 2000, "tol": 1e-2},
    "cone": {"K": 1.0, "N": 1.0, "grid": 64, "fiber_n": 32, "radius": 1.0, "rmax": math.pi},
    "cd-check": {"K": 1.0, "nu": 2.0, "cd_K": 2.0, "N": 3.0, "grid": 400,
                 "pairs": 5, "tol": 0.2, "full": False},
    "be-check": {"K": 1.0, "nu": 2.0, "grid": 160, "fiber_n": 64, "pairs": 20,
                 "flavor": "graph"},
    "weyl": {},
    "suspension": {"N": 1.0, "grid": 25, "fiber_n": 100, "radius": 1.0},
    "heat": {"K": 1.0, "nu": 1.0, "lambda": 0.0, "grid": 400, "pairs": 5, "tol": 5e-2},
    "gamma2-identity": {"K": 1.0, "nu": 2.0, "grid": 161, "fiber_n": 64,
                        "pairs": 10},
}


def _add_common(p):
    p.add_argument("--input", type=str, default=None, help="space JSON file")
    p.add_argument("--K", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--lambda", dest="lambda", type=float)
    p.add_argument("--grid", type=int, help="radial cell count")
    p.add_argument("--eps", type=float, help="midpoint search radius")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="report path (stdout default)")
    p.add_argument("--plot", type=str, default=None, help="optional SVG path")
    p.add_argument("--pairs", type=int)
    p.add_argument("--config", type=str, default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecheck",
        description="curvature-dimension verification suites on cones and warped products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "spectrum": cmd_spectrum,
        "cone": cmd_cone,
        "cd-check": cmd_cd_check,
        "be-check": cmd_be_check,
        "weyl": cmd_weyl,
        "suspension": cmd_suspension,
        "heat": cmd_heat,
        "gamma2-identity": cmd_gamma2_identity,
    }
    for name, fn in specs.items():
        p = sub.add_parser(name)
        _add_common(p)
        if name == "cone":
            p.add_argument("--fiber-n", dest="fiber_n", type=int)
            p.add_argument("--radius", type=float)
            p.add_argument("--rmax", type=float)
            p.add_argument("--report", type=str, default=None)
        if name == "cd-check":
            p.add_argument("--cd-K", dest="cd_K", type=float)
            p.add_argument("--full", action="store_true", default=None,
                           help="use the non-reduced coefficients")
        if name == "be-check":
            p.add_argument("--flavor", choices=("graph", "grid"))
            p.add_argument("--fiber-n", dest="fiber_n", type=int)
        if name == "suspension":
            p.add_argument("--fiber-n", dest="fiber_n", type=int)
            p.add_argument("--radius", type=float)
            p.add_argument("--x", type=int, default=None)
            p.add_argument("--y", type=int, default=None)
        if name in ("gamma2-identity",):
            p.add_argument("--fiber-n", dest="fiber_n", type=int)
        p.set_defaults(func=fn)
    return parser


def _merge_config(args) -> None:
    """Apply flag > config-file > defaults precedence in place."""
    layer = dict(_DEFAULTS.get(args.command, {}))
    if args.config:
        with open(args.config) as fh:
            layer.update(json.load(fh))
    for key, value in layer.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        if args.command == "cone" and args.out is None:
            parser.error("cone requires --out for the space file")
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
