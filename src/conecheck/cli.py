"""Command-line front end: experiment orchestration, reports, CSV/plot output.

One binary, subcommand style.  Flag precedence is flags > config file >
defaults.  A report's params echo every flag the subcommand reads except the
seed (kept in provenance), the file paths and, under --input, the flags that
only build the space the file replaces; a value the subcommand derives, such
as a default tolerance, replaces the flag's unset default.
Exit codes: 0 pass, 1 check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model_fns import CurvatureDimension, passes
from . import mms as mmsmod
from . import spectral1d as sp1d
from . import transport as tr
from . import gamma_calc as gc

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE = 0, 1, 2


@dataclass
class Report:
    check: str
    residuals: dict
    passed: bool
    tolerance: float
    params: dict = field(default_factory=dict)
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
        return json.dumps(_named_nonfinite(payload), sort_keys=True, indent=2, allow_nan=False)


def _named_nonfinite(obj):
    """``obj`` with each non-finite float spelled "inf", "-inf" or "nan": strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _named_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_named_nonfinite(v) for v in obj]
    return obj


def _residuals(values) -> dict:
    """max/mean/min of the evidence; empty when there is none."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {}
    return {"max": float(arr.max()), "mean": float(arr.mean()), "min": float(arr.min())}


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
# subcommands: each computes its evidence and returns a Report whose params
# hold only the values it derived; main echoes the flags and writes it
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> Report:
    warnings_list = []
    if args.grid < 64:
        warnings_list.append(f"grid under-resolved (n={args.grid}); convergence not reached")
    op = sp1d.discretize_fiber_operator(args.K, args.nu, getattr(args, "lambda"), args.grid,
                                        r_max=args.rmax)
    k = min(args.grid, 12)
    spec = sp1d.eigen(op, k)
    detail = {"eigenvalues": [float(v) for v in spec.eigenvalues],
              "max_rayleigh_residual": float(spec.residuals.max())}
    slack_values = []  # no evidence unless K, nu > 0 give a gap bound
    if args.nu > 0 and args.K > 0:
        cd = CurvatureDimension(args.K * args.nu, args.nu + 1.0)
        gap = sp1d.spectral_gap_bound_check(spec, cd, tol=args.tol)
        detail["gap"] = gap.detail
        slack_values = [gap.min]
    else:
        warnings_list.append(f"no spectral gap bound applies for K={args.K:g}, nu={args.nu:g} "
                             "(it needs K > 0 and nu > 0), so the check cannot pass")
    if args.out:
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write("index,eigenvalue,residual\n")
            for i, (v, r) in enumerate(zip(spec.eigenvalues, spec.residuals)):
                fh.write(f"{i},{float(v)!r},{float(r)!r}\n")
        detail["csv"] = csv_path
    _maybe_plot(args.plot, range(k), spec.eigenvalues, "spectrum")
    return Report(
        check="spectrum",
        params={"rmax": op.grid.r_max},
        residuals=_residuals(slack_values),
        passed=passes(slack_values, args.tol),
        tolerance=args.tol,
        warnings=warnings_list,
        detail=detail,
    )


def cmd_cone(args) -> Report:
    if args.input:
        fiber = mmsmod.load_mms_json(args.input)
    else:
        fiber = mmsmod.circle_mms(args.fiber_n, args.radius)
    grid = mmsmod.radial_grid(args.K, args.N, args.grid, r_max=args.rmax)
    space = mmsmod.cone(fiber, args.K, args.N, grid)
    mmsmod.save_mms_json(space, args.out)
    # the cone metric over a metric fiber, capped at pi, is a metric
    # (Burago-Burago-Ivanov 3.6), so the fiber's violation count certifies it
    violations = len(mmsmod.validate(fiber))
    return Report(
        check="cone",
        params={"fiber_n": fiber.n, "rmax": grid.r_max},
        residuals=_residuals([violations]),
        passed=passes(-violations, 0.0),
        tolerance=0.0,
        detail={"points": space.n, "diameter": mmsmod.diameter(space),
                "total_mass": space.total_mass(), "validated": "fiber"},
    )


def cmd_cd_check(args) -> Report:
    space = _load_space(args)
    cd = CurvatureDimension(args.cd_K, args.N)
    eps = args.eps if args.eps is not None else 2.0 * _min_gap(space)
    pairs = _sample_density_pairs(space, args.pairs, args.seed)
    coeff = tr.tau_coeff if args.full else tr.sigma_coeff
    nprimes = (cd.N, 2.0 * cd.N)
    results, missed = [], []
    for mu0, mu1 in pairs:  # every pair runs, so an error names an eps for the whole run
        try:
            results.append(tr.convexity_reports(space, mu0, mu1, cd, nprimes, eps, args.tol, coeff))
        except tr.NoMidpointError as exc:
            missed.append(exc)
    if missed:
        raise tr.NoMidpointError(missed[0].pair, eps, max(exc.need for exc in missed),
                                 (len(missed), len(pairs)))
    slacks = [r.slack for rs in results for r in rs]
    for i, rs in enumerate(results):
        print(f"pair {i}: " + ", ".join(
            f"N'={r.Nprime:g} slack={r.slack:.3e}" for r in rs), file=sys.stderr)
    _maybe_plot(args.plot, range(len(slacks)), slacks, "cd slack per pair")
    certs = [rs[0].certificate for rs in results]
    return Report(
        check="cd" if args.full else "cd-star",
        params={"eps": eps},
        residuals=_residuals(slacks),
        passed=passes(slacks, args.tol),
        tolerance=args.tol,
        detail={"nprimes": list(nprimes),
                "couplings": [{"solver": c.solver, "cells": c.cells, "rounds": c.rounds}
                              for c in certs],
                "max_certificate_residual": max(max(c.dual_infeasibility, c.slackness)
                                                for c in certs)},
    )


def _min_gap(space) -> float:
    d = space.dist[space.dist > 0]
    return float(d.min()) if d.size else 1.0


def cmd_be_check(args) -> Report:
    if args.flavor == "graph":
        grid = mmsmod.radial_grid(args.K, args.nu, args.grid)
        tol = args.tol if args.tol is not None else 5.0 * grid.h
        g = gc.path_graph_from_interval_model(args.K, args.nu, args.grid)
        # smooth seeded test functions; the window avoids the degenerate-weight ends
        # of (0, r_max), where rough functions have divergent discrete curvature
        r, pad = grid.nodes, 0.4 * grid.r_max / math.pi
        window = np.nonzero((r > pad) & (r < grid.r_max - pad))[0]
        rep = gc.be_check(g, kappa=args.nu * args.K, N=args.nu + 1.0,
                          strategy="sampled", tol=tol, samples=args.pairs,
                          seed=args.seed, vertices=window,
                          sample_fn=lambda rng: _trig(rng, r, 4))
        resid = [rep.min_defect]
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
        detail = {"min_slack_coarse": rep.min_slack_coarse}
    return Report(
        check=f"be-{args.flavor}",
        params={"tol": tol},
        residuals=_residuals(resid),
        passed=rep.passed,
        tolerance=tol,
        detail=detail,
    )


def _trig(rng, xs, degree: int):
    """Seeded trigonometric polynomial of the given degree, l1-normalized coefficients."""
    c = rng.standard_normal((2, degree + 1))
    c /= np.abs(c).sum()
    return sum(c[0, k] * np.cos(k * xs) + c[1, k] * np.sin(k * xs)
               for k in range(degree + 1))


def _random_tensor_member(rng, spec, degree: int = 3):
    return [(_trig(rng, spec.r, degree), _trig(rng, spec.fiber.x, degree))]


def cmd_weyl(args) -> Report:
    table, mismatches = [], 0
    for nu in (1.0, 1.5, 2.0, 2.9, 3.0, 5.0):
        for lam in (0.0, nu, nu + 1.0):
            got = sp1d.essential_self_adjointness(nu, lam)
            if lam == 0.0:
                expected = nu >= 3.0
            else:  # lambda >= nu >= 1 is always in the unique-extension range
                expected = True
            table.append({"nu": nu, "lambda": lam, "self_adjoint": got,
                          "expected": expected})
            mismatches += got != expected
    return Report(
        check="weyl",
        residuals=_residuals([mismatches]),
        passed=passes(-mismatches, 0.0),
        tolerance=0.0,
        detail={"table": table},
    )


def cmd_suspension(args) -> Report:
    x, y, tol = args.x, args.y, args.tol
    if args.input:  # suspension_check takes a file's defaults from its distances
        space = mmsmod.load_mms_json(args.input)
    else:  # the built cone's layout fixes them: its two apexes, twice its radial step
        fiber = mmsmod.circle_mms(args.fiber_n, args.radius)
        space = mmsmod.cone(fiber, 1.0, args.N, mmsmod.radial_grid(1.0, args.N, args.grid))
        x, y = (space.n - 2, space.n - 1) if x is None and y is None else (x, y)
        tol = 2.0 * math.pi / args.grid if tol is None else tol
    rep = mmsmod.suspension_check(space, x, y, tol, N=args.N)
    return Report(
        check="suspension",
        params={"tol": rep.tolerance, "x": rep.poles[0], "y": rep.poles[1]},
        residuals=_residuals([rep.max_residual]),
        passed=rep.is_suspension,
        tolerance=rep.tolerance,
        detail={"failed_stage": rep.failed_stage,
                "equator_size": rep.equator.n if rep.equator is not None else 0,
                "stage_residuals": rep.stage_residuals},
    )


def cmd_heat(args) -> Report:
    op = sp1d.discretize_fiber_operator(args.K, args.nu, getattr(args, "lambda"), args.grid,
                                        r_max=args.rmax)
    rng = np.random.default_rng(args.seed)
    r = op.grid.nodes
    mins = []
    times = (0.01, 0.1, 1.0)
    for _ in range(args.pairs):
        u0 = sum(rng.standard_normal() * np.cos(k * r) for k in range(4))
        for t in times:
            rep = sp1d.bakry_ledoux_check(op, kappa=args.K * args.nu,
                                          Nbe=args.nu + 1.0, u0=u0, t=t, tol=args.tol)
            mins.append(rep.min)
    # semigroup law as a sanity residual
    u0 = np.cos(r)
    law = sp1d.heat_semigroup_1d(op, sp1d.heat_semigroup_1d(op, u0, 0.1), 0.2)
    law_res = float(np.max(np.abs(law - sp1d.heat_semigroup_1d(op, u0, 0.3))))
    spec = op.spectrum_below(0.0)  # every cut above covers 0: the cached pairs the semigroup ran on
    modes = int(spec.eigenvalues.size)  # with none, every P_t u and so every slack is 0
    return Report(
        check="heat",
        params={"rmax": op.grid.r_max},
        residuals=_residuals([np.min(mins)]),
        passed=passes(mins, args.tol) and passes(-law_res, 1e-8) and modes > 0,
        tolerance=args.tol,
        warnings=[] if modes else [f"no eigenvalue lies below 50/{min(times):g}: the semigroup "
                                   "ran on no mode, so the check cannot pass"],
        detail={"semigroup_law_residual": law_res, "times": list(times),
                "semigroup_modes": modes,
                "max_rayleigh_residual": float(spec.residuals.max(initial=0.0))},
    )


def cmd_gamma2_identity(args) -> Report:
    rng = np.random.default_rng(args.seed)
    fiber = gc.circle_fiber(args.fiber_n)
    spec = gc.cone_grid(args.K, args.nu, args.grid, fiber)
    # the residual is about 2 h_f^2 from the fiber step plus up to about 8 h^2 from the
    # radial one; at grid 161 these constants keep a margin of at least 2.3 over
    # K in {0.5, 1, 2, 4, 9}, nu in {1, 2, 3} and fiber_n in {32, 64, 128, 256}
    tol = args.tol if args.tol is not None else 20.0 * spec.h**2 + 5.0 * fiber.h**2 + 1e-6
    f = spec.warp()
    residuals, orders = [], []
    for _ in range(args.pairs):
        (u1, u2), = _random_tensor_member(rng, spec)
        rep = gc.warped_gamma2_identity_check(spec, f, u1, u2)
        residuals.append(rep.max_residual / max(rep.scale, 1e-12))
        orders.append(rep.observed_order)
    _maybe_plot(args.plot, range(len(residuals)), residuals, "identity residuals")
    return Report(
        check="gamma2-identity",
        params={"tol": tol},
        residuals=_residuals(residuals),
        passed=passes(-np.asarray(residuals), tol),
        tolerance=tol,
        detail={"orders": orders},
    )


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# argparse options of every flag; the flag is --<name> with "_" written "-"
_FLAGS = {
    **dict.fromkeys(("K", "N", "nu", "lambda", "cd_K", "radius", "rmax", "tol"), {"type": float}),
    **dict.fromkeys(("fiber_n", "pairs", "x", "y", "seed"), {"type": int}),
    "grid": {"type": int, "help": "radial cell count"},
    "eps": {"type": float, "help": "midpoint search radius"},
    "flavor": {"type": str, "choices": ("graph", "grid")},
    "full": {"action": "store_true", "help": "use the non-reduced coefficients"},
    "input": {"type": str, "help": "space JSON file"},
    "config": {"type": str, "help": "JSON config file"},
    "out": {"type": str, "help": "report path (stdout default)"},
    "plot": {"type": str, "help": "optional SVG path"},
    "report": {"type": str},
}

# every flag a subcommand reads, with its default (None: derived or unset)
_COMMON = {"seed": 0, "out": None}
_DEFAULTS = {
    "spectrum": {"K": 1.0, "nu": 1.0, "lambda": 0.0, "grid": 2000, "rmax": None, "tol": 1e-2,
                 "plot": None, **_COMMON},
    "cone": {"K": 1.0, "N": 1.0, "grid": 64, "fiber_n": 32, "radius": 1.0, "rmax": None,
             "input": None, "report": None, **_COMMON},
    "cd-check": {"K": 1.0, "nu": 2.0, "cd_K": 2.0, "N": 3.0, "grid": 400, "pairs": 5, "tol": 0.2,
                 "full": False, "input": None, "eps": None, "plot": None, **_COMMON},
    "be-check": {"K": 1.0, "nu": 2.0, "grid": 160, "fiber_n": 64, "pairs": 20, "flavor": "graph",
                 "tol": None, **_COMMON},
    "weyl": {**_COMMON},
    "suspension": {"N": 1.0, "grid": 25, "fiber_n": 100, "radius": 1.0, "input": None,
                   "x": None, "y": None, "tol": None, **_COMMON},
    "heat": {"K": 1.0, "nu": 1.0, "lambda": 0.0, "grid": 400, "rmax": None, "pairs": 5,
             "tol": 5e-2, **_COMMON},
    "gamma2-identity": {"K": 1.0, "nu": 2.0, "grid": 161, "fiber_n": 64, "pairs": 10,
                        "tol": None, "plot": None, **_COMMON},
}

# a report's params echo every flag of its subcommand but these
_UNECHOED = {"seed", "out", "report", "plot", "input"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the input errors' path: one line, exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conecheck",
        description="curvature-dimension verification suites on cones and warped products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name)
        for key, default in [*defaults.items(), ("config", None)]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=default, **_FLAGS[key])
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def _config_flags(command: str, path: str) -> list:
    """The flags a config file's entries name: --key=value, --key for true, none for false."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} is not a JSON object")
    flags = []
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in _DEFAULTS[command]:
            raise ValueError(f"config key {key!r} is not a flag of {command}")
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, bool) and "action" in _FLAGS[dest]:  # a switch: present or absent
            flags += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            flags.append(f"{flag}={value}")  # one token, so a value may start with "-"
        else:
            raise ValueError(f"config key {key!r}: {value!r} is not a valid value of its flag")
    return flags


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(argv)
        if args.config:  # its flags go right after the subcommand, before the typed ones
            at = argv.index(args.command) + 1
            flags = _config_flags(args.command, args.config)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        if getattr(args, "pairs", 1) < 1:
            raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
        if args.command == "cone" and args.out is None:
            parser.error("cone requires --out for the space file")
        started = time.perf_counter()
        report = args.func(args)
        unechoed = set(_UNECHOED)
        if getattr(args, "input", None):  # nor the flags that only build what the file replaces
            unechoed |= {"cd-check": {"K", "nu", "grid"}, "cone": {"radius"},
                         "suspension": {"grid", "fiber_n", "radius"}}[args.command]
        echoed = {k: getattr(args, k) for k in _DEFAULTS[args.command] if k not in unechoed}
        report.params = {**echoed, **report.params}
        report.seed = args.seed
        text = report.to_json(runtime_ms=int((time.perf_counter() - started) * 1000))
        out = args.report if args.command == "cone" else args.out
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return _EXIT_PASS if report.passed else _EXIT_FAIL
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
