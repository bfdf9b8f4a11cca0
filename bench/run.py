"""conecheck benchmark: end-to-end and per-layer times of the certifier.

    python3 bench/run.py --workload line-transport --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from any directory; the package is imported from ``src/`` next to this
directory.  A run builds the workload's seeded inputs, then repeats whole
passes over its fixed list of operations for ``--seconds`` and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the seed, the machine and every
failed operation.  ``--workload all`` runs every workload both ways in
fresh processes and prints every metric.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("line-transport", "cone-spaces", "calculus", "cli-cold")
# the modules each workload's operations call, imported during set-up
MODULES = {
    "line-transport": ("conecheck.mms", "conecheck.transport", "conecheck.model_fns"),
    "cone-spaces": ("conecheck.mms", "conecheck.transport", "conecheck.model_fns"),
    "calculus": ("conecheck.spectral1d", "conecheck.gamma_calc", "conecheck.model_fns"),
    "cli-cold": ("conecheck.cli",),
}
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time\nt = time.perf_counter()\n"
                "for m in sys.argv[1:]: __import__(m)\nprint(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import_seconds(modules) -> float:
    """Import time of ``modules`` in a fresh interpreter, start-up excluded."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *modules], env=child_env(),
                         cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        cfg = numpy.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = f"{b.get('name')} {b.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is then unknown
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def build_ops(workload: str, seed: int, workdir: str, inprocess_cli: bool = False) -> list:
    import workloads as wl

    if workload == "cli-cold":
        return wl.cli_cold(seed, workdir, str(SRC), inprocess=inprocess_cli)
    return {"line-transport": wl.line_transport, "cone-spaces": wl.cone_spaces,
            "calculus": wl.calculus}[workload](seed, workdir)


class Pass:
    """Timings and outcomes of one pass over the operations."""

    def __init__(self):
        self.times = []
        self.failures = []  # (op name, reason, fault)
        self.space_bytes = 0
        self.report_bytes = 0
        self.wall = 0.0

    @property
    def run_s(self) -> float:
        return sum(self.times)


def run_pass(ops, tracer=None) -> Pass:
    """Time each operation's call into the program; check its output untimed."""
    p = Pass()
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.span("op:" + op.name, op.run)
        except Exception as exc:  # a raising operation is a failed operation
            p.times.append(time.perf_counter() - t0)
            p.failures.append((op.name, f"raised {type(exc).__name__}: {exc}", op.fault))
            continue
        p.times.append(time.perf_counter() - t0)
        try:
            reason = op.check(out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            p.failures.append((op.name, reason, op.fault))
        if op.space_file and os.path.exists(op.space_file):
            p.space_bytes += os.path.getsize(op.space_file)
        if op.report and os.path.exists(op.report):
            p.report_bytes += os.path.getsize(op.report)
    p.wall = time.perf_counter() - t_pass
    return p


def run_passes(ops, seconds: float) -> list:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        if time.perf_counter() - t0 + passes[-1].wall > seconds:
            return passes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def cli_split(ops, p: Pass) -> tuple:
    """(inside, outside) seconds: the reports' runtime_ms, and wall time minus it."""
    inside = 0.0
    for op in ops:
        try:
            with open(op.report) as fh:
                inside += json.loads(fh.read())["runtime_ms"] / 1000.0
        except (OSError, ValueError, KeyError, TypeError):
            pass
    return inside, p.run_s - inside


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import refs

    bad = refs.selftest()
    if bad:
        print(f"bench: reference self-test failed: {', '.join(bad)}", file=sys.stderr)
        return 3
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run_workload(args, workdir: str) -> int:
    name, seconds = args.workload, float(args.seconds)
    modules = MODULES[name]
    imports = [fresh_import_seconds(modules) for _ in range(SETUP_REPEATS)]
    for m in modules:
        importlib.import_module(m)
    import conecheck

    if Path(conecheck.__file__).resolve().parent != (SRC / "conecheck").resolve():
        print(f"bench: conecheck imported from {conecheck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build_ops(name, args.seed, workdir)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(i + b for i, b in zip(imports, builds))

    record = {"workload": name, "seed": args.seed, "seconds": seconds, "trace": args.trace,
              "environment": environment()}
    if not args.trace:
        passes = run_passes(ops, seconds)
        times = [t for p in passes for t in p.times]
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(p.run_s for p in passes), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb(children=name == "cli-cold"), "MB"),
        }
    else:
        passes, metrics = traced_run(name, args.seed, workdir, ops, seconds)
    return finish(record, passes, metrics, args)


def traced_run(name, seed, workdir, ops, seconds) -> tuple:
    """Untraced passes for half the time, then one traced pass; per-layer metrics."""
    import tracing

    extra = {}
    all_passes = []
    if name == "cli-cold":
        fresh = run_pass(ops)  # fresh processes: where cli-cold's wall time goes
        all_passes.append(fresh)
        inside, outside = cli_split(ops, fresh)
        extra["cli.inside_s"] = (inside, "s")
        extra["cli.outside_s"] = (outside, "s")
        extra["cli.report_bytes"] = (float(fresh.report_bytes), "bytes")
        extra["space_file_mb"] = (fresh.space_bytes / 1e6, "MB")
        ops = build_ops(name, seed, workdir, inprocess_cli=True)
    untraced = run_passes(ops, seconds / 2.0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.restore()
    all_passes += untraced + [traced]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")

    metrics = tracing.layer_metrics(tracer)
    if name != "cli-cold":
        extra["space_file_mb"] = (traced.space_bytes / 1e6, "MB")
    cli_mods = MODULES["cli-cold"]
    extra["cli.import_s"] = (
        statistics.median(fresh_import_seconds(cli_mods) for _ in range(SETUP_REPEATS))
        - statistics.median(fresh_import_seconds(("numpy",)) for _ in range(SETUP_REPEATS)), "s")
    for key in ("cli.inside_s", "cli.outside_s", "cli.report_bytes"):
        extra.setdefault(key, (0.0, "bytes" if key.endswith("bytes") else "s"))
    metrics.update(extra)
    # against the untraced pass just before it, which ran on equally warm caches
    metrics["trace.overhead_s"] = (traced.run_s - untraced[-1].run_s, "s")
    return all_passes, metrics


def finish(record, passes, metrics, args) -> int:
    failures = {}
    for p in passes:
        for op, reason, fault in p.failures:
            key = (op, reason, fault)
            failures[key] = failures.get(key, 0) + 1
    unexpected = [k for k in failures if k[2] is None]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    record.update({
        "passes": len(passes),
        "pass_run_s": [p.run_s for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failures": [{"op": op, "reason": reason, "fault": fault, "times": n}
                     for (op, reason, fault), n in failures.items()],
    })
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process; print every metric."""
    ok = True
    for name in WORKLOADS:
        for tr_flag in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(tr_flag)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={tr_flag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            run, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {name} trace={tr_flag}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={run['passes']}")
            for f in run["failures"]:
                print(f"   failed x{f['times']} {f['op']} [{f['fault'] or 'unexpected'}]: {f['reason']}")
            for key, m in result["metrics"].items():
                print(f"   {key:50s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conecheck" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'conecheck'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
