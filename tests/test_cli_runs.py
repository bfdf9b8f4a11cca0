"""Every subcommand's runs pinned on both sides: which pass, which fail, which are input errors.

Each row is ``(argv, exit, checks)``.  The runner gives ``cone`` an ``--out``
space file and a ``--report``, and every other subcommand an ``--out``
report, then runs ``main(argv)`` in-process with RuntimeWarning an error.
It requires the exact exit and:

- exit 0 or 1: a strict-JSON report (no bare NaN or Infinity) whose
  ``pass`` agrees with the exit;
- exit 2: exactly one ``error: `` line on stderr, naming each text of
  ``checks["error"]``, no traceback and no report file.

Optional checks: ``twice`` runs the row again and requires the same report
apart from ``runtime_ms``; ``space`` also requires a byte-identical space
file over the two runs, and one that ``mms.validate`` accepts as loaded back;
``process`` runs ``python -m conecheck.cli`` in a fresh interpreter instead;
``golden`` names the file under ``tests/golden/`` the report must match.
Strings, booleans and integers match exactly and floats to 1e-9, relative
or absolute (the floor covers fields at roundoff level, such as the zero
eigenvalue of ``spectrum``); ``detail.csv`` matches by basename.  A change
that moves a default report rewrites its golden file in the same diff.
A ``{cone16}`` in argv is the file of ``cone --grid 16 --fiber-n 16``.

The installed ``conecheck`` console script is run once, as ``conecheck
weyl`` in an empty directory; it is skipped where none is on PATH, except
under ``CI``, where the package is installed and a missing script fails.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import pytest

from conecheck import mms
from conecheck.cli import main

_NON_FINITE = {"error": ("must be finite",)}
_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_SRC = str(pathlib.Path(mms.__file__).resolve().parents[1])


def _overflow(K):
    return {"error": ("overflows", f"K={K}")}


ROWS = [
    # every subcommand at its defaults; the eigensolvers and couplings are deterministic
    ("spectrum", 0, {"twice": True, "golden": "spectrum.json"}),
    ("cone", 0, {"golden": "cone.json"}),
    ("cd-check", 0, {"twice": True, "golden": "cd-check.json"}),
    ("cd-check --full", 0, {"twice": True, "golden": "cd-check_full.json"}),
    ("be-check", 0, {"golden": "be-check.json"}),
    ("be-check --flavor grid", 0, {"golden": "be-check_flavor_grid.json"}),
    ("weyl", 0, {"process": True, "golden": "weyl.json"}),  # through __main__
    ("suspension", 0, {"golden": "suspension.json"}),
    ("heat", 0, {"twice": True, "golden": "heat.json"}),
    ("gamma2-identity", 0, {"golden": "gamma2-identity.json"}),
    # the space file is deterministic and valid; couplings on it take the shortlist LP
    ("cone --grid 16 --fiber-n 16", 0, {"space": True}),
    ("cd-check --input {cone16} --pairs 2 --cd-K 1 --N 2 --eps 0.4", 0, {"twice": True}),
    # its poles are the zero-weight apexes; its even grid ties two levels at the equator
    ("suspension --input {cone16}", 0, {}),
    ("suspension --grid 24", 0, {}),
    # the maximal diameter theorem both ways: the fiber must have diameter <= pi
    ("suspension --radius 0.5", 0, {}),
    ("suspension --radius 1.5", 1, {}),
    ("suspension --radius 2", 1, {}),
    # steep hyperbolic cones build: their law-of-cosines argument stays >= 1
    ("cone --K=-3 --grid 16 --fiber-n 16", 0, {"space": True}),
    ("cone --K=-20 --grid 16 --fiber-n 16", 0, {"space": True}),
    ("cone --K=-1000 --grid 16 --fiber-n 16", 0, {}),
    ("heat --K=-300", 0, {}),
    # without --rmax, K <= 0 samples the model interval (0, pi), as spectrum and heat do
    *((f"{c} --K {K}", 0, {}) for K in ("0", "-1")
      for c in ("cd-check", "be-check", "be-check --flavor grid", "gamma2-identity")),
    # the Gamma2 identity passes on its own model at every K; the tolerance sees both steps
    *((f"gamma2-identity --K {K}", 0, {}) for K in ("0.5", "2", "4", "9")),
    ("gamma2-identity --K 0.5 --fiber-n 256", 0, {}),
    # at nu >= 2 the grid flavor's Bochner inequality holds at every K under its 60 h^2
    # tolerance; at nu = 1, over the flat circle, the fiber step's error outgrows it
    *((f"be-check --flavor grid --K {K}", 0, {}) for K in ("0.5", "2", "4", "9")),
    # cd-K 200, far past the model interval's K nu = 2: the failing side of cd-check
    ("cd-check --grid 100 --pairs 3 --cd-K 200", 1, {}),
    # lambda = 1e6 lifts every mode above 50/0.01: the semigroup runs on none
    ("heat --lambda 1e6", 1, {}),
    # the graph's Bochner slack (-0.0234) and the identity's residuals (min 0.0051) at defaults
    # sit outside a roundoff tolerance; the grid flavor's slack stays positive (7.1e-5), so no
    # tolerance makes be-check --flavor grid fail at its defaults
    ("be-check --tol 1e-12", 1, {}),
    ("gamma2-identity --tol 1e-12", 1, {}),
    # non-finite flags are rejected before any arithmetic can warn
    ("cd-check --grid 60 --pairs 1 --eps inf", 2, _NON_FINITE),
    ("cd-check --grid 60 --pairs 1 --eps nan", 2, _NON_FINITE),
    ("heat --grid 60 --pairs 1 --lambda nan", 2, _NON_FINITE),
    ("spectrum --grid 60 --nu nan", 2, _NON_FINITE),
    ("spectrum --grid 60 --K 0 --rmax inf", 2, _NON_FINITE),
    ("spectrum --K 0 --rmax nan", 2, _NON_FINITE),
    ("heat --grid 60 --pairs 1 --K 0 --rmax nan", 2, _NON_FINITE),
    ("cone --grid 6 --fiber-n 8 --K 1 --rmax nan", 2, _NON_FINITE),
    ("spectrum --grid 60 --K nan", 2, _NON_FINITE),
    *((f"{c} --grid 41 --pairs 1 --K nan", 2, _NON_FINITE)
      for c in ("heat", "cd-check", "be-check", "gamma2-identity")),
    *((f"be-check --flavor grid --nu {v} --grid 41 --fiber-n 33 --pairs 1", 2, _NON_FINITE)
      for v in ("nan", "inf")),
    *((f"gamma2-identity --nu {v} --grid 41 --fiber-n 16 --pairs 1", 2, _NON_FINITE)
      for v in ("inf", "nan")),
    # a K < 0 steep enough that sinh, cosh or exp(-2 kappa t) overflows names K
    ("spectrum --K=-60000", 2, _overflow(-60000)),
    ("spectrum --K=-51100", 2, _overflow(-51100)),  # the cell weights fit, the conductances not
    ("heat --K=-60000", 2, _overflow(-60000)),
    ("heat --K=-1000", 2, _overflow(-1000)),
    ("cone --K=-60000 --grid 16 --fiber-n 16", 2, _overflow(-60000)),
    ("cone --K=-20000 --grid 16 --fiber-n 16", 2, _overflow(-20000)),
    ("cd-check --K=-60000", 2, _overflow(-60000)),
    ("be-check --K=-60000", 2, _overflow(-60000)),
    ("be-check --flavor grid --K=-60000", 2, _overflow(-60000)),  # the warp fits, its 4th power not
    ("gamma2-identity --K=-60000", 2, _overflow(-60000)),
    # a grid axis under the 3 samples its edge stencils read is named, not a traceback
    ("gamma2-identity --fiber-n 2", 2, {"error": ("the fiber axis has 2 samples",)}),
    ("gamma2-identity --fiber-n 0", 2, {"error": ("the fiber axis has 0 samples",)}),
    ("gamma2-identity --grid 1", 2, {"error": ("the radial axis has 1 samples",)}),
    ("be-check --flavor grid --grid 2", 2, {"error": ("the radial axis has 2 samples",)}),
    ("be-check --flavor grid --fiber-n 2", 2, {"error": ("the fiber axis has 2 samples",)}),
    ("be-check --flavor grid --nu 1 --fiber-n 1", 2, {"error": ("the fiber axis has 1 samples",)}),
    # argparse's usage errors print one error line too, in-process and from a fresh interpreter
    ("weyl --eps 3", 2, {"error": ("unrecognized arguments: --eps 3",)}),
    ("weyl --eps=3", 2, {"process": True, "error": ("unrecognized arguments: --eps=3",)}),
    ("heat --grid ten", 2, {"error": ("argument --grid: invalid int value: 'ten'",)}),
]


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _strict_report(path):
    report = json.loads(path.read_text(), parse_constant=_reject)
    report.pop("runtime_ms")
    return report


def _golden_diff(got, want, path="report"):
    """The key paths where ``got`` departs from the golden ``want``."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [f"{path}.{key}: missing from the {'golden' if key in got else 'report'}"
                for key in sorted(got.keys() ^ want.keys())] + [
            diff for key in sorted(got.keys() & want.keys())
            for diff in _golden_diff(got[key], want[key], f"{path}.{key}")]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [diff for k, (g, w) in enumerate(zip(got, want))
                for diff in _golden_diff(g, w, f"{path}[{k}]")]
    if type(got) is float and type(want) is float:
        same = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{path}: {got!r}, golden {want!r}"]


def test_golden_diff_names_each_moved_field():
    want = {"pass": True, "n": 3, "x": 0.5, "tiny": 1e-16, "list": [1.0, "a"]}
    assert _golden_diff(dict(want, x=0.5 * (1 + 1e-10), tiny=-3e-10), want) == []
    got = dict(want, x=0.5 * (1 + 1e-8), n=3.0, list=[1.0, "b"], extra=None)
    del got["pass"]
    assert _golden_diff(got, want) == [
        "report.extra: missing from the golden", "report.pass: missing from the report",
        "report.list[1]: 'b', golden 'a'", "report.n: 3.0, golden 3",
        f"report.x: {got['x']!r}, golden 0.5"]


@pytest.fixture(scope="module")
def cone16(tmp_path_factory):
    path = tmp_path_factory.mktemp("cone16") / "space.json"
    assert main(["cone", "--grid", "16", "--fiber-n", "16", "--out", str(path),
                 "--report", str(path.with_name("report.json"))]) == 0
    return path


@pytest.mark.parametrize("argv, exit, checks", [pytest.param(*row, id=row[0]) for row in ROWS])
def test_cli_run(argv, exit, checks, tmp_path, capsys, request):
    if "{cone16}" in argv:
        argv = argv.format(cone16=request.getfixturevalue("cone16"))
    argv = argv.split()
    out, space = tmp_path / "report.json", tmp_path / "space.json"
    argv += ["--out", str(space), "--report", str(out)] if argv[0] == "cone" else ["--out", str(out)]
    reports, files = [], []
    for _ in range(2 if checks.get("twice") or checks.get("space") else 1):
        out.unlink(missing_ok=True)
        if checks.get("process"):
            run = subprocess.run([sys.executable, "-m", "conecheck.cli", *argv],
                                 env={**os.environ, "PYTHONPATH": _SRC},
                                 capture_output=True, text=True, timeout=120)
            code, err = run.returncode, run.stderr
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            err = capsys.readouterr().err
        assert code == exit, err
        if exit == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert all(text in err for text in checks["error"]), err
            assert not out.exists() and "Traceback" not in err
            return
        reports.append(_strict_report(out))
        assert reports[-1]["pass"] is (exit == 0)
        if checks.get("golden"):
            got = dict(reports[-1])
            if "csv" in got.get("detail", {}):
                got["detail"] = {**got["detail"], "csv": os.path.basename(got["detail"]["csv"])}
            diffs = _golden_diff(got, json.loads((_GOLDEN / checks["golden"]).read_text()))
            assert not diffs, "\n".join(diffs)
        if checks.get("space"):
            files.append(space.read_bytes())
    assert reports[0] == reports[-1]
    if files:
        assert files[0] == files[1]
        assert mms.validate(mms.load_mms_json(space)) == []


def test_console_script_runs_weyl(tmp_path):
    # the installed entry point; CI installs the package, so there it must be found
    script = shutil.which("conecheck")
    if script is None:
        if os.environ.get("CI"):
            pytest.fail("no conecheck console script on PATH")
        pytest.skip("no conecheck console script on PATH")
    run = subprocess.run([script, "weyl"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    json.loads(run.stdout, parse_constant=_reject)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cone_at_its_defaults_stays_under_150_mb(tmp_path):
    # the 2050-atom cone's matrix is 33.6 MB and its file 83 MB; the file streams out from the
    # cone's table a row block at a time, so the process peaks near its imports, about 70 MB.
    # The probe reads its VmHWM, in kB, not ru_maxrss: that one keeps across exec the peak
    # of the process that forked it, pytest.
    probe = ("import sys\nfrom conecheck.cli import main\ncode = main(sys.argv[1:])\n"
             "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
             "sys.exit(code)")
    run = subprocess.run([sys.executable, "-c", probe, "cone", "--out", str(tmp_path / "space.json"),
                          "--report", str(tmp_path / "report.json")],
                         env={**os.environ, "PYTHONPATH": _SRC}, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    peak_mb = int(run.stdout.split()[-1]) / 1024
    assert peak_mb < 150, f"peak RSS {peak_mb:.0f} MB"


def test_suspension_input_takes_its_tolerance_from_the_file(cone16, tmp_path):
    # twice the file's radial step pi/16, not 2 pi/25 from the default of the unused --grid
    out = tmp_path / "report.json"
    assert main(["suspension", "--input", str(cone16), "--out", str(out)]) == 0
    report = _strict_report(out)
    assert report["tolerance"] == report["params"]["tol"]
    assert report["tolerance"] == pytest.approx(2.0 * math.pi / 16, abs=1e-9)
    assert "grid" not in report["params"]
    assert report["residuals"]["max"] == pytest.approx(math.pi / 16)  # the equator's half gap
