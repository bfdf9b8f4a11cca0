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
``process`` runs ``python -m conecheck.cli`` in a fresh interpreter instead.
A ``{cone16}`` in argv is the file of ``cone --grid 16 --fiber-n 16``.

The installed ``conecheck`` console script is run once, as ``conecheck
weyl`` in an empty directory; it is skipped where none is on PATH, except
under ``CI``, where the package is installed and a missing script fails.
"""

import json
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
_SRC = str(pathlib.Path(mms.__file__).resolve().parents[1])


def _overflow(K):
    return {"error": ("overflows", f"K={K}")}


ROWS = [
    # every subcommand at its defaults; the eigensolvers and couplings are deterministic
    ("spectrum", 0, {"twice": True}),
    ("cone", 0, {}),
    ("cd-check", 0, {"twice": True}),
    ("cd-check --full", 0, {"twice": True}),
    ("be-check", 0, {}),
    ("be-check --flavor grid", 0, {}),
    ("weyl", 0, {"process": True}),  # through __main__
    ("suspension", 0, {}),
    ("heat", 0, {"twice": True}),
    ("gamma2-identity", 0, {}),
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
    # the grid flavor's Bochner inequality holds at every K under its 60 h^2 tolerance
    *((f"be-check --flavor grid --K {K}", 0, {}) for K in ("0.5", "2", "4", "9")),
    # cd-K 200, far past the model interval's K nu = 2: the failing side of cd-check
    ("cd-check --grid 100 --pairs 3 --cd-K 200", 1, {}),
    # lambda = 1e6 lifts every mode above 50/0.01: the semigroup runs on none
    ("heat --lambda 1e6", 1, {}),
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
]


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _strict_report(path):
    report = json.loads(path.read_text(), parse_constant=_reject)
    report.pop("runtime_ms")
    return report


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
