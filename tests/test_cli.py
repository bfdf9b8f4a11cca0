import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conecheck import mms
from conecheck.cli import _DEFAULTS, Report, main


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_loads(text):
    """RFC 8259 JSON only: a bare NaN, Infinity or -Infinity token is an error."""
    return json.loads(text, parse_constant=_reject_constant)


def read_report(path):
    with open(path) as fh:
        return strict_loads(fh.read())


def strip_runtime(report):
    report = dict(report)
    report.pop("runtime_ms", None)
    return report


class TestExitCodes:
    def test_spectrum_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["spectrum", "--K", "1", "--nu", "1", "--grid", "400",
                     "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        assert rep["pass"] is True
        assert rep["detail"]["gap"]["lambda1"] == pytest.approx(2.0, rel=0.01)
        assert (tmp_path / "r.csv").exists()

    def test_spectrum_underresolved_warns_and_fails(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["spectrum", "--grid", "8", "--out", str(out)])
        rep = read_report(out)
        assert rep["warnings"]
        assert code in (0, 1)

    def test_usage_error_is_two(self, tmp_path):
        assert main(["cd-check", "--input", str(tmp_path / "missing.json")]) == 2

    def test_cone_roundtrip(self, tmp_path):
        out = tmp_path / "cone.json"
        rep_path = tmp_path / "rep.json"
        code = main(["cone", "--fiber-n", "12", "--grid", "8", "--K", "1",
                     "--N", "1", "--out", str(out), "--report", str(rep_path)])
        assert code == 0
        space = mms.load_mms_json(out)
        assert space.n == 8 * 12 + 2
        rep = read_report(rep_path)
        assert rep["detail"]["diameter"] == pytest.approx(math.pi, abs=1e-9)

    def test_suspension_rejects_nan_distance(self, tmp_path):
        space = mms.cone(mms.circle_mms(12, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, 6))
        d = space.dist.copy()
        d[3, 5] = d[5, 3] = float("nan")
        payload = {"labels": list(space.labels), "dist": d.tolist(),
                   "weight": space.weight.tolist()}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "s.json"
        code = main(["suspension", "--input", str(path), "--x", str(space.n - 2),
                     "--y", str(space.n - 1), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("poles", [["--x", "3"], ["--x", "-1", "--y", "73"],
                                       ["--x", "0", "--y", "99"]],
                             ids=["lone-x", "negative-x", "y-past-the-end"])
    def test_suspension_poles_are_checked(self, poles, tmp_path, capsys):
        space = tmp_path / "cone.json"
        assert main(["cone", "--grid", "6", "--fiber-n", "12", "--out", str(space),
                     "--report", str(tmp_path / "c.json")]) == 0
        assert mms.load_mms_json(space).n == 74
        out = tmp_path / "s.json"
        assert main(["suspension", "--input", str(space), "--out", str(out)] + poles) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_cone_requires_out(self):
        assert main(["cone", "--fiber-n", "8", "--grid", "6"]) == 2

    def test_suspension_builtin(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["suspension", "--grid", "15", "--fiber-n", "40",
                     "--out", str(out)])
        assert code == 0
        assert read_report(out)["pass"] is True

    def test_suspension_rejects_torus(self, tmp_path):
        n1 = n2 = 6
        c1, c2 = mms.circle_mms(n1, 0.5), mms.circle_mms(n2, 0.5)
        d = np.sqrt(
            c1.dist[:, None, :, None] ** 2 + c2.dist[None, :, None, :] ** 2
        ).reshape(n1 * n2, n1 * n2)
        torus = mms.FiniteMMS(
            tuple(f"{i},{j}" for i in range(n1) for j in range(n2)),
            d, np.ones(n1 * n2))
        path = tmp_path / "torus.json"
        mms.save_mms_json(torus, path)
        out = tmp_path / "s.json"
        code = main(["suspension", "--input", str(path), "--grid", "15",
                     "--tol", "0.2", "--out", str(out)])
        assert code == 1
        assert read_report(out)["pass"] is False

    def test_weyl(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["weyl", "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["pass"] is True
        assert len(rep["detail"]["table"]) == 18

    def test_heat(self, tmp_path):
        out = tmp_path / "h.json"
        code = main(["heat", "--grid", "200", "--pairs", "2", "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        assert rep["detail"]["semigroup_law_residual"] <= 1e-8

    def test_gamma2_identity(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["gamma2-identity", "--grid", "97", "--fiber-n", "32",
                     "--pairs", "2", "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        for order in rep["detail"]["orders"]:
            assert 1.5 <= order <= 2.5

    def test_be_check_graph(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["be-check", "--flavor", "graph", "--grid", "150",
                     "--pairs", "20", "--out", str(out)])
        assert code == 0

    def test_be_check_grid(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["be-check", "--flavor", "grid", "--grid", "97",
                     "--fiber-n", "65", "--pairs", "2", "--out", str(out)])
        assert code == 0

    def test_cd_check_small(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["cd-check", "--grid", "80", "--pairs", "2", "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        assert rep["detail"]["nprimes"] == [3.0, 6.0]


def test_cd_check_stdout_is_only_the_report(capsys):
    assert main(["cd-check", "--grid", "60", "--pairs", "1"]) == 0
    captured = capsys.readouterr()
    assert strict_loads(captured.out)["check"] == "cd-star"
    assert captured.err.startswith("pair 0: ")


def test_cd_check_solves_one_coupling_per_pair(monkeypatch, capsys):
    from conecheck import transport

    calls = []
    solve = transport.wasserstein2

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(transport, "wasserstein2", counting)
    for full in ([], ["--full"]):
        calls.clear()
        assert main(["cd-check", "--grid", "60", "--pairs", "2"] + full) == 0
        assert len(calls) == 2  # one per pair, shared by N' = N and 2N
        assert strict_loads(capsys.readouterr().out)["detail"]["nprimes"] == [3.0, 6.0]


class TestDeterminism:
    def test_reports_identical_modulo_runtime(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["heat", "--grid", "150", "--pairs", "2", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert strip_runtime(read_report(a)) == strip_runtime(read_report(b))

    def test_seed_echoed(self, tmp_path):
        out = tmp_path / "r.json"
        main(["heat", "--grid", "100", "--pairs", "1", "--seed", "13",
              "--out", str(out)])
        assert read_report(out)["provenance"]["seed"] == 13


class TestConfig:
    def test_config_file_layer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 120, "pairs": 1}))
        out = tmp_path / "r.json"
        code = main(["heat", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert read_report(out)["params"]["grid"] == 120

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 120, "pairs": 1}))
        out = tmp_path / "r.json"
        main(["heat", "--config", str(cfg), "--grid", "90", "--out", str(out)])
        assert read_report(out)["params"]["grid"] == 90

    def test_params_echo_verbatim(self, tmp_path):
        out = tmp_path / "r.json"
        main(["spectrum", "--K", "1", "--nu", "2", "--lambda", "1.5",
              "--grid", "300", "--tol", "0.25", "--out", str(out)])
        params = read_report(out)["params"]
        assert params == {"K": 1.0, "nu": 2.0, "lambda": 1.5,
                          "grid": 300, "rmax": math.pi, "tol": 0.25}


def test_plot_failure_does_not_change_exit_code(tmp_path, monkeypatch):
    # force the plotting path to blow up; the report must still be written
    out = tmp_path / "r.json"
    bad_plot = tmp_path / "no" / "dir" / "p.svg"
    code = main(["spectrum", "--K", "1", "--nu", "1", "--grid", "300",
                 "--out", str(out), "--plot", str(bad_plot)])
    assert code == 0
    assert out.exists()


class TestVerdictGate:
    def test_flat_cone_is_not_a_suspension(self, tmp_path):
        # the K = 0 cone is flat, not a suspension; a NaN tolerance must not say otherwise
        space = tmp_path / "flat.json"
        assert main(["cone", "--K", "0", "--N", "1", "--grid", "8", "--fiber-n", "12",
                     "--rmax", "2", "--out", str(space), "--report", str(tmp_path / "c.json")]) == 0
        out = tmp_path / "s.json"
        assert main(["suspension", "--input", str(space), "--grid", "8", "--out", str(out)]) == 1
        rep = read_report(out)
        assert rep["pass"] is False
        assert rep["detail"]["failed_stage"] == "geodesics-through-poles"
        assert rep["residuals"]["max"] > 1.0
        nan_out = tmp_path / "nan.json"
        assert main(["suspension", "--input", str(space), "--grid", "8", "--tol", "nan",
                     "--out", str(nan_out)]) == 2
        assert not nan_out.exists()

    def test_infinite_tolerance_is_a_usage_error(self, tmp_path):
        out = tmp_path / "h.json"
        assert main(["heat", "--grid", "100", "--pairs", "1", "--tol", "inf",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["heat", "be-check", "cd-check", "gamma2-identity"])
    def test_zero_pairs_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([command, "--grid", "60", "--pairs", "0", "--out", str(out)]) == 2
        assert "--pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_flags_are_rejected(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["weyl", "--eps", "3", "--out", str(out)]) == 2
        assert main(["weyl", "--K", "9", "--grid", "5", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"tol": "abc"}, {"gird": 5}, {"pairs": 0},
                                        {"flavor": "mesh"}, {"grid": True}, [1]])
    def test_bad_config_is_a_usage_error(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert main(["be-check", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_config_values_take_the_flag_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "120", "pairs": 1, "tol": 1, "fiber-n": 8}))
        out = tmp_path / "r.json"
        assert main(["heat", "--config", str(cfg), "--out", str(out)]) == 2  # heat has no --fiber-n
        cfg.write_text(json.dumps({"grid": "120", "pairs": 1, "tol": 1}))
        assert main(["heat", "--config", str(cfg), "--out", str(out)]) == 0
        params = read_report(out)["params"]
        assert (params["grid"], params["tol"]) == (120, 1.0)
        assert isinstance(params["tol"], float)

    def test_large_cone_is_validated_by_its_fiber(self, tmp_path):
        # 37 rings of 33 atoms plus two apexes: certified through the 33-atom fiber
        out = tmp_path / "r.json"
        code = main(["cone", "--grid", "37", "--fiber-n", "33", "--out",
                     str(tmp_path / "cone.json"), "--report", str(out)])
        rep = read_report(out)
        assert rep["detail"]["points"] == 37 * 33 + 2
        assert code == 0 and rep["pass"] is True
        assert rep["detail"]["validated"] == "fiber"
        assert rep["residuals"] == {"max": 0.0, "mean": 0.0, "min": 0.0}

    def test_cone_over_an_invalid_fiber_fails(self, tmp_path):
        fiber = mms.circle_mms(10, 1.0)
        d = fiber.dist.copy()
        d[0, 2] = d[2, 0] = d[0, 1] + d[1, 2] + 0.3  # one seeded triangle defect
        path = tmp_path / "fiber.json"
        mms.save_mms_json(mms.FiniteMMS(fiber.labels, d, fiber.weight), path)
        out = tmp_path / "r.json"
        code = main(["cone", "--input", str(path), "--grid", "6",
                     "--out", str(tmp_path / "cone.json"), "--report", str(out)])
        rep = read_report(out)
        assert code == 1 and rep["pass"] is False
        assert rep["detail"]["validated"] == "fiber"
        assert rep["residuals"]["min"] > 0

    def test_report_names_nonfinite_numbers(self):
        report = Report(check="x", params={"tol": 0.1}, passed=False, tolerance=0.1,
                        residuals={"max": math.inf, "mean": math.nan, "min": -math.inf},
                        detail={"orders": [1.0, float("nan")]})
        rep = strict_loads(report.to_json(runtime_ms=0))
        assert rep["residuals"] == {"max": "inf", "mean": "nan", "min": "-inf"}
        assert rep["detail"]["orders"] == [1.0, "nan"]


class TestReportParams:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--grid", "100"],
        ["cone", "--grid", "6", "--fiber-n", "8"],
        ["cd-check", "--grid", "60", "--pairs", "1"],
        ["be-check", "--grid", "60", "--pairs", "2"],
        ["be-check", "--flavor", "grid", "--grid", "41", "--fiber-n", "33", "--pairs", "1"],
        ["weyl"],
        ["suspension", "--grid", "8", "--fiber-n", "12"],
        ["heat", "--grid", "60", "--pairs", "1"],
        ["gamma2-identity", "--grid", "41", "--fiber-n", "16", "--pairs", "1"],
    ], ids=lambda argv: "-".join(argv[:3:2]) if "--flavor" in argv else argv[0])
    def test_params_are_the_flag_table(self, argv, tmp_path):
        out = tmp_path / "r.json"
        if argv[0] == "cone":
            argv = argv + ["--out", str(tmp_path / "space.json"), "--report", str(out)]
        else:
            argv = argv + ["--out", str(out)]
        assert main(argv + ["--seed", "4"]) in (0, 1)
        rep = read_report(out)
        unechoed = {"seed", "out", "report", "plot", "input", "config"}
        assert set(rep["params"]) == set(_DEFAULTS[argv[0]]) - unechoed
        assert None not in rep["params"].values()
        assert rep["provenance"]["seed"] == 4

    def test_derived_values_replace_unset_defaults(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["suspension", "--grid", "8", "--fiber-n", "12", "--out", str(out)]) == 0
        params = read_report(out)["params"]
        assert params["tol"] == pytest.approx(2.0 * math.pi / 8)
        assert (params["x"], params["y"]) == (8 * 12, 8 * 12 + 1)  # the two apexes
        assert (params["fiber_n"], params["radius"]) == (12, 1.0)
        assert main(["cd-check", "--grid", "60", "--pairs", "1", "--full", "--out", str(out)]) == 0
        params = read_report(out)["params"]
        assert params["full"] is True and params["eps"] > 0

    def test_cone_echoes_the_loaded_fiber_size(self, tmp_path):
        fiber = tmp_path / "fiber.json"
        mms.save_mms_json(mms.circle_mms(10, 1.0), fiber)
        out = tmp_path / "r.json"
        assert main(["cone", "--input", str(fiber), "--fiber-n", "99", "--grid", "6",
                     "--out", str(tmp_path / "space.json"), "--report", str(out)]) == 0
        assert read_report(out)["params"]["fiber_n"] == 10


def test_eps_without_a_midpoint_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["cd-check", "--grid", "60", "--pairs", "1", "--eps", "0.0001",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no epsilon-midpoint for atoms (")
    assert "eps=0.0001" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["be-check", "--flavor", "grid", "--fiber-n", "16"],
                                  ["be-check", "--flavor", "grid", "--grid", "20"],
                                  ["gamma2-identity", "--grid", "20"]],
                         ids=["be-check-fiber-16", "be-check-grid-20", "gamma2-identity-grid-20"])
def test_grid_too_small_for_the_margin_is_an_input_error(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and "none inside a margin of 12 cells" in err
    assert not out.exists()


def test_spectrum_without_a_gap_bound_does_not_pass(tmp_path):
    out = tmp_path / "r.json"
    assert main(["spectrum", "--nu", "0", "--grid", "200", "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False and rep["residuals"] == {}
    assert "no spectral gap bound" in rep["warnings"][0]
    assert len(rep["detail"]["eigenvalues"]) == 12


@pytest.mark.parametrize("flags, rmax", [(["--K", "-1"], math.pi), (["--K", "0", "--rmax", "2"], 2.0)])
def test_spectrum_flat_and_hyperbolic_use_rmax(flags, rmax, tmp_path):
    out = tmp_path / "r.json"
    assert main(["spectrum", *flags, "--grid", "100", "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False and rep["params"]["rmax"] == rmax
    assert "no spectral gap bound" in rep["warnings"][0]
    assert len(rep["detail"]["eigenvalues"]) == 12


@pytest.mark.parametrize("flags, rmax", [(["--K", "-1"], math.pi), (["--K", "0", "--rmax", "2"], 2.0)])
def test_heat_flat_and_hyperbolic_use_rmax(flags, rmax, tmp_path):
    out = tmp_path / "r.json"
    assert main(["heat", *flags, "--grid", "100", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["pass"] is True and rep["params"]["rmax"] == rmax
    assert math.isfinite(rep["residuals"]["min"])


_FOOTPRINT = """
import json, sys
argv = json.loads(sys.argv[1])
from conecheck.cli import main
code = main(argv) if argv else None
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("argv, code, unloaded", [
    ([], None, "scipy"),
    (["weyl"], 0, "scipy"),
    (["cone", "--grid", "8", "--fiber-n", "12", "--out", "{tmp}/c.json",
      "--report", "{tmp}/r.json"], 0, "scipy"),
    (["suspension", "--grid", "8", "--fiber-n", "12"], 0, "scipy"),
    (["suspension", "--input", "{tmp}/missing.json"], 2, "scipy"),
    (["cd-check", "--grid", "60", "--pairs", "1"], 0, "scipy.optimize"),
], ids=["import", "weyl", "cone", "suspension", "suspension-missing-input", "cd-check-line"])
def test_subcommands_import_only_the_scipy_they_call(argv, code, unloaded, tmp_path):
    # a fresh interpreter each time: scipy's import is most of a run's start-up
    src = str(pathlib.Path(mms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(argv)], env=env,
                         capture_output=True, text=True, timeout=120)
    got_code, loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert got_code == code, run.stderr
    assert [m for m in loaded if m == unloaded or m.startswith(unloaded + ".")] == []
