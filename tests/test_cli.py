import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conecheck import mms
from conecheck import spectral1d as sp1d
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


def _assert_reports_the_defaults_of_suspension_check(rep, space):
    """The CLI's poles, tolerance and verdict on a space file are suspension_check's own."""
    want = mms.suspension_check(mms.load_mms_json(space))
    assert (rep["params"]["x"], rep["params"]["y"]) == want.poles
    assert rep["params"]["tol"] == rep["tolerance"] == want.tolerance
    assert rep["pass"] is want.is_suspension
    assert rep["detail"]["stage_residuals"] == want.stage_residuals


class TestExitCodes:
    def test_spectrum_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["spectrum", "--K", "1", "--nu", "1", "--grid", "400",
                     "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        assert rep["pass"] is True
        assert rep["detail"]["gap"]["lambda1"] == pytest.approx(2.0, rel=0.01)
        op = sp1d.discretize_fiber_operator(1.0, 1.0, 0.0, 400)
        assert rep["detail"]["max_rayleigh_residual"] == float(sp1d.eigen(op, 12).residuals.max())
        assert (tmp_path / "r.csv").exists()
        # the CSV takes the report's name, not the text before a dot in its directory
        dotted = tmp_path / "run.v2"
        dotted.mkdir()
        assert main(["spectrum", "--grid", "100", "--out", str(dotted / "report")]) == 0
        assert (dotted / "report.csv").exists() and not (tmp_path / "run.csv").exists()

    def test_spectrum_underresolved_warns_and_fails(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["spectrum", "--grid", "8", "--out", str(out)])
        rep = read_report(out)
        assert rep["warnings"]
        assert code == 1

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

    def test_suspension_rejects_nan_distance(self, tmp_path, capsys):
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
        assert "must be finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize("N", ["nan", "inf", "-1"])
    def test_suspension_input_rejects_a_bad_exponent(self, N, tmp_path, capsys):
        space = tmp_path / "cone.json"
        mms.save_mms_json(
            mms.cone(mms.circle_mms(12, 1.0), 1.0, 1.0, mms.radial_grid(1.0, 1.0, 8)), space)
        out = tmp_path / "s.json"
        assert main(["suspension", "--input", str(space), "--N", N, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: radial weight exponent must be finite and >= 0, got {float(N)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("weight, poles", [((1.0, 0.5, 1.0, 0.5), (1, 3)),
                                               ((1.0, 1.0, 1.0, 1.0), (0, 2))])
    def test_suspension_input_poles_are_the_lightest_farthest_pair(self, weight, poles, tmp_path):
        # (0, 2) and (1, 3) are both pi apart; either pair spans a suspension of two points
        space = tmp_path / "square.json"
        mms.save_mms_json(mms.FiniteMMS(tuple("abcd"), mms.circle_mms(4, 1.0).dist, weight), space)
        out = tmp_path / "s.json"
        assert main(["suspension", "--input", str(space), "--out", str(out)]) == 0
        rep = read_report(out)
        assert (rep["params"]["x"], rep["params"]["y"]) == poles
        # one radial level gives no step to read: the default is the cap 2 pi/16, which
        # leaves the two atoms at pi/2 interior, so the equator stages run
        assert rep["tolerance"] == math.pi / 8
        assert set(rep["detail"]["stage_residuals"]) >= {"law-of-cosines", "equator-geodesic"}
        _assert_reports_the_defaults_of_suspension_check(rep, space)

    def test_suspension_input_default_tolerance_is_capped(self, tmp_path):
        # poles 2 apart, not pi: a file's default tol of 2.0 would pass it with no interior atom
        space = tmp_path / "three.json"
        dist = np.array([[0.0, 2.0, 1.5], [2.0, 0.0, 1.5], [1.5, 1.5, 0.0]])
        mms.save_mms_json(mms.FiniteMMS(tuple("xyz"), dist, np.ones(3)), space)
        out = tmp_path / "s.json"
        assert main(["suspension", "--input", str(space), "--out", str(out)]) == 1
        rep = read_report(out)
        assert (rep["params"]["x"], rep["params"]["y"]) == (0, 1)
        assert rep["tolerance"] == math.pi / 8
        assert rep["detail"]["failed_stage"] == "pole-distance"
        _assert_reports_the_defaults_of_suspension_check(rep, space)

    def test_suspension_input_cone_poles_are_its_apexes(self, tmp_path):
        space = tmp_path / "cone.json"
        assert main(["cone", "--grid", "6", "--fiber-n", "12", "--out", str(space),
                     "--report", str(tmp_path / "c.json")]) == 0
        out = tmp_path / "s.json"
        assert main(["suspension", "--input", str(space), "--grid", "6", "--out", str(out)]) == 0
        rep = read_report(out)
        assert (rep["params"]["x"], rep["params"]["y"]) == (72, 73)
        assert rep["detail"]["equator_size"] == 12

    def test_cone_requires_out(self):
        assert main(["cone", "--fiber-n", "8", "--grid", "6"]) == 2

    def test_suspension_builtin(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["suspension", "--grid", "15", "--fiber-n", "40",
                     "--out", str(out)])
        assert code == 0
        assert read_report(out)["pass"] is True

    def test_suspension_builtin_tests_given_poles(self, tmp_path):
        # two rim atoms of the built cone are not the poles of a suspension
        out = tmp_path / "s.json"
        code = main(["suspension", "--grid", "8", "--fiber-n", "12",
                     "--x", "3", "--y", "5", "--out", str(out)])
        assert code == 1
        params = read_report(out)["params"]
        assert (params["x"], params["y"]) == (3, 5)

    def test_suspension_builtin_lone_pole(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["suspension", "--grid", "8", "--fiber-n", "12", "--x", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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
        # the residual of the cached spectrum the semigroup ran on, cut at the smallest time
        op = sp1d.discretize_fiber_operator(1.0, 1.0, 0.0, 200)
        sp1d.heat_semigroup_1d(op, np.ones(200), min(rep["detail"]["times"]))
        spec = op.spectrum_below(0.0)
        assert 0 < rep["detail"]["semigroup_modes"] == spec.eigenvalues.size < 200
        assert rep["detail"]["max_rayleigh_residual"] == float(spec.residuals.max())

    def test_heat_with_no_mode_below_the_cut(self, tmp_path):
        # lambda = 1e6 lifts the lowest mode above 50/0.01: the semigroup runs on no pair
        out = tmp_path / "h.json"
        assert main(["heat", "--lambda", "1e6", "--grid", "100", "--pairs", "1",
                     "--out", str(out)]) == 1
        detail = read_report(out)["detail"]
        assert detail["semigroup_modes"] == 0 and detail["max_rayleigh_residual"] == 0.0

    def test_gamma2_identity(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["gamma2-identity", "--grid", "97", "--fiber-n", "32",
                     "--pairs", "2", "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        for order in rep["detail"]["orders"]:
            assert 1.5 <= order <= 2.5

    def test_cd_check_small(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["cd-check", "--grid", "80", "--pairs", "2", "--out", str(out)])
        assert code == 0
        rep = read_report(out)
        assert rep["detail"]["nprimes"] == [3.0, 6.0]


def test_cd_check_stdout_is_only_the_report(capsys):
    # stderr is quiet by default; -v logs one line per pair there, and the report is the same
    assert main(["cd-check", "--grid", "60", "--pairs", "2"]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert main(["cd-check", "--grid", "60", "--pairs", "2", "-v"]) == 0
    loud = capsys.readouterr()
    reports = [strict_loads(c.out) for c in (quiet, loud)]
    assert reports[0]["check"] == "cd-star"
    assert {**reports[0], "runtime_ms": 0} == {**reports[1], "runtime_ms": 0}
    lines = loud.err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["pair 0", "pair 1"]
    assert all(line.count("slack=") == 2 for line in lines)


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


def test_cd_check_reports_each_coupling_and_its_certificate(tmp_path):
    out = tmp_path / "line.json"
    assert main(["cd-check", "--grid", "60", "--pairs", "2", "--out", str(out)]) == 0
    detail = read_report(out)["detail"]
    assert detail["couplings"] == [{"solver": "monotone", "cells": 119, "rounds": 0}] * 2
    assert 0.0 <= detail["max_certificate_residual"] <= 1e-9

    space = tmp_path / "cone.json"
    assert main(["cone", "--grid", "10", "--fiber-n", "10", "--out", str(space)]) == 0
    argv = ["cd-check", "--input", str(space), "--pairs", "2", "--cd-K", "1", "--N", "2",
            "--eps", "0.4"]
    reports = []
    for run in ("a", "b"):  # the LP path is deterministic too
        assert main(argv + ["--out", str(tmp_path / run)]) == 0
        reports.append(strip_runtime(read_report(tmp_path / run)))
    assert reports[0] == reports[1]
    detail = reports[0]["detail"]
    assert [c["solver"] for c in detail["couplings"]] == ["lp", "lp"]
    n = 10 * 10  # the body atoms carry the weight; both Gamma-weighted densities cover them
    for c in detail["couplings"]:
        assert 2 * n - 1 <= c["cells"] < n * n and c["rounds"] >= 0
    assert 0.0 <= detail["max_certificate_residual"] <= 1e-9


class TestDeterminism:
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

    @pytest.mark.parametrize("command, config, flags", [pytest.param(*run, id=run[0]) for run in [
        ("spectrum", {"grid": "100", "nu": 2, "tol": 0.25},
         ["--grid", "100", "--nu", "2", "--tol", "0.25"]),
        ("cone", {"grid": 6, "fiber-n": "8", "K": -1}, ["--grid", "6", "--fiber-n", "8", "--K=-1"]),
        ("cd-check", {"grid": "60", "pairs": 1, "full": True, "cd_K": "1.5"},
         ["--grid", "60", "--pairs", "1", "--full", "--cd-K", "1.5"]),
        ("be-check", {"flavor": "grid", "grid": "41", "fiber_n": 33, "pairs": 1},
         ["--flavor", "grid", "--grid", "41", "--fiber-n", "33", "--pairs", "1"]),
        ("weyl", {"seed": "3"}, ["--seed", "3"]),
        ("suspension", {"grid": "8", "fiber-n": 12, "radius": 0.5, "tol": "1e-1"},
         ["--grid", "8", "--fiber-n", "12", "--radius", "0.5", "--tol", "1e-1"]),
        ("heat", {"K": -1, "grid": "60", "pairs": 1, "lambda": 0.5},
         ["--K=-1", "--grid", "60", "--pairs", "1", "--lambda", "0.5"]),
        ("gamma2-identity", {"grid": 41, "fiber-n": "16", "pairs": 1, "K": "-1"},
         ["--grid", "41", "--fiber-n", "16", "--pairs", "1", "--K=-1"]),
    ]])
    def test_config_gives_the_report_of_its_flags(self, command, config, flags, tmp_path):
        # each entry is parsed as the flag it names: a number may come as a JSON string, a
        # value may start with "-", and a true switch is the switch alone
        cfg, out, space = tmp_path / "cfg.json", tmp_path / "r.json", tmp_path / "space.json"
        cfg.write_text(json.dumps(config))
        files = ["--out", str(out)]
        if command == "cone":
            files = ["--out", str(space), "--report", str(out)]
        runs = []
        for argv in (["--config", str(cfg)], flags):
            out.unlink(missing_ok=True)
            runs.append((main([command, *argv, *files]), strip_runtime(read_report(out))))
        assert runs[0] == runs[1]
        if "K" in config:  # {"K": -1} reads as --K=-1, not as a flag -1
            assert runs[0][1]["params"]["K"] == -1.0

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
        assert main(["suspension", "--input", str(space), "--out", str(out)]) == 1
        rep = read_report(out)
        assert rep["pass"] is False
        # its farthest rim atoms are 3.75 apart, not pi: a residual of 0.61 against the
        # file's default tolerance of 0.09
        assert rep["detail"]["failed_stage"] == "pole-distance"
        assert rep["residuals"]["max"] > 0.6 > 0.1 > rep["tolerance"]
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

    @pytest.mark.parametrize("config", [
        {"tol": "abc"}, {"gird": 5}, {"pairs": 0}, {"flavor": "mesh"}, {"grid": True}, [1],
        {"gri": 5}, {"grid": False}, {"grid": None}, {"grid": [160]}, {"out": {"a": 1}},
        {"grid": 160.0}, {"config": "other.json"}, {"full": True}])
    def test_bad_config_is_a_usage_error(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert main(["be-check", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("full, code", [(True, 0), (False, 0), ("true", 2), (1, 2)])
    def test_config_full_takes_only_a_json_boolean(self, full, code, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"full": full}))
        out = tmp_path / "r.json"
        assert main(["cd-check", "--grid", "60", "--pairs", "1", "--config", str(cfg),
                     "--out", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()
        else:  # a false switch is absent
            assert read_report(out)["check"] == ("cd" if full else "cd-star")

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
        assert main(argv + ["--seed", "4"]) == 0
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

    @pytest.fixture
    def cone_file(self, tmp_path):
        path = tmp_path / "cone.json"
        assert main(["cone", "--grid", "6", "--fiber-n", "8", "--out", str(path),
                     "--report", str(tmp_path / "c.json")]) == 0
        return path

    def test_cd_check_input_does_not_echo_the_model_interval(self, cone_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(["cd-check", "--input", str(cone_file), "--pairs", "1", "--cd-K", "1",
                     "--N", "2", "--eps", "0.6", "--out", str(out)]) == 0
        params = read_report(out)["params"]
        assert set(params) == set(_DEFAULTS["cd-check"]) - {"K", "nu", "grid", "seed", "out",
                                                             "plot", "input"}
        assert (params["cd_K"], params["N"], params["eps"]) == (1.0, 2.0, 0.6)

    def test_suspension_input_does_not_echo_the_fiber(self, cone_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(["suspension", "--input", str(cone_file), "--grid", "9",
                     "--out", str(out)]) == 0
        params = read_report(out)["params"]
        assert set(params) == set(_DEFAULTS["suspension"]) - {"grid", "fiber_n", "radius",
                                                               "seed", "out", "input"}
        # twice the file's radial step pi/6 is looser than the cap 2 pi/16, whatever --grid says
        assert params["tol"] == math.pi / 8

    def test_cone_input_does_not_echo_the_radius(self, tmp_path):
        fiber = tmp_path / "fiber.json"
        mms.save_mms_json(mms.circle_mms(10, 1.0), fiber)
        out = tmp_path / "r.json"
        assert main(["cone", "--input", str(fiber), "--radius", "3", "--grid", "6",
                     "--out", str(tmp_path / "space.json"), "--report", str(out)]) == 0
        params = read_report(out)["params"]
        assert set(params) == set(_DEFAULTS["cone"]) - {"radius", "seed", "out", "report",
                                                        "input"}

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
    # the error names the eps at which every pair of the run has a midpoint
    need = err.rstrip("\n").rpartition("; every pair of the run has one at eps=")[2]
    assert float(need) > 0.0001
    assert main(["cd-check", "--grid", "60", "--pairs", "1", "--eps", need,
                 "--out", str(out)]) != 2
    assert out.exists()


def test_the_named_eps_covers_every_pair_of_the_run(tmp_path, capsys):
    # on this cone the first pair alone names 0.508, and a later pair needs more
    space, out = tmp_path / "space.json", tmp_path / "r.json"
    assert main(["cone", "--K", "0", "--rmax", "2", "--radius", "2", "--grid", "16",
                 "--fiber-n", "16", "--out", str(space), "--report", str(tmp_path / "c.json")]) == 0
    argv = ["cd-check", "--input", str(space), "--cd-K", "0", "--N", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "of 5 pairs miss one" in err
    need = err.rstrip("\n").rpartition("; every pair of the run has one at eps=")[2]
    assert main(argv + ["--eps", need]) != 2
    assert out.exists()


_ODD_FIBER = "periodic fiber needs an even sample count for coarsening"


# both grid checks compare against the stride-2 coarsening, which an odd
# periodic fiber cannot give uniformly
@pytest.mark.parametrize("argv, message", [
    (["be-check", "--flavor", "grid", "--fiber-n", "16"],
     "the fiber axis has 16 samples, none inside a margin of 12 cells at each end"),
    (["be-check", "--flavor", "grid", "--grid", "20"],
     "the radial axis has 20 samples, none inside a margin of 12 cells at each end"),
    (["gamma2-identity", "--grid", "20"],
     "the radial axis has 20 samples, none inside a margin of 12 cells at each end"),
    (["be-check", "--flavor", "grid", "--nu", "1", "--fiber-n", "63", "--grid", "81",
      "--pairs", "3"], _ODD_FIBER),
    (["gamma2-identity", "--fiber-n", "63", "--grid", "81", "--pairs", "1"], _ODD_FIBER),
], ids=["be-check-fiber-16", "be-check-grid-20", "gamma2-identity-grid-20",
        "be-check-odd-fiber", "gamma2-identity-odd-fiber"])
def test_grid_too_small_for_the_margin_is_an_input_error(argv, message, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _ring_with_d22(d22):
    """Hop distances of a 6-atom ring, but d(2, 2) = d22."""
    dist = [[float(min(abs(i - j), 6 - abs(i - j))) for j in range(6)] for i in range(6)]
    dist[2][2] = d22
    return dist


def _square(d02=math.pi):
    """Distances of the 4-atom square of side pi/2, but d(0, 2) = d(2, 0) = d02."""
    dist = [[math.pi / 2 * min(abs(i - j), 4 - abs(i - j)) for j in range(4)] for i in range(4)]
    dist[0][2] = dist[2][0] = d02
    return dist


@pytest.mark.parametrize("payload, named", [
    ([[0.0, 1.0], [1.0, 0.0]], "holds a JSON list, not an object"),
    ({"labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]}, "has no 'weight' key"),
    ({"labels": 2, "dist": [[0.0, 1.0], [1.0, 0.0]], "weight": [1.0, 1.0]}, "malformed entry"),
    ({"labels": "abc", "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "weight": [1, 1, 1]},
     "'labels' holds a JSON str, not an array"),
    ({"labels": ["a", "b"], "dist": [[0, "1"], ["1", 0]], "weight": [1, 1]},
     "'dist' holds a non-number"),
    ({"labels": ["a", "b"], "dist": [[0, True], [True, 0]], "weight": [1, 1]},
     "'dist' holds a non-number"),
    ({"labels": list("abcdef"), "dist": _ring_with_d22(5.0), "weight": [1.0] * 6},
     "atom 2 is at distance 5.0 from itself, not 0"),
    # the 4-atom square of side pi/2, with a negative weight or a negative distance
    ({"labels": list("abcd"), "dist": _square(), "weight": [1.0, -1.0, 1.0, 1.0]},
     "atom 1 has a negative weight, -1.0"),
    ({"labels": list("abcd"), "dist": _square(d02=-math.pi), "weight": [1.0] * 4},
     f"atoms 0 and 2 are at a negative distance, {-math.pi!r}"),
    ({"labels": ["a", "b"], "dist": [[0.0, 1.0], [2.0, 0.0]], "weight": [1, 1]},
     "dist must be symmetric"),
], ids=["list", "no-weight", "int-labels", "string-labels", "string-dist", "boolean-dist",
        "nonzero-diagonal", "negative-weight", "negative-distance", "asymmetric"])
@pytest.mark.parametrize("argv", [["cd-check"], ["suspension"],
                                  ["cone", "--out", "{tmp}/cone.json", "--report", "{tmp}/r.json"]],
                         ids=lambda argv: argv[0])
def test_malformed_space_file_is_a_usage_error(argv, payload, named, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main([*argv, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: space file ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("K", [4.0, 9.0])
def test_be_check_graph_samples_the_model_interval(K, tmp_path):
    # the graph lives on (0, pi/sqrt(K)); its step and window scale with it
    out = tmp_path / "b.json"
    assert main(["be-check", "--K", str(K), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["tolerance"] == pytest.approx(5.0 * math.pi / math.sqrt(K) / 160, rel=1e-12)
    assert rep["detail"]["kappa"] == 2.0 * K


def test_plot_is_written_without_changing_the_report(tmp_path):
    pytest.importorskip("matplotlib")
    out, svg = tmp_path / "r.json", tmp_path / "p.svg"
    argv = ["spectrum", "--grid", "300", "--out", str(out)]
    code = main(argv)
    plain = strip_runtime(read_report(out))
    assert main([*argv, "--plot", str(svg)]) == code
    assert strip_runtime(read_report(out)) == plain
    assert "<svg" in svg.read_text()


def test_spectrum_without_a_gap_bound_does_not_pass(tmp_path):
    out = tmp_path / "r.json"
    assert main(["spectrum", "--nu", "0", "--grid", "200", "--out", str(out)]) == 1
    rep = read_report(out)
    assert rep["pass"] is False and rep["residuals"] == {}
    assert "no spectral gap bound" in rep["warnings"][0]
    assert len(rep["detail"]["eigenvalues"]) == 12


# --rmax is used for every K up to pi/sqrt(K) and echoed; an unset one is that
# bound (pi for K <= 0); past it is an input error (rmax None)
_RMAX_CASES = [(["--K", "-1"], math.pi), (["--K", "0", "--rmax", "2"], 2.0),
               (["--K", "4"], math.pi / 2), (["--K", "1", "--rmax", "2"], 2.0),
               (["--K", "4", "--rmax", "9"], None)]


def _rmax_rejected(code, out, capsys):
    err = capsys.readouterr().err
    return code == 2 and not out.exists() and err.startswith("error: r_max must be finite")


@pytest.mark.parametrize("flags, rmax", _RMAX_CASES)
def test_spectrum_flat_and_hyperbolic_use_rmax(flags, rmax, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["spectrum", *flags, "--grid", "100", "--out", str(out)])
    if rmax is None:
        assert _rmax_rejected(code, out, capsys)
        return
    gap_bound = float(flags[1]) > 0  # the Lichnerowicz bound needs K > 0
    assert code == (0 if gap_bound else 1)
    rep = read_report(out)
    assert rep["pass"] is gap_bound and rep["params"]["rmax"] == rmax
    assert ("no spectral gap bound" in " ".join(rep.get("warnings", []))) is not gap_bound
    op = sp1d.discretize_fiber_operator(float(flags[1]), 1.0, 0.0, 100, r_max=rmax)
    assert rep["detail"]["eigenvalues"] == pytest.approx(sp1d.eigen(op, 12).eigenvalues, rel=1e-12)


@pytest.mark.parametrize("flags, rmax", _RMAX_CASES)
def test_heat_flat_and_hyperbolic_use_rmax(flags, rmax, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["heat", *flags, "--grid", "100", "--out", str(out)])
    if rmax is None:
        assert _rmax_rejected(code, out, capsys)
        return
    assert code == 0
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


_PACKAGE_FOOTPRINT = """
import json, sys
__import__(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "conecheck")))
"""


@pytest.mark.parametrize("module, loaded", [
    ("conecheck", []),
    ("conecheck.transport", ["mms", "model_fns", "transport"]),
    ("conecheck.spectral1d", ["mms", "model_fns", "spectral1d"]),
    ("conecheck.gamma_calc", ["gamma_calc", "gamma_calc.graph", "gamma_calc.grid", "mms",
                              "model_fns", "spectral1d"]),
])
def test_a_module_loads_only_the_modules_it_imports(module, loaded):
    # the package imports no submodule itself: transport runs without the calculus, and back
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(mms.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", _PACKAGE_FOOTPRINT, module], env=env,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(run.stdout) == ["conecheck"] + [f"conecheck.{m}" for m in loaded], run.stderr


def test_cd_check_at_very_negative_curvature_is_finite(tmp_path):
    # sinh(x) overflows past x = 710; here x = sqrt(1e6 / 3) * theta reaches 3464
    space = tmp_path / "line9.json"
    space.write_text(json.dumps({
        "labels": [str(i) for i in range(9)],
        "dist": [[0.75 * abs(i - j) for j in range(9)] for i in range(9)],
        "weight": [1.0] * 9,
    }))
    out = tmp_path / "c.json"
    code = main(["cd-check", "--input", str(space), "--pairs", "2", "--cd-K=-1e6",
                 "--eps", "0.4", "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["params"]["cd_K"] == -1e6
    assert all(math.isfinite(v) for v in rep["residuals"].values())
