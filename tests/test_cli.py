import json
import math

import numpy as np
import pytest

from conecheck import mms
from conecheck.cli import main


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


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
    assert json.loads(captured.out)["check"] == "cd-star"
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
        assert json.loads(capsys.readouterr().out)["detail"]["nprimes"] == [3.0, 6.0]


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
                          "grid": 300, "tol": 0.25}


def test_plot_failure_does_not_change_exit_code(tmp_path, monkeypatch):
    # force the plotting path to blow up; the report must still be written
    out = tmp_path / "r.json"
    bad_plot = tmp_path / "no" / "dir" / "p.svg"
    code = main(["spectrum", "--K", "1", "--nu", "1", "--grid", "300",
                 "--out", str(out), "--plot", str(bad_plot)])
    assert code == 0
    assert out.exists()
