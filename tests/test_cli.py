import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from feecalib import io as fio
from feecalib.cli import main

FAST_CONFIG = {
    "calibration": {"solver": {"n_starts": 2, "max_iterations": 300}},
}

# blade angles outside (0, pi): below the minimum, and past pi where no
# failure angle fits
BAD_BLADE_ANGLES = [-0.3, 4.0]


def _bad_blade_scenario(rho):
    """Two in-soil samples on the default 25 degree face; the second has
    blade angle ``rho``."""
    return {"surface": {"type": "sloped_line", "alpha_deg": 25.0},
            "path": {"type": "explicit",
                     "samples": [[0.0, 0.3, 0.0, 0.5],
                                 [0.1, 0.6, -0.05, rho]]}}


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, runner):
    """One simulate + calibrate + predict chain shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "fast.json"
    config.write_text(json.dumps(FAST_CONFIG))
    out = root / "run"
    res = runner.invoke(main, ["simulate", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["calibrate", str(out / "cycle.csv"),
                               "--config", str(config), "--method", "multi",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["predict", str(out / "report.json"),
                               "--scenario", str(out / "scenario.json"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    return root


class TestSimulate:
    def test_default_run_has_281_rows(self, workdir):
        lines = (workdir / "run" / "cycle.csv").read_text().splitlines()
        assert len(lines) == 282  # header + samples
        assert lines[0] == "t_s,x_m,z_m,rho_rad,ft_obs_N,fn_obs_N"

    def test_deterministic_given_seed(self, runner, tmp_path, workdir):
        out = tmp_path / "again"
        res = runner.invoke(main, ["simulate", "--out", str(out)])
        assert res.exit_code == 0
        assert (out / "cycle.csv").read_bytes() == \
            (workdir / "run" / "cycle.csv").read_bytes()

    def test_noise_seed_controls_output(self, runner, tmp_path):
        outs = []
        for name, seed in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", "--noise", "0.05",
                                       "--seed", str(seed), "--out",
                                       str(out)])
            assert res.exit_code == 0
            outs.append((out / "cycle.csv").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_malformed_config_exits_2_without_files(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text('{"scenario": {"surface": {"type": "dome"}}}')
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_undecodable_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "binary.json"
        config.write_bytes(b"\x00\xff\xfe")
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(tmp_path / "never")])
        assert res.exit_code == 2, res.output
        assert "is not valid JSON" in res.output
        assert "Traceback" not in res.output

    def test_unknown_key_rejected(self, runner, tmp_path):
        config = tmp_path / "extra.json"
        config.write_text('{"scenaro": {}}')
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "scenaro" in res.output

    @pytest.mark.parametrize("rho", BAD_BLADE_ANGLES)
    def test_bad_blade_angle_exits_3_naming_the_sample(self, runner,
                                                       tmp_path, rho):
        config = tmp_path / "blade.json"
        config.write_text(json.dumps({"scenario": _bad_blade_scenario(rho)}))
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "simulation failed: sample 1:" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_preset_flag(self, runner, tmp_path):
        out = tmp_path / "preset"
        res = runner.invoke(main, ["simulate", "--preset",
                                   "Clay of low plasticity", "--out",
                                   str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "scenario.json").read_text())
        assert doc["soil"]["cohesion_c_N_m2"] == 20000.0


class TestCalibrate:
    def test_report_quality_and_fields(self, workdir):
        doc = json.loads((workdir / "run" / "report.json").read_text())
        assert doc["method"] == "multi-stage"
        assert doc["rmse"]["fr_pct"] <= 1.0
        assert [s["name"] for s in doc["stages"]] == ["stage1", "stage2",
                                                      "stage3"]
        assert doc["function_evaluations"] > 0
        assert doc["wall_time_s"] > 0.0

    def test_echo_gives_the_wall_time_in_ms(self, runner, workdir, tmp_path):
        # a staged fit takes milliseconds; in seconds it would read 0.0
        res = runner.invoke(main, ["calibrate",
                                   str(workdir / "run" / "cycle.csv"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        match = re.search(r"objective evaluations, (\d+\.\d) ms$",
                          res.output.strip())
        assert match, res.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert float(match.group(1)) == round(1e3 * report["wall_time_s"], 1)
        assert float(match.group(1)) > 0.0

    def test_report_is_strict_json_with_bound_flags(self, workdir):
        def no_constants(name):
            raise AssertionError(f"{name} in report.json")

        doc = json.loads((workdir / "run" / "report.json").read_text(),
                         parse_constant=no_constants)
        assert doc["schema_version"] == 3
        assert doc["options"].keys() == {"lambda_weight", "seed"}
        for stage in doc["stages"]:
            assert set(stage["at_bound"].values()) <= {"lower", "upper"}
        assert doc["stages"][0]["parameters"]["K"] > 0.0
        assert "kc/kphi split" in doc["not_identified"]

    def test_missing_force_column_exits_2(self, runner, workdir, tmp_path):
        src = (workdir / "run" / "cycle.csv").read_text().splitlines()
        header = src[0].replace(",fn_obs_N", "")
        rows = [",".join(line.split(",")[:-1]) for line in src[1:]]
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join([header] + rows) + "\n")
        res = runner.invoke(main, ["calibrate", str(broken), "--scenario",
                                   str(workdir / "run" / "scenario.json"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "fn_obs_N" in res.output

    def test_gaussian_sigma_key_exits_2(self, runner, workdir, tmp_path):
        # stage 2 fits the raw normal force; the smoothing width is gone
        config = tmp_path / "sigma.json"
        config.write_text(json.dumps({"calibration": {"gaussian_sigma":
                                                      5.0}}))
        res = runner.invoke(main, ["calibrate",
                                   str(workdir / "run" / "cycle.csv"),
                                   "--config", str(config), "--out",
                                   str(tmp_path)])
        _assert_config_error(res, "unknown key 'gaussian_sigma'")
        assert not (tmp_path / "report.json").exists()

    def test_missing_scenario_exits_2(self, runner, workdir, tmp_path):
        res = runner.invoke(main, ["calibrate",
                                   str(workdir / "run" / "cycle.csv"),
                                   "--scenario", str(tmp_path / "no.json"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2


class TestPredict:
    def test_training_scenario_reproduces_report_errors(self, runner,
                                                        workdir, tmp_path):
        # evaluating the prediction against the training cycle must give
        # exactly the report's final errors (file round-trip is bit-exact)
        run = workdir / "run"
        res = runner.invoke(main, ["evaluate", str(run / "predicted.csv"),
                                   str(run / "cycle.csv"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        report = json.loads((run / "report.json").read_text())
        assert metrics["ft"]["rmse_N"] == report["rmse"]["ft_N"]
        assert metrics["fn"]["rmse_N"] == report["rmse"]["fn_N"]
        assert metrics["fr"]["rmse_N"] == report["rmse"]["fr_N"]

    def test_reads_a_schema_2_report(self, runner, workdir, tmp_path):
        run = workdir / "run"
        doc = json.loads((run / "report.json").read_text())
        doc["schema_version"] = 2
        doc["options"]["gaussian_sigma"] = 5.0
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        res = runner.invoke(main, ["predict", str(report), "--scenario",
                                   str(run / "scenario.json"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert ((tmp_path / "predicted.csv").read_bytes()
                == (run / "predicted.csv").read_bytes())

    def test_prior_cycle_changes_depth_column(self, runner, workdir,
                                              tmp_path):
        run = workdir / "run"
        # second pass digging deeper through the carved face
        scenario = json.loads((run / "scenario.json").read_text())
        scenario["path"] = {"type": "quadratic_bezier",
                            "p0_m": [-0.4, 0.0], "p1_m": [1.0, -0.55],
                            "p2_m": [2.3, 1.3]}
        scenario.pop("soil", None)
        scenario.pop("noise", None)
        pass2 = tmp_path / "pass2.json"
        pass2.write_text(json.dumps(scenario))
        naive = tmp_path / "naive"
        adaptive = tmp_path / "adaptive"
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(pass2), "--out",
                                   str(naive)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(pass2),
                                   "--prior-cycle", str(run / "cycle.csv"),
                                   "--out", str(adaptive)])
        assert res.exit_code == 0, res.output

        def depths(path):
            with open(path, newline="") as handle:
                return np.array([float(r["d_m"])
                                 for r in csv.DictReader(handle)])

        d_naive = depths(naive / "predicted.csv")
        d_adaptive = depths(adaptive / "predicted.csv")
        assert np.any(d_adaptive < d_naive - 1e-6)
        assert not np.any(d_adaptive > d_naive + 1e-9)

    @pytest.mark.parametrize("carved", [False, True])
    def test_predicted_csv_matches_depth_of_surface(self, runner, workdir,
                                                    tmp_path, carved):
        # the d_m column is the depth predict_next_cycle measured; it must
        # equal, byte for byte, the depth of the (carved) surface itself
        from feecalib import io as fio
        from feecalib.calibration import predict_next_cycle
        from feecalib.geometry import surface_after_cycle

        run = workdir / "run"
        scenario = json.loads((run / "scenario.json").read_text())
        scenario["path"] = {"type": "quadratic_bezier",
                            "p0_m": [-0.4, 0.0], "p1_m": [1.0, -0.55],
                            "p2_m": [2.3, 1.3]}
        scenario.pop("soil", None)
        scenario.pop("noise", None)
        pass2 = tmp_path / "pass2.json"
        pass2.write_text(json.dumps(scenario))
        args = ["predict", str(run / "report.json"), "--scenario",
                str(pass2), "--out", str(tmp_path)]
        prior = None
        if carved:
            args += ["--prior-cycle", str(run / "cycle.csv")]
            prior, _, _ = fio.read_cycle_csv(run / "cycle.csv")
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output

        theta = fio.read_report_theta(run / "report.json")
        scen = fio.read_scenario_json(pass2)
        prediction = predict_next_cycle(theta, scen, prior_cycle=prior)
        surface = scen.surface
        if prior is not None:
            surface = surface_after_cycle(surface, prior)
        trajectory = scen.trajectory(surface=surface)
        depth = np.asarray(surface.depth_of(trajectory.x, trajectory.z))
        f_t, f_n = prediction.arrays()
        beta = prediction.beta
        expected = tmp_path / "expected.csv"
        fio.write_prediction_csv(expected, trajectory, depth, beta, f_t, f_n)
        assert ((tmp_path / "predicted.csv").read_bytes()
                == expected.read_bytes())

    def test_carved_predict_builds_geometry_once(self, runner, workdir,
                                                 tmp_path, monkeypatch):
        # predict must write predicted.csv from what predict_next_cycle
        # built, not carve, sample and measure the face a second time
        from feecalib import calibration, cli, geometry, synthetic

        calls = {"carve": 0, "trajectory": 0, "depth_of": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        original = geometry.surface_after_cycle
        carve = counted("carve", original)
        for module in (geometry, calibration, cli, synthetic):
            if getattr(module, "surface_after_cycle", None) is original:
                monkeypatch.setattr(module, "surface_after_cycle", carve)
        monkeypatch.setattr(synthetic.Scenario, "trajectory",
                            counted("trajectory",
                                    synthetic.Scenario.trajectory))
        monkeypatch.setattr(geometry.Polyline, "depth_of",
                            counted("depth_of", geometry.Polyline.depth_of))
        run = workdir / "run"
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(run / "scenario.json"),
                                   "--prior-cycle", str(run / "cycle.csv"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert calls == {"carve": 1, "trajectory": 1, "depth_of": 1}

    @pytest.mark.parametrize("rho", BAD_BLADE_ANGLES)
    def test_bad_blade_angle_is_flagged_not_fatal(self, runner, workdir,
                                                  tmp_path, rho):
        scenario = tmp_path / "blade.json"
        scenario.write_text(json.dumps(_bad_blade_scenario(rho)))
        res = runner.invoke(main, ["predict",
                                   str(workdir / "run" / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert res.exception is None
        assert "note: 1 samples were infeasible" in res.output
        assert "Traceback" not in res.output
        rows = list(csv.DictReader(
            (tmp_path / "predicted.csv").read_text().splitlines()))
        assert [math.isnan(float(r["ft_N"])) for r in rows] == [False, True]
        assert [math.isnan(float(r["fn_N"])) for r in rows] == [False, True]

    def test_empty_scenario_exits_2(self, runner, workdir, tmp_path):
        scenario = json.loads(
            (workdir / "run" / "scenario.json").read_text())
        scenario["path"] = {"type": "explicit", "samples": []}
        scenario.pop("soil", None)
        scenario.pop("noise", None)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(scenario))
        res = runner.invoke(main, ["predict",
                                   str(workdir / "run" / "report.json"),
                                   "--scenario", str(empty), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 2


class TestEvaluate:
    def test_identical_series_all_zero(self, runner, workdir, tmp_path):
        run = workdir / "run"
        # build a "prediction" that equals the observation
        rows = list(csv.DictReader(
            (run / "cycle.csv").read_text().splitlines()))
        pred = tmp_path / "copy.csv"
        with pred.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["t_s", "x_m", "z_m", "rho_rad", "d_m",
                             "beta_rad", "ft_N", "fn_N", "fr_N"])
            for r in rows:
                fr = math.hypot(float(r["ft_obs_N"]), float(r["fn_obs_N"]))
                writer.writerow([r["t_s"], r["x_m"], r["z_m"],
                                 r["rho_rad"], "0.0", "0.0", r["ft_obs_N"],
                                 r["fn_obs_N"], repr(fr)])
        res = runner.invoke(main, ["evaluate", str(pred),
                                   str(run / "cycle.csv"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ft"]["rmse_N"] == 0.0
        assert metrics["fn"]["rmse_N"] == 0.0
        assert metrics["fr"]["rmse_N"] == 0.0

    def test_constant_offset_rmse(self, runner, workdir, tmp_path):
        run = workdir / "run"
        rows = list(csv.DictReader(
            (run / "cycle.csv").read_text().splitlines()))
        pred = tmp_path / "offset.csv"
        with pred.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["t_s", "x_m", "z_m", "rho_rad", "d_m",
                             "beta_rad", "ft_N", "fn_N", "fr_N"])
            for r in rows:
                ft = float(r["ft_obs_N"]) + 10.0
                fn = float(r["fn_obs_N"])
                writer.writerow([r["t_s"], r["x_m"], r["z_m"],
                                 r["rho_rad"], "0.0", "0.0", repr(ft),
                                 repr(fn), repr(math.hypot(ft, fn))])
        res = runner.invoke(main, ["evaluate", str(pred),
                                   str(run / "cycle.csv"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ft"]["rmse_N"] == pytest.approx(10.0, rel=1e-12)

    def test_independent_recomputation(self, runner, workdir, tmp_path):
        # spreadsheet-style recomputation straight from the files
        run = workdir / "run"
        res = runner.invoke(main, ["evaluate", str(run / "predicted.csv"),
                                   str(run / "cycle.csv"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0
        pred = list(csv.DictReader(
            (run / "predicted.csv").read_text().splitlines()))
        obs = list(csv.DictReader(
            (run / "cycle.csv").read_text().splitlines()))
        sq = peak = 0.0
        for p, o in zip(pred, obs):
            sq += (float(o["ft_obs_N"]) - float(p["ft_N"])) ** 2
            peak = max(peak, abs(float(o["ft_obs_N"])))
        want = math.sqrt(sq / len(pred))
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ft"]["rmse_N"] == pytest.approx(want, rel=1e-12)
        assert metrics["ft"]["rmse_pct"] == pytest.approx(
            100.0 * want / peak, rel=1e-12)

    def test_length_mismatch_exits_2(self, runner, workdir, tmp_path):
        run = workdir / "run"
        short = tmp_path / "short.csv"
        lines = (run / "predicted.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:-5]) + "\n")
        res = runner.invoke(main, ["evaluate", str(short),
                                   str(run / "cycle.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("rho", BAD_BLADE_ANGLES)
    def test_flagged_rows_exit_3_naming_lines(self, runner, workdir,
                                              tmp_path, rho):
        scenario = tmp_path / "blade.json"
        scenario.write_text(json.dumps(_bad_blade_scenario(rho)))
        res = runner.invoke(main, ["predict",
                                   str(workdir / "run" / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        observed = tmp_path / "observed.csv"
        observed.write_text("t_s,x_m,z_m,rho_rad,ft_obs_N,fn_obs_N\n"
                            "0.0,0.3,0.0,0.5,100.0,200.0\n"
                            f"0.1,0.6,-0.05,{rho!r},100.0,200.0\n")
        out = tmp_path / "metrics"
        res = runner.invoke(main, ["evaluate", str(tmp_path / "predicted.csv"),
                                   str(observed), "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "1 flagged rows carry no forces (lines 3)" in res.output
        assert "Traceback" not in res.output
        assert not (out / "metrics.json").exists()

    def test_flagged_row_after_a_multi_line_row_names_its_own_line(
            self, runner, workdir, tmp_path):
        """Row 1 of the prediction spans lines 2-3 (a quoted newline), so
        the flagged row 2 starts on line 4."""
        scenario = tmp_path / "blade.json"
        scenario.write_text(json.dumps(_bad_blade_scenario(4.0)))
        res = runner.invoke(main, ["predict",
                                   str(workdir / "run" / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, first, second = (
            (tmp_path / "predicted.csv").read_text().splitlines())
        t, rest = first.split(",", 1)
        predicted = tmp_path / "quoted.csv"
        predicted.write_text(f'{header}\n"{t}\n",{rest}\n{second}\n')
        observed = tmp_path / "observed.csv"
        observed.write_text("t_s,x_m,z_m,rho_rad,ft_obs_N,fn_obs_N\n"
                            "0.0,0.3,0.0,0.5,100.0,200.0\n"
                            "0.1,0.6,-0.05,4.0,100.0,200.0\n")
        res = runner.invoke(main, ["evaluate", str(predicted),
                                   str(observed)])
        assert res.exit_code == 3, res.output
        assert "1 flagged rows carry no forces (lines 4)" in res.output

    def test_zero_observed_peak_writes_strict_json(self, runner, workdir,
                                                   tmp_path):
        run = workdir / "run"
        lines = (run / "cycle.csv").read_text().splitlines()
        zeroed = [",".join(line.split(",")[:4] + ["0.0", "0.0"])
                  for line in lines[1:]]
        observed = tmp_path / "zero.csv"
        observed.write_text("\n".join([lines[0]] + zeroed) + "\n")
        res = runner.invoke(main, ["evaluate", str(run / "predicted.csv"),
                                   str(observed), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

        def no_constants(name):
            raise AssertionError(f"{name} in metrics.json")

        metrics = json.loads((tmp_path / "metrics.json").read_text(),
                             parse_constant=no_constants)
        for series in ("ft", "fn", "fr"):
            assert metrics[series]["rmse_N"] > 0.0
            assert metrics[series]["rmse_pct"] is None


def _corrupt(src, dst, line, fault):
    """Copy a CSV file with one fault on the given (1-based) line."""
    lines = src.read_text().splitlines()
    fields = lines[line - 1].split(",")
    if fault == "short":
        fields = fields[:-1]
    elif fault == "t-back":
        fields[0] = "-1.0"
    else:
        column = {"abc": 1, "nan-x": 1, "nan-ft": 4}[fault]
        fields[column] = "abc" if fault == "abc" else "nan"
    lines[line - 1] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


class TestMalformedCsv:
    """A malformed input CSV exits 2 naming its line, with no traceback."""

    @staticmethod
    def _assert_rejected(res, path, line):
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"{path}:{line}: bad value" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("fault", ["abc", "short"])
    def test_predicted_csv_in_evaluate(self, runner, workdir, tmp_path,
                                       fault):
        run = workdir / "run"
        bad = _corrupt(run / "predicted.csv", tmp_path / "predicted.csv", 7,
                       fault)
        res = runner.invoke(main, ["evaluate", str(bad),
                                   str(run / "cycle.csv"), "--out",
                                   str(tmp_path)])
        self._assert_rejected(res, bad, 7)
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("fault", ["abc", "short", "nan-ft", "t-back"])
    def test_cycle_csv_in_calibrate(self, runner, workdir, tmp_path, fault):
        run = workdir / "run"
        bad = _corrupt(run / "cycle.csv", tmp_path / "cycle.csv", 12, fault)
        res = runner.invoke(main, ["calibrate", str(bad), "--scenario",
                                   str(run / "scenario.json"), "--out",
                                   str(tmp_path)])
        self._assert_rejected(res, bad, 12)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("fault", ["abc", "short", "nan-x"])
    def test_prior_cycle_in_predict(self, runner, workdir, tmp_path, fault):
        run = workdir / "run"
        bad = _corrupt(run / "cycle.csv", tmp_path / "cycle.csv", 40, fault)
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(run / "scenario.json"),
                                   "--prior-cycle", str(bad), "--out",
                                   str(tmp_path)])
        self._assert_rejected(res, bad, 40)
        if fault == "nan-x":
            assert "x must be finite" in res.output
        assert not (tmp_path / "predicted.csv").exists()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_short_prior_cycle_in_predict(self, runner, workdir, tmp_path,
                                          rows):
        # a carve needs two samples; fewer is an input error, not a crash
        run = workdir / "run"
        lines = (run / "cycle.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:1 + rows]) + "\n")
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(run / "scenario.json"),
                                   "--prior-cycle", str(short), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert (f"{short}: a prior cycle needs at least two samples, "
                f"found {rows}") in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "predicted.csv").exists()

    def test_missing_cycle_csv(self, runner, workdir, tmp_path):
        run = workdir / "run"
        res = runner.invoke(main, ["calibrate", str(tmp_path / "none.csv"),
                                   "--scenario", str(run / "scenario.json"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "cannot read" in res.output
        assert "Traceback" not in res.output


def _assert_config_error(res, key):
    """Exit 2 naming ``key``, with no traceback."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert key in res.output
    assert "Traceback" not in res.output


class TestNonFiniteJson:
    """json.load parses NaN and Infinity; no JSON input may carry them."""

    def test_nan_sample_rate_in_config(self, runner, tmp_path):
        config = tmp_path / "nan.json"
        config.write_text(
            '{"scenario": {"surface": {"type": "sloped_line", '
            '"alpha_deg": 25.0}, "path": {"type": "quadratic_bezier", '
            '"p0_m": [-0.4, 0.05], "p1_m": [0.9, -0.35], '
            '"p2_m": [2.2, 1.2]}, "sample_rate_hz": NaN}}')
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        _assert_config_error(res, "config.scenario.sample_rate_hz")
        assert "must be finite" in res.output
        assert not out.exists()

    def test_infinite_duration_in_scenario_sidecar(self, runner, workdir,
                                                   tmp_path):
        run = workdir / "run"
        doc = json.loads((run / "scenario.json").read_text())
        doc["duration_s"] = math.inf
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        _assert_config_error(res, "duration_s")
        assert not (tmp_path / "predicted.csv").exists()

    def test_nan_theta_in_report(self, runner, workdir, tmp_path):
        run = workdir / "run"
        doc = json.loads((run / "report.json").read_text())
        doc["theta_star"]["kphi_N_m_n2"] = math.nan
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        res = runner.invoke(main, ["predict", str(report), "--scenario",
                                   str(run / "scenario.json"), "--out",
                                   str(tmp_path)])
        _assert_config_error(res, "theta_star.kphi_N_m_n2")
        assert not (tmp_path / "predicted.csv").exists()


def _predict_with_scenario(runner, workdir, tmp_path, text):
    """``predict`` on the training report with a scenario file holding
    ``text``."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    return runner.invoke(main, ["predict",
                                str(workdir / "run" / "report.json"),
                                "--scenario", str(scenario), "--out",
                                str(tmp_path)])


class TestBezierSampleCount:
    """A Bezier path has floor(sample_rate_hz * duration_s) + 1 samples,
    and needs two of them."""

    @pytest.mark.parametrize("key, value", [("duration_s", 0.001),
                                            ("sample_rate_hz", 1e308)],
                             ids=["one-sample", "infinite-count"])
    def test_simulate_config(self, runner, tmp_path, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": {
            "surface": {"type": "sloped_line", "alpha_deg": 25.0},
            "path": {"type": "quadratic_bezier", "p0_m": [-0.4, 0.05],
                     "p1_m": [0.9, -0.35], "p2_m": [2.2, 1.2]},
            key: value}}))
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        _assert_config_error(res, "config.scenario")
        assert "sample_rate * duration" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("duration_s", 0.001),
                                            ("sample_rate_hz", 1e308)],
                             ids=["one-sample", "infinite-count"])
    def test_predict_scenario(self, runner, workdir, tmp_path, key, value):
        doc = json.loads((workdir / "run" / "scenario.json").read_text())
        doc[key] = value
        res = _predict_with_scenario(runner, workdir, tmp_path,
                                     json.dumps(doc))
        _assert_config_error(res, "scenario")
        assert "sample_rate * duration" in res.output
        assert not (tmp_path / "predicted.csv").exists()


class TestPolylineVertices:
    @pytest.mark.parametrize("vertex", ["[5, NaN]", "[1e400, 2]"],
                             ids=["nan", "overflow"])
    def test_non_finite_vertex_exits_2(self, runner, workdir, tmp_path,
                                       vertex):
        doc = json.loads((workdir / "run" / "scenario.json").read_text())
        doc["surface"] = {"type": "polyline",
                          "vertices_m": [[-1.0, 0.0], "VERTEX"]}
        text = json.dumps(doc).replace('"VERTEX"', vertex)
        res = _predict_with_scenario(runner, workdir, tmp_path, text)
        _assert_config_error(res, "scenario.json.surface")
        assert "vertices must be finite" in res.output
        assert not (tmp_path / "predicted.csv").exists()


class TestIntegerKeys:
    @pytest.mark.parametrize("doc, key", [
        ({"noise": {"seed": "abc"}}, "config.noise.seed"),
        ({"noise": {"seed": 1.7}}, "config.noise.seed"),
        ({"noise": {"seed": True}}, "config.noise.seed"),
        ({"noise": {"seed": -1}}, "config.noise.seed"),
        ({"calibration": {"solver": {"n_starts": "3"}}},
         "calibration.solver.n_starts"),
        ({"calibration": {"solver": {"seed": 1.7}}},
         "calibration.solver.seed"),
        ({"calibration": {"solver": {"seed": -1}}},
         "calibration.solver.seed"),
        ({"calibration": {"solver": {"max_iterations": False}}},
         "calibration.solver.max_iterations"),
        ({"calibration": {"solver": {"max_iterations": math.inf}}},
         "calibration.solver.max_iterations"),
        # no longer a setting: the step is finite_difference_gradient's
        ({"calibration": {"solver": {"finite_difference_step": 1e-6}}},
         "unknown key 'finite_difference_step' in calibration.solver"),
    ], ids=["seed-str", "seed-frac", "seed-bool", "seed-negative",
            "n_starts-str", "solver-seed-frac", "solver-seed-negative",
            "max_iterations-bool",
            "max_iterations-inf", "finite_difference_step-unknown"])
    def test_rejected(self, runner, tmp_path, doc, key):
        config = tmp_path / "int.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        _assert_config_error(res, key)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    def test_negative_seed_flag(self, runner, workdir, tmp_path, command):
        args = (["simulate", "--noise", "0.05"] if command == "simulate"
                else ["calibrate", str(workdir / "run" / "cycle.csv"),
                      "--method", "single"])
        res = runner.invoke(main, args + ["--seed", "-1", "--out",
                                          str(tmp_path / "never")])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.output
        assert not (tmp_path / "never").exists()


class TestZeroDepthCycle:
    @pytest.mark.parametrize("method", ["single", "multi"])
    def test_calibrate_exits_3(self, runner, workdir, tmp_path, method):
        # the tip stays far above the 25 degree face: nothing is in soil
        cycle = tmp_path / "cycle.csv"
        rows = [f"{0.1 * i!r},{0.1 * i!r},5.0,0.5,0.0,0.0" for i in range(30)]
        cycle.write_text("t_s,x_m,z_m,rho_rad,ft_obs_N,fn_obs_N\n"
                         + "\n".join(rows) + "\n")
        res = runner.invoke(main, ["calibrate", str(cycle), "--scenario",
                                   str(workdir / "run" / "scenario.json"),
                                   "--method", method, "--out",
                                   str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "zero penetration depth" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "report.json").exists()


def _without_wall_times(doc):
    doc["wall_time_s"] = 0.0
    for stage in doc["stages"]:
        stage["wall_time_s"] = 0.0
    return doc


class TestBucketWeightKey:
    """Scenario files written before the bucket weight was dropped carry
    loader.wb_kg; it is checked as a number and otherwise ignored."""

    @staticmethod
    def _scenario_with(run, tmp_path, value):
        doc = json.loads((run / "scenario.json").read_text())
        doc["loader"]["wb_kg"] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        return scenario

    def test_not_written(self, workdir):
        doc = json.loads((workdir / "run" / "scenario.json").read_text())
        assert doc["loader"].keys() == {"omega_m", "b_m"}

    def test_read_and_ignored(self, runner, workdir, tmp_path):
        run = workdir / "run"
        scenario = self._scenario_with(run, tmp_path, 450.0)
        assert (fio.read_scenario_json(scenario).loader
                == fio.read_scenario_json(run / "scenario.json").loader)
        config = tmp_path / "fast.json"
        config.write_text(json.dumps(FAST_CONFIG))
        res = runner.invoke(main, ["calibrate", str(run / "cycle.csv"),
                                   "--scenario", str(scenario), "--config",
                                   str(config), "--method", "multi",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        got, want = (json.loads((path / "report.json").read_text())
                     for path in (tmp_path, run))
        assert _without_wall_times(got) == _without_wall_times(want)
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert ((tmp_path / "predicted.csv").read_bytes()
                == (run / "predicted.csv").read_bytes())

    @pytest.mark.parametrize("value", ["heavy", math.nan],
                             ids=["string", "nan"])
    def test_bad_value_exits_2(self, runner, workdir, tmp_path, value):
        run = workdir / "run"
        scenario = self._scenario_with(run, tmp_path, value)
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        _assert_config_error(res, "loader.wb_kg")
        assert not (tmp_path / "predicted.csv").exists()


class TestSchemaVersion:
    """Each reader refuses a schema_version it does not know; documents
    without the key read as the current version."""

    BAD_VERSIONS = [fio.SCHEMA_VERSION + 1, "3", 2.5, True]

    @staticmethod
    def _assert_refused(res, path, version):
        _assert_config_error(res, str(path))
        assert f"unsupported schema_version {version!r}" in res.output

    @pytest.mark.parametrize("version", BAD_VERSIONS)
    def test_report(self, runner, workdir, tmp_path, version):
        run = workdir / "run"
        doc = json.loads((run / "report.json").read_text())
        doc["schema_version"] = version
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        res = runner.invoke(main, ["predict", str(report), "--scenario",
                                   str(run / "scenario.json"), "--out",
                                   str(tmp_path)])
        self._assert_refused(res, report, version)
        assert not (tmp_path / "predicted.csv").exists()

    @pytest.mark.parametrize("version", BAD_VERSIONS + [None])
    def test_scenario(self, runner, workdir, tmp_path, version):
        run = workdir / "run"
        doc = json.loads((run / "scenario.json").read_text())
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(scenario), "--out",
                                   str(tmp_path)])
        if version is None:
            assert res.exit_code == 0, res.output
            assert ((tmp_path / "predicted.csv").read_bytes()
                    == (run / "predicted.csv").read_bytes())
        else:
            self._assert_refused(res, scenario, version)
            assert not (tmp_path / "predicted.csv").exists()

    @pytest.mark.parametrize("version", BAD_VERSIONS)
    def test_config(self, runner, tmp_path, version):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": version}))
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        self._assert_refused(res, config, version)
        assert not out.exists()


def test_debug_log_has_one_line_per_stage(workdir, tmp_path):
    """FEE_CALIB_LOG=DEBUG: each stage of a staged fit logs its wall time,
    its trials, its least-squares paths, the bound check and its engine
    passes. On the clean default cycle n's optimum is its lower bound, so
    stages 1 and 3 skip Brent. Stage 1 never runs the engine, stage 3 runs
    it once, and stage 2 runs it once for its whole grid, once per Brent or
    derivative trial and once at the fitted values. Every trial either
    solves its least-squares problem or is screened out; on this cycle
    each grid solves one point and screens the other 32."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, FEE_CALIB_LOG="DEBUG")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", "from feecalib.cli import main; main()",
         "calibrate", str(workdir / "run" / "cycle.csv"), "--out",
         str(tmp_path)], capture_output=True, text=True, env=env,
        timeout=300)
    assert res.returncode == 0, res.stderr
    prefix = "DEBUG feecalib.calibration: "
    lines = [line[len(prefix):] for line in res.stderr.splitlines()
             if line.startswith(prefix)]
    assert len(lines) == 3, res.stderr
    pattern = (r"(stage[123]): \d+\.\d\d ms; (\d+) trials: 33 grid, "
               r"(\d+) Brent, (\d+) derivative, (\d) incumbent; least "
               r"squares (\d+) interior, (\d+) BVLS, (\d+) screened; "
               r"bound shortcut "
               r"(taken|not taken); (\d+) engine passes$")
    parsed = [re.match(pattern, line) for line in lines]
    assert all(parsed), lines
    stages = [m.groups() for m in parsed]
    report = json.loads((tmp_path / "report.json").read_text())
    for (name, trials, brent, derivative, incumbent, interior, bvls,
         screened, shortcut, passes), stage in zip(stages,
                                                   report["stages"]):
        assert name == stage["name"]
        assert int(trials) == stage["function_evaluations"] == (
            33 + int(brent) + int(derivative) + int(incumbent))
        assert int(brent) == stage["iterations"]
        # every trial of a staged fit is solved or screened out
        assert int(interior) + int(bvls) + int(screened) == (
            33 + int(brent) + int(derivative))
        assert (shortcut == "taken") == (name != "stage2")
        assert int(passes) == {"stage1": 0, "stage3": 1}.get(
            name, 1 + int(brent) + int(derivative) + 1)
    assert [s[:4] + s[-1:] for s in stages] == [
        ("stage1", "34", "0", "1", "0"), ("stage2", "44", "9", "2", "13"),
        ("stage3", "35", "0", "1", "1")]
    assert [s[5:8] for s in stages] == [("2", "0", "32"), ("12", "0", "32"),
                                        ("2", "0", "32")]


def test_debug_log_times_predict_and_evaluate(workdir, tmp_path):
    """FEE_CALIB_LOG=DEBUG: predict and evaluate each log one line with
    the ms spent reading, on geometry (carve, trajectory, depth and swept
    area), on the engine and writing; evaluate has no geometry or engine
    and logs its RMSE time instead."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, FEE_CALIB_LOG="DEBUG")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    prefix = "DEBUG feecalib.cli: "

    def debug_lines(*args):
        res = subprocess.run(
            [sys.executable, "-c", "from feecalib.cli import main; main()",
             *map(str, args)], capture_output=True, text=True, env=env,
            timeout=300)
        assert res.returncode == 0, res.stderr
        return [line[len(prefix):] for line in res.stderr.splitlines()
                if line.startswith(prefix)]

    run = workdir / "run"
    ms = r"(\d+\.\d\d)"
    lines = debug_lines("predict", run / "report.json", "--scenario",
                        run / "scenario.json", "--prior-cycle",
                        run / "cycle.csv", "--out", tmp_path)
    assert len(lines) == 1, lines
    match = re.match(
        rf"predict: read {ms} ms; geometry {ms} ms \(carve {ms}, "
        rf"trajectory {ms}, depth and swept area {ms}\); engine {ms} ms; "
        rf"write {ms} ms$", lines[0])
    assert match, lines
    read, geometry, carve, trajectory, wedge, engine, write = map(
        float, match.groups())
    assert geometry == pytest.approx(carve + trajectory + wedge, abs=0.02)
    assert min(read, carve, trajectory, wedge, engine, write) >= 0.0
    lines = debug_lines("evaluate", tmp_path / "predicted.csv",
                        run / "cycle.csv", "--out", tmp_path)
    assert len(lines) == 1, lines
    assert re.match(rf"evaluate: read {ms} ms; rmse {ms} ms; write {ms} ms$",
                    lines[0]), lines
