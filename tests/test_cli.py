import csv
import dataclasses
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
from feecalib import (CalibrationOptions, CycleDataset, SolverOptions,
                      StageResult, calibrate_single_stage, make_trajectory)
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

    @pytest.mark.parametrize("config, flags, message", [
        (None, ["--preset", "nosuch"],
         "--preset: no preset matching 'nosuch'"),
        ({"soil": {"preset": "clay"}}, [],
         "config.soil.preset: ambiguous preset 'clay': ['Heavy Clay WES "
         "40', 'Lean Clay WES 32', 'Clayey gravel', 'Clayey sand', 'Clay of "
         "low plasticity, lean clay', 'Clay of high plasticity, fat clay', "
         "'Organic silt, organic clay']"),
        ({"soil": {"preset": "Heavy Clay WES 40", "truth": {}}}, [],
         "config.soil: give either 'preset' or 'truth'"),
    ], ids=["unknown-flag", "ambiguous-config", "preset-and-truth"])
    def test_soil_choice_errors_exit_2(self, runner, tmp_path, config,
                                       flags, message):
        # the message itself, not the str() of a KeyError in quotes
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = [*flags, "--config", str(path)]
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", *flags, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_zero_duration_exits_2(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": {
            "surface": {"type": "sloped_line", "alpha_deg": 25.0},
            "path": {"type": "quadratic_bezier", "p0_m": [-0.4, 0.05],
                     "p1_m": [0.9, -0.35], "p2_m": [2.2, 1.2]},
            "duration_s": 0}}))
        out = tmp_path / "never"
        res = runner.invoke(main, ["simulate", "--config", str(config),
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert res.stderr == ("error: config.scenario: duration must be "
                              "positive\n")
        assert not out.exists()


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
        assert doc["schema_version"] == 4
        assert doc["options"].keys() == {"lambda_weight", "seed"}
        for stage in doc["stages"]:
            assert set(stage["at_bound"].values()) <= {"lower", "upper"}
        assert doc["stages"][0]["parameters"]["K"] > 0.0
        assert "kc/kphi split" in doc["not_identified"]

    def test_report_of_a_zero_force_series_is_strict_json(self, runner,
                                                          workdir, tmp_path):
        # every ft_obs_N is 0, so the ft percent divides by a peak of 0
        run = workdir / "run"
        lines = (run / "cycle.csv").read_text().splitlines()
        column = lines[0].split(",").index("ft_obs_N")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[column] = "0.0"
        cycle = tmp_path / "cycle.csv"
        cycle.write_text("\n".join([lines[0]] + [",".join(row)
                                                 for row in rows]) + "\n")
        config = tmp_path / "one-start.json"
        config.write_text(json.dumps({"calibration": {"solver": {
            "n_starts": 1, "max_iterations": 20}}}))
        res = runner.invoke(main, ["calibrate", str(cycle), "--scenario",
                                   str(run / "scenario.json"), "--config",
                                   str(config), "--method", "single",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

        def no_constants(name):
            raise AssertionError(f"{name} in report.json")

        doc = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=no_constants)
        assert doc["rmse"]["ft_pct"] is None
        assert doc["rmse"]["ft_N"] > 0.0

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

    def test_single_stage_seed_flag(self, runner, workdir, tmp_path):
        # --seed sets the single-stage solver's seed: the report records
        # it, and theta* is the library fit's at that seed
        run = workdir / "run"
        res = runner.invoke(main, ["calibrate", str(run / "cycle.csv"),
                                   "--config", str(workdir / "fast.json"),
                                   "--method", "single", "--seed", "7",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["options"]["seed"] == 7
        samples, f_t, f_n = fio.read_cycle_csv(run / "cycle.csv")
        scenario = fio.read_scenario_json(run / "scenario.json")
        dataset = CycleDataset(samples=samples, f_t_obs=f_t, f_n_obs=f_n,
                               surface=scenario.surface,
                               loader=scenario.loader)
        solver = SolverOptions(**FAST_CONFIG["calibration"]["solver"],
                               seed=7)
        report = calibrate_single_stage(
            dataset, options=CalibrationOptions(solver=solver))
        assert doc["theta_star"] == fio.soil_to_json(report.theta_star)

    @pytest.mark.parametrize("method", ["single", "multi"])
    def test_stage_records_hold_the_stage_result_fields(self, runner, workdir,
                                                        tmp_path, method):
        # each stage record is its StageResult, rmse_n written as rmse_N;
        # the counts that its work record holds are not repeated
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"calibration": {"solver": {
            "n_starts": 1, "max_iterations": 3}}}))
        res = runner.invoke(main, ["calibrate",
                                   str(workdir / "run" / "cycle.csv"),
                                   "--config", str(config), "--method",
                                   method, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == fio.SCHEMA_VERSION == 4
        names = ["rmse_N" if f.name == "rmse_n" else f.name
                 for f in dataclasses.fields(StageResult)]
        assert len(doc["stages"]) == (1 if method == "single" else 3)
        for stage in doc["stages"]:
            assert list(stage) == names
            assert not {"iterations", "starts_tried"} & stage.keys()
            assert "bound_shortcut" not in stage["work"]

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

    def test_report_without_theta_exits_2(self, runner, workdir, tmp_path):
        run = workdir / "run"
        doc = json.loads((run / "report.json").read_text())
        del doc["theta_star"]
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        res = runner.invoke(main, ["predict", str(report), "--scenario",
                                   str(run / "scenario.json"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {report}: missing 'theta_star'\n"
        assert not (tmp_path / "predicted.csv").exists()

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

    def test_header_only_files_exit_2(self, runner, tmp_path):
        """A predicted and an observed file with no rows have no error to
        take: exit 2 with one line, and no metrics.json."""
        pred, obs = tmp_path / "predicted.csv", tmp_path / "cycle.csv"
        pred.write_text(",".join(fio.PREDICTION_COLUMNS) + "\n")
        obs.write_text(",".join(fio.CYCLE_COLUMNS) + "\n")
        out = tmp_path / "never"
        res = runner.invoke(main, ["evaluate", str(pred), str(obs), "--out",
                                   str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == "error: rmse of an empty series\n"
        assert not out.exists()

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
        """A quote opens no quoted field, so a prediction whose row 1 is
        written as if it spanned lines 2-3 exits 2 naming line 2, before
        its flagged row is looked at."""
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
        assert res.exit_code == 2, res.output
        assert res.stderr == (f"error: {predicted}:2: bad value (could not "
                              f"convert string to float: '\"{t}')\n")

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


def _writing_command(workdir, command, out):
    """``command``'s arguments on the shared run, writing to ``out``."""
    run = workdir / "run"
    return [str(arg) for arg in {
        "simulate": ["simulate", "--out", out],
        "calibrate": ["calibrate", run / "cycle.csv", "--config",
                      workdir / "fast.json", "--out", out],
        "predict": ["predict", run / "report.json", "--scenario",
                    run / "scenario.json", "--out", out],
        "evaluate": ["evaluate", run / "predicted.csv", run / "cycle.csv",
                     "--out", out],
    }[command]]


OUTPUT_FILES = [("simulate", "cycle.csv"), ("simulate", "scenario.json"),
                ("calibrate", "report.json"), ("predict", "predicted.csv"),
                ("evaluate", "metrics.json")]


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with one line naming it."""

    @staticmethod
    def _assert_refused(res, path, reason):
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith(f"error: cannot write {path}: "
                                     f"{reason}"), res.stderr
        assert res.stderr.count("\n") == 1, res.stderr

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "predict",
                                         "evaluate"])
    @pytest.mark.parametrize("under", [False, True],
                             ids=["out-is-a-file", "out-under-a-file"])
    def test_out_that_is_no_directory(self, runner, workdir, tmp_path,
                                      command, under):
        blocker = tmp_path / "o"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        res = runner.invoke(main, _writing_command(workdir, command, out))
        self._assert_refused(res, out, "[Errno 20] Not a directory" if under
                             else "[Errno 17] File exists")
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command, name", OUTPUT_FILES)
    def test_output_file_that_is_a_directory(self, runner, workdir, tmp_path,
                                             command, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        res = runner.invoke(main, _writing_command(workdir, command, out))
        self._assert_refused(res, out / name, "[Errno 21] Is a directory")
        assert (out / name).is_dir()


def test_predict_into_a_used_out_equals_a_fresh_run(runner, workdir,
                                                    tmp_path):
    """predict and evaluate run twice into one directory, the second time
    on a scenario at a third of the sample rate: predicted.csv and
    metrics.json hold only the second run's rows and are byte-equal to a
    run into a fresh directory."""
    run = workdir / "run"
    doc = json.loads((run / "scenario.json").read_text())
    doc["sample_rate_hz"] /= 3.0
    low = tmp_path / "low"
    config = tmp_path / "low.json"
    config.write_text(json.dumps({"scenario": doc}))
    res = runner.invoke(main, ["simulate", "--config", str(config),
                               "--out", str(low)])
    assert res.exit_code == 0, res.output
    n_low = fio.read_cycle_csv(low / "cycle.csv")[1].size
    n_high = fio.read_cycle_csv(run / "cycle.csv")[1].size
    assert n_low < n_high

    def chain(scenario, observed, out):
        res = runner.invoke(main, ["predict", str(run / "report.json"),
                                   "--scenario", str(scenario),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["evaluate", str(out / "predicted.csv"),
                                   str(observed), "--out", str(out)])
        assert res.exit_code == 0, res.output

    used, fresh = tmp_path / "used", tmp_path / "fresh"
    chain(run / "scenario.json", run / "cycle.csv", used)
    assert fio.read_prediction_csv(used / "predicted.csv")["ft_N"].size \
        == n_high
    chain(low / "scenario.json", low / "cycle.csv", used)
    chain(low / "scenario.json", low / "cycle.csv", fresh)
    assert fio.read_prediction_csv(used / "predicted.csv")["ft_N"].size \
        == n_low
    assert json.loads((used / "metrics.json").read_text())["n_samples"] \
        == n_low
    for name in ("predicted.csv", "metrics.json"):
        assert (used / name).read_bytes() == (fresh / name).read_bytes()


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

    def test_column_named_twice_in_evaluate(self, runner, workdir,
                                            tmp_path):
        """A predicted.csv that names ft_N twice exits 2 with one line, and
        no metrics.json."""
        run = workdir / "run"
        header, *rows = (run / "predicted.csv").read_text().splitlines()
        bad = tmp_path / "predicted.csv"
        bad.write_text("\n".join([header + ",ft_N"]
                                 + [row + ",0.0" for row in rows]) + "\n")
        res = runner.invoke(main, ["evaluate", str(bad),
                                   str(run / "cycle.csv"), "--out",
                                   str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stderr == (f"error: {bad}: column 'ft_N' appears more "
                              "than once\n")
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
    and needs two to a million of them: a rate of 1e300 Hz, whose samples
    numpy cannot allocate, exits 2 with one message. Rate and duration
    are keys of the scenario, not of its path, so the message names the
    scenario section."""

    @pytest.mark.parametrize("key, value", [("duration_s", 0.001),
                                            ("sample_rate_hz", 1e308),
                                            ("sample_rate_hz", 1e300)],
                             ids=["one-sample", "infinite-count",
                                  "huge-count"])
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
        assert res.stderr.startswith("error: config.scenario: "
                                     "sample_rate * duration must lie in")
        assert res.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("duration_s", 0.001),
                                            ("sample_rate_hz", 1e308),
                                            ("sample_rate_hz", 1e300)],
                             ids=["one-sample", "infinite-count",
                                  "huge-count"])
    def test_predict_scenario(self, runner, workdir, tmp_path, key, value):
        doc = json.loads((workdir / "run" / "scenario.json").read_text())
        doc[key] = value
        res = _predict_with_scenario(runner, workdir, tmp_path,
                                     json.dumps(doc))
        _assert_config_error(res, "scenario")
        assert res.stderr.startswith(f"error: {tmp_path / 'scenario.json'}: "
                                     "sample_rate * duration must lie in")
        assert res.stderr.count("\n") == 1
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

    def test_overflowing_segment_exits_2(self, runner, workdir, tmp_path):
        # finite vertices whose segment squared lengths overflow
        doc = json.loads((workdir / "run" / "scenario.json").read_text())
        doc["surface"] = {"type": "polyline",
                          "vertices_m": [[-1e308, -1e308], [0.0, 0.0],
                                         [1e308, 1e308]]}
        res = _predict_with_scenario(runner, workdir, tmp_path,
                                     json.dumps(doc))
        _assert_config_error(res, "scenario.json.surface")
        assert "segment squared lengths must be finite" in res.output
        assert not (tmp_path / "predicted.csv").exists()


class TestPolylineNominalAlpha:
    @pytest.mark.parametrize("deg", [80.0, -30.0])
    def test_outside_the_range_exits_2(self, runner, workdir, tmp_path, deg):
        doc = json.loads((workdir / "run" / "scenario.json").read_text())
        doc["surface"] = {"type": "polyline",
                          "vertices_m": [[-1.0, 0.0], [3.0, 1.8]],
                          "nominal_alpha_deg": deg}
        res = _predict_with_scenario(runner, workdir, tmp_path,
                                     json.dumps(doc))
        _assert_config_error(res, "scenario.json.surface")
        assert "alpha must lie in [0 deg, 45 deg)" in res.output
        assert not (tmp_path / "predicted.csv").exists()


class TestIntegerKeys:
    @pytest.mark.parametrize("doc, key", [
        ({"noise": {"seed": "abc"}}, "config.noise.seed"),
        ({"noise": {"seed": 1.7}}, "config.noise.seed"),
        ({"noise": {"seed": True}}, "config.noise.seed"),
        ({"noise": {"seed": -1}}, "config.noise.seed"),
        ({"calibration": {"solver": {"n_starts": "3"}}},
         "config.calibration.solver.n_starts"),
        ({"calibration": {"solver": {"seed": 1.7}}},
         "config.calibration.solver.seed"),
        ({"calibration": {"solver": {"seed": -1}}},
         "config.calibration.solver.seed"),
        ({"calibration": {"solver": {"max_iterations": False}}},
         "config.calibration.solver.max_iterations"),
        ({"calibration": {"solver": {"max_iterations": math.inf}}},
         "config.calibration.solver.max_iterations"),
        # no longer a setting: the step is finite_difference_gradient's
        ({"calibration": {"solver": {"finite_difference_step": 1e-6}}},
         "unknown key 'finite_difference_step' in "
         "config.calibration.solver"),
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


def test_calibration_section_is_named_as_its_siblings(runner, tmp_path):
    config = tmp_path / "lambda.json"
    config.write_text(json.dumps({"calibration": {"lambda_weight": 2}}))
    out = tmp_path / "never"
    res = runner.invoke(main, ["simulate", "--config", str(config), "--out",
                               str(out)])
    _assert_config_error(res, "config.calibration: lambda_weight must lie "
                              "in [0, 1]")
    assert not out.exists()


# (document, keys to the section, value put there, the section's name in
# the message); "scenario" and "report" start from the training run's
# files, "config" from an empty config
NOT_OBJECTS = [
    ("scenario", (), 5, "scenario.json"),
    ("scenario", (), None, "scenario.json"),
    ("scenario", (), "x", "scenario.json"),
    ("scenario", (), [1, 2], "scenario.json"),
    ("scenario", ("surface",), 5, "scenario.json.surface"),
    ("scenario", ("path",), 3, "scenario.json.path"),
    ("scenario", ("loader",), 7, "scenario.json.loader"),
    ("scenario", ("soil",), 5, "scenario.json.soil"),
    ("scenario", ("noise",), "x", "scenario.json.noise"),
    ("config", (), [1], "config"),
    ("config", ("soil",), 5, "config.soil"),
    ("config", ("noise",), 3, "config.noise"),
    ("config", ("calibration",), [], "config.calibration"),
    ("config", ("calibration", "solver"), 1, "config.calibration.solver"),
    ("config", ("scenario",), 2, "config.scenario"),
    ("config", ("soil", "truth"), 4, "config.soil.truth"),
    ("report", ("theta_star",), 5, "report.json:theta_star"),
]


@pytest.mark.parametrize("kind, keys, value, section", NOT_OBJECTS,
                         ids=[f"{kind}-{'.'.join(keys) or 'root'}-{value!r}"
                              for kind, keys, value, _ in NOT_OBJECTS])
def test_a_section_that_is_not_an_object_exits_2(runner, workdir, tmp_path,
                                                  kind, keys, value,
                                                  section):
    run = workdir / "run"
    doc = ({} if kind == "config"
           else json.loads((run / f"{kind}.json").read_text()))
    if keys:
        parent = doc
        for key in keys[:-1]:
            parent = parent.setdefault(key, {})
        parent[keys[-1]] = value
    else:
        doc = value
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    args = {"scenario": ["predict", str(run / "report.json"), "--scenario",
                         str(path)],
            "config": ["simulate", "--config", str(path)],
            "report": ["predict", str(path), "--scenario",
                       str(run / "scenario.json")]}[kind]
    out = tmp_path / "never"
    res = runner.invoke(main, args + ["--out", str(out)])
    _assert_config_error(res, f"{section} must be a JSON object")
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "predict"])
@pytest.mark.parametrize("section, edit, message", [
    ("soil", {"grain_mm": 1.0}, "unknown key 'grain_mm' in "),
    ("soil", {"gamma_kg_m3": "1500"}, "soil.gamma_kg_m3 must be a number"),
    ("soil", {"phi_deg": 30.0}, "give only one of 'phi_rad'/'phi_deg'"),
    ("noise", {"relative_sigma": -0.1},
     "noise.relative_sigma must be nonnegative"),
    ("noise", {"seed": 1.5}, "noise.seed must be a nonnegative integer"),
], ids=["soil-unknown-key", "soil-string", "soil-two-angles",
        "noise-negative", "noise-seed-frac"])
def test_scenario_truth_and_noise_are_checked(runner, workdir, tmp_path,
                                              command, section, edit,
                                              message):
    # the sections simulate writes: read by the config's rules, not kept
    run = workdir / "run"
    doc = json.loads((run / "scenario.json").read_text())
    doc[section].update(edit)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    args = {"calibrate": ["calibrate", str(run / "cycle.csv"),
                          "--method", "multi"],
            "predict": ["predict", str(run / "report.json")]}[command]
    out = tmp_path / "never"
    res = runner.invoke(main, args + ["--scenario", str(scenario), "--out",
                                      str(out)])
    _assert_config_error(res, message)
    assert not out.exists()


@pytest.mark.parametrize("value, rule", [("nan", "finite"),
                                         ("inf", "finite"),
                                         ("1e309", "finite"),
                                         ("-0.1", "nonnegative")])
def test_noise_flag_is_checked_as_the_config_value(runner, tmp_path, value,
                                                   rule):
    out = tmp_path / "never"
    res = runner.invoke(main, ["simulate", "--noise", value, "--out",
                               str(out)])
    _assert_config_error(res, f"--noise must be {rule}")
    assert not out.exists()


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

    @pytest.mark.parametrize("method", ["single", "multi"])
    def test_header_only_cycle_exits_3(self, runner, workdir, tmp_path,
                                       method):
        # no sample at all: the swept-area profile of an empty path
        cycle = tmp_path / "cycle.csv"
        cycle.write_text("t_s,x_m,z_m,rho_rad,ft_obs_N,fn_obs_N\n")
        res = runner.invoke(main, ["calibrate", str(cycle), "--scenario",
                                   str(workdir / "run" / "scenario.json"),
                                   "--method", method, "--out",
                                   str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert res.stderr == ("error: calibration failed: all samples have "
                              "zero penetration depth\n")
        assert not (tmp_path / "report.json").exists()


def _run_cli(*args):
    """The CLI in a subprocess, where numpy's warnings stay warnings and
    LAPACK's messages reach its output."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", "from feecalib.cli import main; main()",
         *map(str, args)], capture_output=True, text=True, env=env,
        timeout=300)


@pytest.mark.parametrize("method", ["single", "multi"])
@pytest.mark.parametrize("tip, force", [(1e200, 1.0), (1e150, 1.0),
                                        (1.0, 1e300)],
                         ids=["tip-1e200", "tip-1e150", "forces-1e300"])
def test_overflowing_forces_exit_3(workdir, tmp_path, method, tip, force):
    """Tip coordinates of 1e150 m or more, or observed forces of 1e300 N,
    overflow the fit's arithmetic: calibrate exits 3 with one line, with
    no numpy warning and no LAPACK message before it."""
    run = workdir / "run"
    samples, f_t, f_n = fio.read_cycle_csv(run / "cycle.csv")
    cycle = tmp_path / "far.csv"
    fio.write_cycle_csv(cycle, make_trajectory(
        samples.t, samples.x * tip, samples.z * tip, samples.rho),
        f_t * force, f_n * force)
    res = _run_cli("calibrate", cycle, "--scenario", run / "scenario.json",
                   "--method", method, "--out", tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("error: calibration failed: "
                                 "floating-point error (")
    assert res.stderr.count("\n") == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("method", ["single", "multi"])
def test_no_sample_inside_the_blade_margins_exits_3(workdir, tmp_path,
                                                    method):
    """Every blade angle at 1e-9 rad, below the margins: neither method
    has a sample to fit, so calibrate exits 3 with one line."""
    run = workdir / "run"
    samples, f_t, f_n = fio.read_cycle_csv(run / "cycle.csv")
    cycle = tmp_path / "flat.csv"
    fio.write_cycle_csv(cycle, make_trajectory(
        samples.t, samples.x, samples.z, np.full(samples.size, 1e-9)),
        f_t, f_n)
    res = _run_cli("calibrate", cycle, "--scenario", run / "scenario.json",
                   "--method", method, "--out", tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr == ("error: calibration failed: no in-soil sample "
                          "inside the blade margins\n")
    assert not (tmp_path / "report.json").exists()


def _assert_prediction_overflows(res, out):
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("error: prediction failed: "
                                 "floating-point error (")
    assert res.stderr.count("\n") == 1, res.stderr
    assert not (out / "predicted.csv").exists()


def test_overflowing_prior_cycle_exits_3(workdir, tmp_path):
    """A prior cycle whose tip coordinates are 1e200 m overflows the
    carved face's arithmetic: predict exits 3 with one line and writes
    nothing."""
    run = workdir / "run"
    samples, f_t, f_n = fio.read_cycle_csv(run / "cycle.csv")
    prior = tmp_path / "far.csv"
    fio.write_cycle_csv(prior, make_trajectory(
        samples.t, samples.x * 1e200, samples.z * 1e200, samples.rho),
        f_t, f_n)
    res = _run_cli("predict", run / "report.json", "--scenario",
                   run / "scenario.json", "--prior-cycle", prior, "--out",
                   tmp_path)
    _assert_prediction_overflows(res, tmp_path)


def test_overflowing_bezier_path_exits_3(workdir, tmp_path):
    """Bezier control points of about 1e200 m overflow the prediction's
    arithmetic: predict exits 3 with one line and writes nothing."""
    run = workdir / "run"
    doc = json.loads((run / "scenario.json").read_text())
    for key in ("p0_m", "p1_m", "p2_m"):
        doc["path"][key] = [1e200 * v for v in doc["path"][key]]
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(doc))
    res = _run_cli("predict", run / "report.json", "--scenario", scenario,
                   "--out", tmp_path)
    _assert_prediction_overflows(res, tmp_path)


@pytest.mark.parametrize("key, name", [("omega_m", "omega"), ("b_m", "b")])
def test_huge_loader_size_exits_2(workdir, tmp_path, key, name):
    """A loader width or edge thickness of 1e308 m is refused as it is
    read: the output holds only the message, with no numpy warning and
    no LAPACK line."""
    run = workdir / "run"
    doc = json.loads((run / "scenario.json").read_text())
    doc["loader"][key] = 1e308
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    res = _run_cli("calibrate", run / "cycle.csv", "--scenario", scenario,
                   "--method", "multi", "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr == (f"error: {scenario}.loader: {name} must lie in "
                          "(0 m, 100 m]\n")
    assert res.stdout == ""
    assert not (tmp_path / "report.json").exists()


def test_start_count_numpy_cannot_allocate_exits_2(runner, workdir,
                                                    tmp_path):
    config = tmp_path / "starts.json"
    config.write_text(json.dumps(
        {"calibration": {"solver": {"n_starts": 1e20}}}))
    out = tmp_path / "never"
    res = runner.invoke(main, ["calibrate", str(workdir / "run" / "cycle.csv"),
                               "--config", str(config), "--method", "single",
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr == ("error: config.calibration.solver: n_starts must "
                          "lie in [1, 10000]\n")
    assert not out.exists()


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
    passes with how many ran the stationary-root solve: its work record,
    which report.json carries too. On the clean default cycle n's optimum
    is its lower bound, so stages 1 and 3 skip Brent. Stage 1 never runs
    the engine, and stage 2 runs it once for its whole grid, once per
    Brent or derivative trial and once at the fitted values, whose wedge
    force stage 3 reuses. Every trial either solves its least-squares
    problem or is screened out; on this cycle each grid solves one point
    and screens the other 32."""
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
               r"squares (\d+) interior, (\d+) bounded, (\d+) screened; "
               r"bound shortcut "
               r"(taken|not taken); (\d+) engine passes, (\d+) with the root "
               r"solve$")
    parsed = [re.match(pattern, line) for line in lines]
    assert all(parsed), lines
    stages = [m.groups() for m in parsed]
    report = json.loads((tmp_path / "report.json").read_text())
    for (name, trials, brent, derivative, incumbent, interior, bounded,
         screened, shortcut, passes, roots), stage in zip(stages,
                                                          report["stages"]):
        assert name == stage["name"]
        # the line prints the stage's work record, key by key
        assert list(stage["work"].items()) == [
            ("grid", 33), ("brent", int(brent)),
            ("derivative", int(derivative)), ("incumbent", int(incumbent)),
            ("interior", int(interior)), ("bounded", int(bounded)),
            ("screened", int(screened)),
            ("engine_passes", int(passes)), ("root_passes", int(roots))]
        assert (shortcut == "taken") == (int(brent) == 0)
        assert int(trials) == stage["function_evaluations"] == (
            33 + int(brent) + int(derivative) + int(incumbent))
        # every trial of a staged fit is solved or screened out
        assert int(interior) + int(bounded) + int(screened) == (
            33 + int(brent) + int(derivative))
        assert (shortcut == "taken") == (name != "stage2")
        # stage 3 and the final report reuse stage 2's pass at its fit
        assert int(passes) == {"stage1": 0, "stage3": 0}.get(
            name, 1 + int(brent) + int(derivative) + 1)
        assert int(roots) <= int(passes)
    # the default cycle has no stationary root at any friction angle
    assert [s[:4] + s[-2:] for s in stages] == [
        ("stage1", "34", "0", "1", "0", "0"),
        ("stage2", "44", "9", "2", "13", "0"),
        ("stage3", "35", "0", "1", "0", "0")]
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
