"""Command-line workflow: simulate, calibrate, predict, evaluate.

Exit codes: 0 ok, 2 input/config error, 3 computation error. The log
level is taken from the FEE_CALIB_LOG environment variable.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import io as fio
from .calibration import (calibrate_multi_stage, calibrate_single_stage,
                          predict_next_cycle, resultant, rmse)
from .errors import ConfigError, EmptySeries, FeeCalibError
from .geometry import CycleDataset
from .synthetic import add_noise, simulate_cycle

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _setup_logging() -> None:
    level = os.environ.get("FEE_CALIB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exits(step: str):
    """A command whose ConfigError exits 2 with its message, and whose
    other FeeCalibError exits 3 with "<step> failed: <message>"."""
    def wrap(command):
        @functools.wraps(command)
        def run(*args, **kwargs):
            try:
                return command(*args, **kwargs)
            except ConfigError as exc:
                _fail(EXIT_CONFIG, str(exc))
            except FeeCalibError as exc:
                _fail(EXIT_COMPUTE, f"{step} failed: {exc}")
        return run
    return wrap


def _made(out_dir) -> Path:
    """The output directory, made with its parents where missing."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}")
    return out


@click.group()
def main() -> None:
    """Excavation force prediction and soil parameter calibration."""
    _setup_logging()


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run configuration JSON.")
@click.option("--preset", default=None, help="Soil preset name override.")
@click.option("--noise", type=float, default=None,
              help="Relative noise sigma override.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Noise seed override.")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              show_default=True, help="Output directory.")
@_exits("simulation")
def simulate(config_path, preset, noise, seed, out_dir) -> None:
    """Generate a synthetic loading cycle (cycle.csv + scenario.json)."""
    config = fio.load_config(config_path, preset=preset, noise=noise,
                             seed=seed)
    dataset = simulate_cycle(config.scenario, config.truth)
    if config.relative_sigma > 0.0:
        dataset = add_noise(dataset, config.relative_sigma, config.seed)
    out = _made(out_dir)
    fio.write_cycle_csv(out / "cycle.csv", dataset.samples,
                        dataset.f_t_obs, dataset.f_n_obs)
    fio.write_scenario_json(out / "scenario.json", config.scenario,
                            config.truth, config.relative_sigma, config.seed)
    click.echo(f"wrote {out / 'cycle.csv'} ({dataset.n} rows) and "
               f"{out / 'scenario.json'}")


@main.command()
@click.argument("cycle_csv", type=click.Path())
@click.option("--scenario", "scenario_path", type=click.Path(), default=None,
              help="Scenario JSON (default: scenario.json next to the CSV).")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run configuration JSON (calibration options).")
@click.option("--method", type=click.Choice(["single", "multi"]),
              default="multi", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Solver seed override (the single-stage fit only).")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              show_default=True, help="Output directory.")
@_exits("calibration")
def calibrate(cycle_csv, scenario_path, config_path, method, seed,
              out_dir) -> None:
    """Fit soil parameters to one cycle's force data (report.json)."""
    trajectory, ft, fn = fio.read_cycle_csv(cycle_csv)
    if scenario_path is None:
        scenario_path = Path(cycle_csv).parent / "scenario.json"
    scenario = fio.read_scenario_json(scenario_path)
    options = fio.load_config(config_path).calibration
    if seed is not None:
        options = replace(options, solver=replace(options.solver, seed=seed))
    dataset = CycleDataset(samples=trajectory, f_t_obs=ft, f_n_obs=fn,
                           surface=scenario.surface, loader=scenario.loader)
    calibrator = (calibrate_single_stage if method == "single"
                  else calibrate_multi_stage)
    report = calibrator(dataset, options=options)
    out = _made(out_dir)
    fio.write_report_json(out / "report.json", report)
    click.echo(f"wrote {out / 'report.json'}: method={report.method} "
               f"F_R RMSE {report.rmse_fr_n:.1f} N "
               f"({report.rmse_fr_pct:.2f}%), "
               f"{report.function_evaluations} objective evaluations, "
               f"{1e3 * report.wall_time_s:.1f} ms")


@main.command()
@click.argument("report_json", type=click.Path())
@click.option("--scenario", "scenario_path", type=click.Path(),
              required=True, help="Scenario JSON describing the new pass.")
@click.option("--prior-cycle", "prior_path", type=click.Path(), default=None,
              help="Cycle CSV whose trajectory carved the surface.")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              show_default=True, help="Output directory.")
@_exits("prediction")
def predict(report_json, scenario_path, prior_path, out_dir) -> None:
    """Predict forces along a scenario using fitted parameters."""
    t0 = time.perf_counter()
    theta = fio.read_report_theta(report_json)
    scenario = fio.read_scenario_json(scenario_path)
    prior = None
    if prior_path is not None:
        prior, _, _ = fio.read_cycle_csv(prior_path)
        if prior.size < 2:
            raise ConfigError(f"{prior_path}: a prior cycle needs at least "
                              f"two samples, found {prior.size}")
    read_ms = 1e3 * (time.perf_counter() - t0)
    prediction = predict_next_cycle(theta, scenario, prior_cycle=prior)
    failures = prediction.failures
    if failures:
        for index, reason in failures:
            log.warning("sample %d: %s", index, reason)
        click.echo(f"note: {len(failures)} samples were infeasible and "
                   "carry NaN forces", err=True)

    out = _made(out_dir)
    t0 = time.perf_counter()
    fio.write_prediction_csv(out / "predicted.csv", prediction.trajectory,
                             prediction.depth, prediction.beta,
                             prediction.f_t, prediction.f_n)
    write_ms = 1e3 * (time.perf_counter() - t0)
    steps = prediction.step_ms
    log.debug("predict: read %.2f ms; geometry %.2f ms (carve %.2f, "
              "trajectory %.2f, depth and swept area %.2f); engine %.2f ms; "
              "write %.2f ms", read_ms, sum(steps.values()) - steps["engine"],
              steps["carve"], steps["trajectory"],
              steps["depth and swept area"], steps["engine"], write_ms)
    click.echo(f"wrote {out / 'predicted.csv'} ({prediction.n} rows)")


@main.command()
@click.argument("predicted_csv", type=click.Path())
@click.argument("observed_csv", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Directory for metrics.json (default: print only).")
@_exits("evaluation")
def evaluate(predicted_csv, observed_csv, out_dir) -> None:
    """Force errors of a prediction against an observed cycle."""
    t0 = time.perf_counter()
    predicted = fio.read_prediction_csv(predicted_csv)
    _, ft_obs, fn_obs = fio.read_cycle_csv(observed_csv)
    if predicted["ft_N"].size != ft_obs.size:
        raise ConfigError(f"length mismatch: {predicted['ft_N'].size} "
                          f"predicted vs {ft_obs.size} observed samples")
    t1 = time.perf_counter()
    flagged = np.flatnonzero(~(np.isfinite(predicted["ft_N"])
                               & np.isfinite(predicted["fn_N"])))
    if flagged.size:
        lines = ", ".join(str(i + 2) for i in flagged[:5])
        _fail(EXIT_COMPUTE, f"{predicted_csv}: {flagged.size} flagged rows "
                            f"carry no forces (lines {lines}"
                            f"{', ...' if flagged.size > 5 else ''})")
    try:
        ft_pair = rmse(ft_obs, predicted["ft_N"])
        fn_pair = rmse(fn_obs, predicted["fn_N"])
        fr_pair = rmse(resultant(ft_obs, fn_obs),
                       resultant(predicted["ft_N"], predicted["fn_N"]))
    except EmptySeries as exc:
        _fail(EXIT_CONFIG, str(exc))
    t2 = time.perf_counter()
    click.echo(f"F^T RMSE {ft_pair[0]:.3f} N ({ft_pair[1]:.3f}%)")
    click.echo(f"F^N RMSE {fn_pair[0]:.3f} N ({fn_pair[1]:.3f}%)")
    click.echo(f"F_R RMSE {fr_pair[0]:.3f} N ({fr_pair[1]:.3f}%)")
    if out_dir is not None:
        out = _made(out_dir)
        fio.write_metrics_json(out / "metrics.json", int(ft_obs.size),
                               ft_pair, fn_pair, fr_pair)
        click.echo(f"wrote {out / 'metrics.json'}")
    log.debug("evaluate: read %.2f ms; rmse %.2f ms; write %.2f ms",
              1e3 * (t1 - t0), 1e3 * (t2 - t1),
              1e3 * (time.perf_counter() - t2))


if __name__ == "__main__":
    main()
