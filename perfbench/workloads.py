"""The benchmark's workloads: set-up, timed ops, and the checks on each op.

Every feecalib function is looked up on its module at call time, so a
traced run, which replaces those module attributes, times the same calls.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from feecalib import calibration, cli, geometry, io, synthetic
from feecalib.calibration import CalibrationOptions
from feecalib.optimizer import SolverOptions
from feecalib.soil import ParameterBounds


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    n_starts: int | None = None        # None keeps the workload's own
    max_iterations: int | None = None  # None keeps the library default
    passes: int = 4
    sample_rate_hz: float = 600.0


FULL = Sizes()
TINY = Sizes(n_starts=1, max_iterations=3, passes=2, sample_rate_hz=60.0)


@dataclass
class OpResult:
    wall_s: float
    failures: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def _op_boundary(failures: list[str], what: str):
    """Turns an exception inside an op into a failed check."""
    try:
        yield
    except Exception as exc:  # an op that raises is a failed op
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{what} raised {type(exc).__name__}: {exc}")


def _fr_pct(observed_t, observed_n, predicted_t, predicted_n) -> float:
    return calibration.rmse(calibration.resultant(observed_t, observed_n),
                            calibration.resultant(predicted_t,
                                                  predicted_n))[1]


# ---------------------------------------------------------------------------
# calib-multi-clean, calib-single-noisy
# ---------------------------------------------------------------------------

class CalibrationWorkload:
    """One calibrate_* call on the default cycle, then a held-out
    prediction with the fitted parameters."""

    setup_repeats = 9    # one set-up is about 0.8 s, mostly the import

    def __init__(self, method: str, noise: float, n_starts: int,
                 max_train_pct: float, max_heldout_pct: float) -> None:
        self.method = method
        self.noise = noise
        self.n_starts = n_starts
        self.max_train_pct = max_train_pct
        self.max_heldout_pct = max_heldout_pct

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict:
        self.truth = synthetic.default_truth()
        cycle = synthetic.simulate_cycle(synthetic.default_scenario(),
                                         self.truth)
        if self.noise > 0.0:
            cycle = synthetic.add_noise(cycle, self.noise, seed)
        self.cycle = cycle
        self.heldout = synthetic.heldout_scenario()
        self.heldout_truth = synthetic.simulate_cycle(self.heldout,
                                                      self.truth)
        solver = SolverOptions(n_starts=sizes.n_starts or self.n_starts,
                               seed=seed)
        if sizes.max_iterations is not None:
            solver = replace(solver, max_iterations=sizes.max_iterations)
        self.options = CalibrationOptions(solver=solver)
        in_soil = self.cycle.surface.depth_of(*self.cycle.tip_arrays()) > 0
        return {"samples": cycle.n,
                "in_soil_samples": int(np.count_nonzero(in_soil)),
                "heldout_samples": self.heldout_truth.n,
                "n_starts": solver.n_starts,
                "max_iterations": solver.max_iterations,
                "noise": self.noise}

    def run_round(self, tracer, op_id: int) -> list[OpResult]:
        scope = (tracer.op(op_id) if tracer is not None
                 else contextlib.nullcontext())
        failures: list[str] = []
        report = prediction = None
        with scope:
            t0 = time.perf_counter()
            with _op_boundary(failures, self.method):
                calibrate = getattr(calibration, self.method)
                report = calibrate(self.cycle, options=self.options)
                t1 = time.perf_counter()
                prediction = calibration.predict_next_cycle(
                    report.theta_star, self.heldout)
            t2 = time.perf_counter()
        result = OpResult(wall_s=t2 - t0, failures=failures)
        if report is not None and prediction is not None:
            with _op_boundary(failures, "check"):
                result.figures = self._check(report, prediction, t1 - t0,
                                             failures)
        return [result]

    def _check(self, report, prediction, calib_s: float,
               failures: list[str]) -> dict:
        theta = report.theta_star
        if not ParameterBounds().contains(theta):
            failures.append(f"parameters outside bounds: {theta}")
        f_t, f_n = prediction.arrays()
        heldout_pct = _fr_pct(self.heldout_truth.f_t_obs,
                              self.heldout_truth.f_n_obs, f_t, f_n)
        train_pct = report.rmse_fr_pct
        if not train_pct < self.max_train_pct:
            failures.append(f"train F_R {train_pct:.4g}% not below "
                            f"{self.max_train_pct}%")
        if not heldout_pct < self.max_heldout_pct:
            failures.append(f"held-out F_R {heldout_pct:.4g}% not below "
                            f"{self.max_heldout_pct}%")
        figures = {"calib_s": calib_s,
                   "evals_per_calib": report.function_evaluations,
                   "fr_train_pct": train_pct,
                   "fr_heldout_pct": heldout_pct}
        errors = parameter_errors_pct(theta, self.truth,
                                      self.cycle.loader.b)
        figures.update({f"err_{k}_pct": v for k, v in errors.items()})
        figures["param_err_pct"] = max(errors.values())
        figures["gamma"] = theta.gamma
        return figures

    def summary(self, results: list[OpResult]) -> dict:
        done = [r.figures for r in results if r.figures]
        if not done:
            return {}
        out = {key: statistics.median(f[key] for f in done)
               for key in done[0]}
        out["calib_n"] = len(done)
        return out


def parameter_errors_pct(theta, truth, blade_b: float) -> dict:
    """Relative error (%) of each identifiable parameter; kc and kphi
    count only through K = kc/b + kphi."""
    pairs = {name: (getattr(theta, name), getattr(truth, name))
             for name in ("gamma", "cohesion_c", "adhesion_ca", "phi",
                          "delta", "n")}
    pairs["K"] = (theta.kc / blade_b + theta.kphi,
                  truth.kc / blade_b + truth.kphi)
    return {name: 100.0 * abs(fit - true) / abs(true)
            for name, (fit, true) in pairs.items()}


# ---------------------------------------------------------------------------
# predict-carved-600hz
# ---------------------------------------------------------------------------

def run_cli(args: list[str]) -> int:
    """Run one feecalib command in this process; returns its exit code."""
    sink = _io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main.main(args=args, prog_name="feecalib",
                          standalone_mode=False)
        except SystemExit as exc:
            return 0 if exc.code is None else (
                exc.code if isinstance(exc.code, int) else 1)
        except Exception:  # a traceback is a failed command
            traceback.print_exc(file=sink)
            return 1
    return 0


def read_prediction(path: Path) -> dict[str, np.ndarray]:
    """predicted.csv columns parsed independently of feecalib.io."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[j]) for r in body])
            for j, name in enumerate(header)}


def check_prediction(path: Path, truth) -> list[str]:
    """Failures of one pass's predicted.csv against its forward truth: the
    trajectory columns must match exactly, the forces within 1e-9 of each
    series' peak."""
    trajectory = truth.samples
    try:
        pred = read_prediction(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path}: unreadable ({exc})"]
    failures = []
    n = len(trajectory)
    if any(pred.get(c, np.empty(0)).size != n
           for c in ("t_s", "x_m", "z_m", "rho_rad", "ft_N", "fn_N")):
        return [f"{path}: expected {n} rows of every column"]
    for column, attr in (("t_s", "t"), ("x_m", "x"), ("z_m", "z"),
                         ("rho_rad", "rho")):
        expected = np.array([getattr(s, attr) for s in trajectory])
        if not np.array_equal(pred[column], expected):
            failures.append(f"{path}: column {column} differs from the "
                            "trajectory")
    for column, observed in (("ft_N", truth.f_t_obs),
                             ("fn_N", truth.f_n_obs)):
        peak = float(np.max(np.abs(observed)))
        worst = float(np.max(np.abs(pred[column] - observed)))
        if not worst <= 1e-9 * peak:
            failures.append(f"{path}: {column} off by {worst:.3g} N "
                            f"(limit {1e-9 * peak:.3g} N)")
    return failures


class CarvedChainWorkload:
    """A chain of passes through the CLI, each predicted on the face
    carved by all earlier passes and evaluated against its truth."""

    SHIFT_M = 0.15
    setup_repeats = 3    # one set-up is 4-6 s, mostly simulate_cycle

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict:
        base = synthetic.default_scenario()
        truth = synthetic.default_truth()
        self.workdir = workdir
        self.report = workdir / "report.json"
        # a report that carries only the parameters predict reads
        self.report.write_text(json.dumps(
            {"theta_star": io.soil_to_json(truth)}) + "\n", encoding="utf-8")
        surface = base.surface          # face before pass k
        file_surface = base.surface     # face before pass k-1
        self.truths = []
        for k in range(sizes.passes):
            if k > 0:
                file_surface = surface
                surface = geometry.surface_after_cycle(
                    surface, self.truths[-1].samples)
            points = tuple((x + self.SHIFT_M * k, z)
                           for x, z in base.control_points)
            scenario = synthetic.Scenario(
                surface=surface, loader=base.loader, control_points=points,
                sample_rate=sizes.sample_rate_hz, duration=base.duration)
            cycle = synthetic.simulate_cycle(scenario, truth)
            self.truths.append(cycle)
            io.write_cycle_csv(workdir / f"cycle_{k}.csv", cycle.samples,
                               cycle.f_t_obs, cycle.f_n_obs)
            io.write_scenario_json(
                workdir / f"scenario_{k}.json",
                synthetic.Scenario(surface=file_surface, loader=base.loader,
                                   control_points=points,
                                   sample_rate=sizes.sample_rate_hz,
                                   duration=base.duration),
                truth, 0.0, seed)
        vertices = (surface.vertices.shape[0]
                    if hasattr(surface, "vertices") else 2)
        return {"samples": self.truths[0].n, "passes": sizes.passes,
                "final_carved_vertices": int(vertices)}

    def _pass_args(self, k: int) -> tuple[list[str], list[str], Path]:
        out = self.workdir / f"pass_{k}"
        predict = ["predict", str(self.report), "--scenario",
                   str(self.workdir / f"scenario_{k}.json"),
                   "--out", str(out)]
        if k > 0:
            predict += ["--prior-cycle",
                        str(self.workdir / f"cycle_{k - 1}.csv")]
        evaluate = ["evaluate", str(out / "predicted.csv"),
                    str(self.workdir / f"cycle_{k}.csv"), "--out", str(out)]
        return predict, evaluate, out

    def run_round(self, tracer, op_id: int) -> list[OpResult]:
        results = []
        for k in range(len(self.truths)):
            predict, evaluate, out = self._pass_args(k)
            scope = (tracer.op(op_id + k) if tracer is not None
                     else contextlib.nullcontext())
            with scope:
                t0 = time.perf_counter()
                code_predict = run_cli(predict)
                code_evaluate = run_cli(evaluate)
                t1 = time.perf_counter()
            failures = [f"pass {k}: {cmd} exited {code}"
                        for cmd, code in (("predict", code_predict),
                                          ("evaluate", code_evaluate))
                        if code != 0]
            with _op_boundary(failures, f"pass {k}: check"):
                failures += check_prediction(out / "predicted.csv",
                                             self.truths[k])
            results.append(OpResult(wall_s=t1 - t0, failures=failures,
                                    figures={"pass": k}))
        return results

    def summary(self, results: list[OpResult]) -> dict:
        times = sorted(r.wall_s * 1e3 for r in results)
        n = len(times)
        out = {"pass_ms": statistics.median(times), "pass_n": n}
        # highest percentile with at least ten samples beyond it
        if n > 10:
            out["pass_ms_tail"] = times[n - 11]
            out["pass_ms_tail_percentile"] = 100.0 * (n - 10) / n
        return out


WORKLOADS = {
    "calib-multi-clean": lambda: CalibrationWorkload(
        "calibrate_multi_stage", noise=0.0, n_starts=8,
        max_train_pct=1.0, max_heldout_pct=3.0),
    "calib-single-noisy": lambda: CalibrationWorkload(
        "calibrate_single_stage", noise=0.05, n_starts=1,
        max_train_pct=15.0, max_heldout_pct=15.0),
    "predict-carved-600hz": CarvedChainWorkload,
}
