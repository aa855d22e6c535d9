"""Only the single-stage fit loads scipy.optimize, and before its clock
starts; the staged fit runs on numpy alone. Each check runs in a fresh
interpreter, since this test session has loaded scipy.optimize already;
none of them times anything."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from feecalib import default_truth
from feecalib import io as fio
from feecalib.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs the CLI commands in one interpreter and prints, as its last line,
# whether scipy.optimize was loaded after each step
COMMANDS = """
import json, sys
states = {}
import feecalib, feecalib.cli
states["import"] = "scipy.optimize" in sys.modules
for name, args in json.loads(sys.argv[1]):
    feecalib.cli.main(args, standalone_mode=False)
    states[name] = "scipy.optimize" in sys.modules
print(json.dumps(states))
"""

# one fit, whose clock reads record whether scipy.optimize was loaded;
# prints them, and whether it was loaded after the fit, as its last line
CLOCKED_FIT = """
import json, sys, time, types
import feecalib
from feecalib import calibration

truth = feecalib.default_truth()
dataset = feecalib.simulate_cycle(feecalib.default_scenario(), truth)
cycle = calibration.prepare_cycle(dataset)
options = feecalib.CalibrationOptions(
    solver=feecalib.SolverOptions(n_starts=1, max_iterations=3))
fits = {
    "calibrate_multi_stage": lambda: calibration.calibrate_multi_stage(
        dataset, options),
    "calibrate_single_stage": lambda: calibration.calibrate_single_stage(
        dataset, options),
    "calibrate_stage1": lambda: calibration.calibrate_stage1(cycle),
    "calibrate_stage2": lambda: calibration.calibrate_stage2(
        cycle, truth.adhesion_ca, truth.delta),
    "calibrate_stage3": lambda: calibration.calibrate_stage3(
        cycle, truth),
}
loaded = "scipy.optimize" in sys.modules
seen = []

def perf_counter():
    seen.append("scipy.optimize" in sys.modules)
    return time.perf_counter()

calibration.time = types.SimpleNamespace(perf_counter=perf_counter)
fits[sys.argv[1]]()
print(json.dumps({"loaded before": loaded, "clock reads": seen,
                  "loaded after": "scipy.optimize" in sys.modules}))
"""

# staged fits of the clean default cycle and of one at 5% noise, seed 5
# (whose fit solves bounded least squares on the box's faces), in an
# interpreter where importing scipy.optimize fails; prints each fit's F_R %
# as its last line
WITHOUT_SCIPY_OPTIMIZE = """
import importlib.abc, json, logging, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.optimize" or name.startswith("scipy.optimize."):
            raise ImportError(f"{name} is not available")
        return None

sys.meta_path.insert(0, Refuse())
try:
    import scipy.optimize  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("scipy.optimize imported")
import feecalib
logging.basicConfig(level=logging.DEBUG)
dataset = feecalib.simulate_cycle(feecalib.default_scenario(),
                                  feecalib.default_truth())
fits = {"clean": feecalib.calibrate_multi_stage(dataset),
        "5% noise": feecalib.calibrate_multi_stage(
            feecalib.add_noise(dataset, 0.05, 5))}
print(json.dumps({name: fit.rmse_fr_pct for name, fit in fits.items()}))
"""


def run_python(script, *args, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1]), res.stderr


def test_only_the_single_stage_calibrate_loads_scipy_optimize(tmp_path):
    """import feecalib and feecalib.cli, simulate, predict (with and
    without a prior cycle), evaluate and the staged calibrate leave
    scipy.optimize unloaded; the single-stage calibrate loads it, and
    logs the load once at DEBUG."""
    runner = CliRunner()
    sim, pred = tmp_path / "sim", tmp_path / "pred"
    res = runner.invoke(main, ["simulate", "--out", str(sim)])
    assert res.exit_code == 0, res.output
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"theta_star":
                                  fio.soil_to_json(default_truth())}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"calibration": {"solver": {
        "n_starts": 1, "max_iterations": 3}}}))
    scenario, cycle = str(sim / "scenario.json"), str(sim / "cycle.csv")
    single = ["calibrate", cycle, "--method", "single", "--config",
              str(config), "--out", str(tmp_path / "single")]
    steps = [
        ("simulate", ["simulate", "--out", str(tmp_path / "sim2")]),
        ("predict", ["predict", str(report), "--scenario", scenario,
                     "--out", str(pred)]),
        ("predict --prior-cycle", ["predict", str(report), "--scenario",
                                   scenario, "--prior-cycle", cycle,
                                   "--out", str(pred)]),
        ("evaluate", ["evaluate", str(pred / "predicted.csv"), cycle]),
        ("calibrate", ["calibrate", cycle, "--out", str(tmp_path / "fit")]),
        ("calibrate --method multi", ["calibrate", cycle, "--method",
                                      "multi", "--out",
                                      str(tmp_path / "fit")]),
        ("calibrate --method single", single),
        ("calibrate --method single again", single),
    ]
    states, stderr = run_python(COMMANDS, json.dumps(steps),
                                env={"FEE_CALIB_LOG": "DEBUG"})
    assert states == {"import": False, "simulate": False, "predict": False,
                      "predict --prior-cycle": False, "evaluate": False,
                      "calibrate": False, "calibrate --method multi": False,
                      "calibrate --method single": True,
                      "calibrate --method single again": True}
    loads = [line for line in stderr.splitlines()
             if line.startswith("DEBUG feecalib.optimizer: loaded")]
    assert len(loads) == 1, stderr
    assert re.fullmatch(r"DEBUG feecalib\.optimizer: loaded scipy\.optimize "
                        r"in \d+\.\d ms", loads[0])


def test_single_stage_clock_starts_after_scipy_optimize_is_loaded():
    """In a fresh interpreter, every clock read of the single-stage fit's
    wall time finds scipy.optimize loaded, so its wall time does not
    include the import."""
    result, _ = run_python(CLOCKED_FIT, "calibrate_single_stage")
    assert result["loaded before"] is False
    assert result["clock reads"]
    assert all(result["clock reads"]), result["clock reads"]


@pytest.mark.parametrize("fit", ["calibrate_multi_stage", "calibrate_stage1",
                                 "calibrate_stage2", "calibrate_stage3"])
def test_staged_fits_leave_scipy_optimize_unloaded(fit):
    """In a fresh interpreter, the staged fit and each of its stages run
    without loading scipy.optimize."""
    result, _ = run_python(CLOCKED_FIT, fit)
    assert result["clock reads"]
    assert not any(result["clock reads"]), result["clock reads"]
    assert result["loaded before"] is False
    assert result["loaded after"] is False


def test_staged_fit_runs_where_scipy_optimize_cannot_be_imported():
    """With every import of scipy.optimize failing, the staged fit still
    fits the clean default cycle and a noisy one whose fit solves bounded
    least squares on the box's faces, as its DEBUG lines count."""
    result, stderr = run_python(WITHOUT_SCIPY_OPTIMIZE)
    assert result["clean"] < 1e-6
    assert result["5% noise"] < 15.0
    bounded = [int(n) for n in re.findall(r"least squares \d+ interior, "
                                          r"(\d+) bounded", stderr)]
    assert len(bounded) == 6, stderr
    assert sum(bounded[3:]) > 0, stderr
