"""On-disk formats: cycle CSV, scenario/report/metrics JSON, run config.

CSV files are UTF-8 with LF line endings and shortest-round-trip float
formatting, so a written file reloads bit-exactly. JSON documents carry a
schema_version field and unit-suffixed keys; configs reject unknown keys
before any computation starts.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .calibration import CalibrationOptions, CalibrationReport
from .errors import ConfigError
from .geometry import (InvalidTrajectory, Polyline, SlopedLine, Surface,
                       make_trajectory)
from .optimizer import SolverOptions
from .soil import LoaderParameters, SoilParameters
from .synthetic import (Scenario, default_loader, default_scenario,
                        default_truth, find_preset)

SCHEMA_VERSION = 3

CYCLE_COLUMNS = ("t_s", "x_m", "z_m", "rho_rad", "ft_obs_N", "fn_obs_N")
PREDICTION_COLUMNS = ("t_s", "x_m", "z_m", "rho_rad", "d_m", "beta_rad",
                      "ft_N", "fn_N", "fr_N")

_SOIL_KEYS = {
    "gamma": "gamma_kg_m3",
    "cohesion_c": "cohesion_c_N_m2",
    "adhesion_ca": "adhesion_ca_N_m2",
    "phi": "phi_rad",
    "delta": "delta_rad",
    "kc": "kc_N_m_n1",
    "kphi": "kphi_N_m_n2",
    "n": "n",
}
_ANGLE_FIELDS = {"phi", "delta"}


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _write_table(path: str | Path, header: Sequence[str], columns) -> None:
    """One row per sample; every value in shortest round-trip form."""
    values = [np.asarray(column, dtype=float).tolist() for column in columns]
    if len(set(map(len, values))) > 1:
        raise ValueError("every column needs one value per row")
    text = [map(repr, column) for column in values]
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*text))


def _read_table(path: str | Path,
                columns: Sequence[str]) -> dict[str, np.ndarray]:
    """The named columns of a numeric CSV file; ``row_lines`` gives the
    line each row starts on.

    Each row must hold one number per header field; a bad row raises
    ConfigError naming its line. Trailing blank lines are ignored.

    A file of plain rows (no quotes, no blank line, no line over the csv
    module's field limit) is parsed by one ``np.loadtxt`` pass streamed
    from the file. Every other file, and every file that pass refuses,
    is read by ``_read_rows``, which accepts and rejects the same files
    with the same values and messages; only it names a bad line.
    """
    path = Path(path)
    table = _load_plain(path, columns)
    return _read_rows(path, columns) if table is None else table


def _load_plain(path: Path, columns: Sequence[str]):
    """``_read_table`` of a file of plain rows that holds every named
    column; None for any other file."""
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            first = handle.readline()
            if '"' in first:            # a quoted field may span lines
                return None
            header = next(csv.reader([first]))
            if not set(columns) <= set(header):
                return None
            table = np.loadtxt(_plain_lines(handle), delimiter=",",
                               comments=None, quotechar=None, ndmin=2)
    except (OSError, ValueError, csv.Error):
        return None
    if table.shape[1] != len(header):
        return None
    return {c: table[:, header.index(c)] for c in columns}


def _plain_lines(handle):
    """The lines of an open CSV file, each one row of the table.

    Raises ValueError, which leaves the file to the csv path, at a blank
    line (loadtxt would skip it; the csv path rejects it, or ignores it at
    the end), at a line longer than the csv module's field limit (the csv
    path rejects it), and at the end of a file with no line (loadtxt would
    warn).
    """
    limit = csv.field_size_limit()
    line = None
    for line in handle:
        if len(line) > limit or not line.rstrip("\r\n"):
            raise ValueError("not a plain row")
        yield line
    if line is None:
        raise ValueError("no rows")


def _csv_rows(path: Path) -> tuple[list[list[str]], list[int]]:
    """Every row of a CSV file through the csv module, and the line each
    row starts on; a quoted field may span lines."""
    rows, starts = [], [1]      # starts[i]: the first line of rows[i]
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                rows.append(row)
                starts.append(reader.line_num + 1)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    return rows, starts


def row_lines(path: str | Path, indices) -> list[int]:
    """The line on which each data row of a CSV file that ``_read_table``
    read starts: row i is on line i + 2 unless a quoted field before it
    spans lines."""
    starts = _csv_rows(Path(path))[1]
    return [starts[i + 1] for i in indices]


def _read_rows(path: Path, columns: Sequence[str]) -> dict[str, np.ndarray]:
    """``_read_table`` through the csv module, one row at a time. A bad
    row is named by the line it starts on."""
    rows, starts = _csv_rows(path)
    while rows and not rows[-1]:
        rows.pop()
    header = rows[0] if rows else []
    for column in columns:
        if column not in header:
            raise ConfigError(f"{path}: missing column '{column}'")
    body = rows[1:]
    try:
        table = np.array(body, dtype=float).reshape(len(body), len(header))
    except ValueError:
        for line, row in zip(starts[1:], body):  # the first bad row
            try:
                np.array(row, dtype=float).reshape(len(header))
            except ValueError as exc:
                raise ConfigError(f"{path}:{line}: bad value ({exc})")
        raise
    return {c: table[:, header.index(c)] for c in columns}


def write_cycle_csv(path: str | Path, samples: np.recarray,
                    f_t_obs, f_n_obs) -> None:
    _write_table(path, CYCLE_COLUMNS, (samples.t, samples.x, samples.z,
                                       samples.rho, f_t_obs, f_n_obs))


def read_cycle_csv(path: str | Path):
    """Returns (trajectory, f_t_obs, f_n_obs); the column set is checked
    strictly and every value must be finite, with times nondecreasing."""
    columns = _read_table(path, CYCLE_COLUMNS)
    t, x, z, rho, f_t, f_n = (columns[c] for c in CYCLE_COLUMNS)
    try:
        trajectory = make_trajectory(t, x, z, rho)
    except InvalidTrajectory as exc:
        line, = row_lines(path, [exc.index])
        raise ConfigError(f"{path}:{line}: bad value ({exc})")
    bad = np.flatnonzero(~(np.isfinite(f_t) & np.isfinite(f_n)))
    if bad.size:
        line, = row_lines(path, bad[:1])
        raise ConfigError(f"{path}:{line}: bad value (observed forces "
                          "must be finite)")
    return trajectory, f_t, f_n


def write_prediction_csv(path: str | Path, samples: np.recarray,
                         depth, beta, f_t, f_n) -> None:
    # math.hypot, not np.hypot: the two differ in the last bit
    f_r = list(map(math.hypot, np.asarray(f_t, dtype=float).tolist(),
                   np.asarray(f_n, dtype=float).tolist()))
    _write_table(path, PREDICTION_COLUMNS,
                 (samples.t, samples.x, samples.z, samples.rho, depth, beta,
                  f_t, f_n, f_r))


def read_prediction_csv(path: str | Path) -> dict[str, np.ndarray]:
    return _read_table(path, PREDICTION_COLUMNS)


# ---------------------------------------------------------------------------
# Strict config / JSON helpers
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: Sequence[str], context: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {context}")


def _need(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {context}")
    return obj[key]


def _check_schema_version(obj: dict, context: str) -> None:
    """A document without ``schema_version`` reads as the current one; a
    non-integer version, or one newer than this reader, is refused."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if (isinstance(version, bool) or not isinstance(version, int)
            or version > SCHEMA_VERSION):
        raise ConfigError(f"{context}: unsupported schema_version "
                          f"{version!r} (this reader knows versions up to "
                          f"{SCHEMA_VERSION})")


def _as_float(value, context: str) -> float:
    """A finite JSON number; json.load also parses NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:    # NaN, Infinity, huge ints
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return float(value)


def _as_int(value, context: str) -> int:
    """A nonnegative integer (counts and seeds); a float is accepted only
    when it is integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{context} must be a nonnegative integer, "
                          f"got {value!r}")
    return value


def _as_point(value, context: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{context} must be an [x, z] pair")
    return (_as_float(value[0], context), _as_float(value[1], context))


def _angle_from(obj: dict, base: str, context: str,
                default: float | None = None) -> float:
    rad_key, deg_key = f"{base}_rad", f"{base}_deg"
    if rad_key in obj and deg_key in obj:
        raise ConfigError(f"give only one of '{rad_key}'/'{deg_key}' "
                          f"in {context}")
    if rad_key in obj:
        return _as_float(obj[rad_key], f"{context}.{rad_key}")
    if deg_key in obj:
        return math.radians(_as_float(obj[deg_key], f"{context}.{deg_key}"))
    if default is None:
        raise ConfigError(f"missing '{rad_key}' (or '{deg_key}') "
                          f"in {context}")
    return default


# ---------------------------------------------------------------------------
# Soil parameters
# ---------------------------------------------------------------------------

def soil_to_json(soil: SoilParameters) -> dict:
    return {json_key: getattr(soil, attr)
            for attr, json_key in _SOIL_KEYS.items()}


def soil_from_json(obj: dict, context: str = "soil") -> SoilParameters:
    allowed = list(_SOIL_KEYS.values()) + ["phi_deg", "delta_deg"]
    _check_keys(obj, allowed, context)
    values: dict[str, float] = {}
    for attr, json_key in _SOIL_KEYS.items():
        if attr in _ANGLE_FIELDS:
            values[attr] = _angle_from(obj, attr, context)
        else:
            values[attr] = _as_float(_need(obj, json_key, context),
                                     f"{context}.{json_key}")
    try:
        return SoilParameters(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

def surface_to_json(surface: Surface) -> dict:
    if isinstance(surface, SlopedLine):
        return {"type": "sloped_line",
                "origin_m": list(surface.origin),
                "alpha_rad": surface.alpha}
    if isinstance(surface, Polyline):
        return {"type": "polyline",
                "vertices_m": surface.vertices.tolist(),
                "nominal_alpha_rad": surface.nominal_alpha}
    raise TypeError(f"unsupported surface {type(surface)!r}")


def surface_from_json(obj: dict, context: str = "surface") -> Surface:
    kind = _need(obj, "type", context)
    if kind == "sloped_line":
        _check_keys(obj, ("type", "origin_m", "alpha_rad", "alpha_deg"),
                    context)
        origin = _as_point(obj.get("origin_m", [0.0, 0.0]),
                           f"{context}.origin_m")
        alpha = _angle_from(obj, "alpha", context, default=0.0)
        try:
            return SlopedLine(origin=origin, alpha=alpha)
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}")
    if kind == "polyline":
        _check_keys(obj, ("type", "vertices_m", "nominal_alpha_rad",
                          "nominal_alpha_deg"), context)
        vertices = _need(obj, "vertices_m", context)
        alpha = _angle_from(obj, "nominal_alpha", context, default=0.0)
        try:
            return Polyline(np.asarray(vertices, dtype=float),
                            nominal_alpha=alpha)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{context}: {exc}")
    raise ConfigError(f"{context}.type must be 'sloped_line' or 'polyline', "
                      f"got {kind!r}")


def loader_to_json(loader: LoaderParameters) -> dict:
    return {"omega_m": loader.omega, "b_m": loader.b}


def loader_from_json(obj: dict, context: str = "loader") -> LoaderParameters:
    _check_keys(obj, ("omega_m", "b_m", "wb_kg"), context)
    if "wb_kg" in obj:
        # the bucket weight of older files: checked as a number, then
        # ignored, since no force term reads it
        _as_float(obj["wb_kg"], f"{context}.wb_kg")
    defaults = default_loader()
    try:
        return LoaderParameters(
            omega=_as_float(obj.get("omega_m", defaults.omega),
                            f"{context}.omega_m"),
            b=_as_float(obj.get("b_m", defaults.b), f"{context}.b_m"))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def scenario_to_json(scenario: Scenario) -> dict:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "surface": surface_to_json(scenario.surface),
        "loader": loader_to_json(scenario.loader),
        "sample_rate_hz": scenario.sample_rate,
        "duration_s": scenario.duration,
    }
    if scenario.control_points is not None:
        p0, p1, p2 = scenario.control_points
        doc["path"] = {"type": "quadratic_bezier", "p0_m": list(p0),
                       "p1_m": list(p1), "p2_m": list(p2)}
    else:
        s = scenario.samples
        doc["path"] = {"type": "explicit",
                       "samples": np.column_stack([s.t, s.x, s.z,
                                                   s.rho]).tolist()}
    return doc


def scenario_from_json(obj: dict, context: str = "scenario") -> Scenario:
    _check_keys(obj, ("schema_version", "surface", "loader", "path",
                      "sample_rate_hz", "duration_s", "soil", "noise"),
                context)
    _check_schema_version(obj, context)
    surface = surface_from_json(_need(obj, "surface", context),
                                f"{context}.surface")
    loader = loader_from_json(obj.get("loader", {}), f"{context}.loader")
    path = _need(obj, "path", context)
    kind = _need(path, "type", f"{context}.path")
    rate = _as_float(obj.get("sample_rate_hz", 60.0),
                     f"{context}.sample_rate_hz")
    duration = _as_float(obj.get("duration_s", 4.67),
                         f"{context}.duration_s")
    try:
        if kind == "quadratic_bezier":
            _check_keys(path, ("type", "p0_m", "p1_m", "p2_m"),
                        f"{context}.path")
            points = tuple(_as_point(_need(path, k, f"{context}.path"),
                                     f"{context}.path.{k}")
                           for k in ("p0_m", "p1_m", "p2_m"))
            return Scenario(surface=surface, loader=loader,
                            control_points=points, sample_rate=rate,
                            duration=duration)
        if kind == "explicit":
            _check_keys(path, ("type", "samples"), f"{context}.path")
            rows = _need(path, "samples", f"{context}.path")
            table = np.array(rows, dtype=float)
            if table.ndim != 2 or table.shape[1] != 4:
                raise ValueError("samples must be one or more [t_s, x_m, "
                                 "z_m, rho_rad] rows")
            samples = make_trajectory(*table.T)
            return Scenario(surface=surface, loader=loader, samples=samples,
                            sample_rate=rate, duration=duration)
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"{context}.path: {exc}")
    raise ConfigError(f"{context}.path.type must be 'quadratic_bezier' or "
                      f"'explicit', got {kind!r}")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated input for the simulate/calibrate commands."""

    scenario: Scenario
    truth: SoilParameters
    relative_sigma: float
    seed: int
    calibration: CalibrationOptions


def _solver_from_json(obj: dict, context: str) -> SolverOptions:
    _check_keys(obj, ("max_iterations", "gradient_tolerance", "n_starts",
                      "seed"), context)
    defaults = SolverOptions()
    try:
        return SolverOptions(
            max_iterations=_as_int(obj.get("max_iterations",
                                           defaults.max_iterations),
                                   f"{context}.max_iterations"),
            gradient_tolerance=_as_float(
                obj.get("gradient_tolerance", defaults.gradient_tolerance),
                f"{context}.gradient_tolerance"),
            n_starts=_as_int(obj.get("n_starts", defaults.n_starts),
                             f"{context}.n_starts"),
            seed=_as_int(obj.get("seed", defaults.seed), f"{context}.seed"))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def calibration_options_from_json(obj: dict,
                                  context: str = "calibration"
                                  ) -> CalibrationOptions:
    _check_keys(obj, ("lambda_weight", "solver"), context)
    defaults = CalibrationOptions()
    solver = _solver_from_json(obj.get("solver", {}), f"{context}.solver")
    try:
        return CalibrationOptions(
            lambda_weight=_as_float(obj.get("lambda_weight",
                                            defaults.lambda_weight),
                                    f"{context}.lambda_weight"),
            solver=solver)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def run_config_from_json(obj: dict, preset: str | None = None,
                         noise: float | None = None,
                         seed: int | None = None,
                         source: str = "config") -> RunConfig:
    """Build a validated run config; CLI flags override file values.
    ``source`` names the document in a schema_version error."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(obj, ("schema_version", "scenario", "soil", "noise",
                      "calibration"), "config")
    _check_schema_version(obj, source)
    if "scenario" in obj:
        scenario = scenario_from_json(obj["scenario"], "config.scenario")
    else:
        scenario = default_scenario()

    soil_obj = obj.get("soil", {})
    _check_keys(soil_obj, ("preset", "truth"), "config.soil")
    if "preset" in soil_obj and "truth" in soil_obj:
        raise ConfigError("config.soil: give either 'preset' or 'truth'")
    if preset is not None:
        truth = _truth_from_preset(preset)
    elif "truth" in soil_obj:
        truth = soil_from_json(soil_obj["truth"], "config.soil.truth")
    elif "preset" in soil_obj:
        truth = _truth_from_preset(soil_obj["preset"])
    else:
        truth = default_truth()

    noise_obj = obj.get("noise", {})
    _check_keys(noise_obj, ("relative_sigma", "seed"), "config.noise")
    relative_sigma = _as_float(noise_obj.get("relative_sigma", 0.0),
                               "config.noise.relative_sigma")
    if noise is not None:
        relative_sigma = noise
    if relative_sigma < 0.0:
        raise ConfigError("config.noise.relative_sigma must be nonnegative")
    seed_value = _as_int(noise_obj.get("seed", 0), "config.noise.seed")
    if seed is not None:
        seed_value = seed

    calibration = calibration_options_from_json(obj.get("calibration", {}))
    return RunConfig(scenario=scenario, truth=truth,
                     relative_sigma=relative_sigma, seed=seed_value,
                     calibration=calibration)


def _truth_from_preset(name: str) -> SoilParameters:
    try:
        preset = find_preset(name)
        if preset.kc is None:
            preset = preset.merged(find_preset("Heavy Clay WES 40"))
        elif preset.gamma is None:
            preset = find_preset("Clay of low plasticity, lean clay").merged(
                preset)
        return preset.soil_parameters()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"preset: {exc}")


def load_config(path: str | Path | None, preset: str | None = None,
                noise: float | None = None,
                seed: int | None = None) -> RunConfig:
    obj = {} if path is None else _load_json(path)
    return run_config_from_json(obj, preset=preset, noise=noise, seed=seed,
                                source=str(path))


# ---------------------------------------------------------------------------
# Scenario sidecar and report
# ---------------------------------------------------------------------------

def write_scenario_json(path: str | Path, scenario: Scenario,
                        truth: SoilParameters, relative_sigma: float,
                        seed: int) -> None:
    doc = scenario_to_json(scenario)
    doc["soil"] = soil_to_json(truth)
    doc["noise"] = {"relative_sigma": relative_sigma, "seed": seed}
    _dump_json(path, doc)


def read_scenario_json(path: str | Path) -> Scenario:
    obj = _load_json(path)
    return scenario_from_json(obj, str(path))


def _dump_json(path: str | Path, doc: dict, allow_nan: bool = True) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        json.dump(doc, handle, indent=2, allow_nan=allow_nan)
        handle.write("\n")


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def report_to_json(report: CalibrationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "theta_star": soil_to_json(report.theta_star),
        "stages": [{
            "name": s.name,
            "parameters": s.parameters,
            "objective_value": s.objective_value,
            "iterations": s.iterations,
            "function_evaluations": s.function_evaluations,
            "starts_tried": s.starts_tried,
            "converged": s.converged,
            "gradient_norm": s.gradient_norm,
            "wall_time_s": s.wall_time_s,
            "dropped_samples": s.dropped_samples,
            "rmse_N": None if math.isnan(s.rmse_n) else s.rmse_n,
            "rmse_pct": None if math.isnan(s.rmse_pct) else s.rmse_pct,
            "rmse_series": s.rmse_series,
            "at_bound": s.at_bound,
        } for s in report.stages],
        "not_identified": report.not_identified,
        "rmse": {
            "ft_N": report.rmse_ft_n, "ft_pct": report.rmse_ft_pct,
            "fn_N": report.rmse_fn_n, "fn_pct": report.rmse_fn_pct,
            "fr_N": report.rmse_fr_n, "fr_pct": report.rmse_fr_pct,
        },
        "function_evaluations": report.function_evaluations,
        "wall_time_s": report.wall_time_s,
        "n_samples": report.n_samples,
        "dropped_samples": report.dropped_samples,
        "options": {
            "lambda_weight": report.lambda_weight,
            "seed": report.seed,
        },
    }


def write_report_json(path: str | Path, report: CalibrationReport) -> None:
    _dump_json(path, report_to_json(report))


def read_report_theta(path: str | Path) -> SoilParameters:
    obj = _load_json(path)
    _check_schema_version(obj, str(path))
    if "theta_star" not in obj:
        raise ConfigError(f"{path}: missing 'theta_star'")
    return soil_from_json(obj["theta_star"], f"{path}:theta_star")


def write_metrics_json(path: str | Path, n_samples: int,
                       ft: tuple[float, float], fn: tuple[float, float],
                       fr: tuple[float, float]) -> None:
    """Strict JSON: a non-finite figure (a percent against an observed
    peak of 0) is written as null."""
    def pair(values: tuple[float, float]) -> dict:
        absolute, percent = (v if math.isfinite(v) else None for v in values)
        return {"rmse_N": absolute, "rmse_pct": percent}

    _dump_json(path, {"schema_version": SCHEMA_VERSION,
                      "n_samples": n_samples,
                      "ft": pair(ft), "fn": pair(fn), "fr": pair(fr)},
               allow_nan=False)
