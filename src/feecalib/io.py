"""On-disk formats: cycle CSV, scenario/report/metrics JSON, run config.

CSV files are UTF-8 with LF line endings and shortest-round-trip float
formatting, so a written file reloads bit-exactly. JSON documents carry a
schema_version field and unit-suffixed keys; configs reject unknown keys
before any computation starts.

Every file is written by ``_rewrite``: an existing file is overwritten in
place and then cut to the length just written, so it ends byte-equal to a
fresh write without the truncating open, which can cost tens of ms on a
file system that discards freed blocks. A symlink's target is written, a
hard link stays shared, a new file gets mode 0o666 & ~umask, and a path
that cannot be written raises ConfigError("cannot write <path>: ...").
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence, TextIO

import numpy as np

from .calibration import CalibrationOptions, CalibrationReport
from .errors import ConfigError
from .geometry import (InvalidTrajectory, Polyline, SlopedLine, Surface,
                       make_trajectory)
from .soil import LoaderParameters, SoilParameters
from .synthetic import (Scenario, default_loader, default_scenario,
                        default_truth, preset_truth)

SCHEMA_VERSION = 4

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
# Writing
# ---------------------------------------------------------------------------

@contextmanager
def _rewrite(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle, with no newline translation, that writes
    ``path`` from its start; the file is cut at the end of what was
    written, also when the writer raises, so it never keeps a byte of
    an older, longer file."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            try:
                yield handle
            finally:
                handle.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _write_table(path: str | Path, header: Sequence[str], columns) -> None:
    """One row per sample; every value in shortest round-trip form."""
    values = [np.asarray(column, dtype=float).tolist() for column in columns]
    if len(set(map(len, values))) > 1:
        raise ValueError("every column needs one value per row")
    text = [map(repr, column) for column in values]
    with _rewrite(path) as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*text))


def _read_table(path: str | Path,
                columns: Sequence[str]) -> dict[str, np.ndarray]:
    """The named columns of a numeric CSV file.

    The file is a header line, then one row per line, with fields split
    at "," and no quoting. Lines end at LF, CR LF or CR, as the file
    iterator splits them; trailing empty lines are ignored, so data row i
    is on line i + 2. The header must name each column once, and each
    row hold one number per header field; a bad row raises ConfigError
    naming its line.

    The body is parsed by one ``np.loadtxt`` pass. Only a body it
    refuses, or one of the wrong shape, goes to ``_convert_rows``.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    while lines and not lines[-1].rstrip("\r\n"):
        lines.pop()
    header = lines[0].rstrip("\r\n").split(",") if lines else []
    for column in columns:
        if column not in header:
            raise ConfigError(f"{path}: missing column '{column}'")
    seen = set()
    for name in header:
        if name in seen:
            raise ConfigError(f"{path}: column '{name}' appears more than "
                              "once")
        seen.add(name)
    body = lines[1:]
    shape = (len(body), len(header))
    try:    # an empty body skips loadtxt, which would warn
        table = (np.loadtxt(body, delimiter=",", comments=None,
                            quotechar=None, ndmin=2)
                 if body else np.empty(shape))
    except ValueError:
        table = None
    if table is None or table.shape != shape:
        table = _convert_rows(path, body, shape)
    return {c: table[:, header.index(c)] for c in columns}


def _convert_rows(path: Path, body: Sequence[str],
                  shape: tuple[int, int]) -> np.ndarray:
    """``_read_table``'s body one row at a time, raising ConfigError at the
    first bad line; unlike loadtxt, it reads "1_0" and non-ASCII digits,
    and it refuses an empty line."""
    table = np.empty(shape)
    for i, line in enumerate(body):
        text = line.rstrip("\r\n")
        try:
            table[i] = np.array(text.split(",") if text else [],
                                dtype=float).reshape(shape[1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{i + 2}: bad value ({exc})")
    return table


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
        raise ConfigError(f"{path}:{exc.index + 2}: bad value ({exc})")
    bad = np.flatnonzero(~(np.isfinite(f_t) & np.isfinite(f_n)))
    if bad.size:
        raise ConfigError(f"{path}:{bad[0] + 2}: bad value (observed "
                          "forces must be finite)")
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

def _check_object(obj, context: str) -> None:
    """Every section of a JSON document is read through this check."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")


def _check_keys(obj: dict, allowed: Sequence[str], context: str) -> None:
    _check_object(obj, context)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {context}")


def _need(obj: dict, key: str, context: str):
    _check_object(obj, context)
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {context}")
    return obj[key]


def _check_schema_version(obj: dict, context: str) -> None:
    """A document without ``schema_version`` reads as the current one; a
    non-integer version, or one newer than this reader, is refused."""
    _check_object(obj, context)
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


def _build(make, context: str, *args, **kwargs):
    """``make(*args, **kwargs)``, the object of one section. The
    ValueError of its checks, and the TypeError, IndexError or
    OverflowError of a malformed array, are raised as ConfigError naming
    ``context``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, IndexError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}")


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
    return _build(SoilParameters, context, **values)


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
        return _build(SlopedLine, context, origin=origin, alpha=alpha)
    if kind == "polyline":
        _check_keys(obj, ("type", "vertices_m", "nominal_alpha_rad",
                          "nominal_alpha_deg"), context)
        vertices = _need(obj, "vertices_m", context)
        alpha = _angle_from(obj, "nominal_alpha", context, default=0.0)
        return _build(Polyline, context, vertices, nominal_alpha=alpha)
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
    return _build(
        LoaderParameters, context,
        omega=_as_float(obj.get("omega_m", defaults.omega),
                        f"{context}.omega_m"),
        b=_as_float(obj.get("b_m", defaults.b), f"{context}.b_m"))


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
    # the truth and noise a simulated cycle was made with: checked, not kept
    if "soil" in obj:
        soil_from_json(obj["soil"], f"{context}.soil")
    _noise_from_json(obj.get("noise", {}), f"{context}.noise")
    surface = surface_from_json(_need(obj, "surface", context),
                                f"{context}.surface")
    loader = loader_from_json(obj.get("loader", {}), f"{context}.loader")
    rate = _as_float(obj.get("sample_rate_hz", Scenario.sample_rate),
                     f"{context}.sample_rate_hz")
    duration = _as_float(obj.get("duration_s", Scenario.duration),
                         f"{context}.duration_s")
    path = _path_from_json(_need(obj, "path", context), f"{context}.path")
    return _build(Scenario, context, surface=surface, loader=loader,
                  sample_rate=rate, duration=duration, **path)


def _path_from_json(obj: dict, context: str) -> dict:
    """A scenario's path: its Bezier ``control_points`` or its explicit
    ``samples``, as the one Scenario argument it gives."""
    kind = _need(obj, "type", context)
    if kind == "quadratic_bezier":
        _check_keys(obj, ("type", "p0_m", "p1_m", "p2_m"), context)
        return {"control_points": tuple(
            _as_point(_need(obj, k, context), f"{context}.{k}")
            for k in ("p0_m", "p1_m", "p2_m"))}
    if kind == "explicit":
        _check_keys(obj, ("type", "samples"), context)
        rows = _need(obj, "samples", context)
        return {"samples": _build(_explicit_samples, context, rows)}
    raise ConfigError(f"{context}.type must be 'quadratic_bezier' or "
                      f"'explicit', got {kind!r}")


def _explicit_samples(rows) -> np.recarray:
    table = np.array(rows, dtype=float)
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError("samples must be one or more [t_s, x_m, z_m, "
                         "rho_rad] rows")
    return make_trajectory(*table.T)


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


def _relative_sigma(value, context: str) -> float:
    sigma = _as_float(value, context)
    if sigma < 0.0:
        raise ConfigError(f"{context} must be nonnegative")
    return sigma


def _noise_from_json(obj: dict, context: str) -> tuple[float, int]:
    _check_keys(obj, ("relative_sigma", "seed"), context)
    return (_relative_sigma(obj.get("relative_sigma", 0.0),
                            f"{context}.relative_sigma"),
            _as_int(obj.get("seed", 0), f"{context}.seed"))


def _options_from_json(cls, obj: dict, context: str):
    """A ``cls`` from its section: the keys are the dataclass's fields,
    each read as the type of its default (an integer, a number, or a
    nested options section); a key left out keeps its default."""
    defaults = cls()
    names = [f.name for f in fields(cls)]
    _check_keys(obj, names, context)
    values = {}
    for name in names:
        default, where = getattr(defaults, name), f"{context}.{name}"
        if is_dataclass(default):
            values[name] = _options_from_json(type(default),
                                              obj.get(name, {}), where)
        elif name in obj:
            read = _as_int if isinstance(default, int) else _as_float
            values[name] = read(obj[name], where)
    return _build(cls, context, **values)


def calibration_options_from_json(obj: dict,
                                  context: str = "config.calibration"
                                  ) -> CalibrationOptions:
    return _options_from_json(CalibrationOptions, obj, context)


def run_config_from_json(obj: dict, preset: str | None = None,
                         noise: float | None = None,
                         seed: int | None = None,
                         source: str = "config") -> RunConfig:
    """Build a validated run config; CLI flags override file values.
    ``source`` names the document in a schema_version error."""
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
        truth = _truth_from_preset(preset, "--preset")
    elif "truth" in soil_obj:
        truth = soil_from_json(soil_obj["truth"], "config.soil.truth")
    elif "preset" in soil_obj:
        truth = _truth_from_preset(soil_obj["preset"], "config.soil.preset")
    else:
        truth = default_truth()

    sigma, noise_seed = _noise_from_json(obj.get("noise", {}), "config.noise")
    if noise is not None:
        sigma = _relative_sigma(noise, "--noise")

    calibration = calibration_options_from_json(obj.get("calibration", {}))
    return RunConfig(scenario=scenario, truth=truth, relative_sigma=sigma,
                     seed=noise_seed if seed is None else seed,
                     calibration=calibration)


def _truth_from_preset(name: str, context: str) -> SoilParameters:
    if not isinstance(name, str):
        raise ConfigError(f"{context} must be a preset name, got {name!r}")
    try:
        return preset_truth(name)
    except (KeyError, ValueError) as exc:
        # the message itself: str() of a KeyError quotes it
        raise ConfigError(f"{context}: {exc.args[0]}")


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


def _dump_json(path: str | Path, doc: dict) -> None:
    with _rewrite(path) as handle:
        json.dump(doc, handle, indent=2, allow_nan=False)
        handle.write("\n")


def _load_json(path: str | Path) -> dict:
    path = Path(path)

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key '{key}' appears more than "
                                  "once")
            obj[key] = value
        return obj

    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ConfigError(f"{path} is not valid JSON: {exc}")


def _finite_or_null(doc: dict) -> dict:
    """``doc`` with every non-finite number in it written as null."""
    return json.loads(json.dumps(doc), parse_constant=lambda _: None)


def report_to_json(report: CalibrationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "theta_star": soil_to_json(report.theta_star),
        "stages": [{"rmse_N" if key == "rmse_n" else key: value
                    for key, value in asdict(stage).items()}
                   for stage in report.stages],
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
    _dump_json(path, _finite_or_null(report_to_json(report)))


def read_report_theta(path: str | Path) -> SoilParameters:
    obj = _load_json(path)
    _check_schema_version(obj, str(path))
    if "theta_star" not in obj:
        raise ConfigError(f"{path}: missing 'theta_star'")
    return soil_from_json(obj["theta_star"], f"{path}:theta_star")


def write_metrics_json(path: str | Path, n_samples: int,
                       ft: tuple[float, float], fn: tuple[float, float],
                       fr: tuple[float, float]) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "n_samples": n_samples}
    for name, (absolute, percent) in (("ft", ft), ("fn", fn), ("fr", fr)):
        doc[name] = {"rmse_N": absolute, "rmse_pct": percent}
    _dump_json(path, _finite_or_null(doc))
