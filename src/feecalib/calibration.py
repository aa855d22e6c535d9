"""Soil parameter calibration from one loading cycle's force data.

Two entry points: a single-stage baseline fitting all eight parameters at
once, and the staged pipeline that exploits the separable structure of the
force equations. Stage 1 fits the tangential-force subset using the
observed normal force to stand in for the wedge reaction (no failure-angle
solve at all), stage 2 fits density/cohesion/friction against the
reconstructed wedge force, and stage 3 re-fits the compaction parameters
against the raw tangential observations.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateDepths, EmptySeries
from .geometry import (CycleDataset, Surface, TrajectorySample,
                       cycle_wedges, surface_after_cycle,
                       swept_area_profile)
from .optimizer import SolveResult, SolverOptions, multi_start
from .soil import (DEFAULT_MARGINS, GRAVITY, PARAM_NAMES, CyclePrediction,
                   LoaderParameters, Margins, ParameterBounds,
                   SoilParameters, predict_cycle_forces,
                   predict_force_arrays)

log = logging.getLogger(__name__)

STAGE1_FIELDS = ("adhesion_ca", "delta", "kc", "kphi", "n")
STAGE2_FIELDS = ("gamma", "cohesion_c", "phi")
STAGE3_FIELDS = ("kc", "kphi", "n")


@dataclass(frozen=True)
class CalibrationOptions:
    """Knobs shared by the calibration entry points."""

    lambda_weight: float = 0.5       # tangential-vs-normal weight
    bounds: ParameterBounds = field(default_factory=ParameterBounds)
    solver: SolverOptions = field(default_factory=SolverOptions)
    gaussian_sigma: float = 5.0      # smoothing width in samples (stage 2)
    margins: Margins = field(default_factory=Margins)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")
        if self.gaussian_sigma < 0.0:
            raise ValueError("gaussian_sigma must be nonnegative")


@dataclass
class StageResult:
    """Diagnostics for one optimization stage."""

    name: str
    parameters: dict[str, float]
    objective_value: float
    iterations: int
    function_evaluations: int
    starts_tried: int
    converged: bool
    gradient_norm: float
    wall_time_s: float
    dropped_samples: int
    rmse_n: float
    rmse_pct: float
    rmse_series: str


@dataclass
class CalibrationReport:
    """Fitted parameters plus per-stage and final force errors."""

    method: str
    theta_star: SoilParameters
    stages: list[StageResult]
    rmse_ft_n: float
    rmse_ft_pct: float
    rmse_fn_n: float
    rmse_fn_pct: float
    rmse_fr_n: float
    rmse_fr_pct: float
    function_evaluations: int
    wall_time_s: float
    n_samples: int
    dropped_samples: int
    lambda_weight: float
    gaussian_sigma: float
    seed: int


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def gaussian_filter(series, sigma: float) -> np.ndarray:
    """Discrete Gaussian smoothing, kernel truncated at 4 sigma and
    renormalized, reflect padding at the boundaries. sigma = 0 is the
    identity."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    radius = int(4.0 * sigma + 0.5)
    if sigma == 0.0 or radius < 1 or x.size == 0:
        return x.copy()
    offsets = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(x, radius, mode="symmetric")
    return np.convolve(padded, kernel, mode="valid")


def rmse(observed, predicted) -> tuple[float, float]:
    """(absolute, percent) root-mean-square error.

    Percent uses the peak absolute observed value as denominator, the rule
    under which published error tables are internally consistent.
    """
    o = np.asarray(observed, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if o.size == 0:
        raise EmptySeries("rmse of an empty series")
    if o.shape != p.shape:
        raise ValueError("series lengths differ")
    absolute = float(np.sqrt(np.mean((o - p) ** 2)))
    peak = float(np.max(np.abs(o)))
    if peak > 0.0:
        percent = 100.0 * absolute / peak
    else:
        percent = 0.0 if absolute == 0.0 else math.inf
    return absolute, percent


def resultant(f_t, f_n):
    """Euclidean magnitude of the tangential/normal force pair."""
    return np.hypot(f_t, f_n)


# ---------------------------------------------------------------------------
# Shared per-dataset arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CycleArrays:
    rho: np.ndarray
    depth: np.ndarray
    lt: np.ndarray
    area: np.ndarray        # swept cross-section, scaled by gamma on demand
    ft_obs: np.ndarray
    fn_obs: np.ndarray
    soil_mask: np.ndarray   # depth > 0
    alpha: float
    loader: LoaderParameters


def _prepare(dataset: CycleDataset, surface: Surface | None) -> _CycleArrays:
    surf = dataset.surface if surface is None else surface
    xs, zs = dataset.tip_arrays()
    rho = dataset.rho_array()
    depth = np.asarray(surf.depth_of(xs, zs), dtype=float)
    sin_rho = np.sin(rho)
    lt = np.where((depth > 0.0) & (sin_rho > 0.0),
                  depth / np.where(sin_rho > 0.0, sin_rho, 1.0), 0.0)
    area = swept_area_profile(dataset.samples, surf)
    return _CycleArrays(rho=rho, depth=depth, lt=lt, area=area,
                        ft_obs=np.asarray(dataset.f_t_obs, dtype=float),
                        fn_obs=np.asarray(dataset.f_n_obs, dtype=float),
                        soil_mask=depth > 0.0,
                        alpha=surf.nominal_alpha, loader=dataset.loader)


class _BoxMap:
    """Affine map between a named parameter subset and the unit box."""

    def __init__(self, bounds: ParameterBounds, names: Sequence[str]):
        self.names = tuple(names)
        self.lo = bounds.lower(names)
        self.hi = bounds.upper(names)
        self.width = self.hi - self.lo

    def to_unit(self, values: np.ndarray) -> np.ndarray:
        unit = np.where(self.width > 0.0,
                        (values - self.lo) / np.where(self.width > 0.0,
                                                      self.width, 1.0),
                        0.5)
        return np.clip(unit, 0.0, 1.0)

    def from_unit(self, unit: np.ndarray) -> np.ndarray:
        return self.lo + np.asarray(unit, dtype=float) * self.width

    @property
    def unit_bounds(self) -> np.ndarray:
        return np.repeat([[0.0, 1.0]], len(self.names), axis=0)


def stage1_tangential_force(theta1: np.ndarray, depth, lt, fn_obs,
                            loader: LoaderParameters) -> np.ndarray:
    """Tangential force model of the first stage.

    Sinkage pressure plus the observed normal force redirected through the
    tool friction angle plus blade adhesion; linear in the observed normal
    force and free of any failure-angle solve.
    """
    ca, delta, kc, kphi, n = np.asarray(theta1, dtype=float)
    depth = np.asarray(depth, dtype=float)
    pressure_coeff = kc / loader.b + kphi
    return (loader.omega * loader.b * pressure_coeff * depth ** n
            + np.asarray(fn_obs, dtype=float) * math.tan(delta)
            + ca * loader.omega * np.asarray(lt, dtype=float))


def _fee_force_of(theta: SoilParameters, arrays: _CycleArrays,
                  mask: np.ndarray, margins: Margins):
    """Wedge reaction force for masked samples; returns (F, valid_mask)."""
    w_load = theta.gamma * GRAVITY * arrays.loader.omega * arrays.area
    out = predict_force_arrays(arrays.depth[mask], arrays.rho[mask],
                               arrays.lt[mask], w_load[mask], theta,
                               arrays.loader, arrays.alpha, margins)
    return out.fee, out.valid


def _series_scale(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values), initial=0.0))
    return peak * peak * max(values.size, 1) + 1e-300


def _full_series(theta: SoilParameters, arrays: _CycleArrays,
                 margins: Margins):
    """Predicted (ft, fn, valid) over the whole cycle; out-of-soil rows
    are zero, margin failures are flagged in valid."""
    w_load = theta.gamma * GRAVITY * arrays.loader.omega * arrays.area
    out = predict_force_arrays(arrays.depth, arrays.rho, arrays.lt, w_load,
                               theta, arrays.loader, arrays.alpha, margins)
    ok = out.valid | ~out.in_soil
    return out.f_t, out.f_n, ok


def _stage_result(name: str, names: Sequence[str], values: np.ndarray,
                  solve: SolveResult, wall: float, dropped: int,
                  rmse_pair: tuple[float, float], series: str
                  ) -> StageResult:
    return StageResult(name=name,
                       parameters=dict(zip(names, values.tolist())),
                       objective_value=solve.objective_value,
                       iterations=solve.iterations,
                       function_evaluations=solve.function_evaluations,
                       starts_tried=solve.starts_tried,
                       converged=solve.converged,
                       gradient_norm=solve.gradient_norm,
                       wall_time_s=wall, dropped_samples=dropped,
                       rmse_n=rmse_pair[0], rmse_pct=rmse_pair[1],
                       rmse_series=series)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def calibrate_stage1(dataset: CycleDataset,
                     options: CalibrationOptions = CalibrationOptions(),
                     surface: Surface | None = None
                     ) -> tuple[np.ndarray, StageResult]:
    """Fit [adhesion, delta, kc, kphi, n] to the raw tangential force.

    The wedge reaction is taken from the observed normal force, so no
    failure-angle solve or bearing-factor evaluation happens here and raw
    (unfiltered) observations are appropriate.
    """
    t0 = time.perf_counter()
    arrays = _prepare(dataset, surface)
    mask = arrays.soil_mask
    if not mask.any():
        raise DegenerateDepths("all samples have zero penetration depth")
    depth = arrays.depth[mask]
    lt = arrays.lt[mask]
    fn_obs = arrays.fn_obs[mask]
    ft_obs = arrays.ft_obs[mask]
    box = _BoxMap(options.bounds, STAGE1_FIELDS)
    scale = _series_scale(ft_obs)

    def objective(unit: np.ndarray) -> float:
        theta1 = box.from_unit(unit)
        residual = ft_obs - stage1_tangential_force(theta1, depth, lt,
                                                    fn_obs, arrays.loader)
        return float(residual @ residual) / scale

    solve = multi_start(objective, box.unit_bounds, options.solver)
    theta1 = box.from_unit(solve.x_star)
    fit = stage1_tangential_force(theta1, depth, lt, fn_obs, arrays.loader)
    result = _stage_result("stage1", STAGE1_FIELDS, theta1, solve,
                           time.perf_counter() - t0,
                           dropped=int((~mask).sum()),
                           rmse_pair=rmse(ft_obs, fit),
                           series="f_t observed (raw), in-soil samples")
    return theta1, result


def calibrate_stage2(dataset: CycleDataset, theta1_star: np.ndarray,
                     surface: Surface | None = None,
                     options: CalibrationOptions = CalibrationOptions()
                     ) -> tuple[np.ndarray, StageResult]:
    """Fit [gamma, cohesion, phi] against the wedge force reconstructed
    from the smoothed normal observations divided by cos(delta*).

    The failure angle is re-solved per candidate friction angle; samples
    whose geometry turns singular for a candidate are dropped from that
    candidate's residual.
    """
    t0 = time.perf_counter()
    arrays = _prepare(dataset, surface)
    mask = arrays.soil_mask
    if not mask.any():
        raise DegenerateDepths("all samples have zero penetration depth")
    ca_star, delta_star = float(theta1_star[0]), float(theta1_star[1])
    reconstructed = (gaussian_filter(arrays.fn_obs, options.gaussian_sigma)
                     / math.cos(delta_star))
    target = reconstructed[mask]
    box = _BoxMap(options.bounds, STAGE2_FIELDS)
    scale = _series_scale(target)
    margins = options.margins
    base = SoilParameters(gamma=options.bounds.center(("gamma",))[0],
                          cohesion_c=0.0, adhesion_ca=ca_star, phi=0.0,
                          delta=delta_star, kc=0.0, kphi=0.0, n=1.0)

    def objective(unit: np.ndarray) -> float:
        gamma, cohesion, phi = box.from_unit(unit)
        theta = base.replace(gamma=gamma, cohesion_c=cohesion, phi=phi)
        force, valid = _fee_force_of(theta, arrays, mask, margins)
        if not valid.any():
            return 1e12
        residual = target[valid] - force[valid]
        return float(residual @ residual) / scale

    solve = multi_start(objective, box.unit_bounds, options.solver)
    theta2 = box.from_unit(solve.x_star)
    theta_fit = base.replace(gamma=theta2[0], cohesion_c=theta2[1],
                             phi=theta2[2])
    force, valid = _fee_force_of(theta_fit, arrays, mask, margins)
    dropped = int((~mask).sum() + (~valid).sum())
    # the objective fits the filtered series, but errors are reported
    # against the raw reconstruction like every other stage
    raw_target = (arrays.fn_obs[mask] / math.cos(delta_star))[valid]
    result = _stage_result("stage2", STAGE2_FIELDS, theta2, solve,
                           time.perf_counter() - t0, dropped,
                           rmse(raw_target, force[valid]),
                           series="wedge force reconstructed from raw f_n, "
                                  "in-soil samples")
    return theta2, result


def calibrate_stage3(dataset: CycleDataset, theta_fixed: SoilParameters,
                     surface: Surface | None = None,
                     options: CalibrationOptions = CalibrationOptions()
                     ) -> tuple[np.ndarray, StageResult]:
    """Re-fit [kc, kphi, n] against the raw tangential observations with
    every other parameter frozen.

    The wedge force does not depend on the sinkage parameters, so it is
    evaluated once; the incumbent values seed the start set, which makes
    the tangential error non-increasing across this stage. Normal-force
    predictions are untouched by construction.
    """
    t0 = time.perf_counter()
    arrays = _prepare(dataset, surface)
    mask = arrays.soil_mask
    if not mask.any():
        raise DegenerateDepths("all samples have zero penetration depth")
    margins = options.margins
    force, valid = _fee_force_of(theta_fixed, arrays, mask, margins)
    depth = arrays.depth[mask][valid]
    lt = arrays.lt[mask][valid]
    ft_obs = arrays.ft_obs[mask][valid]
    friction_term = (force[valid] * math.sin(theta_fixed.delta)
                     + theta_fixed.adhesion_ca * arrays.loader.omega * lt)
    box = _BoxMap(options.bounds, STAGE3_FIELDS)
    scale = _series_scale(ft_obs)
    loader = arrays.loader

    def objective(unit: np.ndarray) -> float:
        kc, kphi, n = box.from_unit(unit)
        f_t = (loader.omega * loader.b * (kc / loader.b + kphi) * depth ** n
               + friction_term)
        residual = ft_obs - f_t
        return float(residual @ residual) / scale

    incumbent = box.to_unit(np.array([theta_fixed.kc, theta_fixed.kphi,
                                      theta_fixed.n]))
    solve = multi_start(objective, box.unit_bounds, options.solver,
                        warm_start=incumbent)
    theta3 = box.from_unit(solve.x_star)
    kc, kphi, n = theta3
    fit = (loader.omega * loader.b * (kc / loader.b + kphi) * depth ** n
           + friction_term)
    dropped = int((~mask).sum() + (~valid).sum())
    result = _stage_result("stage3", STAGE3_FIELDS, theta3, solve,
                           time.perf_counter() - t0, dropped,
                           rmse(ft_obs, fit),
                           series="f_t observed (raw), in-soil samples")
    return theta3, result


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _final_report(method: str, theta: SoilParameters,
                  stages: list[StageResult], arrays: _CycleArrays,
                  options: CalibrationOptions, wall: float
                  ) -> CalibrationReport:
    f_t, f_n, ok = _full_series(theta, arrays, options.margins)
    ft_pair = rmse(arrays.ft_obs[ok], f_t[ok])
    fn_pair = rmse(arrays.fn_obs[ok], f_n[ok])
    fr_pair = rmse(resultant(arrays.ft_obs[ok], arrays.fn_obs[ok]),
                   resultant(f_t[ok], f_n[ok]))
    return CalibrationReport(
        method=method, theta_star=theta, stages=stages,
        rmse_ft_n=ft_pair[0], rmse_ft_pct=ft_pair[1],
        rmse_fn_n=fn_pair[0], rmse_fn_pct=fn_pair[1],
        rmse_fr_n=fr_pair[0], rmse_fr_pct=fr_pair[1],
        function_evaluations=sum(s.function_evaluations for s in stages),
        wall_time_s=wall, n_samples=arrays.ft_obs.size,
        dropped_samples=int((~ok).sum()),
        lambda_weight=options.lambda_weight,
        gaussian_sigma=options.gaussian_sigma,
        seed=options.solver.seed)


def calibrate_single_stage(dataset: CycleDataset,
                           surface: Surface | None = None,
                           options: CalibrationOptions = CalibrationOptions()
                           ) -> CalibrationReport:
    """Baseline: fit all eight parameters at once.

    Minimizes the lambda-weighted sum of squared tangential and normal
    residuals on the raw observations over in-soil samples.
    """
    t0 = time.perf_counter()
    arrays = _prepare(dataset, surface)
    mask = arrays.soil_mask
    box = _BoxMap(options.bounds, PARAM_NAMES)
    lam = options.lambda_weight
    margins = options.margins
    scale = (lam * _series_scale(arrays.ft_obs[mask])
             + (1.0 - lam) * _series_scale(arrays.fn_obs[mask]) + 1e-300)
    ft_obs = arrays.ft_obs[mask]
    fn_obs = arrays.fn_obs[mask]
    w_coeff = GRAVITY * arrays.loader.omega * arrays.area[mask]

    def objective(unit: np.ndarray) -> float:
        theta = SoilParameters.from_array(box.from_unit(unit))
        out = predict_force_arrays(arrays.depth[mask], arrays.rho[mask],
                                   arrays.lt[mask], theta.gamma * w_coeff,
                                   theta, arrays.loader, arrays.alpha,
                                   margins)
        valid = out.valid
        if mask.any() and not valid.any():
            return 1e12
        r_t = ft_obs[valid] - out.f_t[valid]
        r_n = fn_obs[valid] - out.f_n[valid]
        return (lam * float(r_t @ r_t)
                + (1.0 - lam) * float(r_n @ r_n)) / scale

    solve = multi_start(objective, box.unit_bounds, options.solver)
    theta = SoilParameters.from_array(box.from_unit(solve.x_star))
    wall = time.perf_counter() - t0
    stage = _stage_result("single", tuple(box.names),
                          box.from_unit(solve.x_star), solve, wall,
                          dropped=int((~mask).sum()),
                          rmse_pair=(math.nan, math.nan),
                          series="(final report carries the force errors)")
    report = _final_report("single-stage", theta, [stage], arrays,
                           options, wall)
    return report


def calibrate_multi_stage(dataset: CycleDataset,
                          surface: Surface | None = None,
                          options: CalibrationOptions = CalibrationOptions()
                          ) -> CalibrationReport:
    """Staged pipeline: tangential subset, then material subset, then
    compaction refinement. Reports per-stage sub-vectors and diagnostics
    plus final force errors under the assembled parameters."""
    t0 = time.perf_counter()
    arrays = _prepare(dataset, surface)
    theta1, s1 = calibrate_stage1(dataset, options, surface)
    theta2, s2 = calibrate_stage2(dataset, theta1, surface, options)
    assembled = SoilParameters(
        gamma=theta2[0], cohesion_c=theta2[1], adhesion_ca=theta1[0],
        phi=theta2[2], delta=theta1[1], kc=theta1[2], kphi=theta1[3],
        n=theta1[4])
    theta3, s3 = calibrate_stage3(dataset, assembled, surface, options)
    theta = assembled.replace(kc=theta3[0], kphi=theta3[1], n=theta3[2])
    wall = time.perf_counter() - t0
    return _final_report("multi-stage", theta, [s1, s2, s3], arrays,
                         options, wall)


def predict_next_cycle(theta_star: SoilParameters, scenario,
                       prior_cycle: Sequence[TrajectorySample] | None = None,
                       margins: Margins = DEFAULT_MARGINS
                       ) -> CyclePrediction:
    """Predict forces for a new pass using fitted parameters.

    When a prior cycle is given, depth (and the swept load) is measured
    against the surface carved by that pass rather than the nominal pile
    face. The bearing factors keep the nominal pile inclination. The
    sampled trajectory comes back as the prediction's ``trajectory``.
    """
    surface = scenario.surface
    if prior_cycle is not None:
        surface = surface_after_cycle(surface, prior_cycle)
    trajectory = scenario.trajectory(surface=surface)
    wedges = cycle_wedges(trajectory, surface, theta_star.gamma,
                          scenario.loader)
    prediction = predict_cycle_forces(wedges, theta_star, scenario.loader,
                                      surface.nominal_alpha, margins)
    return replace(prediction, trajectory=tuple(trajectory))
