"""Soil parameter calibration from one loading cycle's force data.

Two entry points: a single-stage baseline fitting all eight parameters at
once with the generic multi-start optimizer, and the staged pipeline that
exploits the separable structure of the force equations. Stage 1 fits the
tangential-force subset using the observed normal force to stand in for
the wedge reaction (no failure-angle solve at all), stage 2 fits
density/cohesion/friction against the reconstructed wedge force, and
stage 3 re-fits the compaction parameters against the raw tangential
observations. Each stage is linear in all its unknowns but one, so it is
fitted by variable projection (Golub & Pereyra 1973): a bounded search
over the one nonlinear parameter, solving the others by bounded linear
least squares. A grid of trials is screened first: one batched QR gives
each trial's unconstrained residual, a lower bound on its bounded one,
and only the trials whose bound can still beat the best solve so far are
solved, which leaves the fitted bits as they would be with every trial
solved.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateDepths, EmptySeries, SolverFailure
from .geometry import CycleDataset, surface_after_cycle, wedge_geometry
from .optimizer import (SolverOptions, _load_solvers,
                        finite_difference_gradient, multi_start)
from .soil import (GRAVITY, PARAM_NAMES, CycleForceArrays, LoaderParameters,
                   ParameterBounds, SoilParameters, bearing_factors,
                   predict_force_arrays)

log = logging.getLogger(__name__)

_SPLIT_NOTES = {
    "multi-stage": "the model uses kc and kphi only through "
                   "K = kc/b + kphi; K is fitted and the split follows the "
                   "rule kphi = clip(K - kc_min/b, kphi_min, kphi_max), "
                   "kc = b*(K - kphi)",
    "single-stage": "the model uses kc and kphi only through "
                    "K = kc/b + kphi; the optimizer's split is arbitrary",
}


@dataclass(frozen=True)
class CalibrationOptions:
    """Knobs shared by the calibration entry points."""

    lambda_weight: float = 0.5       # tangential-vs-normal weight
    bounds: ParameterBounds = field(default_factory=ParameterBounds)
    # drives only the single-stage fit
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")


@dataclass
class StageResult:
    """Diagnostics for one optimization stage.

    ``function_evaluations`` counts full-cycle evaluations of the stage
    model. In the staged fits that is one trial of the outer parameter
    (each solves the linear unknowns by bounded least squares, or is
    screened out as unable to win), plus the incumbent check of stage 3;
    in the single-stage fit it is one objective call.
    For the staged fits ``starts_tried`` is the number of grid points of
    the outer search, ``iterations`` its Brent iterations (0 when the best
    grid point is a bound whose one-sided derivative points out of the
    box, so Brent is skipped) and ``gradient_norm`` the projected
    derivative along the outer parameter in unit-interval coordinates.
    ``at_bound`` maps each fitted parameter that ends on a bound (K in
    place of kc and kphi for the staged fits) to "lower" or "upper".
    """

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
    at_bound: dict[str, str]


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
    seed: int

    @property
    def not_identified(self) -> dict[str, str]:
        """What the force data cannot determine, and how it was set."""
        return {"kc/kphi split": _SPLIT_NOTES[self.method]}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

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
# The prepared cycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedCycle:
    """One cycle's per-sample arrays, built once per fit by
    ``prepare_cycle``.

    ``depth``, ``rho``, ``lt``, ``area``, ``ft_obs`` and ``fn_obs`` hold
    the in-soil samples, the ones every stage fits. The whole cycle's
    observations (``ft_cycle``, ``fn_cycle``) and its ``in_soil`` mask
    serve only the final report, which scores the whole cycle.
    """

    depth: np.ndarray
    rho: np.ndarray
    lt: np.ndarray
    area: np.ndarray        # swept cross-section, scaled by gamma on demand
    ft_obs: np.ndarray
    fn_obs: np.ndarray
    in_soil: np.ndarray     # per cycle sample: depth > 0
    ft_cycle: np.ndarray
    fn_cycle: np.ndarray
    alpha: float
    loader: LoaderParameters

    @property
    def dropped(self) -> int:
        """Samples out of soil, which no stage fits."""
        return self.in_soil.size - self.depth.size

    def on_cycle(self, values: np.ndarray) -> np.ndarray:
        """An in-soil array spread over the whole cycle, zero elsewhere."""
        full = np.zeros(self.in_soil.size, dtype=values.dtype)
        full[self.in_soil] = values
        return full


def prepare_cycle(dataset: CycleDataset) -> PreparedCycle:
    """The wedge geometry and observations of a cycle, sliced to the
    samples in soil. Raises DegenerateDepths when there are none."""
    depth, lt, area = wedge_geometry(dataset.samples, dataset.surface)
    in_soil = depth > 0.0
    if not in_soil.any():
        raise DegenerateDepths("all samples have zero penetration depth")
    ft, fn = dataset.f_t_obs, dataset.f_n_obs
    return PreparedCycle(depth=depth[in_soil],
                         rho=dataset.samples.rho[in_soil], lt=lt[in_soil],
                         area=area[in_soil], ft_obs=ft[in_soil],
                         fn_obs=fn[in_soil], in_soil=in_soil, ft_cycle=ft,
                         fn_cycle=fn, alpha=dataset.surface.nominal_alpha,
                         loader=dataset.loader)


def _forces(theta: SoilParameters, cycle: PreparedCycle) -> CycleForceArrays:
    """The force engine over the cycle's in-soil samples."""
    return predict_force_arrays(cycle.depth, cycle.rho, cycle.lt, cycle.area,
                                theta, cycle.loader, cycle.alpha)


class _BoxMap:
    """Affine map between a named parameter subset and the unit box."""

    def __init__(self, bounds: ParameterBounds, names: Sequence[str]):
        self.names = tuple(names)
        self.lo = bounds.lower(names)
        self.hi = bounds.upper(names)
        self.width = self.hi - self.lo

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


def _series_scale(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values), initial=0.0))
    return peak * peak * max(values.size, 1) + 1e-300


def split_pressure_coefficient(big_k: float, bounds: ParameterBounds,
                               b: float) -> tuple[float, float]:
    """(kc, kphi) for a fitted K = kc/b + kphi.

    The force model sees kc and kphi only through K, so data from one
    blade thickness cannot separate them (Bekker's plate tests need two
    widths). The rule: kphi = clip(K - kc_min/b, kphi_min, kphi_max), then
    kc = b*(K - kphi), clipped to its bounds against rounding. For any K
    inside [kc_min/b + kphi_min, kc_max/b + kphi_max] both stay in bounds.
    """
    kphi = min(max(big_k - bounds.kc[0] / b, bounds.kphi[0]), bounds.kphi[1])
    kc = min(max(b * (big_k - kphi), bounds.kc[0]), bounds.kc[1])
    return kc, kphi


def _pressure_bounds(bounds: ParameterBounds,
                     b: float) -> tuple[float, float]:
    return (bounds.kc[0] / b + bounds.kphi[0],
            bounds.kc[1] / b + bounds.kphi[1])


def _at_bound(entries) -> dict[str, str]:
    """{name: 'lower' | 'upper'} for each (name, value, lo, hi) whose value
    sits on a bound."""
    return {name: "lower" if value <= lo else "upper"
            for name, value, lo, hi in entries
            if value <= lo or value >= hi}


def _bounded_lsq(design: np.ndarray, target: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray,
                 paths: Counter | None = None) -> tuple[np.ndarray, float]:
    """min ||design @ x - target|| subject to lo <= x <= hi.

    Least squares on unit-norm columns. The unconstrained solution comes
    first, from the LAPACK call ``lsq_linear(method="bvls")`` starts with;
    when it lies in the box it is the answer, the same bits lsq_linear
    would return, and bounded-variable least squares runs only when it
    leaves the box. An unknown whose column is all zero (the data cannot
    see it) or whose bounds coincide is pinned at its lower bound.
    Unknowns that end on a bound are set to it exactly. Returns x and the
    residual sum of squares at x; ``paths``, when given, counts the solve
    as "interior" or "bvls".
    """
    paths = Counter() if paths is None else paths
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    is_free = (norms > 0.0) & (hi > lo)
    free = np.flatnonzero(is_free)
    x = lo.copy()
    if free.size:
        w = norms[free]
        lo_f, hi_f = lo[free], hi[free]
        scaled = design[:, free] / w
        rest = target
        if free.size < x.size:
            rest = target - design[:, ~is_free] @ x[~is_free]
        lb, ub = lo_f * w, hi_f * w
        x_lsq = np.linalg.lstsq(scaled, rest, rcond=-1)[0]
        if ((x_lsq >= lb) & (x_lsq <= ub)).all():
            paths["interior"] += 1
            x[free] = np.clip(x_lsq / w, lo_f, hi_f)
        else:
            paths["bvls"] += 1
            from scipy.optimize import lsq_linear
            res = lsq_linear(scaled, rest, bounds=(lb, ub), method="bvls")
            x[free] = np.select([res.active_mask < 0, res.active_mask > 0],
                                [lo_f, hi_f], np.clip(res.x / w, lo_f, hi_f))
    residual = target - design @ x
    return x, float(residual @ residual)


# ``_screened_lsq`` skips a candidate when its computed unconstrained
# residual sum of squares, less a margin, exceeds the best exact value of
# the call. In exact arithmetic that bound is never above the candidate's
# box-constrained value, so a wrong skip needs the two computed values to
# be off by more than the margin together. The designs have p <= 3
# unit-norm columns, so |R_11| = 1 and every |R_jj| <= 1; a diagonal ratio
# below C = _SCREEN_CONDITION puts every |R_jj| above 1/C, every entry of
# R^-1 below C^2 in size, and |A^+| = |R^-1| below 2.5 C^2. Householder
# QR is exact for a design A + dA with |dA| <= g |A|_F, where g grows
# like sqrt(m p) unit roundoffs in practice: under 100 u = 1.1e-14 for
# m p <= 1e4. To first order that moves the bound r.r by -2 r'dA x, at
# most 2 g sqrt(p) |A^+| |y|^2 < 1e-7 |y|^2 at C = 1e3, as |r| <= |y|
# and |x| <= |A^+| |y|; the exact solve's rounding of target - design @ x
# adds under a tenth of that. The margin of 1e-6 |y|^2 is 9 times their
# sum. (Over a 702-fit preset and slope sweep no bound exceeded an exact
# value by 1e-15 |y|^2, and no diagonal ratio reached 36.) A candidate
# above the cap, or with a zero on R's diagonal, is always solved.
_SCREEN_MARGIN = 1e-6       # of the candidate's |y|^2
_SCREEN_CONDITION = 1e3     # diagonal ratio of R up to which it screens


def _screened_lsq(designs: np.ndarray, targets: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, scale: float, paths: Counter,
                  rows: np.ndarray | None = None) -> list:
    """``_bounded_lsq`` for each of k candidates, solving only those that
    can still give the lowest residual.

    Candidate i fits ``designs[i]`` (m, p) to ``targets[i]`` (or to a
    shared (m,) target) on the rows where ``rows[i]`` holds (all rows
    when ``rows`` is None). Returns one ``(rss / scale, x)`` per
    candidate; ``(1e12, None)`` for a candidate with no row to fit.

    With more than one candidate, one batched QR of the unit-norm designs,
    infeasible rows zeroed, gives each candidate's unconstrained residual
    sum of squares, which no box-constrained one can undercut. The
    candidates are solved in order of that bound, and one whose bound
    exceeds the best exact value found so far by more than the margin
    is skipped: it could not have become the lowest, and it returns
    ``(inf, None)``, counted as "screened" in ``paths``. Every solved
    candidate goes through the unchanged ``_bounded_lsq`` on its own
    rows, so the lowest value, its x and the first index to reach it are
    the bits a solve of every candidate gives.
    """
    k = designs.shape[0]
    targets = np.broadcast_to(targets, designs.shape[:2])
    fits = [True] * k if rows is None else rows.any(axis=1).tolist()
    bound, screen = [0.0] * k, [False] * k
    if k > 1:
        y = targets if rows is None else np.where(rows, targets, 0.0)
        stack = designs if rows is None else np.where(rows[..., None],
                                                      designs, 0.0)
        norms = np.sqrt(np.einsum("kij,kij->kj", stack, stack))
        q, r = np.linalg.qr(stack / np.where(norms > 0.0, norms, 1.0)[:, None])
        residual = y - (q @ (q.transpose(0, 2, 1) @ y[..., None]))[..., 0]
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        screen = (diag.min(axis=1) * _SCREEN_CONDITION
                  > diag.max(axis=1)).tolist()
        bound = (np.einsum("ki,ki->k", residual, residual)
                 - _SCREEN_MARGIN * np.einsum("ki,ki->k", y, y)).tolist()
    results = [(1e12, None)] * k
    best = math.inf
    for i in sorted(range(k), key=bound.__getitem__):
        if not fits[i]:
            continue
        if screen[i] and bound[i] > best:
            paths["screened"] += 1
            results[i] = (math.inf, None)
            continue
        design, target = designs[i], targets[i]
        if rows is not None:
            design, target = design[rows[i]], target[rows[i]]
        x, rss = _bounded_lsq(design, target, lo, hi, paths)
        best = min(best, rss)
        results[i] = (rss / scale, x)
    return results


_PROFILE_GRID = 33      # coarse grid points of the outer search
_PROFILE_XATOL = 1e-10  # Brent's absolute tolerance, as a share of the bracket


@dataclass
class _Profile:
    """Best trial of a one-parameter profile search and what it cost."""

    x: float
    value: float = math.inf
    inner: np.ndarray | None = None
    evaluations: int = 0
    passes: int = 0
    iterations: int = 0
    converged: bool = True
    gradient_norm: float = 0.0
    grid_points: int = 0
    derivative_trials: int = 0
    bound_shortcut: bool = False
    lsq_paths: Counter = field(default_factory=Counter)


def _profile_search(trial, lo: float, hi: float) -> _Profile:
    """Minimize a variable-projection profile over one bounded parameter.

    ``trial(xs, paths)`` takes an array of candidates and returns one
    ``(value, inner)`` per candidate: the stage objective with the linear
    unknowns solved for at that candidate, and those unknowns; it hands
    ``paths`` to ``_screened_lsq``, which counts its solves and skips
    there. The search evaluates a fixed grid in one call and keeps the
    best trial. That call is screened: a grid point whose least-squares
    lower bound exceeds the best solved value comes back as
    ``(inf, None)`` unsolved. It could never have been the best trial,
    nor the lowest grid value that places Brent's bracket, and it still
    counts as an evaluation, so the search takes the same steps and
    returns the same bits as with every grid point solved.
    When the best grid point is a bound, one trial gives the one-sided
    derivative there (the grid value is its centre); if it points out of
    the box the bound is the answer and Brent does not run. Otherwise a
    bounded Brent search runs over the two grid cells around the best
    grid point. Brent and the derivative call ``trial`` with one
    candidate at a time. The gradient norm is the projected
    finite-difference derivative of the profile at the best trial, in
    unit-interval coordinates; by the variable projection theorem it is
    the projected gradient of the full objective, whose linear part is
    stationary by construction. Every candidate counts as one evaluation,
    and every call of ``trial`` as one pass.
    """
    best = _Profile(x=lo)

    def counted(xs) -> list:
        xs = np.asarray(xs, dtype=float)
        best.evaluations += xs.size
        best.passes += 1
        return trial(xs, best.lsq_paths)

    def keep_best(xs, results) -> list[float]:
        for x, (v, inner) in zip(xs, results):
            if v < best.value:
                best.x, best.value, best.inner = float(x), v, inner
        return [v for v, _ in results]

    def value(x: float) -> float:
        return keep_best([x], counted([x]))[0]

    width = hi - lo

    def derivative(centre: float | None = None) -> float:
        """The profile's derivative at best.x in unit coordinates; a
        known ``centre`` value at best.x is used, not evaluated again."""
        u = (best.x - lo) / width
        before = best.evaluations
        grad = finite_difference_gradient(
            lambda v: (centre if centre is not None and v[0] == u
                       else counted([lo + v[0] * width])[0][0]),
            np.array([u]), [(0.0, 1.0)])[0]
        best.derivative_trials += best.evaluations - before
        return grad

    def points_out(grad: float) -> bool:
        return (best.x <= lo and grad > 0.0) or (best.x >= hi and grad < 0.0)

    grid = np.unique(np.linspace(lo, hi, _PROFILE_GRID))
    best.grid_points = grid.size
    k = int(np.argmin(keep_best(grid, counted(grid))))
    if best.inner is None:
        raise SolverFailure(f"no grid point in [{lo}, {hi}] gives a finite "
                            f"objective with samples to fit")
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    if b <= a:
        return best
    grad = None
    if best.x <= lo or best.x >= hi:
        grad = derivative(centre=best.value)
        if points_out(grad):
            best.bound_shortcut = True
            return best
    kept = best.x
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(value, bounds=(a, b), method="bounded",
                          options={"xatol": _PROFILE_XATOL * (b - a)})
    best.iterations = int(res.nit)
    best.converged = bool(res.success)
    if grad is None or best.x != kept:
        grad = derivative()
    best.gradient_norm = 0.0 if points_out(grad) else float(abs(grad))
    return best


def _staged_result(name: str, parameters: dict[str, float],
                   at_bound: dict[str, str], objective: float,
                   profile: _Profile, extra_evaluations: int,
                   engine_passes: int, t0: float, dropped: int,
                   rmse_pair: tuple[float, float],
                   series: str) -> StageResult:
    """The stage's StageResult; logs its cost at DEBUG. ``engine_passes``
    counts the calls of the failure-angle and bearing-factor kernel, each
    over one or more parameter sets."""
    wall = time.perf_counter() - t0
    evaluations = profile.evaluations + extra_evaluations
    solves = profile.lsq_paths
    log.debug("%s: %.2f ms; %d trials: %d grid, %d Brent, %d derivative, "
              "%d incumbent; least squares %d interior, %d BVLS, %d "
              "screened; bound shortcut %s; %d engine passes", name,
              1e3 * wall, evaluations, profile.grid_points,
              profile.iterations, profile.derivative_trials,
              extra_evaluations, solves["interior"], solves["bvls"],
              solves["screened"],
              "taken" if profile.bound_shortcut else "not taken",
              engine_passes)
    return StageResult(name=name, parameters=parameters,
                       objective_value=objective,
                       iterations=profile.iterations,
                       function_evaluations=evaluations,
                       starts_tried=profile.grid_points,
                       converged=profile.converged,
                       gradient_norm=profile.gradient_norm,
                       wall_time_s=wall,
                       dropped_samples=dropped, rmse_n=rmse_pair[0],
                       rmse_pct=rmse_pair[1], rmse_series=series,
                       at_bound=at_bound)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def calibrate_stage1(cycle: PreparedCycle,
                     options: CalibrationOptions = CalibrationOptions()
                     ) -> tuple[np.ndarray, StageResult]:
    """Fit [adhesion, delta, kc, kphi, n] to the raw tangential force.

    The wedge reaction is taken from the observed normal force, so no
    failure-angle solve or bearing-factor evaluation happens here. For a
    given n the model is linear in (adhesion, tan delta, K = kc/b + kphi):
    the search runs over n and solves for the rest by bounded linear least
    squares. kc and kphi come from K by ``split_pressure_coefficient``.
    """
    _load_solvers()
    t0 = time.perf_counter()
    bounds = options.bounds
    if not -0.5 * math.pi < bounds.delta[0] <= bounds.delta[1] < 0.5 * math.pi:
        raise ValueError("delta bounds must lie inside (-pi/2, pi/2)")
    depth, lt, loader = cycle.depth, cycle.lt, cycle.loader
    fn_obs, ft_obs = cycle.fn_obs, cycle.ft_obs
    scale = _series_scale(ft_obs)
    k_lo, k_hi = _pressure_bounds(bounds, loader.b)
    lo = np.array([bounds.adhesion_ca[0], math.tan(bounds.delta[0]), k_lo])
    hi = np.array([bounds.adhesion_ca[1], math.tan(bounds.delta[1]), k_hi])

    def trial(ns: np.ndarray, paths: Counter):
        designs = np.empty((ns.size, depth.size, 3))
        designs[:, :, 0] = loader.omega * lt
        designs[:, :, 1] = fn_obs
        for design, n in zip(designs, ns.tolist()):
            design[:, 2] = loader.omega * loader.b * depth ** n
        return _screened_lsq(designs, ft_obs, lo, hi, scale, paths)

    profile = _profile_search(trial, *bounds.n)
    ca, tan_delta, big_k = profile.inner
    if tan_delta <= lo[1]:
        delta = bounds.delta[0]
    elif tan_delta >= hi[1]:
        delta = bounds.delta[1]
    else:
        delta = min(max(math.atan(tan_delta), bounds.delta[0]),
                    bounds.delta[1])
    kc, kphi = split_pressure_coefficient(big_k, bounds, loader.b)
    theta1 = np.array([ca, delta, kc, kphi, profile.x])
    fit = stage1_tangential_force(theta1, depth, lt, fn_obs, loader)
    residual = ft_obs - fit
    parameters = dict(zip(("adhesion_ca", "delta", "kc", "kphi", "n"),
                          theta1.tolist()), K=float(big_k))
    at_bound = _at_bound([("adhesion_ca", ca, lo[0], hi[0]),
                          ("delta", tan_delta, lo[1], hi[1]),
                          ("K", big_k, k_lo, k_hi),
                          ("n", profile.x, *bounds.n)])
    result = _staged_result("stage1", parameters, at_bound,
                            float(residual @ residual) / scale, profile, 0,
                            0, t0, dropped=cycle.dropped,
                            rmse_pair=rmse(ft_obs, fit),
                            series="f_t observed (raw), in-soil samples")
    return theta1, result


def calibrate_stage2(cycle: PreparedCycle, theta1_star: np.ndarray,
                     options: CalibrationOptions = CalibrationOptions()
                     ) -> tuple[np.ndarray, StageResult]:
    """Fit [gamma, cohesion, phi] against the wedge force reconstructed
    from the raw in-soil normal observations divided by cos(delta*).

    For a given friction angle the wedge force
    F = gamma*g*omega*(d^2 N_gamma + A_swept N_q) + c*omega*d*N_c
    + c_a*omega*d*N_a is linear in (gamma, c): the search runs over phi
    and solves for (gamma, c) by bounded linear least squares. The failure
    angle and the bearing factors come from the engine's kernel,
    ``bearing_factors``, which takes every candidate of a call at once
    (the whole grid in one broadcast pass). Samples it marks infeasible
    for a candidate (a blade angle outside its margins, or an empty
    failure-angle window) are dropped from that candidate's residual
    (zeroed in its screening bound).
    """
    _load_solvers()
    t0 = time.perf_counter()
    ca_star, delta_star = float(theta1_star[0]), float(theta1_star[1])
    target = cycle.fn_obs / math.cos(delta_star)
    scale = _series_scale(target)
    bounds = options.bounds
    alpha, omega = cycle.alpha, cycle.loader.omega
    lo = bounds.lower(("gamma", "cohesion_c"))
    hi = bounds.upper(("gamma", "cohesion_c"))
    # the per-sample coefficients of the factors, the same for every phi
    depth_sq, omega_depth = cycle.depth * cycle.depth, omega * cycle.depth
    adhesion = ca_star * omega * cycle.depth

    def trial(phis: np.ndarray, paths: Counter):
        _, feasible, (n_gamma, n_c, n_a, n_q) = bearing_factors(
            alpha, cycle.rho, phis[:, None], delta_star)
        designs = np.stack([GRAVITY * omega * (depth_sq * n_gamma
                                               + cycle.area * n_q),
                            omega_depth * n_c], axis=-1)
        return _screened_lsq(designs, target - adhesion * n_a, lo, hi,
                             scale, paths, rows=feasible)

    profile = _profile_search(trial, *bounds.phi)
    gamma, cohesion = profile.inner
    theta2 = np.array([gamma, cohesion, profile.x])
    # the wedge force does not depend on the sinkage parameters
    out = _forces(SoilParameters(gamma=gamma, cohesion_c=cohesion,
                                 adhesion_ca=ca_star, phi=profile.x,
                                 delta=delta_star, kc=0.0, kphi=0.0, n=1.0),
                  cycle)
    force, valid = out.fee[out.valid], out.valid
    residual = target[valid] - force
    at_bound = _at_bound([("gamma", gamma, lo[0], hi[0]),
                          ("cohesion_c", cohesion, lo[1], hi[1]),
                          ("phi", profile.x, *bounds.phi)])
    result = _staged_result("stage2",
                            dict(zip(("gamma", "cohesion_c", "phi"),
                                     theta2.tolist())),
                            at_bound, float(residual @ residual) / scale,
                            profile, 0, profile.passes + 1, t0,
                            cycle.dropped + int((~valid).sum()),
                            rmse(target[valid], force),
                            series="wedge force reconstructed from raw f_n, "
                                   "in-soil samples")
    return theta2, result


def calibrate_stage3(cycle: PreparedCycle, theta_fixed: SoilParameters,
                     options: CalibrationOptions = CalibrationOptions()
                     ) -> tuple[np.ndarray, StageResult]:
    """Re-fit [kc, kphi, n] against the raw tangential observations with
    every other parameter frozen.

    The wedge force does not depend on the sinkage parameters, so it is
    evaluated once. For a given n the model is linear in K = kc/b + kphi:
    the search runs over n and solves for K by bounded least squares. The
    incumbent (kc, kphi, n) is always a candidate and wins ties, which
    makes the tangential error non-increasing across this stage. Normal-
    force predictions are untouched by construction.
    """
    _load_solvers()
    t0 = time.perf_counter()
    bounds = options.bounds
    loader = cycle.loader
    out = _forces(theta_fixed, cycle)
    valid = out.valid
    if not valid.any():
        raise EmptySeries("no in-soil sample evaluates cleanly")
    depth = cycle.depth[valid]
    lt = cycle.lt[valid]
    ft_obs = cycle.ft_obs[valid]
    friction_term = (out.fee[valid] * math.sin(theta_fixed.delta)
                     + theta_fixed.adhesion_ca * loader.omega * lt)
    scale = _series_scale(ft_obs)
    sinkage_target = ft_obs - friction_term
    k_lo, k_hi = _pressure_bounds(bounds, loader.b)

    def model(kc: float, kphi: float, n: float) -> np.ndarray:
        return (loader.omega * loader.b * (kc / loader.b + kphi) * depth ** n
                + friction_term)

    def objective(theta3) -> float:
        residual = ft_obs - model(*theta3)
        return float(residual @ residual) / scale

    def trial(ns: np.ndarray, paths: Counter):
        designs = np.stack([loader.omega * loader.b * depth ** n
                            for n in ns.tolist()])[:, :, None]
        return _screened_lsq(designs, sinkage_target, np.array([k_lo]),
                             np.array([k_hi]), scale, paths)

    profile = _profile_search(trial, *bounds.n)
    big_k = float(profile.inner[0])
    best = (*split_pressure_coefficient(big_k, bounds, loader.b), profile.x)
    incumbent = (theta_fixed.kc, theta_fixed.kphi, theta_fixed.n)
    f_best, f_incumbent = objective(best), objective(incumbent)
    if f_incumbent <= f_best:
        best, f_best = incumbent, f_incumbent
        big_k = theta_fixed.kc / loader.b + theta_fixed.kphi
    theta3 = np.array(best, dtype=float)
    kc, kphi, n = theta3
    fit = model(kc, kphi, n)
    at_bound = _at_bound([("K", big_k, k_lo, k_hi), ("n", n, *bounds.n)])
    result = _staged_result("stage3",
                            dict(kc=float(kc), kphi=float(kphi), n=float(n),
                                 K=big_k),
                            at_bound, f_best, profile, 1, 1, t0,
                            cycle.dropped + int((~valid).sum()),
                            rmse(ft_obs, fit),
                            series="f_t observed (raw), in-soil samples")
    return theta3, result


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _final_report(method: str, theta: SoilParameters,
                  stages: list[StageResult], cycle: PreparedCycle,
                  options: CalibrationOptions, wall: float
                  ) -> CalibrationReport:
    """Force errors over the whole cycle: out-of-soil samples predict zero
    force, and samples that hit a margin are left out."""
    out = _forces(theta, cycle)
    f_t, f_n = cycle.on_cycle(out.f_t), cycle.on_cycle(out.f_n)
    ok = ~cycle.in_soil | cycle.on_cycle(out.valid)
    ft_obs, fn_obs = cycle.ft_cycle[ok], cycle.fn_cycle[ok]
    ft_pair = rmse(ft_obs, f_t[ok])
    fn_pair = rmse(fn_obs, f_n[ok])
    fr_pair = rmse(resultant(ft_obs, fn_obs), resultant(f_t[ok], f_n[ok]))
    return CalibrationReport(
        method=method, theta_star=theta, stages=stages,
        rmse_ft_n=ft_pair[0], rmse_ft_pct=ft_pair[1],
        rmse_fn_n=fn_pair[0], rmse_fn_pct=fn_pair[1],
        rmse_fr_n=fr_pair[0], rmse_fr_pct=fr_pair[1],
        function_evaluations=sum(s.function_evaluations for s in stages),
        wall_time_s=wall, n_samples=ok.size,
        dropped_samples=int((~ok).sum()),
        lambda_weight=options.lambda_weight,
        seed=options.solver.seed)


def calibrate_single_stage(dataset: CycleDataset,
                           options: CalibrationOptions = CalibrationOptions()
                           ) -> CalibrationReport:
    """Baseline: fit all eight parameters at once.

    Minimizes the lambda-weighted sum of squared tangential and normal
    residuals on the raw observations over in-soil samples. Raises
    DegenerateDepths when no sample is in soil.
    """
    _load_solvers()
    t0 = time.perf_counter()
    cycle = prepare_cycle(dataset)
    box = _BoxMap(options.bounds, PARAM_NAMES)
    lam = options.lambda_weight
    ft_obs, fn_obs = cycle.ft_obs, cycle.fn_obs
    scale = (lam * _series_scale(ft_obs)
             + (1.0 - lam) * _series_scale(fn_obs) + 1e-300)

    def objective(unit: np.ndarray) -> float:
        out = _forces(SoilParameters.from_array(box.from_unit(unit)), cycle)
        valid = out.valid
        if not valid.any():
            return 1e12
        r_t = ft_obs[valid] - out.f_t[valid]
        r_n = fn_obs[valid] - out.f_n[valid]
        return (lam * float(r_t @ r_t)
                + (1.0 - lam) * float(r_n @ r_n)) / scale

    solve = multi_start(objective, box.unit_bounds, options.solver)
    values = box.from_unit(solve.x_star)
    theta = SoilParameters.from_array(values)
    wall = time.perf_counter() - t0
    stage = StageResult(
        name="single", parameters=dict(zip(box.names, values.tolist())),
        objective_value=solve.objective_value, iterations=solve.iterations,
        function_evaluations=solve.function_evaluations,
        starts_tried=solve.starts_tried, converged=solve.converged,
        gradient_norm=solve.gradient_norm, wall_time_s=wall,
        dropped_samples=cycle.dropped, rmse_n=math.nan,
        rmse_pct=math.nan,
        rmse_series="(final report carries the force errors)",
        at_bound=_at_bound((name, u, 0.0, 1.0)
                           for name, u in zip(box.names, solve.x_star)))
    return _final_report("single-stage", theta, [stage], cycle, options,
                         wall)


def calibrate_multi_stage(dataset: CycleDataset,
                          options: CalibrationOptions = CalibrationOptions()
                          ) -> CalibrationReport:
    """Staged pipeline: tangential subset, then material subset, then
    compaction refinement, all on one prepared cycle. Reports per-stage
    sub-vectors and diagnostics plus final force errors under the
    assembled parameters. Raises DegenerateDepths when no sample is in
    soil."""
    _load_solvers()
    t0 = time.perf_counter()
    cycle = prepare_cycle(dataset)
    theta1, s1 = calibrate_stage1(cycle, options)
    theta2, s2 = calibrate_stage2(cycle, theta1, options)
    assembled = SoilParameters(
        gamma=theta2[0], cohesion_c=theta2[1], adhesion_ca=theta1[0],
        phi=theta2[2], delta=theta1[1], kc=theta1[2], kphi=theta1[3],
        n=theta1[4])
    theta3, s3 = calibrate_stage3(cycle, assembled, options)
    theta = assembled.replace(kc=theta3[0], kphi=theta3[1], n=theta3[2])
    wall = time.perf_counter() - t0
    return _final_report("multi-stage", theta, [s1, s2, s3], cycle,
                         options, wall)


def predict_next_cycle(theta_star: SoilParameters, scenario,
                       prior_cycle: np.recarray | None = None
                       ) -> CycleForceArrays:
    """Predict forces for a new pass using fitted parameters.

    When a prior cycle is given, depth (and the swept load) is measured
    against the surface carved by that pass rather than the nominal pile
    face. The bearing factors keep the nominal pile inclination. The
    sampled trajectory comes back as the prediction's ``trajectory``, and
    the wall time of each step (carve, trajectory, depth and swept area,
    engine) as its ``step_ms``.
    """
    marks = [time.perf_counter()]
    surface = scenario.surface
    if prior_cycle is not None:
        surface = surface_after_cycle(surface, prior_cycle)
    marks.append(time.perf_counter())
    trajectory = scenario.trajectory(surface=surface)
    marks.append(time.perf_counter())
    depth, lt, area = wedge_geometry(trajectory, surface)
    marks.append(time.perf_counter())
    prediction = predict_force_arrays(depth, trajectory.rho, lt, area,
                                      theta_star, scenario.loader,
                                      surface.nominal_alpha)
    marks.append(time.perf_counter())
    steps = ("carve", "trajectory", "depth and swept area", "engine")
    return replace(prediction, trajectory=trajectory,
                   step_ms={step: 1e3 * (end - start) for step, start, end
                            in zip(steps, marks, marks[1:])})
