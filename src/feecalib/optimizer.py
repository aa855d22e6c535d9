"""Bound-constrained smooth minimization for the single-stage baseline.

A thin deterministic layer over a limited-memory quasi-Newton descent with
box projection: central finite-difference gradients (one-sided at active
bounds), best-iterate tracking, honest evaluation counters, and a seeded
multi-start front end (box center plus Latin hypercube points). Only the
single-stage fit runs ``multi_start`` and ``minimize_bounded``; the staged
fit uses ``finite_difference_gradient`` alone, for the derivative of its
one-parameter profile.

scipy.optimize takes longer to import than the rest of feecalib, and only
the fits use it, so it is imported where it is used; the fit entry points
call ``_load_solvers`` before their clocks start.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteObjective, SolverFailure

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverOptions:
    """Hyperparameters shared by all calibration runs."""

    max_iterations: int = 1000
    gradient_tolerance: float = 1e-5
    finite_difference_step: float = 1e-6
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.gradient_tolerance <= 0.0:
            raise ValueError("gradient_tolerance must be positive")
        if self.finite_difference_step <= 0.0:
            raise ValueError("finite_difference_step must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")


@dataclass
class SolveResult:
    """Outcome of one bounded minimization (or the best of several starts)."""

    x_star: np.ndarray
    objective_value: float
    iterations: int
    gradient_norm: float
    converged: bool
    starts_tried: int = 1
    function_evaluations: int = 0


def _load_solvers() -> None:
    """Import scipy.optimize if no one has yet, and log at DEBUG how long
    that took."""
    if "scipy.optimize" in sys.modules:
        return
    t0 = time.perf_counter()
    import scipy.optimize  # noqa: F401
    log.debug("loaded scipy.optimize in %.1f ms",
              1e3 * (time.perf_counter() - t0))


def _as_bounds(bounds, dim: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(bounds, dtype=float)
    if arr.shape != (dim, 2):
        raise ValueError(f"bounds must be ({dim}, 2), got {arr.shape}")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError("lower bounds exceed upper bounds")
    return arr[:, 0], arr[:, 1]


def finite_difference_gradient(objective: Callable[[np.ndarray], float],
                               x: np.ndarray, bounds,
                               relative_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, one-sided at bound-active coordinates.

    Steps are relative to |x_i| with a unit fallback for near-zero
    coordinates and an absolute floor of 1e-10.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = _as_bounds(bounds, x.size)
    grad = np.zeros(x.size)
    f_center = None

    def _eval(point: np.ndarray) -> float:
        value = float(objective(point))
        if not np.isfinite(value):
            raise NonFiniteObjective(
                f"objective returned {value!r} at {point.tolist()}")
        return value

    for i in range(x.size):
        h = max(relative_step * max(abs(x[i]), 1.0), 1e-10)
        up_ok = x[i] + h <= hi[i]
        dn_ok = x[i] - h >= lo[i]
        if not (up_ok or dn_ok):
            h = 0.5 * (hi[i] - lo[i])
            if h <= 0.0:
                continue  # pinned coordinate
            up_ok = x[i] + h <= hi[i]
            dn_ok = x[i] - h >= lo[i]
        xp = x.copy()
        if up_ok and dn_ok:
            xp[i] = x[i] + h
            f_up = _eval(xp)
            xp[i] = x[i] - h
            f_dn = _eval(xp)
            grad[i] = (f_up - f_dn) / (2.0 * h)
        else:
            if f_center is None:
                f_center = _eval(x)
            if up_ok:
                xp[i] = x[i] + h
                grad[i] = (_eval(xp) - f_center) / h
            else:
                xp[i] = x[i] - h
                grad[i] = (f_center - _eval(xp)) / h
    return grad


def _projected_gradient_norm(grad: np.ndarray, x: np.ndarray,
                             lo: np.ndarray, hi: np.ndarray) -> float:
    pg = grad.copy()
    at_lo = np.isclose(x, lo, rtol=0.0, atol=1e-12) & (pg > 0.0)
    at_hi = np.isclose(x, hi, rtol=0.0, atol=1e-12) & (pg < 0.0)
    pg[at_lo | at_hi] = 0.0
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def minimize_bounded(objective: Callable[[np.ndarray], float],
                     x0: np.ndarray, bounds,
                     options: SolverOptions = SolverOptions()
                     ) -> SolveResult:
    """Quasi-Newton descent inside a box from a single start point.

    Every evaluated point is first projected onto the box; NaN/Inf
    objective values are replaced by a large penalty so the line search
    backtracks, and NonFiniteObjective is raised only when the objective
    is already non-finite at x0. The reported solution is the best
    feasible iterate seen.
    """
    x0 = np.asarray(x0, dtype=float)
    lo, hi = _as_bounds(bounds, x0.size)
    if np.any(x0 < lo - 1e-12) or np.any(x0 > hi + 1e-12):
        raise ValueError("x0 must lie within bounds")
    x0 = np.clip(x0, lo, hi)

    evals = 1
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise NonFiniteObjective("objective is not finite at x0")
    # large enough to dominate any legitimate value, small enough not to
    # wreck the line search interpolation or the relative-reduction test
    penalty = 1e6 * max(1.0, abs(f0))
    best_f = f0
    best_x = x0.copy()

    def wrapped(x: np.ndarray) -> float:
        nonlocal evals, best_f, best_x
        xc = np.clip(np.asarray(x, dtype=float), lo, hi)
        value = objective(xc)
        evals += 1
        value = float(value)
        if not np.isfinite(value):
            return penalty
        if value < best_f:
            best_f = value
            best_x = xc.copy()
        return min(value, penalty)

    def jac(x: np.ndarray) -> np.ndarray:
        return finite_difference_gradient(
            wrapped, np.clip(x, lo, hi), np.column_stack([lo, hi]),
            options.finite_difference_step)

    from scipy.optimize import minimize
    res = minimize(
        wrapped, x0, jac=jac, method="L-BFGS-B",
        bounds=np.column_stack([lo, hi]),
        options=dict(maxiter=options.max_iterations, maxcor=10,
                     gtol=options.gradient_tolerance, ftol=1e-14,
                     maxfun=10_000_000))

    grad = jac(best_x)
    pg_norm = _projected_gradient_norm(grad, best_x, lo, hi)
    return SolveResult(x_star=best_x, objective_value=best_f,
                       iterations=int(res.nit), gradient_norm=pg_norm,
                       converged=pg_norm <= options.gradient_tolerance,
                       starts_tried=1, function_evaluations=evals)


def latin_hypercube(n_points: int, lo: np.ndarray, hi: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Stratified sample of the box, one random permutation per dimension."""
    dim = lo.size
    u = np.empty((n_points, dim))
    for j in range(dim):
        strata = rng.permutation(n_points)
        u[:, j] = (strata + rng.uniform(size=n_points)) / n_points
    return lo + u * (hi - lo)


def multi_start(objective: Callable[[np.ndarray], float], bounds,
                options: SolverOptions = SolverOptions()) -> SolveResult:
    """Best solve over a deterministic start set.

    Starts are the box center, then n_starts - 1 Latin hypercube points.
    Per-start failures are tolerated; SolverFailure is raised only when
    every start fails.
    """
    arr = np.asarray(bounds, dtype=float)
    lo, hi = _as_bounds(arr, arr.shape[0])
    starts = [0.5 * (lo + hi)]
    if options.n_starts > 1:
        rng = np.random.default_rng(options.seed)
        starts.extend(latin_hypercube(options.n_starts - 1, lo, hi, rng))

    best: SolveResult | None = None
    failures: list[str] = []
    total_evals = 0
    tried = 0
    for x0 in starts:
        tried += 1
        try:
            result = minimize_bounded(objective, x0, arr, options)
        except NonFiniteObjective as exc:
            failures.append(str(exc))
            log.debug("start %d failed: %s", tried, exc)
            continue
        total_evals += result.function_evaluations
        if best is None or result.objective_value < best.objective_value:
            best = result
    if best is None:
        raise SolverFailure(
            f"all {tried} starts failed: {failures[:3]}")
    best.starts_tried = tried
    best.function_evaluations = total_evals
    return best
