import math

import numpy as np
import pytest

from feecalib import (NonFiniteObjective, SolverFailure, SolverOptions,
                      finite_difference_gradient, minimize_bounded,
                      multi_start)
from feecalib.optimizer import latin_hypercube


def multi_start_warm(objective, bounds, options=SolverOptions(),
                     warm_start=None):
    """multi_start with an optional warm start ahead of the box center:
    starts are the warm start, the center, then Latin hypercube points,
    truncated to n_starts. The library's multi_start is this with no
    warm start."""
    arr = np.asarray(bounds, dtype=float)
    lo, hi = arr[:, 0], arr[:, 1]
    starts = []
    if warm_start is not None:
        starts.append(np.clip(np.asarray(warm_start, dtype=float), lo, hi))
    starts.append(0.5 * (lo + hi))
    extra = options.n_starts - len(starts)
    if extra > 0:
        rng = np.random.default_rng(options.seed)
        starts.extend(latin_hypercube(extra, lo, hi, rng))
    starts = starts[:max(options.n_starts, 1)]
    best = None
    failures = []
    total_evals = 0
    for x0 in starts:
        try:
            result = minimize_bounded(objective, x0, arr, options)
        except NonFiniteObjective as exc:
            failures.append(str(exc))
            continue
        total_evals += result.function_evaluations
        if best is None or result.objective_value < best.objective_value:
            best = result
    if best is None:
        raise SolverFailure(f"all {len(starts)} starts failed: "
                            f"{failures[:3]}")
    best.starts_tried = len(starts)
    best.function_evaluations = total_evals
    return best


def quadratic_about(c):
    c = np.asarray(c, dtype=float)
    return lambda x: float(np.sum((x - c) ** 2))


class TestMinimizeBounded:
    def test_unconstrained_quadratic(self):
        c = np.array([0.3, -0.7, 1.4])
        res = minimize_bounded(quadratic_about(c), np.zeros(3),
                               [(-2.0, 2.0)] * 3)
        assert np.max(np.abs(res.x_star - c)) < 1e-6
        assert res.converged

    def test_projected_quadratic(self):
        # separable quadratic: constrained optimum is the box projection
        c = np.array([0.3, -0.7, 1.4])
        bounds = [(-2.0, 0.0), (-0.5, 2.0), (-2.0, 1.0)]
        res = minimize_bounded(quadratic_about(c), np.zeros(3), bounds)
        assert np.max(np.abs(res.x_star - [0.0, -0.5, 1.0])) < 1e-6

    def test_rosenbrock_in_box(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2
                         + (1.0 - x[0]) ** 2)
        res = minimize_bounded(rosen, np.zeros(2), [(-2.0, 2.0)] * 2)
        assert np.max(np.abs(res.x_star - 1.0)) < 1e-4

    def test_never_worse_than_start(self):
        def wavy(x):
            return float(np.sum(np.sin(3.0 * x) + 0.1 * x ** 2))
        x0 = np.array([0.7, -1.1])
        res = minimize_bounded(wavy, x0, [(-3.0, 3.0)] * 2)
        assert res.objective_value <= wavy(x0)

    def test_result_within_bounds(self):
        res = minimize_bounded(quadratic_about([5.0]), np.array([0.5]),
                               [(0.0, 1.0)])
        assert 0.0 <= res.x_star[0] <= 1.0
        assert res.x_star[0] == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_at_start_raises(self):
        with pytest.raises(NonFiniteObjective):
            minimize_bounded(lambda x: math.nan, np.zeros(1), [(-1.0, 1.0)])

    def test_nonfinite_away_from_start_recovers(self):
        # objective blows up past x=1.5; solver must backtrack and still
        # make progress toward the feasible minimum at 1.0
        def guarded(x):
            if x[0] > 1.5:
                return math.inf
            return (x[0] - 1.0) ** 2
        res = minimize_bounded(guarded, np.array([0.0]), [(-2.0, 2.0)])
        assert res.x_star[0] == pytest.approx(1.0, abs=1e-5)

    def test_rejects_x0_outside_bounds(self):
        with pytest.raises(ValueError):
            minimize_bounded(quadratic_about([0.0]), np.array([5.0]),
                             [(-1.0, 1.0)])

    def test_iteration_cap_reported(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2
                         + (1.0 - x[0]) ** 2)
        res = minimize_bounded(rosen, np.zeros(2), [(-2.0, 2.0)] * 2,
                               SolverOptions(max_iterations=2,
                                             gradient_tolerance=1e-12))
        assert not res.converged
        assert res.iterations == 2


class TestFiniteDifferenceGradient:
    def test_exact_on_affine(self):
        a = np.array([2.0, -3.0, 0.5])
        x = np.array([0.1, 0.2, -0.4])
        g = finite_difference_gradient(lambda v: float(a @ v), x,
                                       [(-1.0, 1.0)] * 3)
        assert np.max(np.abs(g - a)) < 1e-9

    def test_exact_on_quadratic(self):
        x = np.array([0.3, -0.2, 0.9])
        g = finite_difference_gradient(lambda v: float(v @ v), x,
                                       [(-1.0, 1.0)] * 3)
        assert np.max(np.abs(g - 2.0 * x)) < 1e-8

    def test_exponential_against_analytic(self):
        g = finite_difference_gradient(lambda v: float(np.exp(v[0])),
                                       np.array([0.0]), [(-1.0, 1.0)])
        assert abs(g[0] - 1.0) < 1e-8

    def test_one_sided_at_active_bound(self):
        a = np.array([3.0])
        g = finite_difference_gradient(lambda v: float(a @ v),
                                       np.array([1.0]), [(0.0, 1.0)])
        assert g[0] == pytest.approx(3.0, abs=1e-8)

    def test_matches_analytic_on_smooth_set(self):
        rng = np.random.default_rng(17)
        bounds = [(-2.0, 2.0)] * 3

        cases = [
            (lambda v: float(np.sum(np.sin(v))), lambda v: np.cos(v)),
            (lambda v: float(np.sum(v ** 3)), lambda v: 3.0 * v ** 2),
            (lambda v: float(np.exp(0.3 * v).sum()),
             lambda v: 0.3 * np.exp(0.3 * v)),
        ]
        for f, df in cases:
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, 3)
                g = finite_difference_gradient(f, x, bounds)
                want = df(x)
                assert np.max(np.abs(g - want)) <= 1e-6 * max(
                    1.0, float(np.max(np.abs(want))))

    def test_propagates_nonfinite(self):
        with pytest.raises(NonFiniteObjective):
            finite_difference_gradient(lambda v: math.nan, np.zeros(1),
                                       [(-1.0, 1.0)])


def two_basin(x):
    # local basin near 0.2, global basin near 0.9; the box center descends
    # into the local one
    return float(100.0 * (x[0] - 0.9) ** 2 * (x[0] - 0.2) ** 2 - x[0])


class TestMultiStart:
    BOUNDS = [(0.0, 1.0)]

    def test_single_start_equals_center_start(self):
        a = multi_start(two_basin, self.BOUNDS, SolverOptions(n_starts=1))
        b = minimize_bounded(two_basin, np.array([0.5]), self.BOUNDS)
        assert np.array_equal(a.x_star, b.x_star)

    def test_finds_global_basin(self):
        grid = np.linspace(0.0, 1.0, 200001)
        vals = (100.0 * (grid - 0.9) ** 2 * (grid - 0.2) ** 2 - grid)
        global_min = grid[np.argmin(vals)]
        local = multi_start(two_basin, self.BOUNDS, SolverOptions(n_starts=1))
        assert abs(local.x_star[0] - global_min) > 0.1  # center is fooled
        res = multi_start(two_basin, self.BOUNDS, SolverOptions(n_starts=8))
        assert res.x_star[0] == pytest.approx(global_min, abs=1e-4)

    def test_deterministic_for_seed(self):
        a = multi_start(two_basin, self.BOUNDS,
                        SolverOptions(n_starts=8, seed=5))
        b = multi_start(two_basin, self.BOUNDS,
                        SolverOptions(n_starts=8, seed=5))
        assert np.array_equal(a.x_star, b.x_star)
        assert a.objective_value == b.objective_value
        assert a.function_evaluations == b.function_evaluations

    def test_warm_start_is_used(self):
        res = multi_start_warm(two_basin, self.BOUNDS,
                               SolverOptions(n_starts=2),
                               warm_start=np.array([0.88]))
        assert res.x_star[0] == pytest.approx(0.9, abs=0.05)

    def test_counts_aggregate_over_starts(self):
        one = multi_start(two_basin, self.BOUNDS, SolverOptions(n_starts=1))
        many = multi_start(two_basin, self.BOUNDS, SolverOptions(n_starts=8))
        assert many.starts_tried == 8
        assert many.function_evaluations > one.function_evaluations


class TestLatinHypercube:
    def test_stratification(self):
        rng = np.random.default_rng(0)
        pts = latin_hypercube(10, np.zeros(2), np.ones(2), rng)
        for j in range(2):
            strata = np.floor(pts[:, j] * 10).astype(int)
            assert sorted(strata) == list(range(10))

    def test_respects_bounds(self):
        rng = np.random.default_rng(1)
        lo = np.array([-1.0, 5.0])
        hi = np.array([1.0, 6.0])
        pts = latin_hypercube(16, lo, hi, rng)
        assert np.all(pts >= lo) and np.all(pts <= hi)
