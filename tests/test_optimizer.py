import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear, minimize_scalar
from scipy.optimize._lsq.bvls import bvls as reference_bvls

from feecalib import (NonFiniteObjective, SolverFailure, SolverOptions,
                      finite_difference_gradient, minimize_bounded,
                      multi_start)
from feecalib.calibration import _face_lsq
from feecalib.optimizer import latin_hypercube, minimize_scalar_bounded


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

    def test_box_narrower_than_the_step(self):
        # the relative step, 1e-6, does not fit a box 1e-8 wide: the step
        # is half the width, one-sided into the box; a pinned coordinate
        # has no step and a zero derivative
        calls = []

        def f(v):
            calls.append(v.copy())
            return float(v[0] ** 2 + 3.0 * v[1])

        x = np.array([0.5, 2.0])
        lo, hi = 0.5, 0.5 + 1e-8
        g = finite_difference_gradient(f, x, [(lo, hi), (2.0, 2.0)])
        h = 0.5 * (hi - lo)
        assert [v.tolist() for v in calls] == [[0.5, 2.0], [0.5 + h, 2.0]]
        assert g[0] == (f(np.array([0.5 + h, 2.0])) - f(x)) / h
        assert g[1] == 0.0

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

    def test_every_start_failing_raises(self):
        with pytest.raises(SolverFailure, match="^all 2 starts failed: "):
            multi_start(lambda x: math.nan, self.BOUNDS,
                        SolverOptions(n_starts=2))

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


# (function, lo, hi, xatol, maxfun) of each bounded Brent case
BRENT_CASES = {
    "interior minimum": (lambda x: (x - 0.3) ** 2 + math.sin(5.0 * x),
                         -1.0, 2.0, 1e-10, 500),
    "minimum at the lower end": (math.exp, 0.0, 1.0, 1e-10, 500),
    "minimum at the upper end": (lambda x: -x ** 3, -1.0, 2.0, 1e-10, 500),
    "flat": (lambda x: 2.5, 0.0, 1.0, 1e-10, 500),
    "NaN on part of the bracket": (
        lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, 0.0, 1.0, 1e-10,
        500),
    "NaN everywhere": (lambda x: math.nan, 0.0, 1.0, 1e-10, 500),
    "stops at maxfun": (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-10, 5),
}


class TestMinimizeScalarBounded:
    @pytest.mark.parametrize("case", BRENT_CASES)
    def test_same_bits_as_scipy(self, case):
        """The points evaluated, x, the evaluation count and converged
        are those of minimize_scalar(method="bounded")."""
        func, lo, hi, xatol, maxfun = BRENT_CASES[case]
        seen, seen_ref = [], []
        x, evaluations, converged = minimize_scalar_bounded(
            lambda v: seen.append(v) or func(v), lo, hi, xatol, maxfun)
        ref = minimize_scalar(lambda v: seen_ref.append(v) or func(v),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol, "maxiter": maxfun})
        assert seen == seen_ref
        assert x == ref.x
        assert evaluations == ref.nfev == len(seen)
        assert converged == ref.success
        if case in ("NaN everywhere", "stops at maxfun"):
            assert not converged
        if case == "stops at maxfun":
            assert evaluations == maxfun


@st.composite
def bvls_problems(draw):
    """min ||A x - b|| over a random box, with m <= 40 rows and p = 1-3
    unknowns."""
    p = draw(st.integers(1, 3))
    m = draw(st.integers(1, 40))
    a = draw(arrays(np.float64, (m, p), elements=st.floats(-10.0, 10.0)))
    b = draw(arrays(np.float64, m, elements=st.floats(-100.0, 100.0)))
    lb = draw(arrays(np.float64, p, elements=st.floats(-5.0, 5.0)))
    ub = lb + draw(arrays(np.float64, p, elements=st.floats(0.01, 5.0)))
    return a, b, lb, ub


def leaves_the_box(problem) -> bool:
    """Whether the unconstrained solution leaves the box, where
    lsq_linear runs BVLS and ``_bounded_lsq`` searches the faces."""
    a, b, lb, ub = problem
    x_lsq = np.linalg.lstsq(a, b, rcond=-1)[0]
    return not ((x_lsq >= lb) & (x_lsq <= ub)).all()


def reaches_the_main_loop(problem) -> bool:
    """Whether BVLS's main loop runs: the reference's start-up loop alone
    (no main-loop iteration) ends short of the KKT conditions."""
    a, b, lb, ub = problem
    x_lsq = np.linalg.lstsq(a, b, rcond=-1)[0]
    start = reference_bvls(a, b, x_lsq, lb, ub, tol=1e-10, max_iter=0,
                           verbose=0)
    return start.optimality >= 1e-10


def face_search(problem):
    """``_face_lsq``'s x and sides, and whether they fail the exact KKT
    sign test, which only its fallback returns."""
    a, b, lb, ub = problem
    x, side = _face_lsq(a, b, np.linalg.lstsq(a, b, rcond=-1)[0], lb, ub)
    return x, side, not (side * a.T.dot(a.dot(x) - b) <= 0.0).all()


def assert_as_low_as_lsq_linear(problem):
    """x lies in the box, and its residual sum of squares is at most
    lsq_linear(method="bvls")'s, to 1e-12 of that value plus |b|^2, or,
    if larger, of | |A| |x| |^2: a residual that cancels to zero is
    rounding of the terms of A x, and its square is no smaller than
    theirs times the unit roundoff squared. Where lsq_linear's x is not
    finite, the reference is the lowest residual over the box's 2^p
    vertices instead."""
    a, b, lb, ub = problem
    x, side, _ = face_search(problem)
    ref = lsq_linear(a, b, bounds=(lb, ub), method="bvls")
    assert ((x >= lb) & (x <= ub)).all(), (x, lb, ub)
    assert np.array_equal(x[side < 0], lb[side < 0])
    assert np.array_equal(x[side > 0], ub[side > 0])
    r = a.dot(x) - b
    rss = r.dot(r)
    if np.isfinite(ref.x).all():
        r_ref = a.dot(ref.x) - b
        rss_ref = r_ref.dot(r_ref)
    else:
        vertices = np.array(list(itertools.product(*zip(lb, ub))))
        r_ref = vertices.dot(a.T) - b
        rss_ref = np.einsum("ij,ij->i", r_ref, r_ref).min()
    terms = np.abs(a).dot(np.abs(x))
    assert rss <= rss_ref + 1e-12 * max(rss_ref + b.dot(b),
                                        terms.dot(terms)), (rss, rss_ref)
    return rss, rss_ref


class TestFaceSearch:
    @settings(max_examples=300, deadline=None)
    @given(bvls_problems())
    # both residuals are rounding of -2 x0 + 1.15 x1 = 0: 1e-16 and 1e-17
    @example((np.array([[-2.0, 1.15, 0.0]]), np.zeros(1), np.full(3, 0.25),
              np.full(3, 1.25)))
    # subnormal columns, on which lsq_linear returns x = (nan, nan, 1)
    @example((np.full((6, 3), 2.22507386e-311),
              np.array([18.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.zeros(3),
              np.ones(3)))
    def test_as_low_as_lsq_linear(self, problem):
        assume(leaves_the_box(problem))
        assert_as_low_as_lsq_linear(problem)

    def test_main_loop_draws_are_as_low(self):
        """The problems above include ones that need BVLS's main loop,
        not only its start-up loop, and the face search solves one of
        them as well."""
        problem = find(bvls_problems(),
                       lambda pr: (leaves_the_box(pr)
                                   and reaches_the_main_loop(pr)),
                       settings=settings(database=None, derandomize=True,
                                         max_examples=2000))
        assert_as_low_as_lsq_linear(problem)

    def test_fallback_has_lsq_linear_objective(self):
        """The problems above include ones where rounding fails the exact
        sign test on every face; the lowest in-box solution is then
        lsq_linear's objective."""
        problem = find(bvls_problems(),
                       lambda pr: leaves_the_box(pr) and face_search(pr)[2],
                       settings=settings(database=None, derandomize=True,
                                         max_examples=2000))
        rss, rss_ref = assert_as_low_as_lsq_linear(problem)
        assert rss == rss_ref

    def test_non_finite_data_gives_a_fixed_face(self):
        """With a NaN in b no face with a free unknown is in the box, and
        the fallback still returns a face that fixes every unknown."""
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, np.nan, 2.0])
        lb, ub = np.zeros(2), np.ones(2)
        x, side = _face_lsq(a, b, np.full(2, np.nan), lb, ub)
        assert side.tolist() == [-1, -1] and x.tolist() == [0.0, 0.0]
