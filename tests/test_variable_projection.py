"""The variable-projection stages against the multi-start fits they
replaced.

The reference below is the staged fit as it was: multi-start
finite-difference L-BFGS over each stage's whole parameter box. It runs
with a gradient tolerance of 1e-9 instead of the library's 1e-5, because
at 1e-5 the noisy fits leave delta, K and c unresolved at about 1e-5
relative, which would hide a real mismatch at the 1e-6 the parameters are
checked to; the tighter reference also reaches a lower objective, which
makes the objective check stricter.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from feecalib import (CalibrationOptions, FeeCalibError, ParameterBounds,
                      SoilParameters, SolverOptions, add_noise,
                      calibrate_multi_stage, calibrate_stage1,
                      calibrate_stage2, calibrate_stage3, prepare_cycle)
from feecalib.calibration import (_PROFILE_GRID, _BoxMap, _bounded_lsq,
                                  _forces, _profile_search, _series_scale,
                                  split_pressure_coefficient,
                                  stage1_tangential_force)
from test_calibration import assemble, smoothed
from test_optimizer import multi_start_warm

STAGE1_FIELDS = ("adhesion_ca", "delta", "kc", "kphi", "n")
STAGE2_FIELDS = ("gamma", "cohesion_c", "phi")
STAGE3_FIELDS = ("kc", "kphi", "n")

REFERENCE = CalibrationOptions(solver=SolverOptions(gradient_tolerance=1e-9))


# ---------------------------------------------------------------------------
# Reference: each stage objective over its parameter vector, minimized by
# multi-start L-BFGS on the unit box
# ---------------------------------------------------------------------------

def stage1_objective(cycle, options):
    depth, lt = cycle.depth, cycle.lt
    fn_obs, ft_obs = cycle.fn_obs, cycle.ft_obs
    scale = _series_scale(ft_obs)

    def objective(theta1) -> float:
        residual = ft_obs - stage1_tangential_force(theta1, depth, lt,
                                                    fn_obs, cycle.loader)
        return float(residual @ residual) / scale

    return objective


def stage2_objective(cycle, theta1_star, options):
    ca_star, delta_star = float(theta1_star[0]), float(theta1_star[1])
    target = cycle.fn_obs / math.cos(delta_star)
    scale = _series_scale(target)
    base = SoilParameters(gamma=0.5 * sum(options.bounds.gamma),
                          cohesion_c=0.0, adhesion_ca=ca_star, phi=0.0,
                          delta=delta_star, kc=0.0, kphi=0.0, n=1.0)

    def objective(theta2) -> float:
        gamma, cohesion, phi = theta2
        theta = base.replace(gamma=gamma, cohesion_c=cohesion, phi=phi)
        out = _forces(theta, cycle)
        force, valid = out.fee, out.valid
        if not valid.any():
            return 1e12
        residual = target[valid] - force[valid]
        return float(residual @ residual) / scale

    return objective


def stage3_objective(cycle, theta_fixed, options):
    out = _forces(theta_fixed, cycle)
    force, valid = out.fee, out.valid
    loader = cycle.loader
    depth = cycle.depth[valid]
    lt = cycle.lt[valid]
    ft_obs = cycle.ft_obs[valid]
    friction_term = (force[valid] * math.sin(theta_fixed.delta)
                     + theta_fixed.adhesion_ca * loader.omega * lt)
    scale = _series_scale(ft_obs)

    def objective(theta3) -> float:
        kc, kphi, n = theta3
        f_t = (loader.omega * loader.b * (kc / loader.b + kphi) * depth ** n
               + friction_term)
        residual = ft_obs - f_t
        return float(residual @ residual) / scale

    return objective


def to_unit(box, values):
    """The point of ``box``'s unit cube that ``box.from_unit`` maps to
    ``values``, clipped to the cube; a zero-width axis maps to 0.5."""
    unit = np.where(box.width > 0.0,
                    (values - box.lo) / np.where(box.width > 0.0,
                                                 box.width, 1.0),
                    0.5)
    return np.clip(unit, 0.0, 1.0)


def reference_fit(objective, fields, options, warm_start=None):
    box = _BoxMap(options.bounds, fields)
    solve = multi_start_warm(lambda unit: objective(box.from_unit(unit)),
                             box.unit_bounds, options.solver,
                             warm_start=(None if warm_start is None
                                         else to_unit(
                                             box, np.array(warm_start))))
    return box.from_unit(solve.x_star)


# Stage 2 runs on the smoothed normal force (the paper's stage 2) in the
# first four cases and on the raw one, as calibrate_multi_stage runs it, in
# the rest. There is no clean raw case: that fit is exact, the two
# objectives differ only by rounding there, and test_calibration's
# noiseless recovery test covers it.
@pytest.fixture(scope="module",
                params=[("smoothed", "clean"), ("smoothed", 1),
                        ("smoothed", 2), ("smoothed", 3), ("raw", 1),
                        ("raw", 2), ("raw", 3)],
                ids=["clean", "noise-seed1", "noise-seed2", "noise-seed3",
                     "raw-noise-seed1", "raw-noise-seed2",
                     "raw-noise-seed3"])
def fits(request, dataset):
    """VP and reference fits of each stage on the same inputs: stages 2
    and 3 both start from the VP fits of the stages before them."""
    stage2_input, noise_seed = request.param
    ds = dataset if noise_seed == "clean" else add_noise(
        dataset, 0.05, seed=noise_seed)
    options = CalibrationOptions()
    b = ds.loader.b
    cycle = prepare_cycle(ds)
    cycle2 = smoothed(cycle) if stage2_input == "smoothed" else cycle
    theta1, _ = calibrate_stage1(cycle, options)
    theta2, _ = calibrate_stage2(cycle2, theta1, options)
    fixed = assemble(theta1, theta2)
    theta3, _ = calibrate_stage3(cycle, fixed, options)
    f1 = stage1_objective(cycle, options)
    f2 = stage2_objective(cycle2, theta1, options)
    f3 = stage3_objective(cycle, fixed, options)
    ref1 = reference_fit(f1, STAGE1_FIELDS, REFERENCE)
    ref2 = reference_fit(f2, STAGE2_FIELDS, REFERENCE)
    ref3 = reference_fit(f3, STAGE3_FIELDS, REFERENCE,
                         warm_start=[fixed.kc, fixed.kphi, fixed.n])

    def identifiable1(t):
        return {"adhesion_ca": t[0], "delta": t[1], "K": t[2] / b + t[3],
                "n": t[4]}

    def identifiable3(t):
        return {"K": t[0] / b + t[1], "n": t[2]}

    return [(f1, theta1, ref1, identifiable1),
            (f2, theta2, ref2, lambda t: dict(zip(STAGE2_FIELDS, t))),
            (f3, theta3, ref3, identifiable3)], b


def _bounds_of(name, bounds, b):
    if name == "K":
        return (bounds.kc[0] / b + bounds.kphi[0],
                bounds.kc[1] / b + bounds.kphi[1])
    return getattr(bounds, name)


class TestAgainstMultiStartReference:
    def test_objective_no_worse(self, fits):
        stages, _ = fits
        for objective, vp, ref, _ in stages:
            f_ref = objective(ref)
            assert objective(vp) <= f_ref + 1e-9 * abs(f_ref)

    def test_identifiable_parameters_match(self, fits):
        stages, b = fits
        bounds = ParameterBounds()
        for _, vp, ref, identifiable in stages:
            got, want = identifiable(vp), identifiable(ref)
            for name in got:
                lo, hi = _bounds_of(name, bounds, b)
                same_bound = any(
                    got[name] == edge
                    and abs(want[name] - edge) <= 1e-9 * (hi - lo)
                    for edge in (lo, hi))
                assert (same_bound or abs(got[name] - want[name])
                        <= 1e-6 * abs(want[name])), (name, got, want)


class TestStagedFitDeterminism:
    def test_solver_options_do_not_move_the_staged_fit(self, dataset):
        runs = [calibrate_multi_stage(dataset, options=CalibrationOptions(
                    solver=SolverOptions(seed=seed, n_starts=n_starts)))
                for seed, n_starts in ((0, 8), (1, 8), (12345, 8), (3, 1))]
        first = runs[0]
        for run in runs[1:]:
            assert run.theta_star == first.theta_star
            assert run.function_evaluations == first.function_evaluations

    def test_stage3_returns_incumbent_when_optimal(self, dataset):
        options = CalibrationOptions()
        cycle = prepare_cycle(dataset)
        theta1, _ = calibrate_stage1(cycle, options)
        theta2, _ = calibrate_stage2(cycle, theta1, options)
        fixed = assemble(theta1, theta2)
        theta3, _ = calibrate_stage3(cycle, fixed, options)
        optimal = fixed.replace(kc=theta3[0], kphi=theta3[1], n=theta3[2])
        again, diag = calibrate_stage3(cycle, optimal, options)
        assert np.array_equal(again, [optimal.kc, optimal.kphi, optimal.n])
        assert diag.parameters["K"] == optimal.kc / dataset.loader.b \
            + optimal.kphi

    def test_stage3_keeps_a_better_incumbent_outside_the_box(self, dataset,
                                                             truth):
        # the incumbent n lies below the searched interval and fits the
        # noiseless cycle exactly, so no candidate inside can beat it
        options = CalibrationOptions(
            bounds=replace(ParameterBounds(), n=(0.5, 1.53)))
        theta3, diag = calibrate_stage3(prepare_cycle(dataset), truth,
                                        options)
        assert np.array_equal(theta3, [truth.kc, truth.kphi, truth.n])
        assert diag.objective_value < 1e-20

    def test_nonfinite_observations_fail_with_a_library_error(self,
                                                              dataset):
        f_t = np.array(dataset.f_t_obs, dtype=float)
        f_t[np.argmax(f_t)] = np.nan
        with pytest.raises(FeeCalibError):
            calibrate_multi_stage(replace(dataset, f_t_obs=f_t))


class TestReportDiagnostics:
    def test_at_bound_lists_exactly_the_parameters_on_a_bound(self,
                                                              dataset):
        report = calibrate_multi_stage(dataset)
        bounds = ParameterBounds()
        b = dataset.loader.b
        for stage in report.stages:
            for name, value in stage.parameters.items():
                if name in ("kc", "kphi"):
                    continue    # the fit is on K; the split is a rule
                lo, hi = _bounds_of(name, bounds, b)
                want = ("lower" if value == lo else
                        "upper" if value == hi else None)
                assert stage.at_bound.get(name) == want, (stage.name, name)
            assert stage.converged or stage.iterations > 0
            assert math.isfinite(stage.gradient_norm)
            assert stage.starts_tried > 0
        # stage 2 fits the raw normal series, which the noiseless model
        # matches inside the box
        assert report.stages[1].at_bound == {}
        assert "kc/kphi split" in report.not_identified


class TestSplitAndLinearSolve:
    def test_split_stays_in_bounds_and_keeps_k(self):
        rng = np.random.default_rng(5)
        for bounds in (ParameterBounds(),
                       ParameterBounds(kc=(500.0, 4000.0),
                                       kphi=(1e4, 2e5))):
            for b in (0.02, 0.05, 0.3):
                lo = bounds.kc[0] / b + bounds.kphi[0]
                hi = bounds.kc[1] / b + bounds.kphi[1]
                for big_k in np.concatenate([[lo, hi],
                                             rng.uniform(lo, hi, 200)]):
                    kc, kphi = split_pressure_coefficient(big_k, bounds, b)
                    if big_k - bounds.kc[0] / b <= bounds.kphi[1]:
                        # kc stays at its lower bound while kphi can
                        # carry the rest
                        assert kc == pytest.approx(bounds.kc[0],
                                                   abs=1e-9 * bounds.kc[1])
                    assert bounds.kc[0] <= kc <= bounds.kc[1]
                    assert bounds.kphi[0] <= kphi <= bounds.kphi[1]
                    assert kc / b + kphi == pytest.approx(big_k, rel=1e-12)

    def test_degenerate_columns_are_pinned_at_the_lower_bound(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(50, 2))
        target = a @ [0.7, -0.2]
        design = np.column_stack([a[:, 0], np.zeros(50), a[:, 1],
                                  rng.normal(size=50)])
        lo = np.array([-5.0, -1.0, -5.0, 2.0])
        hi = np.array([5.0, 1.0, 5.0, 2.0])
        x, rss = _bounded_lsq(design, target + 2.0 * design[:, 3], lo, hi)
        assert x[1] == -1.0 and x[3] == 2.0
        assert x[[0, 2]] == pytest.approx([0.7, -0.2], rel=1e-10)
        assert rss == pytest.approx(0.0, abs=1e-20)

    def test_active_bounds_are_exact(self):
        # an unknown that ends on a bound reports the bound itself, not
        # the bound scaled by its column norm and back
        for seed in range(40):
            rng = np.random.default_rng(seed)
            design = rng.normal(size=(20, 2)) * rng.uniform(0.1, 10.0, 2)
            target = design @ rng.uniform(-20.0, 20.0, 2)
            lo = rng.uniform(-3.0, 0.0, 2).round(1)
            hi = rng.uniform(0.1, 3.0, 2).round(1)
            x, _ = _bounded_lsq(design, target, lo, hi)
            for value, edge in zip(np.concatenate([x, x]),
                                   np.concatenate([lo, hi])):
                if abs(value - edge) <= 1e-12 * abs(edge):
                    assert value == edge


# ---------------------------------------------------------------------------
# The bounded least-squares solve and the profile search
# ---------------------------------------------------------------------------

def bounded_lsq_reference(design: np.ndarray, target: np.ndarray,
                          lo: np.ndarray,
                          hi: np.ndarray) -> tuple[np.ndarray, float]:
    """min ||design @ x - target|| subject to lo <= x <= hi.

    Bounded-variable least squares on unit-norm columns. An unknown whose
    column is all zero (the data cannot see it) or whose bounds coincide
    is pinned at its lower bound. Unknowns that end on a bound are set to
    it exactly. Returns x and the residual sum of squares at x.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    free = (norms > 0.0) & (hi > lo)
    x = lo.copy()
    if free.any():
        w = norms[free]
        rest = target - design[:, ~free] @ x[~free]
        res = lsq_linear(design[:, free] / w, rest,
                         bounds=(lo[free] * w, hi[free] * w), method="bvls")
        x[free] = np.select([res.active_mask < 0, res.active_mask > 0],
                            [lo[free], hi[free]],
                            np.clip(res.x / w, lo[free], hi[free]))
    residual = target - design @ x
    return x, float(residual @ residual)


def random_lsq_problem(rng, case):
    """A bounded least-squares problem with 1-3 unknowns whose solution
    has the shape ``case`` names."""
    k = int(rng.integers(1, 4))
    m = int(rng.integers(k + 1, 30))
    design = rng.normal(size=(m, k)) * rng.uniform(0.1, 100.0, k)
    lo = rng.uniform(-3.0, 1.0, k).round(2)
    hi = lo + rng.uniform(0.1, 3.0, k).round(2)
    x_true = rng.uniform(lo, hi)
    noise = 1e-3 * rng.normal(size=m)
    j = int(rng.integers(k))
    if case == "face":
        x_true[j] = (lo[j] - rng.uniform(1.0, 5.0) if rng.random() < 0.5
                     else hi[j] + rng.uniform(1.0, 5.0))
    elif case == "corner":
        x_true = np.where(rng.random(k) < 0.5, lo - rng.uniform(1.0, 5.0, k),
                          hi + rng.uniform(1.0, 5.0, k))
    elif case == "zero column":
        design[:, j] = 0.0
    elif case == "coinciding bounds":
        hi[j] = lo[j]
    elif case == "on a bound":
        x_true[j] = lo[j] if rng.random() < 0.5 else hi[j]
        noise[:] = 0.0
    return design, design @ x_true + noise, lo, hi


LSQ_CASES = ("inside", "face", "corner", "zero column", "coinciding bounds",
             "on a bound")


class TestBoundedLsqAgainstReference:
    @pytest.mark.parametrize("case", LSQ_CASES)
    def test_same_bits_as_the_bvls_reference(self, case):
        rng = np.random.default_rng(LSQ_CASES.index(case))
        paths = Counter()
        on_bound = 0
        for _ in range(200):
            design, target, lo, hi = random_lsq_problem(rng, case)
            x, rss = _bounded_lsq(design, target, lo, hi, paths)
            x_ref, rss_ref = bounded_lsq_reference(design, target, lo, hi)
            assert np.array_equal(x, x_ref), (x, x_ref)
            assert rss == rss_ref
            on_bound += bool(np.any((x == lo) | (x == hi)))
        if case == "inside":
            assert paths["bvls"] == 0 and on_bound == 0
        elif case in ("face", "corner"):
            # the solution leaves the box and BVLS puts it on the boundary
            assert paths["bvls"] > 0 and on_bound > 0
        else:
            assert paths["interior"] > 0 and on_bound > 0


def quadratic_profile(centre, calls=None):
    """A profile trial with its minimum at ``centre``; the inner unknowns
    are the trial point itself. ``calls``, when given, collects the
    number of candidates of each call."""
    def trial(xs, paths):
        if calls is not None:
            calls.append(xs.size)
        return [((x - centre) ** 2, np.array([x])) for x in xs.tolist()]
    return trial


LO, HI = 0.11, 1.53             # n's default bounds
WIDTH = HI - LO
CELL = WIDTH / (_PROFILE_GRID - 1)


class TestProfileSearch:
    @pytest.mark.parametrize("bound, centre", [(LO, LO - 0.3),
                                               (HI, HI + 0.3)])
    def test_outward_derivative_at_a_bound_skips_brent(self, bound, centre):
        profile = _profile_search(quadratic_profile(centre), LO, HI)
        assert profile.x == bound
        assert profile.inner.tolist() == [bound]
        assert profile.gradient_norm == 0.0
        assert profile.bound_shortcut
        assert (profile.iterations, profile.converged) == (0, True)
        assert profile.derivative_trials == 1
        assert profile.evaluations == _PROFILE_GRID + 1

    def test_interior_minimum_runs_brent_without_a_bound_check(self):
        centre = LO + 0.37 * WIDTH
        calls = []
        profile = _profile_search(quadratic_profile(centre, calls), LO, HI)
        assert profile.x == pytest.approx(centre, abs=1e-9)
        assert profile.gradient_norm < 1e-6
        assert not profile.bound_shortcut and profile.iterations > 0
        assert profile.derivative_trials == 2       # central difference
        assert profile.evaluations == _PROFILE_GRID + profile.iterations + 2
        # the grid is one call; Brent and the derivative make one-point calls
        assert calls == [_PROFILE_GRID] + [1] * (profile.iterations + 2)
        assert profile.passes == len(calls)

    def test_inward_derivative_at_a_bound_runs_brent(self):
        # the minimum lies inside the first grid cell, nearer lo than the
        # second grid point: lo is the best grid point, the derivative
        # there points into the box, and Brent moves off the bound
        centre = LO + 0.2 * CELL
        profile = _profile_search(quadratic_profile(centre), LO, HI)
        assert profile.x == pytest.approx(centre, abs=1e-9)
        assert profile.gradient_norm < 1e-6
        assert not profile.bound_shortcut and profile.iterations > 0
        # the bound's one-sided difference, then a central one at the end
        assert profile.derivative_trials == 1 + 2
        assert (profile.evaluations
                == _PROFILE_GRID + 1 + profile.iterations + 2)

    def test_inward_derivative_is_reused_when_brent_keeps_the_bound(self):
        # a notch just inside lo: the derivative at lo points inward, but
        # Brent's trials all land past the notch, so lo stays the best
        # trial and its derivative is the one taken before Brent
        def trial(xs, paths):
            return [(-(x - LO) if x - LO < 1e-5 * WIDTH else 1.0,
                     np.array([x])) for x in xs.tolist()]

        profile = _profile_search(trial, LO, HI)
        assert profile.x == LO and not profile.bound_shortcut
        assert profile.iterations > 0
        assert profile.derivative_trials == 1
        assert profile.evaluations == _PROFILE_GRID + 1 + profile.iterations
        assert profile.gradient_norm == pytest.approx(WIDTH, rel=1e-6)
