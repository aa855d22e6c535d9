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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from feecalib import (ALPHA_MAX, CalibrationOptions, DegenerateDepths,
                      FeeCalibError, ParameterBounds, SlopedLine,
                      SoilParameters, SolverFailure, SolverOptions,
                      add_noise, calibrate_multi_stage, calibrate_stage1,
                      calibrate_stage2, calibrate_stage3, default_scenario,
                      find_preset, prepare_cycle, simulate_cycle,
                      wedge_geometry)
from feecalib.calibration import (BOUNDS, _PROFILE_GRID, _bounded_lsq, _box,
                                  _forces, _profile_search, _screened_lsq,
                                  _series_scale, assemble,
                                  split_pressure_coefficient,
                                  stage1_tangential_force)
from test_calibration import (CLASS_PRESETS, SINKAGE_PRESETS, box,
                              inside_the_box, smoothed)
from test_optimizer import multi_start_warm

REFERENCE = CalibrationOptions(solver=SolverOptions(gradient_tolerance=1e-9))


# ---------------------------------------------------------------------------
# Reference: each stage objective over its named parameters, minimized by
# multi-start L-BFGS on the unit box
# ---------------------------------------------------------------------------

def stage1_objective(cycle):
    ft_obs = cycle.ft_obs
    scale = _series_scale(ft_obs)

    def objective(fit) -> float:
        residual = ft_obs - stage1_tangential_force(
            cycle, fit["adhesion_ca"], fit["delta"], fit["kc"], fit["kphi"],
            fit["n"])
        return float(residual @ residual) / scale

    return objective


def stage2_objective(cycle, adhesion_ca, delta):
    target = cycle.fn_obs / math.cos(delta)
    scale = _series_scale(target)
    base = SoilParameters(gamma=0.5 * sum(BOUNDS.gamma),
                          cohesion_c=0.0, adhesion_ca=adhesion_ca, phi=0.0,
                          delta=delta, kc=0.0, kphi=0.0, n=1.0)

    def objective(fit) -> float:
        theta = replace(base, gamma=fit["gamma"],
                        cohesion_c=fit["cohesion_c"], phi=fit["phi"])
        out = _forces(theta, cycle)
        force, valid = out.fee, out.valid
        if not valid.any():
            return 1e12
        residual = target[valid] - force[valid]
        return float(residual @ residual) / scale

    return objective


def stage3_objective(cycle, theta_fixed):
    out = _forces(theta_fixed, cycle)
    force, valid = out.fee, out.valid
    loader = cycle.loader
    depth = cycle.depth[valid]
    lt = cycle.lt[valid]
    ft_obs = cycle.ft_obs[valid]
    friction_term = (force[valid] * math.sin(theta_fixed.delta)
                     + theta_fixed.adhesion_ca * loader.omega * lt)
    scale = _series_scale(ft_obs)

    def objective(fit) -> float:
        kc, kphi, n = fit["kc"], fit["kphi"], fit["n"]
        f_t = (loader.omega * loader.b * (kc / loader.b + kphi) * depth ** n
               + friction_term)
        residual = ft_obs - f_t
        return float(residual @ residual) / scale

    return objective


def to_unit(lo, width, values):
    """The point of the unit cube that ``lo + unit * width`` maps to
    ``values``, clipped to the cube; a zero-width axis maps to 0.5."""
    unit = np.where(width > 0.0,
                    (values - lo) / np.where(width > 0.0, width, 1.0),
                    0.5)
    return np.clip(unit, 0.0, 1.0)


def reference_fit(objective, fields, options, warm_start=None):
    """The reference fit of ``fields``, by name; ``objective`` takes the
    fitted values by name, and ``warm_start``, when given, is a
    SoilParameters whose values of ``fields`` start the search."""
    lo, hi = np.array([getattr(BOUNDS, name) for name in fields]).T
    width = hi - lo

    def named(values):
        return dict(zip(fields, values))

    solve = multi_start_warm(lambda unit: objective(named(lo + unit * width)),
                             np.repeat([[0.0, 1.0]], len(fields), axis=0),
                             options.solver,
                             warm_start=(None if warm_start is None
                                         else to_unit(
                                             lo, width,
                                             np.array([getattr(warm_start, f)
                                                       for f in fields]))))
    return named(lo + solve.x_star * width)


def identifiable(fit, b):
    """The fitted values the force data determine: K = kc/b + kphi in
    place of kc and kphi."""
    values = {k: v for k, v in fit.items() if k not in ("kc", "kphi", "K")}
    if "kc" in fit:
        values["K"] = fit["kc"] / b + fit["kphi"]
    return values


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
    b = ds.loader.b
    cycle = prepare_cycle(ds)
    cycle2 = smoothed(cycle) if stage2_input == "smoothed" else cycle
    s1 = calibrate_stage1(cycle)
    ca, delta = s1.parameters["adhesion_ca"], s1.parameters["delta"]
    s2 = calibrate_stage2(cycle2, ca, delta)
    fixed = assemble([s1, s2])
    s3 = calibrate_stage3(cycle, fixed)
    objectives = (stage1_objective(cycle),
                  stage2_objective(cycle2, ca, delta),
                  stage3_objective(cycle, fixed))
    stages = []
    for objective, stage in zip(objectives, (s1, s2, s3)):
        fields = [name for name in stage.parameters if name != "K"]
        ref = reference_fit(objective, fields, REFERENCE,
                            warm_start=fixed if stage is s3 else None)
        stages.append((objective, stage.parameters, ref))
    return stages, b


class TestAgainstMultiStartReference:
    def test_objective_no_worse(self, fits):
        stages, _ = fits
        for objective, vp, ref in stages:
            f_ref = objective(ref)
            assert objective(vp) <= f_ref + 1e-9 * abs(f_ref)

    def test_identifiable_parameters_match(self, fits):
        stages, b = fits
        bounds = ParameterBounds()
        for _, vp, ref in stages:
            got, want = identifiable(vp, b), identifiable(ref, b)
            for name in got:
                lo, hi = box(bounds, name, b)
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
        cycle = prepare_cycle(dataset)
        s1 = calibrate_stage1(cycle)
        s2 = calibrate_stage2(cycle, s1.parameters["adhesion_ca"],
                              s1.parameters["delta"])
        s3 = calibrate_stage3(cycle, assemble([s1, s2]))
        optimal = assemble([s1, s2, s3])
        diag = calibrate_stage3(cycle, optimal)
        again = [diag.parameters[name] for name in ("kc", "kphi", "n")]
        assert np.array_equal(again, [optimal.kc, optimal.kphi, optimal.n])
        assert diag.parameters["K"] == optimal.kc / dataset.loader.b \
            + optimal.kphi

    def test_stage3_keeps_a_better_incumbent_outside_the_box(self, scenario,
                                                             truth):
        # the incumbent n lies below the searched interval and fits the
        # noiseless cycle exactly, so no candidate inside can beat it
        below = replace(truth, n=0.08)
        assert below.n < BOUNDS.n[0]
        dataset = simulate_cycle(scenario, below)
        diag = calibrate_stage3(prepare_cycle(dataset), below)
        kept = [diag.parameters[name] for name in ("kc", "kphi", "n")]
        assert np.array_equal(kept, [below.kc, below.kphi, below.n])
        assert diag.objective_value < 1e-20
        assert diag.at_bound == {"n": "lower"}

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
                lo, hi = box(bounds, name, b)
                want = ("lower" if value == lo else
                        "upper" if value == hi else None)
                assert stage.at_bound.get(name) == want, (stage.name, name)
            assert stage.converged or stage.work["brent"] > 0
            assert math.isfinite(stage.gradient_norm)
            assert stage.work["grid"] > 0
        # stage 2 fits the raw normal series, which the noiseless model
        # matches inside the box
        assert report.stages[1].at_bound == {}
        assert "kc/kphi split" in report.not_identified


class TestSplitAndLinearSolve:
    def test_split_stays_in_bounds_and_keeps_k(self):
        rng = np.random.default_rng(5)
        for b in (0.02, 0.05, 0.3):
            lo = BOUNDS.kc[0] / b + BOUNDS.kphi[0]
            hi = BOUNDS.kc[1] / b + BOUNDS.kphi[1]
            for big_k in np.concatenate([[lo, hi],
                                         rng.uniform(lo, hi, 200)]):
                kc, kphi = split_pressure_coefficient(big_k, b)
                if big_k - BOUNDS.kc[0] / b <= BOUNDS.kphi[1]:
                    # kc stays at its lower bound while kphi can carry the
                    # rest
                    assert kc == pytest.approx(BOUNDS.kc[0],
                                               abs=1e-9 * BOUNDS.kc[1])
                assert BOUNDS.kc[0] <= kc <= BOUNDS.kc[1]
                assert BOUNDS.kphi[0] <= kphi <= BOUNDS.kphi[1]
                assert kc / b + kphi == pytest.approx(big_k, rel=1e-12)

    def test_degenerate_columns_are_pinned_at_the_lower_bound(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(50, 2))
        target = a @ [0.7, -0.2]
        design = np.column_stack([a[:, 0], np.zeros(50), a[:, 1],
                                  rng.normal(size=50)])
        lo = np.array([-5.0, -1.0, -5.0, 2.0])
        hi = np.array([5.0, 1.0, 5.0, 2.0])
        x, rss = _bounded_lsq(design, target + 2.0 * design[:, 3], lo, hi,
                              Counter())
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
            x, _ = _bounded_lsq(design, target, lo, hi, Counter())
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
            assert paths["bounded"] == 0 and on_bound == 0
        elif case in ("face", "corner"):
            # the solution leaves the box and the face search puts it on
            # the boundary
            assert paths["bounded"] > 0 and on_bound > 0
        else:
            assert paths["interior"] > 0 and on_bound > 0

    def test_solution_does_not_depend_on_the_design_layout(self):
        # stage 1's design at its fitted n in the clean fit of the lean
        # clay with LETE sand on a 40 degree face: its solve, through the
        # box's faces, moves with the summation order of LAPACK and BLAS,
        # which follows the memory layout. The scaled design is built
        # column-major from either layout, so x keeps its bits; the
        # residual is formed from the design as given
        soil = find_preset("Clay of low plasticity, lean clay").merged(
            find_preset("LETE Sand")).soil_parameters()
        scenario = replace(default_scenario(),
                           surface=SlopedLine((0.0, 0.0), math.radians(40)))
        cycle = prepare_cycle(simulate_cycle(scenario, soil))
        n = calibrate_stage1(cycle).parameters["n"]
        omega, b = cycle.loader.omega, cycle.loader.b
        design = np.column_stack([omega * cycle.lt, cycle.fn_obs,
                                  omega * b * cycle.depth ** n])
        lo, hi = np.array([_box("adhesion_ca", b),
                           [math.tan(v) for v in _box("delta", b)],
                           _box("K", b)]).T
        paths = Counter()
        x_c, rss_c = _bounded_lsq(np.ascontiguousarray(design), cycle.ft_obs,
                                  lo, hi, paths)
        x_f, rss_f = _bounded_lsq(np.asfortranarray(design), cycle.ft_obs,
                                  lo, hi, paths)
        assert paths == Counter(bounded=2)
        assert np.array_equal(x_c, x_f)
        assert rss_c == pytest.approx(rss_f, rel=1e-14)


def profile_stack(rng, case, p):
    """A stack of k bounded least-squares problems shaped like a profile
    grid: candidate i's design drifts from the one that generated the
    target as i moves away from a random best index. Returns designs
    (k, m, p), targets ((m,) or (k, m)), lo, hi, a row mask or None, and
    the candidates given an ill-conditioned, rank-deficient or zero
    column."""
    k = int(rng.integers(5, 34))
    m = int(rng.integers(p + 8, 60))
    base = rng.normal(size=(m, p)) * rng.uniform(0.1, 100.0, p)
    drift = 10.0 * rng.normal(size=(m, p)) * np.abs(base).mean(axis=0)
    offset = (np.arange(k) - rng.integers(k)) / k
    designs = base + offset[:, None, None] * drift
    lo = rng.uniform(-3.0, 1.0, p).round(2)
    hi = lo + rng.uniform(0.1, 3.0, p).round(2)
    x_true = rng.uniform(lo, hi)
    j = int(rng.integers(p))
    if case == "outside the box":
        # just outside, so that the face search runs and the best value
        # stays small
        x_true = np.where(rng.random(p) < 0.5,
                          lo - rng.uniform(0.001, 0.01, p),
                          hi + rng.uniform(0.001, 0.01, p))
    elif case == "coinciding bounds":
        hi[j] = x_true[j] = lo[j]
    targets = base @ x_true + 1e-3 * rng.normal(size=m)
    if rng.random() < 0.5:
        targets = targets + 1e-3 * rng.normal(size=(k, m))
    some = rng.permutation(k)[:k // 4]     # the candidates a case alters
    if case in ("ill-conditioned", "rank-deficient") and p == 1:
        case = "zero column"
    if case == "ill-conditioned":
        other = (j + 1) % p
        designs[some, :, j] = (designs[some, :, other]
                               * (1.0 + 1e-9 * rng.normal(size=m)))
    elif case == "rank-deficient":
        designs[some, :, j] = 2.0 * designs[some, :, (j + 1) % p]
    elif case == "zero column":
        designs[some, :, j] = 0.0
    rows = None
    if case == "no feasible row":
        rows = rng.random((k, m)) < 0.9
        rows[some] = False
        designs[~rows] = np.nan   # the infeasible rows carry no numbers
    elif case == "tie":
        # the best candidate's twin sits right after it
        i = int(np.argmin(np.abs(offset)))
        designs = np.insert(designs, i + 1, designs[i], axis=0)
        if targets.ndim == 2:
            targets = np.insert(targets, i + 1, targets[i], axis=0)
    altered = some if case in ("ill-conditioned", "rank-deficient",
                               "zero column") else []
    return designs, targets, lo, hi, rows, altered


SCREEN_CASES = ("inside the box", "outside the box", "ill-conditioned",
                "rank-deficient", "zero column", "coinciding bounds",
                "no feasible row", "tie")


class TestScreenedLsqAgainstEverySolve:
    @pytest.mark.parametrize("case", SCREEN_CASES)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_same_best_as_solving_every_candidate(self, case, p):
        rng = np.random.default_rng([SCREEN_CASES.index(case), p])
        scale = 7.0
        paths = Counter()
        for _ in range(40):
            designs, targets, lo, hi, rows, altered = profile_stack(rng, case,
                                                                    p)
            k = designs.shape[0]
            every = []
            for i in range(k):
                target = np.broadcast_to(targets, designs.shape[:2])[i]
                keep = slice(None) if rows is None else rows[i]
                if rows is not None and not keep.any():
                    every.append((1e12, None))
                    continue
                x, rss = _bounded_lsq(designs[i][keep], target[keep], lo, hi,
                                      Counter())
                every.append((rss / scale, x))
            before = paths["screened"]
            screened = _screened_lsq(designs, targets, lo, hi, scale, paths,
                                     rows)
            values = [v for v, _ in every]
            best = int(np.argmin(values))
            assert int(np.argmin([v for v, _ in screened])) == best
            assert screened[best][0] == values[best]
            assert np.array_equal(screened[best][1], every[best][1])
            if case == "tie":
                assert values[best + 1] == values[best]
            for (value, x), (want, x_want) in zip(screened, every):
                if x_want is None:
                    assert (value, x) == (1e12, None)
                elif x is None:    # screened out: it could not have won
                    assert value == math.inf and want > values[best]
                else:
                    assert value == want and np.array_equal(x, x_want)
            assert (paths["screened"] - before
                    == screened.count((math.inf, None)) > 0)
            # a design too ill-conditioned for the bound is always solved
            assert all(screened[i][1] is not None for i in altered)
        if case == "outside the box":
            assert paths["bounded"] > 0

    def test_one_candidate_is_solved(self):
        rng = np.random.default_rng(3)
        designs, targets, lo, hi, _, _ = profile_stack(rng, "inside the box",
                                                       2)
        target = np.broadcast_to(targets, designs.shape[:2])[0]
        paths = Counter()
        (value, x), = _screened_lsq(designs[:1], target, lo, hi, 1.0, paths)
        want = _bounded_lsq(designs[0], target, lo, hi, Counter())
        assert (value, x.tolist()) == (want[1], want[0].tolist())
        assert paths == Counter(interior=1)

    @pytest.mark.parametrize("case", SCREEN_CASES)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_candidate_is_its_bounded_solve(self, case, p):
        """One candidate has nothing to screen: it gets ``_bounded_lsq``'s
        (rss / scale, x) on its rows and the same path counts, or
        (1e12, None) and no count when it has no row to fit."""
        rng = np.random.default_rng([SCREEN_CASES.index(case), p, 1])
        scale = 7.0
        empty = 0
        for _ in range(40):
            designs, targets, lo, hi, rows, _ = profile_stack(rng, case, p)
            i = int(rng.integers(designs.shape[0]))
            one = slice(i, i + 1)
            paths = Counter()
            got = _screened_lsq(designs[one],
                                targets[one] if targets.ndim == 2 else targets,
                                lo, hi, scale, paths,
                                None if rows is None else rows[one])
            keep = slice(None) if rows is None else rows[i]
            if rows is not None and not keep.any():
                assert got == [(1e12, None)] and not paths
                empty += 1
                continue
            want_paths = Counter()
            target = np.broadcast_to(targets, designs.shape[:2])[i]
            x, rss = _bounded_lsq(designs[i][keep], target[keep], lo, hi,
                                  want_paths)
            (value, x_got), = got
            assert value == rss / scale and np.array_equal(x_got, x)
            assert paths == want_paths
        assert (empty > 0) == (case == "no feasible row")


def quadratic_profile(centre, calls=None):
    """A profile trial with its minimum at ``centre``; the inner unknowns
    are the trial point itself. ``calls``, when given, collects the
    number of candidates of each call."""
    def trial(xs, paths):
        if calls is not None:
            calls.append(xs.size)
        return [((x - centre) ** 2, np.array([x])) for x in xs.tolist()]
    return trial


def trials(profile):
    """The profile search's trials of every kind: grid, Brent and
    derivative."""
    return sum(profile.work[kind] for kind in ("grid", "brent",
                                               "derivative"))


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
        assert (profile.work["brent"], profile.converged) == (0, True)
        assert profile.work["derivative"] == 1
        assert trials(profile) == _PROFILE_GRID + 1

    def test_interior_minimum_runs_brent_without_a_bound_check(self):
        centre = LO + 0.37 * WIDTH
        calls = []
        profile = _profile_search(quadratic_profile(centre, calls), LO, HI)
        assert profile.x == pytest.approx(centre, abs=1e-9)
        assert profile.gradient_norm < 1e-6
        assert profile.work["brent"] > 0
        assert profile.work["derivative"] == 2     # central difference
        assert trials(profile) == _PROFILE_GRID + profile.work["brent"] + 2
        # the grid is one call; Brent and the derivative make one-point calls
        assert calls == [_PROFILE_GRID] + [1] * (profile.work["brent"] + 2)

    def test_inward_derivative_at_a_bound_runs_brent(self):
        # the minimum lies inside the first grid cell, nearer lo than the
        # second grid point: lo is the best grid point, the derivative
        # there points into the box, and Brent moves off the bound
        centre = LO + 0.2 * CELL
        profile = _profile_search(quadratic_profile(centre), LO, HI)
        assert profile.x == pytest.approx(centre, abs=1e-9)
        assert profile.gradient_norm < 1e-6
        assert profile.work["brent"] > 0
        # the bound's one-sided difference, then a central one at the end
        assert profile.work["derivative"] == 1 + 2
        assert (trials(profile)
                == _PROFILE_GRID + 1 + profile.work["brent"] + 2)

    def test_inward_derivative_is_reused_when_brent_keeps_the_bound(self):
        # a notch just inside lo: the derivative at lo points inward, but
        # Brent's trials all land past the notch, so lo stays the best
        # trial and its derivative is the one taken before Brent
        def trial(xs, paths):
            return [(-(x - LO) if x - LO < 1e-5 * WIDTH else 1.0,
                     np.array([x])) for x in xs.tolist()]

        profile = _profile_search(trial, LO, HI)
        assert profile.x == LO and profile.work["brent"] > 0
        assert profile.work["derivative"] == 1
        assert trials(profile) == _PROFILE_GRID + 1 + profile.work["brent"]
        assert profile.gradient_norm == pytest.approx(WIDTH, rel=1e-6)

    def test_no_grid_point_with_samples_to_fit_raises(self):
        with pytest.raises(SolverFailure, match="^no grid point in "):
            _profile_search(lambda xs, paths: [(1e12, None)] * xs.size,
                            LO, HI)


class TestRoundTripSearch:
    """Clean round trips over drawn merged presets, pile slopes and
    default control points each moved by up to 0.1 m. The 1e-16 tolerance
    was fixed before the first run. Recovery and ``at_bound`` are not
    asserted: a shallow dig need not determine (gamma, c, phi), and stage
    2 may then fit below the truth's own objective."""

    @given(classification=st.sampled_from(CLASS_PRESETS),
           sinkage=st.sampled_from(SINKAGE_PRESETS),
           alpha=st.floats(0.0, ALPHA_MAX, exclude_max=True),
           moves=st.tuples(*[st.floats(-0.1, 0.1)] * 6))
    @settings(max_examples=25, deadline=None)
    def test_each_stage_fits_no_worse_than_the_truth(self, classification,
                                                     sinkage, alpha, moves):
        base = default_scenario()
        points = tuple((x + dx, z + dz) for (x, z), dx, dz in zip(
            base.control_points, moves[0::2], moves[1::2]))
        truth = classification.merged(sinkage).soil_parameters()
        dataset = simulate_cycle(
            replace(base, surface=SlopedLine((0.0, 0.0), alpha),
                    control_points=points), truth)
        if not (wedge_geometry(dataset.samples, dataset.surface)[0]
                > 0.0).any():
            with pytest.raises(DegenerateDepths):
                calibrate_multi_stage(dataset)
            return
        report = calibrate_multi_stage(dataset)
        stages, got = report.stages, report.theta_star
        assert BOUNDS.contains(got)
        assert got == assemble(stages)
        if not inside_the_box(truth, BOUNDS, dataset.loader.b):
            return
        # each stage's objective at the truth's own values, the values of
        # the stages before it fixed as the stage was given them
        cycle = prepare_cycle(dataset)
        s1, s2, _ = stages
        objectives = (stage1_objective(cycle),
                      stage2_objective(cycle, s1.parameters["adhesion_ca"],
                                       s1.parameters["delta"]),
                      stage3_objective(cycle, assemble([s1, s2])))
        for stage, objective in zip(stages, objectives):
            assert stage.objective_value <= objective(vars(truth)) + 1e-16, \
                stage.name
