import logging
import math
import re
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter1d

from feecalib import (ALPHA_MAX, RHO_MIN, CalibrationOptions, CycleDataset,
                      DegenerateDepths, EmptySeries, FeeCalibError,
                      ParameterBounds, SlopedLine, SolverOptions, add_noise,
                      calibrate_multi_stage, calibrate_single_stage,
                      calibrate_stage1, calibrate_stage2, calibrate_stage3,
                      default_loader, default_scenario, heldout_scenario,
                      make_trajectory, multi_start, predict_next_cycle,
                      prepare_cycle, preset_catalog, resultant, rmse,
                      simulate_cycle, wedge_geometry)
from feecalib.calibration import (BOUNDS, _final_report, _forces, assemble,
                                  stage1_tangential_force)


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


def smoothed(cycle):
    """The prepared cycle with its in-soil normal force replaced by the
    whole cycle's normal force smoothed at sigma = 5 samples: the input of
    the paper's smoothed stage 2, which this library's stage 2 replaced
    with the raw series."""
    return replace(cycle,
                   fn_obs=gaussian_filter(cycle.fn_cycle, 5.0)[cycle.kept])


def calibrate_smoothed(dataset):
    """``calibrate_multi_stage`` with the smoothed stage 2: stages 1 and 3
    fit the raw cycle, stage 2 the ``smoothed`` one."""
    cycle = prepare_cycle(dataset)
    s1 = calibrate_stage1(cycle)
    s2 = calibrate_stage2(smoothed(cycle), s1.parameters["adhesion_ca"],
                          s1.parameters["delta"])
    s3 = calibrate_stage3(cycle, assemble([s1, s2]))
    return _final_report("multi-stage", [s1, s2, s3], cycle,
                         CalibrationOptions(), 0.0)


def full_series(theta, cycle):
    """Predicted (f_t, f_n, ok) over the whole prepared cycle: zero out
    of soil, margin failures flagged in ok."""
    out = _forces(theta, cycle)
    return (cycle.on_cycle(out.f_t), cycle.on_cycle(out.f_n),
            ~cycle.in_soil | cycle.on_cycle(out.valid))


class TestGaussianFilter:
    def test_constant_series_unchanged(self):
        x = np.full(50, 3.7)
        assert np.allclose(gaussian_filter(x, 4.0), x, atol=1e-12)

    def test_sigma_zero_identity(self):
        x = np.sin(np.linspace(0, 5, 40))
        out = gaussian_filter(x, 0.0)
        assert np.array_equal(out, x)

    def test_impulse_matches_naive_convolution(self):
        x = np.zeros(41)
        x[20] = 1.0
        sigma = 3.0
        out = gaussian_filter(x, sigma)
        radius = int(4.0 * sigma + 0.5)
        kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
        kernel /= kernel.sum()
        # impulse far from the edges: plain convolution, no padding effect
        want = np.convolve(x, kernel, mode="same")
        assert np.allclose(out, want, atol=1e-14)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        for sigma in (1.0, 2.5, 5.0):
            ours = gaussian_filter(x, sigma)
            ref = gaussian_filter1d(x, sigma, mode="reflect", truncate=4.0)
            assert np.allclose(ours, ref, atol=1e-12)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            gaussian_filter(np.ones(5), -1.0)


class TestRmse:
    def test_identical_series(self):
        x = np.array([1.0, -2.0, 3.0])
        assert rmse(x, x) == (0.0, 0.0)

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100) * 50.0
        absolute, _ = rmse(x, x + 7.5)
        assert absolute == pytest.approx(7.5, rel=1e-12)

    def test_published_table_consistency(self):
        # back-computation: implied per-series peaks from (N, %) pairs must
        # satisfy the resultant relation under the peak-denominator rule
        peak_t = 96.2 / 0.090
        peak_n = 137.7 / 0.114
        peak_r = 139.2 / 0.086
        assert math.hypot(peak_t, peak_n) == pytest.approx(peak_r, rel=5e-3)

    def test_percent_uses_peak_denominator(self):
        obs = np.array([0.0, -200.0, 100.0])
        absolute, percent = rmse(obs, obs + 10.0)
        assert percent == pytest.approx(100.0 * absolute / 200.0)

    def test_empty_series_raises(self):
        with pytest.raises(EmptySeries):
            rmse(np.array([]), np.array([]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))


class TestResultant:
    def test_345(self):
        assert resultant(3.0, 4.0) == 5.0

    def test_zero(self):
        assert resultant(0.0, 0.0) == 0.0

    def test_bucket_force_pair(self):
        # (f_t, f_n) of a 100 N wedge force at 30 degrees tool friction
        assert resultant(50.0, 86.6025403784) == pytest.approx(100.0,
                                                               abs=1e-3)


def _zero_depth_dataset():
    surface = SlopedLine((0.0, 0.0), 0.0)
    i = np.arange(30)
    samples = make_trajectory(i * 0.1, i.astype(float), np.full(30, 1.0),
                              np.full(30, 0.5))
    zeros = np.zeros(30)
    return CycleDataset(samples=samples, f_t_obs=zeros, f_n_obs=zeros,
                        surface=surface, loader=default_loader())


class TestStage1:
    def test_round_trip_tangential_fit(self, dataset):
        diag = calibrate_stage1(prepare_cycle(dataset))
        assert diag.rmse_pct <= 1.0
        assert diag.converged or diag.work["brent"] > 0

    def test_recovers_tool_friction_angle(self, dataset, truth):
        fit = calibrate_stage1(prepare_cycle(dataset)).parameters
        assert fit["delta"] == pytest.approx(truth.delta, abs=1e-3)
        # the pressure coefficient combination is identified even though
        # the kc/kphi split is not
        b = dataset.loader.b
        assert fit["kc"] / b + fit["kphi"] == pytest.approx(
            truth.kc / b + truth.kphi, rel=1e-3)

    def test_unidentifiable_delta_still_bounds_feasible(self):
        # zero normal force makes the friction term invisible
        surface = SlopedLine((0.0, 0.0), 0.0)
        i = np.arange(40)
        samples = make_trajectory(i * 0.1, i * 0.1, np.full(40, -0.1),
                                  np.full(40, 0.6))
        ft = np.full(40, 500.0)
        fn = np.zeros(40)
        ds = CycleDataset(samples=samples, f_t_obs=ft, f_n_obs=fn,
                          surface=surface, loader=default_loader())
        fit = calibrate_stage1(prepare_cycle(ds)).parameters
        lo, hi = BOUNDS.delta
        assert lo <= fit["delta"] <= hi

    def test_normal_force_enters_only_through_friction_term(self, dataset):
        cycle = prepare_cycle(dataset)
        fit = dict(adhesion_ca=1000.0, delta=0.3, kc=500.0, kphi=2000.0,
                   n=0.8)
        base = stage1_tangential_force(cycle, **fit)
        bumped = stage1_tangential_force(
            replace(cycle, fn_obs=1.1 * cycle.fn_obs), **fit)
        want = 0.1 * cycle.fn_obs * math.tan(0.3)
        assert np.allclose(bumped - base, want, rtol=1e-12, atol=1e-9)

    def test_all_zero_depths_raise(self):
        with pytest.raises(DegenerateDepths):
            calibrate_stage1(prepare_cycle(_zero_depth_dataset()))

    def test_samples_outside_blade_margins_are_dropped(self, dataset,
                                                       truth):
        ds, bad = _with_bad_blade_angles(dataset)
        cycle = prepare_cycle(ds)
        diag = calibrate_stage1(cycle)
        assert cycle.dropped == int((~cycle.in_soil).sum()) + bad.size
        assert diag.dropped_samples == cycle.dropped
        # their observations never enter a fit, not even its scale: every
        # stage and both methods fit and score the same bits
        ft, fn = ds.f_t_obs.copy(), ds.f_n_obs.copy()
        for series in (ft, fn):
            peak = np.abs(series).max()
            series[bad] = [0.0, 2.0 * peak, -peak]
        moved = replace(ds, f_t_obs=ft, f_n_obs=fn)
        assert (calibrate_stage1(prepare_cycle(moved)).parameters
                == diag.parameters)
        stage2 = [calibrate_stage2(prepare_cycle(d), truth.adhesion_ca,
                                   truth.delta) for d in (ds, moved)]
        assert stage2[1].parameters == stage2[0].parameters
        assert stage2[1].objective_value == stage2[0].objective_value
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1,
                                                       max_iterations=50))
        for calibrate in (calibrate_multi_stage, calibrate_single_stage):
            base, other = (calibrate(d, options=opts) for d in (ds, moved))
            assert other.theta_star == base.theta_star
            assert ([(s.parameters, s.objective_value) for s in other.stages]
                    == [(s.parameters, s.objective_value)
                        for s in base.stages])
            assert other.rmse_fr_n == base.rmse_fr_n

    def test_staged_fit_recovers_the_truth_around_flagged_samples(
            self, dataset, truth):
        ds, _ = _with_bad_blade_angles(dataset)
        report = calibrate_multi_stage(ds)
        assert_recovered(report.theta_star, truth, ds.loader.b)

    def test_subnormal_blade_angle_fits_without_a_warning(self, dataset):
        # its lt is infinite, which stage 1's least squares never sees
        ds, _ = _with_bad_blade_angles(dataset, picks=(50,),
                                       angles=(5e-324,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = calibrate_multi_stage(ds)
        cycle = prepare_cycle(ds)
        assert cycle.dropped == int((~cycle.in_soil).sum()) + 1
        assert ([s.dropped_samples for s in report.stages]
                == [cycle.dropped] * 3)

    def test_no_sample_inside_the_blade_margins_raises(self, dataset):
        in_soil = prepare_cycle(dataset).depth.size
        ds, _ = _with_bad_blade_angles(dataset, picks=range(in_soil),
                                       angles=(1e-9,))
        with pytest.raises(EmptySeries, match="blade margins"):
            calibrate_stage1(prepare_cycle(ds))
        # the single-stage fit prepares the same cycle
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1,
                                                       max_iterations=50))
        with pytest.raises(EmptySeries, match="blade margins"):
            calibrate_single_stage(ds, options=opts)


def _with_bad_blade_angles(dataset, picks=(10, 50, 90),
                           angles=(0.5 * RHO_MIN, 1e-9, math.pi - 1e-9)):
    """The cycle with the in-soil samples ``picks`` (counted among the
    in-soil samples) moved to blade ``angles`` outside the margins: by
    default below RHO_MIN, and sin(rho) near 0 and near pi. Returns the
    dataset and the cycle indices of those samples."""
    bad = np.flatnonzero(prepare_cycle(dataset).in_soil)[list(picks)]
    s = dataset.samples
    rho = s.rho.copy()
    rho[bad] = angles
    return replace(dataset, samples=make_trajectory(s.t, s.x, s.z, rho)), bad


class TestStage2:
    def test_samples_outside_blade_margins_are_dropped(self, dataset,
                                                       truth):
        ca, delta = truth.adhesion_ca, truth.delta
        ds, bad = _with_bad_blade_angles(dataset)
        cycle = prepare_cycle(ds)
        diag = calibrate_stage2(cycle, ca, delta)
        assert cycle.dropped == int((~cycle.in_soil).sum()) + bad.size
        assert diag.dropped_samples == cycle.dropped
        # their observations never enter the fit; the new values stay
        # below the series peak, so the objective's scale is unchanged
        peak = np.abs(ds.f_n_obs).max()
        assert (np.abs(ds.f_n_obs[bad]) < peak).all()
        fn = ds.f_n_obs.copy()
        fn[bad] = [0.0, 0.5 * peak, -0.9 * peak]
        moved = calibrate_stage2(prepare_cycle(replace(ds, f_n_obs=fn)),
                                 ca, delta)
        assert moved.parameters == diag.parameters
        assert diag.parameters["gamma"] == pytest.approx(truth.gamma,
                                                         rel=1e-6)

    def test_round_trip_with_stage1_fixed_at_truth(self, dataset, truth):
        diag = calibrate_stage2(prepare_cycle(dataset), truth.adhesion_ca,
                                truth.delta)
        assert diag.rmse_pct <= 1.0

    def test_zero_tool_friction_uses_plain_filtered_series(self, truth,
                                                           scenario):
        # with delta* = 0 the reconstruction divides by cos(0) = 1, so a
        # noiseless run must recover the wedge force exactly
        truth0 = replace(truth, delta=0.0)
        ds = simulate_cycle(scenario, truth0)
        diag = calibrate_stage2(prepare_cycle(ds), truth0.adhesion_ca, 0.0)
        assert diag.rmse_pct <= 1e-2

    def test_density_direction_sensitivity(self, scenario, truth):
        fitted = []
        for gamma in (1450.0, 2250.0):
            ds = simulate_cycle(scenario, replace(truth, gamma=gamma))
            cycle = prepare_cycle(ds)
            s1 = calibrate_stage1(cycle).parameters
            s2 = calibrate_stage2(cycle, s1["adhesion_ca"], s1["delta"])
            fitted.append(s2.parameters["gamma"])
        assert fitted[1] > fitted[0]


@pytest.fixture(scope="module")
def staged(dataset):
    cycle = prepare_cycle(dataset)
    s1 = calibrate_stage1(cycle)
    s2 = calibrate_stage2(cycle, s1.parameters["adhesion_ca"],
                          s1.parameters["delta"])
    return cycle, [s1, s2]


class TestStage3:

    def test_tangential_error_non_increasing(self, staged):
        cycle, stages = staged
        assembled = assemble(stages)
        ft_before, _, ok = full_series(assembled, cycle)
        before = rmse(cycle.ft_cycle[ok], ft_before[ok])[0]
        s3 = calibrate_stage3(cycle, assembled)
        refined = assemble(stages + [s3])
        ft_after, _, ok2 = full_series(refined, cycle)
        after = rmse(cycle.ft_cycle[ok2], ft_after[ok2])[0]
        assert after <= before + 1e-9

    def test_normal_predictions_bitwise_unchanged(self, staged):
        cycle, stages = staged
        assembled = assemble(stages)
        s3 = calibrate_stage3(cycle, assembled)
        refined = assemble(stages + [s3])
        _, fn_before, _ = full_series(assembled, cycle)
        _, fn_after, _ = full_series(refined, cycle)
        assert np.array_equal(fn_before, fn_after)

    def test_fixed_point_when_already_optimal(self, staged):
        cycle, stages = staged
        s3 = calibrate_stage3(cycle, assemble(stages))
        again = calibrate_stage3(cycle, assemble(stages + [s3])).parameters
        fit = s3.parameters
        combo = fit["kc"] / cycle.loader.b + fit["kphi"]
        combo_again = again["kc"] / cycle.loader.b + again["kphi"]
        assert combo_again == pytest.approx(combo, rel=1e-6)
        assert again["n"] == pytest.approx(fit["n"], abs=1e-6)

    def test_no_sample_with_a_failure_angle_raises(self, truth):
        # blade angles of 88 degrees, inside the margins, leave no
        # failure-angle window at phi = delta = 0.78
        samples = make_trajectory([0.0, 0.1, 0.2], [0.3, 0.5, 0.7],
                                  [-0.1, -0.15, -0.2],
                                  [math.radians(88.0)] * 3)
        cycle = prepare_cycle(CycleDataset(
            samples=samples, f_t_obs=np.ones(3), f_n_obs=np.ones(3),
            surface=SlopedLine((0.0, 0.0), 0.0), loader=default_loader()))
        assert cycle.depth.size == 3
        with pytest.raises(EmptySeries, match="^no in-soil sample "
                                              "evaluates cleanly$"):
            calibrate_stage3(cycle, replace(truth, phi=0.78, delta=0.78))


class TestMultiStage:
    def test_noiseless_round_trip(self, dataset, fast_options):
        report = calibrate_multi_stage(dataset, options=fast_options)
        assert report.rmse_fr_pct <= 1.0
        assert report.method == "multi-stage"
        assert [s.name for s in report.stages] == ["stage1", "stage2",
                                                   "stage3"]

    def test_noisy_round_trip(self, dataset, fast_options):
        noisy = add_noise(dataset, 0.05, seed=7)
        report = calibrate_multi_stage(noisy, options=fast_options)
        assert report.rmse_fr_pct <= 15.0

    def test_reported_parameters_within_bounds(self, dataset, fast_options):
        report = calibrate_multi_stage(dataset, options=fast_options)
        assert BOUNDS.contains(report.theta_star)

    def test_report_reconstruction_is_exact(self, dataset, fast_options):
        report = calibrate_multi_stage(dataset, options=fast_options)
        cycle = prepare_cycle(dataset)
        f_t, f_n, ok = full_series(report.theta_star, cycle)
        assert rmse(cycle.ft_cycle[ok], f_t[ok])[0] == report.rmse_ft_n
        assert rmse(cycle.fn_cycle[ok], f_n[ok])[0] == report.rmse_fn_n
        fr = rmse(resultant(cycle.ft_cycle[ok], cycle.fn_cycle[ok]),
                  resultant(f_t[ok], f_n[ok]))
        assert fr[0] == report.rmse_fr_n

    @pytest.mark.parametrize("sigma, seed",
                             [(0.0, 0)] + [(0.05, s) for s in range(1, 6)]
                             + [(0.2, 1)])
    def test_fitted_values_are_python_floats(self, dataset, sigma, seed):
        # at 20% noise, seed 1, stage 3 keeps its incumbent
        report = calibrate_multi_stage(
            dataset if sigma == 0.0 else add_noise(dataset, sigma, seed=seed))
        for name, value in vars(report.theta_star).items():
            assert type(value) is float, name
        for stage in report.stages:
            for name, value in stage.parameters.items():
                assert type(value) is float, (stage.name, name)
        stage1, _, stage3 = (s.parameters for s in report.stages)
        kept = all(stage3[k] == stage1[k] for k in ("kc", "kphi", "n"))
        assert kept == (sigma == 0.2)

    def test_noiseless_fit_recovers_identifiable_parameters(self, dataset,
                                                            truth):
        report = calibrate_multi_stage(dataset)
        got, b = report.theta_star, dataset.loader.b
        for name in ("gamma", "cohesion_c", "adhesion_ca", "phi", "delta",
                     "n"):
            assert getattr(got, name) == pytest.approx(getattr(truth, name),
                                                       rel=1e-8), name
        assert got.kc / b + got.kphi == pytest.approx(
            truth.kc / b + truth.kphi, rel=1e-8)
        assert report.stages[1].at_bound == {}

    @pytest.mark.parametrize("case", ["clean", "noisy", "flagged"])
    def test_work_record_holds_the_debug_line_counts(self, dataset, case,
                                                     caplog):
        """Each stage's ``work`` holds the counts of its DEBUG line, in the
        line's order: on the clean default cycle, at 5% noise with seed 5
        (whose stage 2 solves on the box's faces) and with the samples at
        10%, 50% and 90% of the in-soil count outside the blade margins."""
        if case == "noisy":
            dataset = add_noise(dataset, 0.05, seed=5)
        elif case == "flagged":
            m = int(prepare_cycle(dataset).in_soil.sum())
            dataset, _ = _with_bad_blade_angles(
                dataset, picks=(m // 10, m // 2, 9 * m // 10))
        with caplog.at_level(logging.DEBUG, logger="feecalib.calibration"):
            report = calibrate_multi_stage(dataset)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "feecalib.calibration"]
        assert len(lines) == len(report.stages) == 3
        for line, stage in zip(lines, report.stages):
            counts = line.split(" ms; ", 1)[1]
            trials, *numbers = map(int, re.findall(r"\d+", counts))
            assert trials == stage.function_evaluations
            assert list(stage.work.items()) == list(zip(
                ("grid", "brent", "derivative", "incumbent", "interior",
                 "bounded", "screened", "engine_passes", "root_passes"),
                numbers))
            assert (("bound shortcut taken" in counts)
                    == (stage.work["brent"] == 0))
        bounded = sum(stage.work["bounded"] for stage in report.stages)
        assert (bounded > 0) == (case == "noisy")

    @pytest.mark.parametrize("slope_deg, roots", [(25.0, False),
                                                  (40.0, True)])
    def test_stage2_runs_the_root_solve_where_it_cannot_rule_roots_out(
            self, truth, slope_deg, roots):
        """The kernel's closed-form test rules out a stationary root on
        every pass of stage 2 at 25 degrees, but not at 40, where the
        passes run the root solve: no benchmark workload reaches it."""
        scenario = replace(default_scenario(), surface=SlopedLine(
            (0.0, 0.0), math.radians(slope_deg)))
        report = calibrate_multi_stage(simulate_cycle(scenario, truth))
        work = report.stages[1].work
        assert work["engine_passes"] > 0
        assert (work["root_passes"] > 0) == roots


def assert_work_identities(stages, label):
    """What each staged fit's work record must satisfy: its trials sum to
    its evaluations, its grid has 33 points, no more passes run the root
    solve than run at all, and stage 1 runs no pass."""
    for stage in stages:
        work = stage.work
        assert stage.function_evaluations == (
            work["grid"] + work["brent"] + work["derivative"]
            + work["incumbent"]), (label, stage.name)
        assert work["grid"] == 33, (label, stage.name)
        assert work["root_passes"] <= work["engine_passes"], (label,
                                                              stage.name)
    assert stages[0].work["engine_passes"] == 0, label


SINKAGE_PRESETS = [p for p in preset_catalog() if p.kc is not None]
CLASS_PRESETS = [p for p in preset_catalog() if p.phi is not None]
IDENTIFIED = ("gamma", "cohesion_c", "adhesion_ca", "phi", "delta", "n", "K")


def identified(theta, name, b):
    """``theta``'s value of ``name``, with K = kc/b + kphi."""
    return theta.kc / b + theta.kphi if name == "K" else getattr(theta, name)


def box(bounds, name, b):
    """The staged fits' bounds on ``name``."""
    if name == "K":
        return (bounds.kc[0] / b + bounds.kphi[0],
                bounds.kc[1] / b + bounds.kphi[1])
    return getattr(bounds, name)


def inside_the_box(truth, bounds, b, names=IDENTIFIED):
    return all(box(bounds, name, b)[0] <= identified(truth, name, b)
               <= box(bounds, name, b)[1] for name in names)


def assert_recovered(got, truth, b, context=None):
    """Each identified parameter of ``got`` within 1e-5 of the truth's,
    relative, or of the box width where the truth's value is 0."""
    for name in IDENTIFIED:
        want = identified(truth, name, b)
        lo, hi = box(BOUNDS, name, b)
        assert abs(identified(got, name, b) - want) <= 1e-5 * (
            abs(want) if want else hi - lo), (context, name)


class TestPresetSweep:
    """The staged fit of every class preset merged with every sinkage
    preset, on the default path at pile slopes of 10, 25 and 40 degrees:
    351 fits. The tolerances were fixed before the first run."""

    def test_only_lete_sand_lies_outside_the_box(self):
        # 104 of the 117 truths per slope lie inside, 312 of the 351 fits
        b, bounds = default_loader().b, ParameterBounds()
        outside = [(c.merged(s).soil_parameters(), s.name)
                   for c in CLASS_PRESETS for s in SINKAGE_PRESETS
                   if not inside_the_box(c.merged(s).soil_parameters(),
                                         bounds, b)]
        assert len(CLASS_PRESETS) * len(SINKAGE_PRESETS) == 117
        assert len(outside) == 13
        for truth, sinkage in outside:
            assert sinkage == "LETE Sand"
            assert identified(truth, "K", b) > box(bounds, "K", b)[1]
            assert inside_the_box(truth, bounds, b, IDENTIFIED[:-1])

    @pytest.mark.parametrize("slope_deg", [10.0, 25.0, 40.0])
    @pytest.mark.parametrize("classification", CLASS_PRESETS,
                             ids=[p.name for p in CLASS_PRESETS])
    def test_staged_fit(self, classification, slope_deg):
        scenario = replace(default_scenario(), surface=SlopedLine(
            (0.0, 0.0), math.radians(slope_deg)))
        bounds = ParameterBounds()
        for sinkage in SINKAGE_PRESETS:
            truth = classification.merged(sinkage).soil_parameters()
            dataset = simulate_cycle(scenario, truth)
            report = calibrate_multi_stage(dataset)
            stages, got = report.stages, report.theta_star
            assert got == assemble(stages), sinkage.name
            assert_work_identities(stages, sinkage.name)
            # stage 3 leaves the normal force bitwise unchanged
            cycle = prepare_cycle(dataset)
            assert np.array_equal(_forces(assemble(stages[:2]), cycle).f_n,
                                  _forces(got, cycle).f_n), sinkage.name
            b = dataset.loader.b
            if not inside_the_box(truth, bounds, b):
                assert stages[2].at_bound.get("K") == "upper", sinkage.name
                continue
            assert_recovered(got, truth, b, sinkage.name)


# The staged fit on the default cycle with the smoothed stage 2, recorded
# before the stages took a prepared cycle; ``calibrate_smoothed`` must
# reproduce it.
PINNED_FITS = {
    "clean": {
        "theta": [1297.0, 20566.439002997293, 20000.000000000007,
                  0.4696575061929704, 0.3141592653589805, 0.0,
                  140137.6438607881, 0.11],
        "stages": [
            ({"adhesion_ca": 20000.000000000007, "delta": 0.3141592653589805,
              "kc": 0.0, "kphi": 139800.00000000006, "n": 0.11,
              "K": 139800.00000000006}, 34),
            ({"gamma": 1297.0, "cohesion_c": 20566.439002997293,
              "phi": 0.4696575061929704}, 44),
            ({"kc": 0.0, "kphi": 140137.6438607881, "n": 0.11,
              "K": 140137.6438607881}, 35)],
        "fr_pct": 0.16392931569495714,
    },
    "noise-seed1": {
        "theta": [1353.587293156915, 24228.93937541623, 20734.057571085763,
                  0.44628043294747577, 0.18866896561661206, 0.0,
                  164429.0909883241, 0.14150970464385515],
        "stages": [
            ({"adhesion_ca": 20734.057571085763, "delta": 0.18866896561661206,
              "kc": 0.0, "kphi": 164439.69260679063, "n": 0.1421622569893822,
              "K": 164439.69260679063}, 46),
            ({"gamma": 1353.587293156915, "cohesion_c": 24228.93937541623,
              "phi": 0.44628043294747577}, 44),
            ({"kc": 0.0, "kphi": 164429.0909883241, "n": 0.14150970464385515,
              "K": 164429.0909883241}, 45)],
        "fr_pct": 3.869450201371871,
    },
}

# The same fits by ``calibrate_multi_stage``, whose stage 2 fits the raw
# normal force; a pure refactor must reproduce them.
PINNED_RAW_FITS = {
    "clean": {
        "theta": [1360.0000000093264, 20000.00002033072, 20000.000000000007,
                  0.47123889786796325, 0.3141592653589805, 0.0,
                  139799.99999914388, 0.11],
        "stages": [
            ({"adhesion_ca": 20000.000000000007, "delta": 0.3141592653589805,
              "kc": 0.0, "kphi": 139800.00000000006, "n": 0.11,
              "K": 139800.00000000006}, 34),
            ({"gamma": 1360.0000000093264, "cohesion_c": 20000.00002033072,
              "phi": 0.47123889786796325}, 44),
            ({"kc": 0.0, "kphi": 139799.99999914388, "n": 0.11,
              "K": 139799.99999914388}, 35)],
        "fr_pct": 8.366192084003578e-10,
    },
    "noise-seed1": {
        "theta": [1419.783153249799, 23898.943228595497, 20734.057571085763,
                  0.44570090781281857, 0.18866896561661206, 0.0,
                  164772.44218314232, 0.1433698854639135],
        "stages": [
            ({"adhesion_ca": 20734.057571085763, "delta": 0.18866896561661206,
              "kc": 0.0, "kphi": 164439.69260679063, "n": 0.1421622569893822,
              "K": 164439.69260679063}, 46),
            ({"gamma": 1419.783153249799, "cohesion_c": 23898.943228595497,
              "phi": 0.44570090781281857}, 44),
            ({"kc": 0.0, "kphi": 164772.44218314232, "n": 0.1433698854639135,
              "K": 164772.44218314232}, 54)],
        "fr_pct": 3.8599942329039676,
    },
}


# Fits at 5% noise where n ends near its lower bound. Seed 3: the best
# grid point of stages 1 and 3 is the bound and the one-sided derivative
# there points out of the box, so Brent is skipped (34 and 35 trials; 70
# and 71 when Brent ran). Seed 13: the derivative at the bound points
# inward, so Brent runs as before and the derivative trial is spent for
# nothing, one trial more per stage (48 and 49; 47 and 48 before). Seed 16:
# the shortcut in stage 1 (34; 70 before), the inward case in stage 3 (50;
# 49 before).
PINNED_BOUND_FITS = {
    3: ([1419.424219923538, 22395.671314528394, 21037.957199614288,
         0.4501462118456733, 0.24073541884516617, 0.0, 139516.51978829122,
         0.11], [34, 44, 35]),
    13: ([1418.7585428952837, 23326.847199769112, 20675.284107246105,
          0.4454453164695877, 0.22992619249399254, 0.0, 152691.86032647832,
          0.11465545722596382], [48, 44, 49]),
    16: ([1437.1557498403645, 22588.43959479493, 20111.953206043658,
          0.45385565601906974, 0.21751204551717704, 0.0, 169293.3690906986,
          0.1136808755237838], [34, 44, 50]),
}


def _assert_pinned(report, pin):
    assert list(astuple(report.theta_star)) == pytest.approx(
        pin["theta"], rel=1e-12)
    assert len(report.stages) == len(pin["stages"])
    for stage, (parameters, evaluations) in zip(report.stages,
                                                pin["stages"]):
        assert stage.parameters == pytest.approx(parameters, rel=1e-12)
        assert stage.function_evaluations == evaluations
    assert report.rmse_fr_pct == pytest.approx(pin["fr_pct"], rel=1e-12)


def _pinned_input(dataset, case):
    return dataset if case == "clean" else add_noise(dataset, 0.05, seed=1)


class TestPreparedCycle:
    @pytest.mark.parametrize("case", sorted(PINNED_FITS))
    def test_staged_fit_is_pinned(self, dataset, case):
        _assert_pinned(calibrate_smoothed(_pinned_input(dataset, case)),
                       PINNED_FITS[case])

    @pytest.mark.parametrize("case", sorted(PINNED_RAW_FITS))
    def test_raw_staged_fit_is_pinned(self, dataset, case):
        _assert_pinned(calibrate_multi_stage(_pinned_input(dataset, case)),
                       PINNED_RAW_FITS[case])

    @pytest.mark.parametrize("seed", sorted(PINNED_BOUND_FITS))
    def test_bound_check_trials_are_pinned(self, dataset, seed):
        theta, evaluations = PINNED_BOUND_FITS[seed]
        report = calibrate_multi_stage(add_noise(dataset, 0.05, seed=seed))
        assert list(astuple(report.theta_star)) == pytest.approx(
            theta, rel=1e-12)
        assert [s.function_evaluations for s in report.stages] == evaluations

    @pytest.mark.parametrize("calibrate", [calibrate_multi_stage,
                                           calibrate_single_stage])
    def test_geometry_is_built_once_per_fit(self, dataset, monkeypatch,
                                            calibrate):
        from feecalib import calibration

        calls = []
        original = calibration.wedge_geometry

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(calibration, "wedge_geometry", counted)
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1,
                                                       max_iterations=3))
        calibrate(dataset, options=opts)
        assert len(calls) == 1

    @pytest.mark.parametrize("flagged", [False, True])
    def test_slices_the_in_soil_samples(self, dataset, flagged):
        """The arrays hold the in-soil samples inside the blade margins;
        ``in_soil`` still marks every sample in soil."""
        ds, bad = (_with_bad_blade_angles(dataset) if flagged
                   else (dataset, np.array([], dtype=int)))
        cycle = prepare_cycle(ds)
        depth, lt, area = wedge_geometry(ds.samples, ds.surface)
        mask = depth > 0.0
        assert np.array_equal(cycle.in_soil, mask)
        mask[bad] = False
        assert np.array_equal(cycle.kept, mask)
        assert cycle.dropped == int((~mask).sum()) > bad.size
        for got, want in ((cycle.depth, depth), (cycle.lt, lt),
                          (cycle.area, area),
                          (cycle.rho, ds.samples.rho),
                          (cycle.ft_obs, ds.f_t_obs),
                          (cycle.fn_obs, ds.f_n_obs)):
            assert np.array_equal(got, want[mask])
            assert np.array_equal(cycle.on_cycle(got),
                                  np.where(mask, want, 0.0))

    def test_multi_stage_raises_on_zero_depths(self):
        with pytest.raises(DegenerateDepths):
            calibrate_multi_stage(_zero_depth_dataset())


def correlated_noise(dataset, a, seed):
    """Gaussian noise on both force series at 5% of each series' peak,
    AR(1) with coefficient ``a`` and unit marginal variance before scaling:
    x[0] = e[0], x[i] = a*x[i-1] + sqrt(1 - a^2)*e[i], f_t's draws first.
    At a = 0 this is ``add_noise(dataset, 0.05, seed)``."""
    rng = np.random.default_rng(seed)
    noisy = []
    for series in (dataset.f_t_obs, dataset.f_n_obs):
        e = rng.standard_normal(dataset.n)
        x = e.copy()
        for i in range(1, x.size):
            x[i] = a * x[i - 1] + math.sqrt(1.0 - a * a) * e[i]
        noisy.append(series + 0.05 * float(np.max(np.abs(series))) * x)
    return replace(dataset, f_t_obs=noisy[0], f_n_obs=noisy[1])


def held_out_fr_pct(dataset, truth, a):
    """Held-out F_R % of the raw and of the smoothed staged fit, one pair
    per noise seed 1-20."""
    heldout = heldout_scenario()
    observed = simulate_cycle(heldout, truth)
    fr_obs = resultant(observed.f_t_obs, observed.f_n_obs)

    def score(report):
        f_t, f_n = predict_next_cycle(report.theta_star, heldout).arrays()
        return rmse(fr_obs, resultant(f_t, f_n))[1]

    pairs = [(score(calibrate_multi_stage(noisy)),
              score(calibrate_smoothed(noisy)))
             for noisy in (correlated_noise(dataset, a, seed)
                           for seed in range(1, 21))]
    return np.array(pairs).T


class TestRawStage2:
    """Stage 2 fits the raw normal force where the paper smoothed it: the
    raw fit must predict a held-out pass no worse, with independent and
    with correlated noise. The thresholds were fixed before any run."""

    def test_beats_smoothing_under_independent_noise(self, dataset, truth):
        iid = correlated_noise(dataset, 0.0, 1)
        reference = add_noise(dataset, 0.05, seed=1)
        assert np.array_equal(iid.f_t_obs, reference.f_t_obs)
        assert np.array_equal(iid.f_n_obs, reference.f_n_obs)
        raw, smooth = held_out_fr_pct(dataset, truth, 0.0)
        assert int((raw < smooth).sum()) >= 15

    def test_no_worse_under_correlated_noise(self, dataset, truth):
        raw, smooth = held_out_fr_pct(dataset, truth, 0.8)
        assert np.median(raw) <= np.median(smooth)


class TestSingleStage:
    def test_noiseless_round_trip(self, dataset):
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1,
                                                       max_iterations=400))
        report = calibrate_single_stage(dataset, options=opts)
        assert report.rmse_fr_pct <= 1.0
        assert report.method == "single-stage"

    def test_zero_depth_dataset_raises(self):
        # with nothing in soil there is nothing to fit: the objective
        # would be 0 everywhere and any box point would pass as converged
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1,
                                                       max_iterations=50))
        with pytest.raises(DegenerateDepths):
            calibrate_single_stage(_zero_depth_dataset(), options=opts)

    def test_lambda_one_ignores_normal_residuals(self, dataset):
        opts = CalibrationOptions(
            lambda_weight=1.0,
            solver=SolverOptions(n_starts=1, max_iterations=60))
        report_a = calibrate_single_stage(dataset, options=opts)
        perturbed = replace(dataset, f_n_obs=dataset.f_n_obs * 1.25)
        report_b = calibrate_single_stage(perturbed, options=opts)
        assert report_a.theta_star == report_b.theta_star

    def test_drops_what_the_staged_fit_drops(self, dataset):
        ds, bad = _with_bad_blade_angles(dataset)
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1,
                                                       max_iterations=50))
        staged = calibrate_multi_stage(ds)
        single = calibrate_single_stage(ds, options=opts)
        dropped = int((~prepare_cycle(ds).in_soil).sum()) + bad.size
        assert ([s.dropped_samples for s in staged.stages + single.stages]
                == [dropped] * 4)
        # the final reports score out-of-soil samples as zero force and
        # leave out only the flagged ones
        assert single.dropped_samples == staged.dropped_samples == bad.size

    def test_work_record_holds_the_starts_and_iterations(self, dataset,
                                                         monkeypatch):
        """The single-stage record's ``work`` holds the optimizer's starts
        and the L-BFGS-B iterations of its best start."""
        solves = []

        def recorded(*args, **kwargs):
            solves.append(multi_start(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr("feecalib.calibration.multi_start", recorded)
        opts = CalibrationOptions(solver=SolverOptions(n_starts=1))
        report = calibrate_single_stage(add_noise(dataset, 0.05, seed=5),
                                        options=opts)
        work = report.stages[0].work
        assert list(work.items()) == [("starts", 1),
                                      ("iterations", solves[0].iterations)]
        assert work["iterations"] > 0

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            CalibrationOptions(lambda_weight=1.5)


class TestPredictNextCycle:
    def test_training_scenario_reproduces_fitted_forces(self, dataset,
                                                        scenario,
                                                        fast_options):
        report = calibrate_multi_stage(dataset, options=fast_options)
        f_t, f_n, _ = full_series(report.theta_star, prepare_cycle(dataset))
        pred = predict_next_cycle(report.theta_star, scenario)
        got_t, got_n = pred.arrays()
        assert np.array_equal(got_t, f_t)
        assert np.array_equal(got_n, f_n)

    def test_prior_cycle_above_surface_changes_nothing(self, truth,
                                                       scenario):
        i = np.arange(30)
        prior = make_trajectory(i.astype(float), -0.5 + 0.1 * i,
                                np.full(30, 2.0), np.full(30, 0.5))
        base = predict_next_cycle(truth, scenario)
        with_prior = predict_next_cycle(truth, scenario, prior_cycle=prior)
        bt, bn = base.arrays()
        pt, pn = with_prior.arrays()
        assert np.allclose(bt, pt, rtol=1e-12, atol=1e-9)
        assert np.allclose(bn, pn, rtol=1e-12, atol=1e-9)

    @given(classification=st.sampled_from(CLASS_PRESETS),
           sinkage=st.sampled_from(SINKAGE_PRESETS),
           alpha=st.floats(0.0, ALPHA_MAX, exclude_max=True),
           x0=st.floats(-1.0, 0.5), gaps=st.tuples(st.floats(0.2, 1.5),
                                                  st.floats(0.2, 1.5)),
           zs=st.tuples(*[st.floats(-0.6, 1.5)] * 3),
           blade=st.none() | st.tuples(st.floats(0.0, math.pi),
                                       st.floats(0.0, math.pi)))
    @settings(max_examples=40, deadline=None)
    def test_forces_follow_each_sample_status(self, classification, sinkage,
                                              alpha, x0, gaps, zs, blade):
        # a merged preset on a pile face of any legal slope, along a
        # Bezier path whose x strictly increases: finite forces where the
        # sample is valid, NaN and a named reason where an in-soil sample
        # is flagged, zero out of soil. A Bezier path keeps its blade
        # angles inside the margins, so ``blade``, when drawn, replaces
        # them by a sweep from its first angle to its second.
        xs = (x0, x0 + gaps[0], x0 + gaps[0] + gaps[1])
        scenario = replace(default_scenario(),
                           surface=SlopedLine((0.0, 0.0), alpha),
                           control_points=tuple(zip(xs, zs)))
        if blade is not None:
            path = scenario.trajectory(scenario.surface)
            scenario = replace(scenario, control_points=None,
                               samples=make_trajectory(
                                   path.t, path.x, path.z,
                                   np.linspace(*blade, path.size)))
        pred = predict_next_cycle(
            classification.merged(sinkage).soil_parameters(), scenario)
        forces = np.stack(pred.arrays())
        flagged = pred.in_soil & ~pred.valid
        assert np.isfinite(forces[:, pred.valid]).all()
        assert np.isnan(forces[:, flagged]).all()
        assert [i for i, _ in pred.failures] == np.flatnonzero(
            flagged).tolist()
        assert all(reason for _, reason in pred.failures)
        assert (forces[:, ~pred.in_soil] == 0.0).all()

    def test_one_sample_prior_cycle_is_a_library_error(self, truth,
                                                       scenario, dataset):
        # a carve needs two samples; callers that catch the library's
        # errors catch this one too
        with pytest.raises(FeeCalibError, match="at least two samples"):
            predict_next_cycle(truth, scenario,
                               prior_cycle=dataset.samples[:1])
