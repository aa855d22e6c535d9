"""Acceptance suite: one test per release criterion, one printed verdict
line each (run with -s to see them on success)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from feecalib import (CalibrationOptions, Scenario, SolverOptions,
                      add_noise, calibrate_multi_stage,
                      calibrate_single_stage, default_scenario,
                      default_truth, finite_difference_gradient,
                      heldout_scenario, make_trajectory, minimize_bounded,
                      multi_start, predict_force_arrays, predict_next_cycle,
                      prepare_cycle, resultant, rmse, simulate_cycle,
                      surface_after_cycle, wedge_geometry)
from feecalib.soil import (SIN_MARGIN, SoilParameters, _factor_arrays,
                           _solve_beta_array, beta_window)
from test_calibration import full_series
from test_soil import bearing_factors_canonical, bearing_factors_original


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def roundtrip():
    """Criterion-3 artifacts shared by criteria 6, 8, and 10."""
    scenario = default_scenario()
    truth = default_truth()
    dataset = simulate_cycle(scenario, truth)
    t0 = time.perf_counter()
    report = calibrate_multi_stage(dataset)  # spec-default options
    elapsed = time.perf_counter() - t0
    return scenario, truth, dataset, report, elapsed


def _sample_feasible_tuples(count: int, seed: int):
    """Vectorized draw of (alpha, beta, rho, phi, delta) tuples whose
    feasibility margins are all at least 5 degrees."""
    rng = np.random.default_rng(seed)
    margin = math.radians(5.0)
    cols = []
    need = count
    while need > 0:
        m = max(2 * need, 1000)
        alpha = rng.uniform(0.0, math.radians(40.0), m)
        phi = rng.uniform(0.0, math.radians(45.0), m)
        delta = rng.uniform(0.0, math.radians(45.0), m)
        rho = rng.uniform(math.radians(10.0), math.radians(80.0), m)
        hi = np.minimum(math.pi - rho - delta - phi - margin,
                        math.pi - phi - margin)
        ok = hi > margin
        beta = margin + rng.uniform(0.0, 1.0, m) * np.maximum(hi - margin,
                                                              0.0)
        ok &= np.abs(np.sin(beta + phi)) > math.sin(margin)
        take = min(int(ok.sum()), need)
        idx = np.nonzero(ok)[0][:take]
        cols.append(np.column_stack([alpha[idx], beta[idx], rho[idx],
                                     phi[idx], delta[idx]]))
        need -= take
    return np.concatenate(cols, axis=0)


def test_criterion_1_algebraic_form_equivalence():
    t0 = time.perf_counter()
    tuples = _sample_feasible_tuples(100_000, seed=101)
    alpha, beta, rho, phi, delta = tuples.T
    # production sine-cosine path
    canon = _factor_arrays(alpha, beta, rho, phi, delta)
    # independent evaluation of the cotangent-form expressions
    cot_beta = np.cos(beta) / np.sin(beta)
    cot_bf = np.cos(beta + phi) / np.sin(beta + phi)
    cot_rho = np.cos(rho) / np.sin(rho)
    tan_alpha = np.tan(alpha)
    denom = np.cos(rho + delta) + np.sin(rho + delta) * cot_bf
    orig = (
        (cot_beta - tan_alpha) * (np.cos(alpha) + np.sin(alpha) * cot_bf)
        / (2.0 * denom),
        (1.0 + cot_beta * cot_bf) / denom,
        (1.0 - cot_rho * cot_bf) / denom,
        (np.cos(alpha) + np.sin(alpha) * cot_bf) / denom,
    )
    worst = 0.0
    for a, b in zip(orig, canon):
        rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-30)
        worst = max(worst, float(rel.max()))
    # spot-check the scalar cotangent reference against the engine as well
    for i in range(0, 100_000, 1000):
        s = bearing_factors_original(*tuples[i])
        c = bearing_factors_canonical(*tuples[i])
        for x, y in zip(s, c):
            worst = max(worst, abs(x - y) / max(abs(x), 1e-30))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst <= 1e-10 and elapsed < 10.0,
             f"worst relative gap {worst:.2e} over 1e5 tuples "
             f"in {elapsed:.1f} s (caps: 1e-10, 10 s)")


def test_criterion_2_beta_solver_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    step = math.radians(0.01)
    worst_pos = 0.0
    worst_val = 0.0
    checked = 0
    while checked < 1000:
        alpha = rng.uniform(0.0, math.radians(40.0))
        phi = rng.uniform(0.0, math.radians(45.0))
        delta = rng.uniform(0.0, math.radians(45.0))
        rho = rng.uniform(math.radians(10.0), math.radians(80.0))
        lo, hi = beta_window(alpha, np.array([rho]), phi, delta)
        if hi[0] <= lo[0]:
            continue
        beta = float(_solve_beta_array(alpha, np.array([rho]), phi,
                                       delta)[0][0])
        cells = int((hi[0] - lo[0]) / step)
        grid = np.append(lo[0] + step * np.arange(cells + 1), hi[0])
        chain = rho + delta + grid + phi
        vals = (np.cos(alpha + grid) * np.sin(alpha + grid + phi)
                / (2.0 * math.cos(alpha) * np.sin(grid) * np.sin(chain)))
        j = int(np.argmin(vals))
        got = (math.cos(alpha + beta) * math.sin(alpha + beta + phi)
               / (2.0 * math.cos(alpha) * math.sin(beta)
                  * math.sin(rho + delta + beta + phi)))
        worst_pos = max(worst_pos, abs(beta - grid[j]))
        worst_val = max(worst_val, got - float(vals[j]))
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, worst_pos <= step + 1e-12 and worst_val <= 1e-9
             and elapsed < 30.0,
             f"1000 configs: worst argmin offset "
             f"{math.degrees(worst_pos):.4f} deg (cap 0.01), worst value "
             f"excess {worst_val:.2e} (cap 1e-9), {elapsed:.1f} s (cap 30)")


def test_criterion_3_noiseless_round_trip(roundtrip):
    scenario, truth, dataset, report, elapsed = roundtrip
    t0 = time.perf_counter()
    heldout = heldout_scenario()
    observed = simulate_cycle(heldout, truth)
    prediction = predict_next_cycle(report.theta_star, heldout)
    f_t, f_n = prediction.arrays()
    _, held_pct = rmse(resultant(observed.f_t_obs, observed.f_n_obs),
                       resultant(f_t, f_n))
    total = elapsed + (time.perf_counter() - t0)
    _verdict(3, report.rmse_fr_pct <= 1.0 and held_pct <= 3.0
             and total < 300.0,
             f"train F_R {report.rmse_fr_pct:.3f}% (cap 1%), held-out "
             f"{held_pct:.3f}% (cap 3%), {total:.1f} s (cap 300)")


def test_criterion_4_noisy_round_trip():
    t0 = time.perf_counter()
    dataset = simulate_cycle(default_scenario(), default_truth())
    noisy = add_noise(dataset, 0.05, seed=404)
    report = calibrate_multi_stage(noisy)
    elapsed = time.perf_counter() - t0
    _verdict(4, report.rmse_fr_pct <= 15.0 and elapsed < 300.0,
             f"5% noise: F_R {report.rmse_fr_pct:.2f}% (cap 15%), "
             f"{elapsed:.1f} s (cap 300)")


def test_criterion_5_stage_decomposition_economy():
    dataset = simulate_cycle(default_scenario(), default_truth())
    shared = CalibrationOptions(solver=SolverOptions(n_starts=4))
    multi = calibrate_multi_stage(dataset, options=shared)
    single = calibrate_single_stage(dataset, options=shared)
    _verdict(5, multi.function_evaluations <= single.function_evaluations,
             f"objective evaluations: multi {multi.function_evaluations} "
             f"<= single {single.function_evaluations}")


def test_criterion_6_stage3_contract(roundtrip):
    scenario, truth, dataset, report, _ = roundtrip
    s1, s2, s3 = report.stages
    before = SoilParameters(
        gamma=s2.parameters["gamma"],
        cohesion_c=s2.parameters["cohesion_c"],
        adhesion_ca=s1.parameters["adhesion_ca"],
        phi=s2.parameters["phi"], delta=s1.parameters["delta"],
        kc=s1.parameters["kc"], kphi=s1.parameters["kphi"],
        n=s1.parameters["n"])
    after = replace(before, kc=s3.parameters["kc"],
                    kphi=s3.parameters["kphi"], n=s3.parameters["n"])
    cycle = prepare_cycle(dataset)
    ft_b, fn_b, ok_b = full_series(before, cycle)
    ft_a, fn_a, ok_a = full_series(after, cycle)
    rmse_before = rmse(cycle.ft_cycle[ok_b], ft_b[ok_b])[0]
    rmse_after = rmse(cycle.ft_cycle[ok_a], ft_a[ok_a])[0]
    bitwise = np.array_equal(fn_b, fn_a)
    _verdict(6, rmse_after <= rmse_before + 1e-9 and bitwise,
             f"F^T RMSE {rmse_before:.2f} -> {rmse_after:.2f} N "
             f"(non-increasing), F^N bitwise unchanged: {bitwise}")


def test_criterion_7_continuity_and_stability():
    scenario = default_scenario()
    truth = default_truth()
    base = scenario.trajectory()

    # halve the time step by inserting midpoint samples on the same path
    def refine(column):
        out = np.empty(2 * column.size - 1)
        out[0::2] = column
        out[1::2] = 0.5 * (column[:-1] + column[1:])
        return out

    refined = make_trajectory(refine(base.t), refine(base.x),
                              refine(base.z), refine(base.rho))

    def forces(samples):
        depth, lt, area = wedge_geometry(samples, scenario.surface)
        pred = predict_force_arrays(depth, samples.rho, lt,
                                    area, truth, scenario.loader,
                                    scenario.surface.nominal_alpha)
        assert not pred.failures
        return pred

    coarse = forces(base)
    fine = forces(refined)
    ft_c, fn_c = coarse.arrays()
    ft_f, fn_f = fine.arrays()
    shared = slice(0, None, 2)
    peak = float(np.abs(ft_c).max())
    drift = max(float(np.max(np.abs(ft_f[shared] - ft_c))),
                float(np.max(np.abs(fn_f[shared] - fn_c))))

    finite = (np.all(np.isfinite(ft_c)) and np.all(np.isfinite(fn_c))
              and np.all(np.isfinite(ft_f)) and np.all(np.isfinite(fn_f)))

    # every denominator clears its margin at the solved geometry
    alpha = scenario.surface.nominal_alpha
    rho = np.array([s.rho for s in base])[coarse.valid]
    beta = coarse.beta[coarse.valid]
    chain = rho + truth.delta + beta + truth.phi
    terms = (np.sin(beta), np.sin(rho), np.full(beta.shape, math.cos(alpha)),
             np.sin(beta + truth.phi), np.sin(chain))
    margins_ok = all(np.all(np.abs(v) >= SIN_MARGIN - 1e-12)
                     for v in terms)

    _verdict(7, finite and margins_ok and drift <= 1e-9 * peak,
             f"finite forces, margins hold, shared-timestamp drift "
             f"{drift:.2e} N (cap {1e-9 * peak:.2e})")


def test_criterion_8_dual_cycle_adaptive_depth(roundtrip):
    scenario, truth, dataset, report, _ = roundtrip
    cycle2 = Scenario(surface=scenario.surface, loader=scenario.loader,
                      control_points=((-0.4, 0.0), (1.0, -0.55),
                                      (2.3, 1.3)),
                      sample_rate=scenario.sample_rate,
                      duration=scenario.duration)
    carved = surface_after_cycle(scenario.surface, dataset.samples)
    # ground truth for the second pass: the soil keeps the carved shape
    truth_cycle2 = simulate_cycle(replace(cycle2, surface=carved), truth)
    obs_r = resultant(truth_cycle2.f_t_obs, truth_cycle2.f_n_obs)

    adaptive = predict_next_cycle(report.theta_star, cycle2,
                                  prior_cycle=dataset.samples)
    naive = predict_next_cycle(report.theta_star, cycle2)
    fa_t, fa_n = adaptive.arrays()
    fn_t, fn_n = naive.arrays()
    rmse_adaptive = rmse(obs_r, resultant(fa_t, fa_n))[1]
    rmse_naive = rmse(obs_r, resultant(fn_t, fn_n))[1]
    _verdict(8, rmse_adaptive <= rmse_naive,
             f"cycle-2 F_R RMSE: adaptive {rmse_adaptive:.2f}% <= "
             f"sloped-line {rmse_naive:.2f}%")


def test_criterion_9_optimizer_sanity():
    c = np.array([0.3, -0.7, 1.4])
    quad = lambda x: float(np.sum((x - c) ** 2))
    free = minimize_bounded(quad, np.zeros(3), [(-2.0, 2.0)] * 3)
    err_free = float(np.max(np.abs(free.x_star - c)))
    boxed = minimize_bounded(quad, np.zeros(3),
                             [(-2.0, 0.0), (-0.5, 2.0), (-2.0, 1.0)])
    err_boxed = float(np.max(np.abs(boxed.x_star - [0.0, -0.5, 1.0])))

    rosen = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2
                            + (1.0 - x[0]) ** 2)
    ros = multi_start(rosen, [(-2.0, 2.0)] * 2, SolverOptions(n_starts=4))
    err_rosen = float(np.max(np.abs(ros.x_star - 1.0)))

    rng = np.random.default_rng(909)
    worst_grad = 0.0
    cases = [
        (lambda v: float(np.sum(np.sin(v))), lambda v: np.cos(v)),
        (lambda v: float(np.sum(v ** 3)), lambda v: 3.0 * v ** 2),
        (lambda v: float(np.exp(0.3 * v).sum()),
         lambda v: 0.3 * np.exp(0.3 * v)),
    ]
    for f, df in cases:
        for _ in range(30):
            x = rng.uniform(-1.5, 1.5, 3)
            g = finite_difference_gradient(f, x, [(-2.0, 2.0)] * 3)
            want = df(x)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst_grad = max(worst_grad,
                             float(np.max(np.abs(g - want))) / scale)

    ok = (err_free <= 1e-6 and err_boxed <= 1e-6 and err_rosen <= 1e-4
          and worst_grad <= 1e-6)
    _verdict(9, ok,
             f"quadratic {err_free:.1e}/{err_boxed:.1e} (cap 1e-6), "
             f"Rosenbrock {err_rosen:.1e} (cap 1e-4), gradient "
             f"{worst_grad:.1e} (cap 1e-6)")


def test_criterion_10_metrics_consistency(roundtrip):
    # published-table back-computation under the peak-denominator rule
    peak_t = 96.2 / 0.090
    peak_n = 137.7 / 0.114
    peak_r = 139.2 / 0.086
    table_gap = abs(math.hypot(peak_t, peak_n) - peak_r) / peak_r

    # same consistency on our own report
    _, _, _, report, _ = roundtrip
    pt = 100.0 * report.rmse_ft_n / report.rmse_ft_pct
    pn = 100.0 * report.rmse_fn_n / report.rmse_fn_pct
    pr = 100.0 * report.rmse_fr_n / report.rmse_fr_pct
    our_gap = abs(math.hypot(pt, pn) - pr) / pr
    _verdict(10, table_gap <= 5e-3 and our_gap <= 5e-3,
             f"implied-peak hypot gap: published table {table_gap:.4%}, "
             f"our report {our_gap:.4%} (cap 0.5%)")
