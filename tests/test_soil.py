import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feecalib import (DEFAULT_MARGINS, GRAVITY, EmptyFeasibleSet,
                      LoaderParameters, Margins, SingularGeometry,
                      SoilParameters, WedgeState, bearing_factors_canonical,
                      bearing_factors_original, bekker_pressure,
                      bucket_forces, fee_force, predict_cycle_forces,
                      solve_beta)
from feecalib.soil import (ParameterBounds, _ngamma_array,
                           _solve_beta_array, beta_window)

LOADER = LoaderParameters(omega=1.0, b=0.05, wb=100.0)


def _soil(**kw):
    base = dict(gamma=1500.0, cohesion_c=0.0, adhesion_ca=0.0, phi=0.0,
                delta=0.0, kc=0.0, kphi=100.0, n=1.0)
    base.update(kw)
    return SoilParameters(**base)


def random_feasible_tuples(count, seed, margin_deg=5.0):
    """Random (alpha, beta, rho, phi, delta) with every margin cleared."""
    rng = np.random.default_rng(seed)
    margin = math.radians(margin_deg)
    out = []
    while len(out) < count:
        alpha = rng.uniform(0.0, math.radians(40.0))
        phi = rng.uniform(0.0, math.radians(45.0))
        delta = rng.uniform(0.0, math.radians(45.0))
        rho = rng.uniform(math.radians(10.0), math.radians(80.0))
        hi = min(math.pi - rho - delta - phi - margin, math.pi - phi - margin)
        if hi <= margin:
            continue
        beta = rng.uniform(margin, hi)
        if abs(math.sin(beta + phi)) < math.sin(margin):
            continue
        out.append((alpha, beta, rho, phi, delta))
    return out


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_beta_grid_golden(alpha, rho, phi, delta):
    """Reference failure-angle solve: a 768-point scan, then 56
    golden-section steps around the best grid point.

    The search the closed form replaced, kept as its cross-check. Returns
    (beta, feasible) like ``_solve_beta_array``.
    """
    n_grid, refine_iters = 768, 56
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    lo, hi = beta_window(alpha, rho, phi, delta)
    feasible = hi > lo
    beta = np.full(rho.shape, np.nan)
    if not np.any(feasible):
        return beta, feasible

    lo_f = lo[feasible]
    hi_f = hi[feasible]
    rho_f = rho[feasible]
    span = hi_f - lo_f

    u = np.linspace(0.0, 1.0, n_grid)
    grid = lo_f[:, None] + span[:, None] * u[None, :]
    values = _ngamma_array(alpha, grid, rho_f[:, None], phi, delta)
    j = np.argmin(values, axis=1)
    rows = np.arange(j.size)
    a = grid[rows, np.maximum(j - 1, 0)]
    b = grid[rows, np.minimum(j + 1, n_grid - 1)]

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = _ngamma_array(alpha, x1, rho_f, phi, delta)
    f2 = _ngamma_array(alpha, x2, rho_f, phi, delta)
    for _ in range(refine_iters):
        left = f1 < f2
        a_new = np.where(left, a, x1)
        b_new = np.where(left, x2, b)
        width = b_new - a_new
        x1_new = np.where(left, b_new - _INV_GOLDEN * width, x2)
        x2_new = np.where(left, x1, a_new + _INV_GOLDEN * width)
        x_eval = np.where(left, x1_new, x2_new)
        f_eval = _ngamma_array(alpha, x_eval, rho_f, phi, delta)
        f1_new = np.where(left, f_eval, f2)
        f2_new = np.where(left, f1, f_eval)
        a, b, x1, x2, f1, f2 = a_new, b_new, x1_new, x2_new, f1_new, f2_new

    best = np.clip(0.5 * (a + b), lo_f, hi_f)
    f_best = _ngamma_array(alpha, best, rho_f, phi, delta)
    # flat objectives tie-break to the smallest feasible angle
    f_lo = _ngamma_array(alpha, lo_f, rho_f, phi, delta)
    snap = f_lo <= f_best + 1e-12 * np.maximum(1.0, np.abs(f_best))
    best = np.where(snap, lo_f, best)

    beta[feasible] = best
    return beta, feasible


def stationarity_coefficients(alpha, rho, phi, delta):
    """(P, Q, R) of the stationarity condition P cos 2b + Q sin 2b = R."""
    c = rho + delta + phi
    a = 2.0 * alpha + phi
    p = math.cos(c) * math.cos(a) - math.sin(phi) * math.sin(c)
    q = -(math.cos(c) * math.sin(a) + math.sin(phi) * math.cos(c))
    return p, q, math.cos(a - c)


def assert_matches_reference(alpha, rho, phi, delta):
    beta, feasible = _solve_beta_array(alpha, rho, phi, delta)
    beta_ref, feasible_ref = solve_beta_grid_golden(alpha, rho, phi, delta)
    np.testing.assert_array_equal(feasible, feasible_ref)
    assert np.all(np.isnan(beta[~feasible]))
    rho_f = np.atleast_1d(rho)[feasible]
    got = _ngamma_array(alpha, beta[feasible], rho_f, phi, delta)
    ref = _ngamma_array(alpha, beta_ref[feasible], rho_f, phi, delta)
    assert np.all(got <= ref + 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert np.all(np.abs(beta[feasible] - beta_ref[feasible]) <= 1e-6)
    return beta, feasible


class TestBearingFactors:
    def test_degenerate_collapse(self):
        # alpha=phi=delta=0, rho=pi/2, beta=pi/4: identities collapse
        bf = bearing_factors_original(0.0, math.pi / 4, math.pi / 2, 0.0,
                                      0.0)
        assert bf.n_gamma == pytest.approx(0.5, abs=1e-12)
        assert bf.n_c == pytest.approx(2.0, abs=1e-12)
        assert bf.n_a == pytest.approx(1.0, abs=1e-12)
        assert bf.n_q == pytest.approx(1.0, abs=1e-12)

    def test_surcharge_factor_direct_substitution(self):
        bf = bearing_factors_original(0.0, math.pi / 6, math.pi / 2,
                                      math.pi / 6, 0.0)
        assert bf.n_q == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_canonical_beta_independence_degenerate(self):
        bf = bearing_factors_canonical(0.0, math.pi / 3, math.pi / 2, 0.0,
                                       0.0)
        assert bf.n_gamma == pytest.approx(0.5, abs=1e-12)

    def test_canonical_adhesion_factor_reduces_to_tan(self):
        for beta in (0.3, 0.7, 1.1):
            bf = bearing_factors_canonical(0.0, beta, math.pi / 2, 0.0, 0.0)
            assert bf.n_a == pytest.approx(math.tan(beta), rel=1e-12)

    def test_forms_agree_on_random_feasible_tuples(self):
        for alpha, beta, rho, phi, delta in random_feasible_tuples(2000, 7):
            a = bearing_factors_original(alpha, beta, rho, phi, delta)
            b = bearing_factors_canonical(alpha, beta, rho, phi, delta)
            for x, y in zip(a.as_tuple(), b.as_tuple()):
                assert x == pytest.approx(y, rel=1e-10, abs=1e-12)

    def test_printed_adhesion_form_equals_reduced_form(self):
        # the common sin(beta+phi) factor cancels wherever it clears margin
        for alpha, beta, rho, phi, delta in random_feasible_tuples(500, 11):
            printed = (-math.cos(rho + beta + phi) * math.sin(beta + phi)
                       / (math.sin(rho) * math.sin(beta + phi)
                          * math.sin(rho + delta + beta + phi)))
            got = bearing_factors_canonical(alpha, beta, rho, phi, delta).n_a
            assert got == pytest.approx(printed, rel=1e-10, abs=1e-12)

    def test_singular_geometry_names_failing_margin(self):
        with pytest.raises(SingularGeometry, match="sin\\(beta\\)"):
            bearing_factors_canonical(0.0, 1e-6, 1.0, 0.3, 0.2)
        with pytest.raises(SingularGeometry, match="sin\\(rho\\)"):
            bearing_factors_canonical(0.0, 0.5, 1e-6, 0.3, 0.2)
        with pytest.raises(SingularGeometry,
                           match="rho\\+delta\\+beta\\+phi"):
            bearing_factors_canonical(0.0, 1.0, 1.0, 0.6,
                                      math.pi - 2.6)

    def test_original_rejects_singular_denominator(self):
        with pytest.raises(SingularGeometry):
            bearing_factors_original(0.0, 1e-14, 1.0, 0.3, 0.2)


class TestSolveBeta:
    def test_flat_objective_tie_breaks_to_smallest_feasible(self):
        beta = solve_beta(0.0, math.pi / 2, 0.0, 0.0)
        assert beta == DEFAULT_MARGINS.eps1

    def test_matches_grid_argmin(self):
        alpha, phi, delta, rho = 0.3, 0.6, 0.4, 1.0
        beta = solve_beta(alpha, rho, phi, delta)
        lo, hi = beta_window(alpha, np.array([rho]), phi, delta)
        grid = np.arange(lo[0], hi[0], math.radians(0.01))
        vals = _ngamma_array(alpha, grid, rho, phi, delta)
        j = int(np.argmin(vals))
        assert abs(beta - grid[j]) <= math.radians(0.01) + 1e-12
        got = float(_ngamma_array(alpha, np.array([beta]), rho, phi,
                                  delta)[0])
        assert got <= vals[j] + 1e-9

    def test_respects_chain_margin(self):
        alpha, rho, delta, phi = 0.0, 0.2, 0.78, 0.78
        beta = solve_beta(alpha, rho, phi, delta)
        assert abs(rho + delta + beta + phi - math.pi) > DEFAULT_MARGINS.eps2

    def test_empty_feasible_set(self):
        # rho + delta + phi leave no room above eps1
        with pytest.raises(EmptyFeasibleSet):
            solve_beta(0.0, math.radians(100.0), 0.75, 0.75)

    def test_stays_on_nonnegative_weight_branch(self):
        # the window is capped where the wedge cross-section flips sign
        for alpha in (0.0, 0.2, 0.4):
            beta = solve_beta(alpha, math.radians(12.0), 0.3, 0.2)
            assert beta <= math.pi / 2 - alpha + 1e-12
            val = float(_ngamma_array(alpha, np.array([beta]),
                                      math.radians(12.0), 0.3, 0.2)[0])
            assert val >= -1e-12


class TestClosedFormBeta:
    def test_matches_grid_golden_reference(self):
        rng = np.random.default_rng(2024)
        n_feasible = n_empty = 0
        for _ in range(300):
            alpha = rng.uniform(0.0, math.radians(40.0))
            phi = rng.uniform(0.0, math.radians(45.0))
            delta = rng.uniform(0.0, math.radians(45.0))
            # past rho+delta+phi ~ 170 degrees the window is empty
            rho = rng.uniform(math.radians(10.0), math.radians(120.0), 214)
            _, feasible = assert_matches_reference(alpha, rho, phi, delta)
            n_feasible += int(feasible.sum())
            n_empty += int((~feasible).sum())
        assert n_feasible > 0 and n_empty > 0

    def test_no_interior_root_beyond_amplitude(self):
        # |R| > sqrt(P^2+Q^2): N_gamma is monotone over the window
        alpha, rho, phi, delta = 0.3, 0.25, 0.7, 0.3
        p, q, r = stationarity_coefficients(alpha, rho, phi, delta)
        assert abs(r) > 1.3 * math.hypot(p, q)
        beta, feasible = assert_matches_reference(alpha, np.array([rho]),
                                                  phi, delta)
        lo, hi = beta_window(alpha, np.array([rho]), phi, delta)
        assert feasible[0] and beta[0] in (lo[0], hi[0])

    def test_no_interior_root_zero_coefficients(self):
        # phi = 0 and rho+delta = pi/2 make P = Q = 0 while R = sin(2 alpha)
        # stays positive: N_gamma falls monotonically to the window end
        alpha, rho, phi, delta = 0.3, math.pi / 2 - 0.2, 0.0, 0.2
        p, q, r = stationarity_coefficients(alpha, rho, phi, delta)
        assert math.hypot(p, q) < 1e-15 and r > 0.5
        beta, feasible = assert_matches_reference(alpha, np.array([rho]),
                                                  phi, delta)
        _, hi = beta_window(alpha, np.array([rho]), phi, delta)
        assert feasible[0] and beta[0] == hi[0]

    def test_empty_window_row(self):
        alpha, phi, delta = 0.2, 0.7, 0.7
        rho = np.array([0.5, math.radians(100.0), 0.9])
        beta, feasible = assert_matches_reference(alpha, rho, phi, delta)
        assert feasible.tolist() == [True, False, True]
        assert math.isnan(beta[1])
        for i in (0, 2):
            assert beta[i] == solve_beta(alpha, rho[i], phi, delta)


class TestBekkerPressure:
    def test_zero_depth(self):
        assert bekker_pressure(0.0, _soil(n=0.7), LOADER) == 0.0

    def test_linear_case(self):
        soil = _soil(kc=0.0, kphi=100.0, n=1.0)
        assert bekker_pressure(0.5, soil, LOADER) == pytest.approx(50.0)

    def test_oracle_evaluation(self):
        # independent one-line evaluation of the pressure law
        soil = _soil(kc=745.6, kphi=166.9, n=0.91)
        expected = (745.6 / 0.05 + 166.9) * 0.2 ** 0.91
        assert bekker_pressure(0.2, soil, LOADER) == pytest.approx(
            expected, rel=1e-15)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            bekker_pressure(-0.1, _soil(), LOADER)


class TestFeeForce:
    def test_zero_depth_zero_load(self):
        wedge = WedgeState(depth_d=0.0, rho=math.pi / 2, lt=0.0, lf=0.0,
                           beta=math.pi / 4, w_load=0.0)
        assert fee_force(wedge, _soil(), LOADER, 0.0) == 0.0

    def test_surcharge_only(self):
        wedge = WedgeState(depth_d=0.0, rho=math.pi / 2, lt=0.0, lf=0.0,
                           beta=math.pi / 4, w_load=1000.0)
        nq = bearing_factors_canonical(0.0, math.pi / 4, math.pi / 2, 0.0,
                                       0.0).n_q
        assert fee_force(wedge, _soil(), LOADER, 0.0) == pytest.approx(
            1000.0 * nq)

    def test_single_term_arithmetic(self):
        wedge = WedgeState(depth_d=0.1, rho=math.pi / 2, lt=0.1, lf=0.2,
                           beta=math.pi / 4, w_load=0.0)
        got = fee_force(wedge, _soil(gamma=1500.0), LOADER, 0.0)
        assert got == pytest.approx(0.01 * 1.0 * 1500.0 * GRAVITY * 0.5,
                                    rel=1e-12)

    def test_monotone_in_depth_and_density(self):
        base = dict(rho=1.0, lt=0.3, lf=0.4, beta=0.6, w_load=500.0)
        soil = _soil(gamma=1500.0, cohesion_c=800.0, adhesion_ca=0.0,
                     phi=0.5, delta=0.3)
        f1 = fee_force(WedgeState(depth_d=0.1, **base), soil, LOADER, 0.1)
        f2 = fee_force(WedgeState(depth_d=0.2, **base), soil, LOADER, 0.1)
        assert f2 >= f1
        f3 = fee_force(WedgeState(depth_d=0.2, **base),
                       soil.replace(gamma=2000.0), LOADER, 0.1)
        assert f3 >= f2
        f4 = fee_force(WedgeState(depth_d=0.2, **base),
                       soil.replace(cohesion_c=2000.0), LOADER, 0.1)
        assert f4 >= f2
        heavier = dict(base, w_load=900.0)
        f5 = fee_force(WedgeState(depth_d=0.2, **heavier), soil, LOADER,
                       0.1)
        assert f5 >= f2


class TestBucketForces:
    def test_zero_tool_friction(self):
        soil = _soil(delta=0.0, adhesion_ca=300.0)
        out = bucket_forces(200.0, 1000.0, 0.4, soil, LOADER)
        assert out.f_n == 200.0
        assert out.f_t == pytest.approx(
            LOADER.omega * LOADER.b * 1000.0 + 300.0 * LOADER.omega * 0.4)

    def test_all_zero(self):
        out = bucket_forces(0.0, 0.0, 0.0, _soil(), LOADER)
        assert (out.f_t, out.f_n) == (0.0, 0.0)

    def test_direct_trig(self):
        soil = _soil(delta=math.radians(30.0))
        out = bucket_forces(100.0, 0.0, 0.0, soil, LOADER)
        assert out.f_t == pytest.approx(50.0, abs=1e-9)
        assert out.f_n == pytest.approx(86.60, abs=5e-3)

    @given(f=st.floats(0.0, 1e6), delta=st.floats(0.0, 0.78))
    @settings(max_examples=200, deadline=None)
    def test_normal_force_ratio_exact(self, f, delta):
        out = bucket_forces(f, 0.0, 0.0, _soil(delta=delta), LOADER)
        assert out.f_n == f * math.cos(delta)


class TestPredictCycleForces:
    def test_empty_sequence(self):
        pred = predict_cycle_forces([], _soil(), LOADER, 0.0)
        assert len(pred) == 0

    def test_out_of_soil_yields_zero(self):
        wedges = [WedgeState(depth_d=0.0, rho=0.5, lt=0.0, lf=math.nan,
                             beta=math.nan, w_load=0.0) for _ in range(4)]
        pred = predict_cycle_forces(wedges, _soil(), LOADER, 0.0)
        f_t, f_n = pred.arrays()
        assert np.all(f_t == 0.0) and np.all(f_n == 0.0)
        assert not pred.issues

    def test_singular_sample_reported_not_fatal(self):
        good = WedgeState(depth_d=0.1, rho=0.6, lt=0.2, lf=math.nan,
                          beta=math.nan, w_load=10.0)
        bad = WedgeState(depth_d=0.1, rho=math.radians(1.0), lt=0.2,
                         lf=math.nan, beta=math.nan, w_load=10.0)
        pred = predict_cycle_forces([good, bad, good], _soil(phi=0.4,
                                                             delta=0.2),
                                    LOADER, 0.1)
        assert len(pred.issues) == 1
        assert pred.issues[0].index == 1
        assert pred[0] is not None and pred[2] is not None
        assert pred[1] is None

    def test_against_independent_reimplementation(self, dataset, truth,
                                                  scenario):
        # straight-line per-sample recomputation of the whole force chain
        from feecalib import cycle_wedges
        from scipy.optimize import minimize_scalar

        wedges = cycle_wedges(dataset.samples, dataset.surface, truth.gamma,
                              dataset.loader)
        pred = predict_cycle_forces(wedges, truth, dataset.loader,
                                    scenario.surface.nominal_alpha)
        alpha = scenario.surface.nominal_alpha
        loader = dataset.loader
        eps = math.radians(5.0)
        ang = math.radians(1.0)

        def ref_ngamma(beta, rho):
            return (math.cos(alpha + beta)
                    * math.sin(alpha + beta + truth.phi)
                    / (2.0 * math.cos(alpha) * math.sin(beta)
                       * math.sin(rho + truth.delta + beta + truth.phi)))

        checked = 0
        for wedge, force in zip(wedges, pred.forces):
            if wedge.depth_d <= 0.0:
                assert force.f_t == 0.0 and force.f_n == 0.0
                continue
            lo = eps
            hi = min(math.pi - wedge.rho - truth.delta - truth.phi - eps,
                     math.pi - truth.phi - ang, math.pi / 2 - alpha)
            grid = np.linspace(lo, hi, 4001)
            coarse = [ref_ngamma(b, wedge.rho) for b in grid]
            j = int(np.argmin(coarse))
            res = minimize_scalar(
                lambda b: ref_ngamma(b, wedge.rho), method="bounded",
                bounds=(grid[max(j - 1, 0)], grid[min(j + 1, 4000)]),
                options={"xatol": 1e-12})
            beta = min(res.x, hi)
            if ref_ngamma(lo, wedge.rho) <= ref_ngamma(beta, wedge.rho):
                beta = lo
            chain = wedge.rho + truth.delta + beta + truth.phi
            n_gamma = ref_ngamma(beta, wedge.rho)
            n_c = math.cos(truth.phi) / (math.sin(beta) * math.sin(chain))
            n_a = (-math.cos(wedge.rho + beta + truth.phi)
                   / (math.sin(wedge.rho) * math.sin(chain)))
            n_q = (math.sin(alpha + beta + truth.phi) / math.sin(chain))
            f = (wedge.depth_d ** 2 * loader.omega * truth.gamma * GRAVITY
                 * n_gamma
                 + truth.cohesion_c * loader.omega * wedge.depth_d * n_c
                 + truth.adhesion_ca * loader.omega * wedge.depth_d * n_a
                 + wedge.w_load * n_q)
            p = (truth.kc / loader.b + truth.kphi) * wedge.depth_d ** truth.n
            f_t = (loader.omega * loader.b * p + f * math.sin(truth.delta)
                   + truth.adhesion_ca * loader.omega * wedge.lt)
            f_n = f * math.cos(truth.delta)
            assert force.f_t == pytest.approx(f_t, rel=1e-7)
            assert force.f_n == pytest.approx(f_n, rel=1e-7)
            checked += 1
        assert checked > 100


class TestParameterTypes:
    def test_soil_invariants(self):
        with pytest.raises(ValueError):
            _soil(gamma=0.0)
        with pytest.raises(ValueError):
            _soil(phi=math.pi / 2)
        with pytest.raises(ValueError):
            _soil(n=0.0)
        with pytest.raises(ValueError):
            _soil(cohesion_c=-1.0)

    def test_bounds_contain_and_clip(self):
        bounds = ParameterBounds()
        soil = _soil(gamma=1500.0, n=1.0)
        assert bounds.contains(soil)
        wild = _soil(gamma=9000.0, n=2.0)
        assert not bounds.contains(wild)
        clipped = bounds.clip(wild)
        assert bounds.contains(clipped)
        assert clipped.gamma == 2345.0 and clipped.n == 1.53

    def test_bounds_defaults(self):
        bounds = ParameterBounds()
        assert bounds.gamma == (1297.0, 2345.0)
        assert bounds.cohesion_c == (0.0, 50_000.0)
        assert bounds.adhesion_ca == (0.0, 50_000.0)
        assert bounds.phi == (0.0, 0.785)
        assert bounds.delta == (0.0, 0.785)
        assert bounds.kc == (0.0, 10_000.0)
        assert bounds.kphi == (0.0, 5_000_000.0)
        assert bounds.n == (0.11, 1.53)

    def test_vector_round_trip(self):
        soil = _soil(gamma=1700.0, phi=0.3, delta=0.2, n=0.8)
        assert SoilParameters.from_array(soil.to_array()) == soil

    def test_loader_invariants(self):
        with pytest.raises(ValueError):
            LoaderParameters(omega=0.0, b=0.05, wb=10.0)
        with pytest.raises(ValueError):
            LoaderParameters(omega=1.0, b=-0.1, wb=10.0)

    def test_margins_invariants(self):
        with pytest.raises(ValueError):
            Margins(eps1=0.0)
        assert Margins().angle_margin == pytest.approx(math.radians(1.0))
