import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feecalib import (ALPHA_MAX, ANGLE_MARGIN, EPS1, EPS2, GRAVITY, RHO_MIN,
                      SIN_MARGIN, LoaderParameters, SingularGeometry,
                      SoilParameters, predict_force_arrays, wedge_geometry)
from feecalib.io import soil_from_json, soil_to_json
from feecalib.soil import (_EMPTY_WINDOW, _OUT_OF_SOIL, _RHO_BELOW_MIN,
                           _SINGULAR_RHO, BearingKernel, ParameterBounds,
                           _factor_arrays, _ngamma_array, _stationary_angles)
from feecalib.synthetic import preset_catalog

LOADER = LoaderParameters(omega=1.0, b=0.05)


def _soil(**kw):
    base = dict(gamma=1500.0, cohesion_c=0.0, adhesion_ca=0.0, phi=0.0,
                delta=0.0, kc=0.0, kphi=100.0, n=1.0)
    base.update(kw)
    return SoilParameters(**base)


def _engine(soil, depth, rho, lt=0.0, area=0.0, alpha=0.0):
    """predict_force_arrays on per-sample arrays broadcast from the
    arguments."""
    depth, rho, lt, area = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (depth, rho, lt, area)))
    return predict_force_arrays(depth, rho, lt, area, soil, LOADER, alpha)


def _pressure(soil, depth, rho=1.0):
    """The engine's penetration pressure (kc/b + kphi) * d^n, read as
    f_t / (omega * b) with delta = c_a = 0, where the pressure term is all
    of f_t."""
    out = _engine(replace(soil, delta=0.0, adhesion_ca=0.0), depth, rho)
    return out.f_t[0] / (LOADER.omega * LOADER.b)


class Factors(NamedTuple):
    n_gamma: float
    n_c: float
    n_a: float
    n_q: float


def bearing_factors_original(alpha, beta, rho, phi, delta, denom_eps=1e-12):
    """Bearing factors from the cotangent-form expressions.

    The textbook form that the engine's sine-cosine ``_factor_arrays``
    reformulates, kept as its reference; raises SingularGeometry when any
    denominator magnitude drops below ``denom_eps``.
    """
    checks = (
        (math.sin(beta), "sin(beta)"),
        (math.sin(beta + phi), "sin(beta+phi)"),
        (math.sin(rho), "sin(rho)"),
        (math.cos(alpha), "cos(alpha)"),
    )
    for value, label in checks:
        if abs(value) < denom_eps:
            raise SingularGeometry(f"{label} is singular ({value:.3e})")
    cot_beta = math.cos(beta) / math.sin(beta)
    cot_bf = math.cos(beta + phi) / math.sin(beta + phi)
    cot_rho = math.cos(rho) / math.sin(rho)
    tan_alpha = math.sin(alpha) / math.cos(alpha)
    denom = math.cos(rho + delta) + math.sin(rho + delta) * cot_bf
    if abs(denom) < denom_eps:
        raise SingularGeometry(f"common denominator is singular ({denom:.3e})")
    n_gamma = ((cot_beta - tan_alpha)
               * (math.cos(alpha) + math.sin(alpha) * cot_bf)
               / (2.0 * denom))
    n_c = (1.0 + cot_beta * cot_bf) / denom
    n_a = (1.0 - cot_rho * cot_bf) / denom
    n_q = (math.cos(alpha) + math.sin(alpha) * cot_bf) / denom
    return Factors(n_gamma, n_c, n_a, n_q)


def ngamma(alpha, beta, rho, phi, delta):
    """The engine's N_gamma (``_ngamma_array``) at failure angles beta,
    from the terms a kernel binds."""
    return _ngamma_array(alpha, 2.0 * np.cos(alpha), beta, np.add(rho, delta),
                         phi)


def bearing_factors_canonical(alpha, beta, rho, phi, delta):
    """The engine's sine-cosine factors at one (alpha, beta, rho, phi,
    delta) tuple."""
    n_c, n_a, n_q = _factor_arrays(alpha, beta, rho, rho + delta, phi,
                                   np.sin(rho))
    return Factors(*(float(v) for v in (ngamma(alpha, beta, rho, phi, delta),
                                        n_c, n_a, n_q)))


def solve_one(alpha, rho, phi, delta):
    """The engine's failure angle for one feasible blade angle."""
    beta, feasible = BearingKernel(alpha, rho, delta).failure_angle(phi)[:2]
    assert feasible[0]
    return float(beta[0])


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
    (beta, feasible) like ``BearingKernel.failure_angle``.
    """
    n_grid, refine_iters = 768, 56
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    hi = BearingKernel(alpha, rho, delta).window(phi)
    lo = np.full(hi.shape, EPS1)
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
    values = ngamma(alpha, grid, rho_f[:, None], phi, delta)
    j = np.argmin(values, axis=1)
    rows = np.arange(j.size)
    a = grid[rows, np.maximum(j - 1, 0)]
    b = grid[rows, np.minimum(j + 1, n_grid - 1)]

    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = ngamma(alpha, x1, rho_f, phi, delta)
    f2 = ngamma(alpha, x2, rho_f, phi, delta)
    for _ in range(refine_iters):
        left = f1 < f2
        a_new = np.where(left, a, x1)
        b_new = np.where(left, x2, b)
        width = b_new - a_new
        x1_new = np.where(left, b_new - _INV_GOLDEN * width, x2)
        x2_new = np.where(left, x1, a_new + _INV_GOLDEN * width)
        x_eval = np.where(left, x1_new, x2_new)
        f_eval = ngamma(alpha, x_eval, rho_f, phi, delta)
        f1_new = np.where(left, f_eval, f2)
        f2_new = np.where(left, f1, f_eval)
        a, b, x1, x2, f1, f2 = a_new, b_new, x1_new, x2_new, f1_new, f2_new

    best = np.clip(0.5 * (a + b), lo_f, hi_f)
    f_best = ngamma(alpha, best, rho_f, phi, delta)
    # flat objectives tie-break to the smallest feasible angle
    f_lo = ngamma(alpha, lo_f, rho_f, phi, delta)
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


def in_window_roots(alpha, rho, phi, delta):
    """How many roots of the stationarity condition lie in the failure-angle
    window at each blade angle of the array ``rho``."""
    hi = BearingKernel(alpha, rho, delta).window(phi)
    counts = []
    for rho_i, hi_i in zip(rho, hi):
        p, q, r = stationarity_coefficients(alpha, rho_i, phi, delta)
        amplitude = math.hypot(p, q)
        if not abs(r) <= amplitude:
            counts.append(0)
            continue
        mid, half = 0.5 * math.atan2(q, p), 0.5 * math.acos(r / amplitude)
        counts.append(sum(EPS1 <= root % math.pi <= hi_i
                          for root in (mid - half, mid + half)))
    return np.array(counts)


def assert_matches_reference(alpha, rho, phi, delta):
    beta, feasible = BearingKernel(alpha, rho, delta).failure_angle(phi)[:2]
    beta_ref, feasible_ref = solve_beta_grid_golden(alpha, rho, phi, delta)
    np.testing.assert_array_equal(feasible, feasible_ref)
    assert np.all(np.isnan(beta[~feasible]))
    rho_f = np.atleast_1d(rho)[feasible]
    got = ngamma(alpha, beta[feasible], rho_f, phi, delta)
    ref = ngamma(alpha, beta_ref[feasible], rho_f, phi, delta)
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
            for x, y in zip(a, b):
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
        # the engine flags the failing margin per sample instead of raising;
        # only a singular pile angle, shared by every sample, still raises
        soil = _soil(phi=0.6, delta=math.pi - 2.6)
        out = _engine(soil, 0.1, [1e-6, math.pi - 1e-6, 1.0, 1.95])
        assert out.failures == [(0, "sin(rho) below margin"),
                                (1, "sin(rho) below margin"),
                                (3, "empty failure-angle window")]
        assert out.valid.tolist() == [False, False, True, False]
        with pytest.raises(SingularGeometry, match="cos\\(alpha\\)"):
            _engine(soil, 0.1, 1.0, alpha=math.pi / 2 - 1e-6)

    def test_original_rejects_singular_denominator(self):
        with pytest.raises(SingularGeometry):
            bearing_factors_original(0.0, 1e-14, 1.0, 0.3, 0.2)


class TestSolveBeta:
    def test_flat_objective_tie_breaks_to_smallest_feasible(self):
        beta = solve_one(0.0, math.pi / 2, 0.0, 0.0)
        assert beta == EPS1

    def test_matches_grid_argmin(self):
        alpha, phi, delta, rho = 0.3, 0.6, 0.4, 1.0
        beta = solve_one(alpha, rho, phi, delta)
        hi = BearingKernel(alpha, rho, delta).window(phi)
        grid = np.arange(EPS1, hi[0], math.radians(0.01))
        vals = ngamma(alpha, grid, rho, phi, delta)
        j = int(np.argmin(vals))
        assert abs(beta - grid[j]) <= math.radians(0.01) + 1e-12
        got = float(ngamma(alpha, np.array([beta]), rho, phi,
                                  delta)[0])
        assert got <= vals[j] + 1e-9

    def test_respects_chain_margin(self):
        alpha, rho, delta, phi = 0.0, 0.2, 0.78, 0.78
        beta = solve_one(alpha, rho, phi, delta)
        assert abs(rho + delta + beta + phi - math.pi) > EPS2

    def test_empty_feasible_set(self):
        # rho + delta + phi leave no room above EPS1
        rho = math.radians(100.0)
        beta, feasible = BearingKernel(0.0, rho, 0.75).failure_angle(0.75)[:2]
        assert not feasible[0] and math.isnan(beta[0])
        out = _engine(_soil(phi=0.75, delta=0.75), 0.1, rho)
        assert out.status[0] == _EMPTY_WINDOW
        assert math.isnan(out.f_t[0]) and math.isnan(out.f_n[0])

    def test_stays_on_nonnegative_weight_branch(self):
        # the window is capped where the wedge cross-section flips sign
        for alpha in (0.0, 0.2, 0.4):
            beta = solve_one(alpha, math.radians(12.0), 0.3, 0.2)
            assert beta <= math.pi / 2 - alpha + 1e-12
            val = float(ngamma(alpha, np.array([beta]),
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
        hi = BearingKernel(alpha, rho, delta).window(phi)
        assert feasible[0] and beta[0] in (EPS1, hi[0])

    def test_no_interior_root_zero_coefficients(self):
        # phi = 0 and rho+delta = pi/2 make P = Q = 0 while R = sin(2 alpha)
        # stays positive: N_gamma falls monotonically to the window end
        alpha, rho, phi, delta = 0.3, math.pi / 2 - 0.2, 0.0, 0.2
        p, q, r = stationarity_coefficients(alpha, rho, phi, delta)
        assert math.hypot(p, q) < 1e-15 and r > 0.5
        beta, feasible = assert_matches_reference(alpha, np.array([rho]),
                                                  phi, delta)
        hi = BearingKernel(alpha, rho, delta).window(phi)
        assert feasible[0] and beta[0] == hi[0]

    def test_empty_window_row(self):
        alpha, phi, delta = 0.2, 0.7, 0.7
        rho = np.array([0.5, math.radians(100.0), 0.9])
        beta, feasible = assert_matches_reference(alpha, rho, phi, delta)
        assert feasible.tolist() == [True, False, True]
        assert math.isnan(beta[1])
        for i in (0, 2):
            assert beta[i] == solve_one(alpha, rho[i], phi, delta)


SINKAGE_PRESETS = [p for p in preset_catalog() if p.kc is not None]
CLASS_PRESETS = [p for p in preset_catalog() if p.phi is not None]
PHI_LO, PHI_HI = ParameterBounds().phi

# blade angles: regular, below RHO_MIN, near a singular sine (0 or pi),
# and large enough that the failure-angle window is often empty
blade_angles = st.one_of(
    st.floats(RHO_MIN, math.pi / 2),
    st.floats(0.0, RHO_MIN, exclude_max=True),
    st.sampled_from([1e-9, ANGLE_MARGIN, math.pi - 1e-9,
                     math.pi - ANGLE_MARGIN]),
    st.floats(2.0, math.pi))


class TestBroadcastKernel:
    """Stage 2 of the calibration calls a ``BearingKernel`` with many
    friction angles as a (k, 1) column. Row i of that call must hold the
    bits of the call at the float phi[i], and of the engine at that one
    friction angle."""

    @given(sinkage=st.sampled_from(SINKAGE_PRESETS),
           classification=st.sampled_from(CLASS_PRESETS),
           alpha=st.floats(0.0, ALPHA_MAX, exclude_max=True),
           rho=st.lists(blade_angles, min_size=1, max_size=30),
           phis=st.lists(st.one_of(st.floats(PHI_LO, PHI_HI),
                                   st.sampled_from([PHI_LO, PHI_HI])),
                         min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_scalar_engine(self, sinkage, classification,
                                          alpha, rho, phis):
        soil = classification.merged(sinkage).soil_parameters()
        rho = np.array(rho)
        beta, feasible, factors = BearingKernel(alpha, rho, soil.delta)(
            np.array(phis)[:, None])
        assert beta.shape == feasible.shape == (len(phis), rho.size)
        for i, phi_i in enumerate(phis):
            one = BearingKernel(alpha, rho, soil.delta)(phi_i)
            assert np.array_equal(beta[i], one[0], equal_nan=True)
            assert np.array_equal(feasible[i], one[1])
            for full, want in zip(factors, one[2]):
                assert np.array_equal(full[i], want, equal_nan=True)
            out = _engine(replace(soil, phi=phi_i), 1.0, rho, alpha=alpha)
            assert np.array_equal(beta[i], out.beta, equal_nan=True)
            assert np.array_equal(feasible[i], out.valid)

    @staticmethod
    def assert_rows_match(alpha, rho, phis, delta):
        beta, feasible, factors = BearingKernel(alpha, rho, delta)(
            np.array(phis)[:, None])
        for i, phi_i in enumerate(phis):
            one = BearingKernel(alpha, rho, delta)(phi_i)
            assert np.array_equal(beta[i], one[0], equal_nan=True)
            assert np.array_equal(feasible[i], one[1])
            for full, want in zip(factors, one[2]):
                assert np.array_equal(full[i], want, equal_nan=True)
            assert_matches_reference(alpha, rho, phi_i, delta)
        return feasible

    def test_rows_with_and_without_an_in_window_root(self):
        # on a 40 degree pile face the phi = 0 row has no stationary root
        # inside its windows, and every other row has some
        alpha, delta = math.radians(40.0), 0.1
        rho = np.radians(np.linspace(12.0, 120.0, 23))
        phis = np.linspace(PHI_LO, PHI_HI, 6).tolist()
        counts = [in_window_roots(alpha, rho, phi, delta).sum()
                  for phi in phis]
        assert counts[0] == 0 and min(counts[1:]) > 0
        feasible = self.assert_rows_match(alpha, rho, phis, delta)
        assert feasible.any(axis=1).all() and not feasible.all()

    def test_rows_without_a_stationary_root(self):
        # the default cycle's pile slope, tool friction angle and blade
        # angles: |R| > sqrt(P^2+Q^2) for every friction angle of the box
        alpha, delta = math.radians(25.0), math.pi / 10.0
        rho = np.radians(np.linspace(12.0, 30.0, 19))
        phis = np.linspace(PHI_LO, PHI_HI, 6).tolist()
        for phi in phis:
            for rho_i in rho:
                p, q, r = stationarity_coefficients(alpha, rho_i, phi, delta)
                assert abs(r) > math.hypot(p, q)
        assert self.assert_rows_match(alpha, rho, phis, delta).all()

    @given(alpha=st.one_of(st.floats(0.0, ALPHA_MAX, exclude_max=True),
                           st.just(math.radians(40.0))),
           delta=st.floats(*ParameterBounds().delta),
           rho=st.lists(blade_angles, min_size=1, max_size=30),
           phis=st.lists(st.one_of(st.floats(PHI_LO, PHI_HI),
                                   st.sampled_from([PHI_LO, PHI_HI])),
                         min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_a_bound_kernel_matches_fresh_calls(self, alpha, delta, rho,
                                                phis):
        # one kernel, called at every phi as a float and at all of them as
        # a (k, 1) column, in either order, gives the bits of a pass of a
        # freshly bound kernel at each
        rho = np.array(rho)
        column = np.array(phis)[:, None]
        kernel = BearingKernel(alpha, rho, delta)
        calls = [(phi, kernel(phi)) for phi in phis]
        calls.append((column, kernel(column)))
        calls += [(phi, kernel(phi)) for phi in phis]
        assert kernel.passes == 2 * len(phis) + 1
        for phi, (beta, feasible, factors) in calls:
            fresh = BearingKernel(alpha, rho, delta)(phi)
            assert np.array_equal(beta, fresh[0], equal_nan=True)
            assert np.array_equal(feasible, fresh[1])
            for got, want in zip(factors, fresh[2]):
                assert np.array_equal(got, want, equal_nan=True)

    def test_blade_margins_are_infeasible_without_warning(self):
        # below RHO_MIN, and sin(rho) within its margin of 0 or pi
        rho = np.array([0.5 * RHO_MIN, 1e-9, math.pi - 1e-9,
                        math.pi - 0.5 * ANGLE_MARGIN, 1.0])
        phi = np.array([[0.0], [0.4], [0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, feasible, factors = BearingKernel(0.2, rho, 0.3)(phi)
            out = _engine(_soil(phi=0.4, delta=0.3), 0.1, rho, alpha=0.2)
        assert not feasible[:, :4].any() and feasible[:, 4].all()
        for values in (beta, *factors):
            assert np.isnan(values[:, :4]).all()
            assert np.isfinite(values[:, 4]).all()
        assert out.status.tolist() == [_RHO_BELOW_MIN, _SINGULAR_RHO,
                                       _SINGULAR_RHO, _SINGULAR_RHO, 0]
        assert abs(math.sin(rho[3])) <= SIN_MARGIN


class TestRootlessPass:
    """``BearingKernel.rootless`` rules out a pass's stationary roots in
    closed form; a pass it clears skips ``_stationary_angles``, which
    must then find no root at any entry: every root it returns is NaN."""

    @staticmethod
    def reference_roots(kernel, phi):
        a = 2.0 * kernel.alpha + phi
        with np.errstate(divide="ignore", invalid="ignore"):
            return _stationary_angles(kernel.rho_delta, phi, a, np.cos(a),
                                      np.sin(a), np.sin(phi))

    @given(alpha=st.one_of(st.floats(0.0, ALPHA_MAX, exclude_max=True),
                           st.just(math.radians(40.0))),
           delta=st.floats(*ParameterBounds().delta),
           rho=st.lists(blade_angles, min_size=1, max_size=30),
           phi=st.one_of(st.floats(PHI_LO, PHI_HI),
                         st.sampled_from([PHI_LO, PHI_HI])))
    @settings(max_examples=400, deadline=None)
    def test_no_root_where_it_rules_them_out(self, alpha, delta, rho, phi):
        kernel = BearingKernel(alpha, rho, delta)
        if kernel.rootless(phi):
            assert np.isnan(self.reference_roots(kernel, phi)).all()
            assert kernel.rootless(np.array([[phi], [phi]]))
            assert kernel(phi)[0].shape == (len(rho),)
            assert kernel.root_passes == 0
        else:
            kernel(phi)
            assert kernel.root_passes == 1

    def test_clears_the_default_cycle_and_not_a_steep_face(self):
        # the default cycle's pile slope, tool friction angle and blade
        # angles have no root at any friction angle of the box; on a 40
        # degree face every row but phi = 0 has some inside its windows
        phis = np.linspace(PHI_LO, PHI_HI, 6)
        rho = np.radians(np.linspace(12.0, 30.0, 19))
        kernel = BearingKernel(math.radians(25.0), rho, math.pi / 10.0)
        assert all(kernel.rootless(phi) for phi in phis.tolist())
        assert kernel.rootless(phis[:, None])
        steep = BearingKernel(math.radians(40.0),
                              np.radians(np.linspace(12.0, 120.0, 23)), 0.1)
        assert not any(steep.rootless(phi) for phi in phis[1:].tolist())
        assert not steep.rootless(phis[:, None])
        for phi in phis[1:].tolist():
            assert not np.isnan(self.reference_roots(steep, phi)).all()


class TestBekkerPressure:
    """The engine's penetration pressure (kc/b + kphi) * d^n."""

    def test_zero_depth(self):
        assert _pressure(_soil(n=0.7), 0.0) == 0.0

    def test_linear_case(self):
        soil = _soil(kc=0.0, kphi=100.0, n=1.0)
        assert _pressure(soil, 0.5) == pytest.approx(50.0)

    def test_oracle_evaluation(self):
        # independent one-line evaluation of the pressure law
        soil = _soil(kc=745.6, kphi=166.9, n=0.91)
        expected = (745.6 / 0.05 + 166.9) * 0.2 ** 0.91
        assert _pressure(soil, 0.2) == pytest.approx(expected, rel=1e-15)

    def test_rejects_negative_depth(self):
        # a negative depth is never evaluated: the sample is out of soil
        out = _engine(_soil(), -0.1, 1.0)
        assert out.status[0] == _OUT_OF_SOIL and not out.in_soil[0]
        assert (_pressure(_soil(), -0.1), out.f_t[0], out.f_n[0]) == (
            0.0, 0.0, 0.0)
        assert out.failures == []


class TestFeeForce:
    """The engine's wedge reaction force at its own failure angle."""

    def test_zero_depth_zero_load(self):
        assert _engine(_soil(), 0.0, math.pi / 2).fee[0] == 0.0

    def test_surcharge_only(self):
        # the surcharge enters as w_load * N_q at the solved angle, with
        # w_load = gamma * g * omega * area
        soil, area = _soil(), 0.05
        w_load = soil.gamma * GRAVITY * LOADER.omega * area
        loaded = _engine(soil, 0.1, math.pi / 2, area=area)
        bare = _engine(soil, 0.1, math.pi / 2, area=0.0)
        # the factors at the engine's beta
        beta, _, (_, _, _, n_q) = BearingKernel(0.0, [math.pi / 2],
                                                soil.delta)(soil.phi)
        assert beta[0] == loaded.beta[0]
        assert loaded.fee[0] - bare.fee[0] == pytest.approx(w_load * n_q[0])

    def test_single_term_arithmetic(self):
        # N_gamma is 1/2 at every angle of this geometry
        got = _engine(_soil(gamma=1500.0), 0.1, math.pi / 2, lt=0.1).fee[0]
        assert got == pytest.approx(0.01 * 1.0 * 1500.0 * GRAVITY * 0.5,
                                    rel=1e-12)

    def test_monotone_in_depth_and_density(self):
        soil = _soil(gamma=1500.0, cohesion_c=800.0, adhesion_ca=0.0,
                     phi=0.5, delta=0.3)

        def fee(depth, soil=soil, area=0.03):
            return _engine(soil, depth, 1.0, lt=0.3, area=area,
                           alpha=0.1).fee[0]

        f1, f2 = fee(0.1), fee(0.2)
        assert f2 >= f1
        f3 = fee(0.2, soil=replace(soil, gamma=2000.0))
        assert f3 >= f2
        f4 = fee(0.2, soil=replace(soil, cohesion_c=2000.0))
        assert f4 >= f2
        f5 = fee(0.2, area=0.054)
        assert f5 >= f2


class TestBucketForces:
    """The engine's tangential/normal pair from wedge force and pressure."""

    def test_zero_tool_friction(self):
        soil = _soil(delta=0.0, adhesion_ca=300.0)
        out = _engine(soil, 0.1, math.pi / 2, lt=0.4)
        assert out.f_n[0] == out.fee[0]
        assert out.f_t[0] == pytest.approx(
            LOADER.omega * LOADER.b * _pressure(soil, 0.1, math.pi / 2)
            + 300.0 * LOADER.omega * 0.4)

    def test_all_zero(self):
        out = _engine(_soil(), 0.0, 1.0)
        assert (out.f_t[0], out.f_n[0]) == (0.0, 0.0)

    def test_direct_trig(self):
        # no pressure and no adhesion: the pair is the wedge force turned
        # by delta, read per 100 N of wedge force
        soil = _soil(delta=math.radians(30.0), kc=0.0, kphi=0.0)
        out = _engine(soil, 0.1, math.pi / 2)
        assert 100.0 * out.f_t[0] / out.fee[0] == pytest.approx(50.0,
                                                                abs=1e-9)
        assert 100.0 * out.f_n[0] / out.fee[0] == pytest.approx(86.60,
                                                                abs=5e-3)

    @given(depth=st.floats(0.0, 2.0), delta=st.floats(0.0, 0.78))
    @settings(max_examples=200, deadline=None)
    def test_normal_force_ratio_exact(self, depth, delta):
        out = _engine(_soil(delta=delta), depth, math.pi / 2)
        assert out.f_n[0] == out.fee[0] * math.cos(delta)


class TestPredictCycleForces:
    """predict_force_arrays over whole cycles."""

    def test_empty_sequence(self):
        out = _engine(_soil(), np.empty(0), np.empty(0))
        f_t, f_n = out.arrays()
        assert out.n == 0 and f_t.size == f_n.size == 0
        assert out.failures == []

    def test_out_of_soil_yields_zero(self):
        out = _engine(_soil(), np.zeros(4), 0.5)
        f_t, f_n = out.arrays()
        assert np.all(f_t == 0.0) and np.all(f_n == 0.0)
        assert out.failures == []

    def test_singular_sample_reported_not_fatal(self):
        out = _engine(_soil(phi=0.4, delta=0.2), 0.1,
                      [0.6, math.radians(1.0), 0.6], lt=0.2, area=0.001,
                      alpha=0.1)
        assert [index for index, _ in out.failures] == [1]
        assert out.valid.tolist() == [True, False, True]
        f_t, f_n = out.arrays()
        assert np.all(np.isfinite(f_t[[0, 2]]))
        assert np.isnan(f_t[1]) and np.isnan(f_n[1])

    def test_against_independent_reimplementation(self, dataset, truth,
                                                  scenario):
        # straight-line per-sample recomputation of the whole force chain
        from scipy.optimize import minimize_scalar

        loader = dataset.loader
        depth, lt, area = wedge_geometry(dataset.samples, dataset.surface)
        rho = dataset.samples.rho
        pred = predict_force_arrays(depth, rho, lt, area, truth, loader,
                                    scenario.surface.nominal_alpha)
        w_load = truth.gamma * GRAVITY * loader.omega * area
        alpha = scenario.surface.nominal_alpha
        eps = math.radians(5.0)
        ang = math.radians(1.0)

        def ref_ngamma(beta, rho):
            return (math.cos(alpha + beta)
                    * math.sin(alpha + beta + truth.phi)
                    / (2.0 * math.cos(alpha) * math.sin(beta)
                       * math.sin(rho + truth.delta + beta + truth.phi)))

        checked = 0
        for i in range(dataset.n):
            d, r = float(depth[i]), float(rho[i])
            if d <= 0.0:
                assert pred.f_t[i] == 0.0 and pred.f_n[i] == 0.0
                continue
            lo = eps
            hi = min(math.pi - r - truth.delta - truth.phi - eps,
                     math.pi - truth.phi - ang, math.pi / 2 - alpha)
            grid = np.linspace(lo, hi, 4001)
            coarse = [ref_ngamma(b, r) for b in grid]
            j = int(np.argmin(coarse))
            res = minimize_scalar(
                lambda b: ref_ngamma(b, r), method="bounded",
                bounds=(grid[max(j - 1, 0)], grid[min(j + 1, 4000)]),
                options={"xatol": 1e-12})
            beta = min(res.x, hi)
            if ref_ngamma(lo, r) <= ref_ngamma(beta, r):
                beta = lo
            chain = r + truth.delta + beta + truth.phi
            n_gamma = ref_ngamma(beta, r)
            n_c = math.cos(truth.phi) / (math.sin(beta) * math.sin(chain))
            n_a = (-math.cos(r + beta + truth.phi)
                   / (math.sin(r) * math.sin(chain)))
            n_q = (math.sin(alpha + beta + truth.phi) / math.sin(chain))
            f = (d ** 2 * loader.omega * truth.gamma * GRAVITY * n_gamma
                 + truth.cohesion_c * loader.omega * d * n_c
                 + truth.adhesion_ca * loader.omega * d * n_a
                 + float(w_load[i]) * n_q)
            p = (truth.kc / loader.b + truth.kphi) * d ** truth.n
            f_t = (loader.omega * loader.b * p + f * math.sin(truth.delta)
                   + truth.adhesion_ca * loader.omega * d / math.sin(r))
            f_n = f * math.cos(truth.delta)
            assert pred.f_t[i] == pytest.approx(f_t, rel=1e-7)
            assert pred.f_n[i] == pytest.approx(f_n, rel=1e-7)
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
        with pytest.raises(ValueError, match="^gamma must be finite, got "
                                             "nan$"):
            _soil(gamma=math.nan)

    def test_bounds_contain(self):
        bounds = ParameterBounds()
        soil = _soil(gamma=1500.0, n=1.0)
        assert bounds.contains(soil)
        wild = _soil(gamma=9000.0, n=2.0)
        assert not bounds.contains(wild)

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

    def test_json_round_trip(self):
        soil = _soil(gamma=1700.0, phi=0.3, delta=0.2, n=0.8)
        assert soil_from_json(soil_to_json(soil)) == soil

    def test_loader_invariants(self):
        with pytest.raises(ValueError):
            LoaderParameters(omega=0.0, b=0.05)
        with pytest.raises(ValueError):
            LoaderParameters(omega=1.0, b=-0.1)
        LoaderParameters(omega=100.0, b=100.0)
        for size in ({"omega": 100.00001}, {"b": 1e308}):
            with pytest.raises(ValueError,
                               match=r"must lie in \(0 m, 100 m\]"):
                LoaderParameters(**{"omega": 1.0, "b": 0.05, **size})

    def test_margins_invariants(self):
        assert ANGLE_MARGIN == pytest.approx(math.radians(1.0))
