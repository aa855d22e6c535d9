import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feecalib import (CycleDataset, DegenerateRegion, FeeCalibError,
                      NonMonotonePath, Polyline, SlopedLine, make_trajectory,
                      predict_force_arrays, quadratic_bezier_path,
                      surface_after_cycle, swept_area_profile,
                      wedge_geometry)
from feecalib import geometry
from feecalib.geometry import (DEPTH_BLOCK, InvalidTrajectory,
                               _collapse_vertical_moves, _prune_collinear)
from feecalib.soil import (_OUT_OF_SOIL, _RHO_BELOW_MIN,
                           LoaderParameters, SoilParameters)
from feecalib.synthetic import Scenario, default_scenario

FLAT = SlopedLine((0.0, 0.0), 0.0)


def _traj(points, rho=0.5):
    xs, zs = np.array(points, dtype=float).reshape(-1, 2).T
    return make_trajectory(np.arange(xs.size, dtype=float), xs, zs,
                           np.full(xs.size, rho))


def _sample(t, x, z, rho):
    """A one-sample trajectory."""
    return make_trajectory([t], [x], [z], [rho])


def penetration_depth(tip, surface):
    """Surface.depth_of at one tip."""
    return float(surface.depth_of(np.array([tip[0]]), np.array([tip[1]]))[0])


def _engine_on(samples, surface):
    """Force engine on a trajectory's wedge geometry."""
    soil = SoilParameters(gamma=1500.0, cohesion_c=0.0, adhesion_ca=0.0,
                          phi=0.3, delta=0.2, kc=0.0, kphi=100.0, n=1.0)
    loader = LoaderParameters(omega=1.0, b=0.05)
    depth, lt, area = wedge_geometry(samples, surface)
    return predict_force_arrays(depth, samples.rho, lt, area,
                                soil, loader, surface.nominal_alpha)


class TestMakeTrajectory:
    def test_columns_and_rows(self):
        traj = make_trajectory([0.0, 0.5], [1.0, 2.0], [-0.1, -0.2],
                               [0.4, 0.6])
        assert np.array_equal(traj.x, [1.0, 2.0])
        assert [(s.t, s.x, s.z, s.rho) for s in traj] == [
            (0.0, 1.0, -0.1, 0.4), (0.5, 2.0, -0.2, 0.6)]
        with pytest.raises(ValueError):
            traj.x[0] = 3.0

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            make_trajectory([0.0, 1.0], [0.0], [0.0, 0.0], [0.5, 0.5])

    @pytest.mark.parametrize("field", ["t", "x", "z", "rho"])
    def test_names_first_non_finite_sample(self, field):
        columns = {name: np.zeros(4) for name in ("t", "x", "z", "rho")}
        columns[field][2] = math.nan
        columns["rho"][3] = math.inf
        with pytest.raises(InvalidTrajectory,
                           match=f"sample 2: {field} must be finite"
                           ) as info:
            make_trajectory(**columns)
        assert info.value.index == 2

    def test_names_first_backward_time(self):
        with pytest.raises(InvalidTrajectory, match="sample 2") as info:
            make_trajectory([0.0, 1.0, 0.5, 0.2], np.zeros(4), np.zeros(4),
                            np.zeros(4))
        assert info.value.index == 2


class TestNominalAlpha:
    SURFACES = {
        "sloped_line": lambda alpha: SlopedLine((0.0, 0.0), alpha),
        "polyline": lambda alpha: Polyline(
            np.array([[0.0, 0.0], [1.0, 0.2]]), nominal_alpha=alpha)}

    @pytest.mark.parametrize("kind", sorted(SURFACES))
    @pytest.mark.parametrize("deg", [80.0, -30.0, 120.0, 45.0, math.nan])
    def test_outside_the_range_is_refused(self, kind, deg):
        with pytest.raises(ValueError,
                           match=r"alpha must lie in \[0 deg, 45 deg\)"):
            self.SURFACES[kind](math.radians(deg))

    @pytest.mark.parametrize("kind", sorted(SURFACES))
    @pytest.mark.parametrize("deg", [0.0, 25.0, 44.9])
    def test_inside_the_range_is_kept(self, kind, deg):
        surface = self.SURFACES[kind](math.radians(deg))
        assert surface.nominal_alpha == math.radians(deg)


class TestSlopedLineOrigin:
    @pytest.mark.parametrize("origin", [
        (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0), (1.0,),
        (1.0, 2.0, 3.0), (), None, 5.0, ((1.0, 2.0), (3.0, 4.0)),
        ("a", 0.0), ({}, 0.0)])
    def test_not_two_finite_numbers_is_refused(self, origin):
        with pytest.raises(ValueError, match="origin must be two finite "
                                             "numbers"):
            SlopedLine(origin, 0.1)

    def test_kept_as_two_floats(self):
        line = SlopedLine((1, -2), 0.1)
        assert line.origin == (1.0, -2.0)
        assert all(type(v) is float for v in line.origin)
        assert line.height_at(1.0) == -2.0


class TestPenetrationDepth:
    def test_flat_surface(self):
        assert penetration_depth((1.0, -0.3), FLAT) == pytest.approx(0.3)

    def test_tip_on_sloped_line(self):
        line = SlopedLine((0.0, 0.0), math.radians(44.0))
        z = math.tan(math.radians(44.0)) * 2.0
        assert penetration_depth((2.0, z), line) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_perpendicular_scaling(self):
        line = SlopedLine((0.0, 0.0), math.radians(30.0))
        # one meter vertically below the line
        z = math.tan(math.radians(30.0)) * 1.0 - 1.0
        assert penetration_depth((1.0, z), line) == pytest.approx(
            math.cos(math.radians(30.0)))

    def test_polyline_matches_segment_bruteforce(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(-5.0, 5.0, 50))
        xs += np.linspace(0, 1e-6, 50)  # enforce strict monotonicity
        zs = rng.uniform(-1.0, 1.0, 50)
        poly = Polyline(np.column_stack([xs, zs]))

        def brute(x, z):
            best = math.inf
            for (ax, az), (bx, bz) in zip(poly.vertices[:-1],
                                          poly.vertices[1:]):
                t = (((x - ax) * (bx - ax) + (z - az) * (bz - az))
                     / ((bx - ax) ** 2 + (bz - az) ** 2))
                t = min(max(t, 0.0), 1.0)
                best = min(best, math.hypot(x - (ax + t * (bx - ax)),
                                            z - (az + t * (bz - az))))
            return best

        for _ in range(300):
            x = rng.uniform(-4.5, 4.5)
            z = rng.uniform(-3.0, 2.0)
            d = penetration_depth((x, z), poly)
            if z < float(np.asarray(poly.height_at(np.array([x])))[0]):
                assert d == pytest.approx(brute(x, z), rel=1e-12, abs=1e-12)
            else:
                assert d == 0.0

    @given(x=st.floats(-10, 10), z=st.floats(-10, 10),
           alpha=st.floats(0.0, 0.7))
    @settings(max_examples=200, deadline=None)
    def test_depth_nonnegative(self, x, z, alpha):
        line = SlopedLine((0.0, 0.0), alpha)
        d = penetration_depth((x, z), line)
        assert d >= 0.0
        # zero iff on or above the surface
        above = z >= float(np.asarray(line.height_at(np.array([x])))[0])
        assert (d == 0.0) == above or abs(d) < 1e-12


class TestWedgeFromSample:
    """Per-sample wedge geometry: lt = d/sin(rho), and the engine's
    verdict on tips it does not evaluate."""

    def test_sine_values(self):
        s = _sample(0.0, 1.0, -0.2, math.pi / 2)
        depth, lt, _ = wedge_geometry(s, FLAT)
        assert depth[0] == pytest.approx(0.2)
        assert lt[0] == pytest.approx(0.2)

    def test_symmetry(self):
        s = _sample(0.0, 1.0, -0.2, math.pi / 6)
        _, lt, _ = wedge_geometry(s, FLAT)
        assert lt[0] == pytest.approx(0.4)

    def test_subnormal_blade_angle_overflows_quietly(self):
        # depth / sin(5e-324) overflows; the engine flags the sample, so
        # lt is infinite without a RuntimeWarning, which the test
        # configuration turns into an error
        s = _sample(0.0, 1.0, -0.2, 5e-324)
        _, lt, _ = wedge_geometry(s, FLAT)
        assert lt[0] == math.inf

    @given(d=st.floats(0.01, 2.0), rho=st.floats(0.2, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_defining_identity(self, d, rho):
        s = _sample(0.0, 0.0, -d, rho)
        _, lt, _ = wedge_geometry(s, FLAT)
        assert lt[0] * math.sin(rho) == pytest.approx(d, rel=1e-12)

    def test_rejects_shallow_blade_angle(self):
        out = _engine_on(_sample(0.0, 0.0, -0.2, math.radians(5.0)), FLAT)
        assert out.status[0] == _RHO_BELOW_MIN
        assert out.failures == [(0, "blade angle below minimum")]
        assert np.isnan(out.f_t[0]) and np.isnan(out.f_n[0])

    def test_rejects_above_surface_tip(self):
        s = _sample(0.0, 0.0, 0.2, 0.5)
        depth, lt, _ = wedge_geometry(s, FLAT)
        assert (depth[0], lt[0]) == (0.0, 0.0)
        out = _engine_on(s, FLAT)
        assert out.status[0] == _OUT_OF_SOIL and out.failures == []
        assert (out.f_t[0], out.f_n[0]) == (0.0, 0.0)


class TestSweptLoad:
    def test_above_surface_prefix_is_zero(self):
        traj = _traj([(-1.0, 0.5), (0.0, 0.3), (1.0, 0.4)])
        assert swept_area_profile(traj, FLAT)[-1] == 0.0

    def test_rectangular_region(self):
        traj = _traj([(0.0, 0.0), (0.0, -0.5), (1.0, -0.5), (1.0, 0.0)])
        assert swept_area_profile(traj, FLAT)[-1] == pytest.approx(0.5)

    def test_matches_raster_integration(self):
        rng = np.random.default_rng(9)
        surface = SlopedLine((0.0, 0.0), math.radians(20.0))
        xs = np.sort(rng.uniform(-0.5, 2.0, 40))
        zs = surface.height_at(xs) - rng.uniform(-0.1, 0.5, 40)
        traj = _traj(list(zip(xs, zs)))
        area = swept_area_profile(traj, surface)[-1]
        # dense-grid rasterization of the positive gap
        grid = np.linspace(xs[0], xs[-1], 200001)
        path_z = np.interp(grid, xs, zs)
        gap = np.clip(np.asarray(surface.height_at(grid)) - path_z, 0.0,
                      None)
        raster = np.trapezoid(gap, grid)
        assert area == pytest.approx(raster, rel=0.01)

    def test_profile_nondecreasing(self):
        rng = np.random.default_rng(2)
        xs = np.sort(rng.uniform(-1.0, 2.0, 60))
        zs = rng.uniform(-0.6, 0.3, 60)
        profile = swept_area_profile(_traj(list(zip(xs, zs))), FLAT)
        assert np.all(np.diff(profile) >= -1e-15)

    def test_doubling_back_raises(self):
        traj = _traj([(0.0, -0.1), (1.0, -0.2), (0.4, -0.3)])
        with pytest.raises(DegenerateRegion):
            swept_area_profile(traj, FLAT)

    def test_vertical_plunge_sweeps_nothing(self):
        traj = _traj([(0.5, 0.0), (0.5, -0.8)])
        assert swept_area_profile(traj, FLAT)[-1] == 0.0


class TestBezierPath:
    P0, P1, P2 = (0.0, 0.0), (1.0, 2.0), (2.0, 0.5)

    def test_endpoint_interpolation(self):
        path = quadratic_bezier_path(self.P0, self.P1, self.P2, 11, 1.0,
                                     FLAT)
        assert (path[0].x, path[0].z) == self.P0
        assert (path[-1].x, path[-1].z) == self.P2

    def test_midpoint_formula(self):
        path = quadratic_bezier_path(self.P0, self.P1, self.P2, 3, 1.0, FLAT)
        mid = path[1]
        assert mid.x == pytest.approx((self.P0[0] + 2 * self.P1[0]
                                       + self.P2[0]) / 4.0)
        assert mid.z == pytest.approx((self.P0[1] + 2 * self.P1[1]
                                       + self.P2[1]) / 4.0)

    def test_degree_elevated_cubic_reproduces_points(self):
        p0, p1, p2 = map(np.asarray, (self.P0, self.P1, self.P2))
        q0, q3 = p0, p2
        q1 = (p0 + 2.0 * p1) / 3.0
        q2 = (2.0 * p1 + p2) / 3.0
        path = quadratic_bezier_path(self.P0, self.P1, self.P2, 57, 1.0,
                                     FLAT)
        for i, s in enumerate(path):
            u = i / 56.0
            cubic = ((1 - u) ** 3 * q0 + 3 * u * (1 - u) ** 2 * q1
                     + 3 * u ** 2 * (1 - u) * q2 + u ** 3 * q3)
            assert s.x == pytest.approx(cubic[0], abs=1e-12)
            assert s.z == pytest.approx(cubic[1], abs=1e-12)

    @given(u_count=st.integers(2, 40))
    @settings(max_examples=50, deadline=None)
    def test_samples_in_convex_hull(self, u_count):
        path = quadratic_bezier_path(self.P0, self.P1, self.P2, u_count,
                                     1.0, FLAT)
        xs = [self.P0[0], self.P1[0], self.P2[0]]
        zs = [self.P0[1], self.P1[1], self.P2[1]]
        for s in path:
            assert min(xs) - 1e-12 <= s.x <= max(xs) + 1e-12
            assert min(zs) - 1e-12 <= s.z <= max(zs) + 1e-12

    def test_rho_clamped_to_minimum(self):
        # straight horizontal path over a flat surface: tangent parallel
        path = quadratic_bezier_path((0.0, -0.5), (1.0, -0.5), (2.0, -0.5),
                                     9, 1.0, surface=FLAT)
        for s in path:
            assert s.rho == pytest.approx(math.radians(10.0))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            quadratic_bezier_path(self.P0, self.P1, self.P2, 1, 1.0, FLAT)
        with pytest.raises(ValueError):
            quadratic_bezier_path(self.P0, self.P1, self.P2, 5, 0.0, FLAT)


class TestSurfaceAfterCycle:
    def test_trajectory_above_surface_keeps_prior(self):
        traj = _traj([(-1.0, 0.2), (0.5, 0.4), (2.0, 0.3)])
        after = surface_after_cycle(FLAT, traj)
        xs = np.linspace(-3.0, 4.0, 500)
        assert np.allclose(np.asarray(after.height_at(xs)),
                           np.asarray(FLAT.height_at(xs)), atol=1e-12)

    def test_straight_cut_inserts_segment(self):
        traj = _traj([(-1.0, 0.1), (0.0, -0.4), (1.0, -0.4), (2.0, 0.1)])
        after = surface_after_cycle(FLAT, traj)
        assert float(np.asarray(after.height_at(np.array([0.5])))[0]) \
            == pytest.approx(-0.4)
        assert float(np.asarray(after.height_at(np.array([-2.0])))[0]) \
            == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_grid_envelope(self):
        rng = np.random.default_rng(13)
        prior = SlopedLine((0.0, 0.0), math.radians(15.0))
        xs = np.sort(rng.uniform(-1.0, 2.5, 35))
        zs = np.asarray(prior.height_at(xs)) + rng.uniform(-0.5, 0.3, 35)
        traj = _traj(list(zip(xs, zs)))
        after = surface_after_cycle(prior, traj)
        grid = np.linspace(xs[0], xs[-1], 20001)
        want = np.minimum(np.asarray(prior.height_at(grid)),
                          np.interp(grid, xs, zs))
        got = np.asarray(after.height_at(grid))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_idempotent(self):
        traj = _traj([(-1.0, 0.1), (0.0, -0.5), (0.7, -0.45), (2.0, 0.2)])
        once = surface_after_cycle(FLAT, traj)
        twice = surface_after_cycle(once, traj)
        xs = np.linspace(-2.0, 3.0, 5001)
        assert np.allclose(np.asarray(once.height_at(xs)),
                           np.asarray(twice.height_at(xs)), atol=1e-12)

    def test_non_monotone_raises(self):
        traj = _traj([(0.0, -0.1), (1.0, -0.3), (0.2, -0.2)])
        with pytest.raises(NonMonotonePath):
            surface_after_cycle(FLAT, traj)

    @pytest.mark.parametrize("n", [0, 1])
    def test_short_trajectory_raises(self, n):
        traj = _traj([(0.0, -0.1)][:n])
        with pytest.raises(DegenerateRegion, match="at least two samples"):
            surface_after_cycle(FLAT, traj)

    def test_inherits_nominal_alpha(self):
        prior = SlopedLine((0.0, 0.0), math.radians(25.0))
        traj = _traj([(0.0, -0.1), (1.0, -0.2), (2.0, 1.5)])
        after = surface_after_cycle(prior, traj)
        assert after.nominal_alpha == prior.nominal_alpha


class TestCycleWedges:
    def test_out_of_soil_rows_have_zero_geometry(self):
        traj = _traj([(-1.0, 0.5), (0.0, -0.2), (1.0, 0.5)])
        depth, lt, area = wedge_geometry(traj, FLAT)
        assert (depth[0], lt[0], area[0]) == (0.0, 0.0, 0.0)
        assert depth[1] == pytest.approx(0.2)
        assert lt[1] == pytest.approx(0.2 / math.sin(0.5))


class TestCycleDataset:
    @pytest.mark.parametrize("field", ["f_t_obs", "f_n_obs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_names_first_non_finite_force(self, field, value):
        # a library caller's non-finite observation is refused here, not
        # left for the fit to report as an optimizer failure
        traj = _traj([(0.1 * i, -0.1) for i in range(5)])
        forces = {"f_t_obs": np.ones(5), "f_n_obs": np.ones(5)}
        forces[field][3] = value
        forces["f_t_obs"][4] = math.nan
        with pytest.raises(InvalidTrajectory,
                           match=f"sample 3: {field} must be finite"
                           ) as info:
            CycleDataset(samples=traj, surface=FLAT,
                         loader=LoaderParameters(omega=1.2, b=0.05),
                         **forces)
        assert info.value.index == 3
        # callers that catch either the builtin or the library's errors
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, FeeCalibError)

    @pytest.mark.parametrize("field", ["f_t_obs", "f_n_obs"])
    def test_refuses_a_force_series_that_is_not_1d(self, field):
        # an (m, 1) column holds the right number of samples, but the fit
        # cannot broadcast it against the in-soil samples
        traj = _traj([(0.1 * i, -0.1) for i in range(5)])
        forces = {"f_t_obs": np.ones(5), "f_n_obs": np.ones(5)}
        forces[field] = forces[field].reshape(-1, 1)
        with pytest.raises(ValueError, match=rf"^{field} must be 1-D, got "
                                             rf"shape \(5, 1\)$"):
            CycleDataset(samples=traj, surface=FLAT,
                         loader=LoaderParameters(omega=1.2, b=0.05),
                         **forces)

    @pytest.mark.parametrize("field", ["f_t_obs", "f_n_obs"])
    def test_refuses_a_force_series_of_another_length(self, field):
        traj = _traj([(0.1 * i, -0.1) for i in range(5)])
        forces = {"f_t_obs": np.ones(5), "f_n_obs": np.ones(5)}
        forces[field] = np.ones(4)
        with pytest.raises(ValueError, match="^samples and force series "
                                             "must have equal length$"):
            CycleDataset(samples=traj, surface=FLAT,
                         loader=LoaderParameters(omega=1.2, b=0.05),
                         **forces)


# ---------------------------------------------------------------------------
# References: the all-pairs depth and the per-segment swept-area loop that
# the windowed depth and the merged-breakpoint profile replaced. Both new
# kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _min_segment_distance(poly, x, z, chunk=256):
    a = poly.vertices[:-1]
    b = poly.vertices[1:]
    ab = b - a                              # (k, 2)
    denom = np.einsum("kj,kj->k", ab, ab)
    out = []
    # samples in chunks, so that a dense face stays small in memory
    for i in range(0, len(x), chunk):
        p = np.stack([x[i:i + chunk], z[i:i + chunk]], axis=-1)   # (m, 2)
        ap = p[:, None, :] - a[None, :, :]                      # (m, k, 2)
        t = np.einsum("mkj,kj->mk", ap, ab) / denom
        t = np.clip(t, 0.0, 1.0)
        closest = a[None, :, :] + t[..., None] * ab[None, :, :]
        d2 = np.sum((p[:, None, :] - closest) ** 2, axis=-1)
        out.append(np.sqrt(np.min(d2, axis=1)))
    return np.concatenate(out) if out else np.zeros(0)


def depth_of_all_pairs(poly, x, z):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    below = z < poly.height_at(x)
    return np.where(below, _min_segment_distance(poly, x, z), 0.0)


def _positive_gap_integral(surface, x0, z0, x1, z1):
    """Integral of max(surface - path, 0) dx over one path segment."""
    if x1 <= x0:
        return 0.0
    inner = surface.vertex_xs()
    inner = inner[(inner > x0) & (inner < x1)]
    xs = np.concatenate([[x0], inner, [x1]])
    path_z = z0 + (z1 - z0) * (xs - x0) / (x1 - x0)
    gap = np.asarray(surface.height_at(xs)) - path_z
    total = 0.0
    for a, b, ga, gb in zip(xs[:-1], xs[1:], gap[:-1], gap[1:]):
        w = b - a
        if ga >= 0.0 and gb >= 0.0:
            total += 0.5 * (ga + gb) * w
        elif ga <= 0.0 and gb <= 0.0:
            continue
        else:
            # single sign change on a linear piece
            cross = ga / (ga - gb)
            if ga > 0.0:
                total += 0.5 * ga * cross * w
            else:
                total += 0.5 * gb * (1.0 - cross) * w
    return total


def swept_area_profile_loop(samples, surface):
    area = np.zeros(len(samples))
    xs = np.array([s.x for s in samples])
    zs = np.array([s.z for s in samples])
    running = 0.0
    for i in range(len(samples) - 1):
        running += _positive_gap_integral(surface, xs[i], zs[i],
                                          xs[i + 1], zs[i + 1])
        area[i + 1] = running
    return area


def collapse_vertical_moves_loop(xs, zs, tol):
    """Reference: the per-point loop that ``_collapse_vertical_moves``
    replaced."""
    out_x, out_z = [xs[0]], [zs[0]]
    for x, z in zip(xs[1:], zs[1:]):
        if x - out_x[-1] <= tol:
            out_z[-1] = min(out_z[-1], z)
        else:
            out_x.append(x)
            out_z.append(z)
    return np.array(out_x), np.array(out_z)


def prune_collinear_loop(xs, zs, tol):
    """Reference: the per-vertex loop that ``_prune_collinear`` replaced."""
    keep = [0]
    for i in range(1, xs.size - 1):
        x0, z0 = xs[keep[-1]], zs[keep[-1]]
        cross = ((xs[i] - x0) * (zs[i + 1] - z0)
                 - (zs[i] - z0) * (xs[i + 1] - x0))
        scale = max(1.0, abs(xs[i + 1] - x0), abs(zs[i + 1] - z0))
        if abs(cross) > tol * scale:
            keep.append(i)
    keep.append(xs.size - 1)
    return xs[keep], zs[keep]


def surface_after_cycle_loop(prior_surface, cycle_trajectory):
    """Reference: surface_after_cycle with the crossing insertion, the
    collapse of vertical moves and the collinear pruning as loops."""
    xs = np.array([s.x for s in cycle_trajectory], dtype=float)
    zs = np.array([s.z for s in cycle_trajectory], dtype=float)
    span = max(float(xs.max() - xs.min()), 1e-12)
    tol = 1e-9 * span
    xs, zs = collapse_vertical_moves_loop(xs, zs, tol)
    pad = max(1.0, 0.5 * span)
    lo = xs[0] - pad
    hi = xs[-1] + pad
    inner = prior_surface.vertex_xs()
    inner = inner[(inner > lo) & (inner < hi)]
    bx = np.unique(np.concatenate([[lo, hi], inner, xs]))
    prior_z = np.asarray(prior_surface.height_at(bx), dtype=float)
    path_z = np.interp(bx, xs, zs, left=np.inf, right=np.inf)
    env = np.minimum(prior_z, path_z)
    gap = prior_z - path_z
    out_x, out_z = [bx[0]], [env[0]]
    for i in range(bx.size - 1):
        ga, gb = gap[i], gap[i + 1]
        if np.isfinite(ga) and np.isfinite(gb) and (ga > 0) != (gb > 0) \
                and ga != 0.0 and gb != 0.0:
            xc = bx[i] + ga / (ga - gb) * (bx[i + 1] - bx[i])
            zc = float(np.asarray(prior_surface.height_at(xc)))
            if out_x[-1] + tol < xc < bx[i + 1] - tol:
                out_x.append(xc)
                out_z.append(zc)
        out_x.append(bx[i + 1])
        out_z.append(env[i + 1])
    out_x, out_z = prune_collinear_loop(np.array(out_x), np.array(out_z),
                                        1e-12)
    return np.column_stack([out_x, out_z])


def _random_polyline(rng, max_vertices=400):
    k = int(rng.integers(2, max_vertices + 1))
    xs = (np.cumsum(rng.uniform(1e-3, 1.0, k)) * rng.uniform(0.01, 3.0)
          + rng.uniform(-10.0, 10.0))
    zs = rng.normal(0.0, rng.uniform(0.01, 3.0), k)
    return Polyline(np.column_stack([xs, zs]))


#: Block sizes the depth search is checked at, DEPTH_BLOCK among them.
BLOCKS = sorted({1, 3, DEPTH_BLOCK, 64})


def _pruning_polylines(rng):
    """Faces where pruning segments by block boxes could go wrong."""
    # dense faces, about 1 mm between vertices
    for k in (2000, 2500, 3000):
        xs = np.cumsum(rng.uniform(0.5e-3, 1.5e-3, k))
        zs = (0.05 * np.sin(rng.uniform(1.0, 10.0) * xs)
              + np.cumsum(rng.normal(0.0, 2e-4, k)))
        yield Polyline(np.column_stack([xs, zs]))
    # vertex counts at a multiple of each block size and either side of it
    for k in sorted({b * m + d for b in BLOCKS for m in (1, 2, 5)
                     for d in (-1, 0, 1)} - {0, 1}):
        yield Polyline(np.column_stack([np.cumsum(rng.uniform(1e-3, 0.1, k)),
                                        rng.normal(0.0, 0.2, k)]))
    # two vertices
    for _ in range(5):
        yield _random_polyline(rng, 2)
    # dense flats cut by narrow V-notches and near-vertical walls: the
    # nearest segment lies many segments away from the one above
    for _ in range(8):
        xs = np.arange(0.0, 2.0, 1e-3)
        zs = np.zeros(xs.size)
        for _ in range(4):
            at = rng.uniform(0.1, 1.9)
            half, deep = rng.uniform(1e-3, 0.02), rng.uniform(0.05, 0.5)
            zs -= np.maximum(deep * (1.0 - np.abs(xs - at) / half), 0.0)
        for _ in range(2):
            at = int(rng.integers(1, xs.size - 1))
            wall = at + np.arange(1, 41)
            xs = np.insert(xs, at + 1, xs[at] + (xs[at + 1] - xs[at])
                           * 1e-3 * np.arange(1, 41))
            zs = np.insert(zs, at + 1, zs[at] + np.linspace(
                0.0, rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5),
                wall.size))
            zs[wall[-1] + 1:] += zs[wall[-1]] - zs[at]
        yield Polyline(np.column_stack([xs, zs]))


def _carved_twice(sample_rate=60.0):
    """The default face carved by two shifted passes, and a third pass."""
    base = default_scenario()
    surface = base.surface
    for k in range(3):
        points = tuple((x + 0.15 * k, z) for x, z in base.control_points)
        traj = Scenario(surface=surface, loader=base.loader,
                        control_points=points, sample_rate=sample_rate,
                        duration=base.duration).trajectory(surface=surface)
        if k < 2:
            surface = surface_after_cycle(surface, traj)
    return surface, traj


class TestDepthOfExact:
    def test_random_polylines_match_all_pairs(self, monkeypatch):
        rng = np.random.default_rng(11)
        for poly in itertools.chain(
                (_random_polyline(rng) for _ in range(300)),
                _pruning_polylines(np.random.default_rng(12))):
            vx = poly.vertex_xs()
            span = vx[-1] - vx[0]
            x = np.concatenate([
                rng.uniform(vx[0], vx[-1], 80),                  # inside
                vx[0] - rng.uniform(0.0, span + 1.0, 20),        # left
                vx[-1] + rng.uniform(0.0, span + 1.0, 20),       # right
                vx[rng.integers(0, vx.size, 30)]])               # at vertex
            below = rng.exponential(rng.uniform(0.01, 2.0), x.size)
            sign = np.where(rng.uniform(size=x.size) < 0.2, -1.0, 1.0)
            z = np.asarray(poly.height_at(x)) - sign * below     # some above
            expected = depth_of_all_pairs(poly, x, z)
            assert np.any(expected == 0.0) and np.any(expected > 0.0)
            for block in BLOCKS:
                monkeypatch.setattr(geometry, "DEPTH_BLOCK", block)
                assert np.array_equal(poly.depth_of(x, z), expected)

    @pytest.mark.parametrize("sample_rate, vertices",
                             [(60.0, 100), (600.0, 2000)])
    def test_face_carved_twice_matches_all_pairs(self, sample_rate,
                                                 vertices):
        surface, traj = _carved_twice(sample_rate)
        assert surface.vertices.shape[0] > vertices
        x, z = traj.x, traj.z
        expected = depth_of_all_pairs(surface, x, z)
        assert np.count_nonzero(expected) > 100
        assert np.array_equal(surface.depth_of(x, z), expected)

    def test_no_sample_below(self):
        poly = Polyline(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
        got = poly.depth_of(np.array([0.5, 3.0]), np.array([2.0, 0.0]))
        assert np.array_equal(got, np.zeros(2))


class TestSweptAreaExact:
    @staticmethod
    def _check(traj, surface):
        expected = swept_area_profile_loop(traj, surface)
        got = swept_area_profile(traj, surface)
        assert np.array_equal(got, expected)
        return got

    def test_sloped_line(self):
        rng = np.random.default_rng(3)
        surface = SlopedLine((0.0, 0.1), math.radians(25.0))
        xs = np.sort(rng.uniform(-0.5, 2.5, 120))
        zs = np.asarray(surface.height_at(xs)) + rng.normal(-0.2, 0.3, 120)
        assert self._check(_traj(list(zip(xs, zs))), surface)[-1] > 0.0

    def test_carved_polylines(self):
        surface, traj = _carved_twice()
        assert self._check(traj, surface)[-1] > 0.0
        rng = np.random.default_rng(4)
        for _ in range(50):
            poly = _random_polyline(rng, 200)
            vx = poly.vertex_xs()
            # from sparse (many vertices per step) to dense paths
            n = int(rng.integers(3, 150))
            xs = np.sort(rng.uniform(vx[0] - 1.0, vx[-1] + 1.0, n))
            zs = (np.asarray(poly.height_at(xs))
                  + rng.normal(0.0, 0.5, xs.size))
            self._check(_traj(list(zip(xs, zs))), poly)

    def test_vertical_plunge(self):
        poly = Polyline(np.array([[-1.0, 0.0], [0.5, 0.2], [2.0, 0.1]]))
        traj = _traj([(-0.5, 0.1), (0.0, 0.0), (0.0, -0.6), (0.0, -0.8),
                      (1.0, -0.7), (1.0, 0.5), (1.5, 0.4)])
        area = self._check(traj, poly)
        assert area[1] == area[2] == area[3]

    def test_backward_steps_within_tolerance(self):
        xs = np.linspace(0.0, 2.0, 40)
        xs[10] = xs[9] - 1e-10          # inside the 1e-9 * span tolerance
        xs[25] = xs[24] - 5e-10
        zs = -0.3 + 0.1 * np.sin(xs)
        poly = Polyline(np.array([[-1.0, 0.0], [0.7, 0.1], [3.0, -0.1]]))
        for surface in (FLAT, poly):
            area = self._check(_traj(list(zip(xs, zs))), surface)
            assert area[10] == area[9]

    def test_surface_vertex_at_path_x(self):
        vx = np.array([-1.0, 0.25, 0.5, 1.0, 1.75, 3.0])
        poly = Polyline(np.column_stack([vx, [0.0, 0.1, -0.05, 0.2, 0.0,
                                              0.1]]))
        xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 1.75, 2.0])
        self._check(_traj(list(zip(xs, -0.2 + 0.05 * xs))), poly)

    def test_crossings_both_ways(self):
        poly = Polyline(np.array([[-1.0, 0.0], [0.0, 0.3], [1.0, -0.3],
                                  [2.0, 0.3], [3.0, 0.0]]))
        xs = np.linspace(-0.5, 2.5, 25)
        zs = 0.1 * np.cos(3.0 * xs)     # weaves above and below the face
        gap = np.asarray(poly.height_at(xs)) - zs
        assert np.any(gap > 0.0) and np.any(gap < 0.0)
        area = self._check(_traj(list(zip(xs, zs))), poly)
        assert np.all(np.diff(area) >= 0.0)

    def test_path_touching_surface(self):
        # exact zero gaps next to negative and positive ones
        traj = _traj([(-1.0, 0.2), (0.0, 0.0), (1.0, 0.5), (2.0, -0.3),
                      (3.0, 0.0), (4.0, 0.0)])
        poly = Polyline(np.array([[-2.0, 0.0], [0.0, 0.0], [1.5, 0.0],
                                  [3.0, 0.0], [5.0, 0.0]]))
        for surface in (FLAT, poly):
            area = self._check(traj, surface)
            assert area[2] == 0.0 and area[-1] > 0.0


class TestSurfaceAfterCycleExact:
    @staticmethod
    def _check(surface, traj):
        got = surface_after_cycle(surface, traj).vertices
        assert np.array_equal(got, surface_after_cycle_loop(surface, traj))
        return got

    def test_random_faces_and_paths(self):
        rng = np.random.default_rng(21)
        for k in range(200):
            prior = (_random_polyline(rng, 300) if k % 4 else
                     SlopedLine((0.0, 0.0), rng.uniform(0.0, 0.7)))
            vx = prior.vertex_xs() if k % 4 else np.array([-3.0, 3.0])
            xs = np.sort(rng.uniform(vx[0] - 1.0, vx[-1] + 1.0,
                                     int(rng.integers(2, 200))))
            zs = (np.asarray(prior.height_at(xs))
                  + rng.normal(0.0, rng.uniform(0.01, 1.0), xs.size))
            self._check(prior, _traj(list(zip(xs, zs))))

    def test_carved_faces(self):
        surface, traj = _carved_twice()
        carved = self._check(surface, traj)
        assert carved.shape[0] > 100
        self._check(Polyline(carved), traj)

    def test_carve_loops_match_references(self):
        # the two per-vertex passes on the inputs surface_after_cycle
        # hands them, for the random and the carved faces
        rng = np.random.default_rng(22)
        faces = [(_random_polyline(rng, 300), None) for _ in range(50)]
        faces.append(_carved_twice())
        for prior, traj in faces:
            if traj is None:
                vx = prior.vertex_xs()
                xs = np.sort(rng.uniform(vx[0] - 1.0, vx[-1] + 1.0, 150))
                zs = (np.asarray(prior.height_at(xs))
                      + rng.normal(0.0, 0.3, xs.size))
                traj = _traj(list(zip(xs, zs)))
            carved = surface_after_cycle(prior, traj).vertices
            dense = np.unique(np.concatenate([prior.vertex_xs(), traj.x]))
            for xs, zs in ((traj.x, traj.z),
                           (dense, np.asarray(prior.height_at(dense))),
                           (carved[:, 0], carved[:, 1])):
                for ours, loop, tol in (
                        (_collapse_vertical_moves,
                         collapse_vertical_moves_loop, 1e-9),
                        (_prune_collinear, prune_collinear_loop, 1e-12)):
                    for got, want in zip(ours(xs, zs, tol),
                                         loop(xs, zs, tol)):
                        assert np.array_equal(got, want)

    def test_collapse_anchors_on_the_group_start(self):
        # steps of 0.6 tol: each point is within tol of its predecessor,
        # but every second one is beyond tol of its group's first point;
        # backward steps within tol join the group as well
        tol = 1e-9
        steps = np.array([0.0, 0.6, 0.6, 0.6, 0.6, 5.0, -0.5, 0.4, 0.9,
                          0.3, 3.0, 0.0, 0.0, 1.0, 2.0]) * tol
        xs = np.cumsum(steps)
        zs = np.random.default_rng(5).normal(0.0, 1.0, xs.size)
        got = _collapse_vertical_moves(xs, zs, tol)
        want = collapse_vertical_moves_loop(xs, zs, tol)
        assert want[0].size < xs.size - 5
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_prune_keeps_anchors_over_long_near_collinear_runs(self):
        # a gentle arc: every consecutive triple is collinear within tol,
        # so a kept vertex anchors a long run of dropped ones
        u = np.linspace(0.0, 1.0, 4001)
        for tol, curve in ((1e-12, 1e-4), (1e-12, 1e-3), (1e-9, 1.0)):
            xs, zs = u, curve * u * u
            got = _prune_collinear(xs, zs, tol)
            want = prune_collinear_loop(xs, zs, tol)
            assert 2 < want[0].size < xs.size // 4
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_prune_on_lattice_paths(self):
        # integer steps make collinear triples common, and offsets of the
        # order of tol put many decisions next to the threshold: isolated
        # drops whose next vertex is kept or dropped against their anchor,
        # adjacent drops, runs of drops, and drops next to either end
        rng = np.random.default_rng(7)
        tol = 1e-3
        for n in [*range(3, 12)] * 200 + [500] * 20:
            xs = np.cumsum(rng.integers(1, 3, n)).astype(float)
            zs = np.cumsum(rng.integers(-1, 2, n)).astype(float)
            for offsets in (0.0, rng.uniform(-2.0 * tol, 2.0 * tol, n)):
                got = _prune_collinear(xs, zs + offsets, tol)
                want = prune_collinear_loop(xs, zs + offsets, tol)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    def test_crossing_within_tolerance_is_dropped(self):
        # the path crosses the flat face 1e-12 before a breakpoint, inside
        # the 1e-9 * span tolerance, so no vertex is inserted there
        traj = _traj([(0.0, -1.0), (1.0, 1e-12), (2.0, 0.5)])
        got = self._check(FLAT, traj)
        assert not np.any((got[:, 0] > 0.0) & (got[:, 0] < 1.0))
