"""Trajectories, stockpile surfaces and per-sample wedge geometry.

Surfaces come in two flavors: an infinite sloped line (undisturbed pile
face) and an x-monotone polyline (pile face carved by a previous pass).
All coordinates are planar (x horizontal along the dig, z up), in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, NonMonotonePath
from .soil import ALPHA_MAX, RHO_MIN, LoaderParameters


class Surface:
    """Common interface for stockpile surface models."""

    nominal_alpha: float

    def height_at(self, x):
        raise NotImplementedError

    def direction_angle_at(self, x):
        raise NotImplementedError

    def depth_of(self, x, z):
        raise NotImplementedError

    def vertex_xs(self) -> np.ndarray:
        """Interior breakpoints of the surface (empty for a line)."""
        return np.empty(0)


@dataclass(frozen=True)
class SlopedLine(Surface):
    """Straight pile face through ``origin`` rising at angle ``alpha``."""

    origin: tuple[float, float] = (0.0, 0.0)
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < ALPHA_MAX:
            raise ValueError("alpha must lie in [0 deg, 45 deg)")

    @property
    def nominal_alpha(self) -> float:
        return self.alpha

    def height_at(self, x):
        x = np.asarray(x, dtype=float)
        return self.origin[1] + math.tan(self.alpha) * (x - self.origin[0])

    def direction_angle_at(self, x):
        return np.full(np.shape(x), self.alpha)

    def depth_of(self, x, z):
        # perpendicular distance below the line; zero on or above it
        gap = self.height_at(x) - np.asarray(z, dtype=float)
        return np.maximum(gap, 0.0) * math.cos(self.alpha)


@dataclass(frozen=True)
class Polyline(Surface):
    """Piecewise-linear surface with strictly increasing vertex x.

    Outside the vertex span the end segments are extended with their own
    slopes. ``nominal_alpha`` carries the inclination of the undisturbed
    pile for the bearing-factor evaluation (the wedge model keeps the
    nominal pile angle; only depth adapts to the carved shape).
    """

    vertices: np.ndarray
    nominal_alpha: float = 0.0

    def __post_init__(self) -> None:
        verts = np.array(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 2:
            raise ValueError("vertices must be an (n>=2, 2) array")
        if not np.isfinite(verts).all():
            raise ValueError("vertices must be finite")
        if not np.all(np.diff(verts[:, 0]) > 0.0):
            raise ValueError("vertex x must be strictly increasing")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    def vertex_xs(self) -> np.ndarray:
        return self.vertices[:, 0]

    def height_at(self, x):
        x = np.asarray(x, dtype=float)
        xs, zs = self.vertices[:, 0], self.vertices[:, 1]
        z = np.interp(x, xs, zs)
        slope0 = (zs[1] - zs[0]) / (xs[1] - xs[0])
        slope1 = (zs[-1] - zs[-2]) / (xs[-1] - xs[-2])
        z = np.where(x < xs[0], zs[0] + slope0 * (x - xs[0]), z)
        z = np.where(x > xs[-1], zs[-1] + slope1 * (x - xs[-1]), z)
        return z

    def direction_angle_at(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs, zs = self.vertices[:, 0], self.vertices[:, 1]
        seg = np.clip(np.searchsorted(xs, x, side="right") - 1,
                      0, xs.size - 2)
        dx = xs[seg + 1] - xs[seg]
        dz = zs[seg + 1] - zs[seg]
        return np.arctan2(dz, dx)

    def depth_of(self, x, z):
        """Distance to the nearest segment below the surface, else 0.

        U bounds a sample's distance: the distance to the nearer end
        vertex or, inside the span, the vertical gap to the segment above.
        Segments whose x-range misses [x - U, x + U] are farther than U
        and are skipped; U carries a 1e-9 relative pad, far above
        rounding, so the minimum is the all-segments one bit for bit.
        The loop runs over window offsets, vectorized over samples.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        height = self.height_at(x)
        depth = np.zeros(x.shape)
        idx = np.flatnonzero(z < height)
        px, pz = x[idx], z[idx]
        vx, vz = self.vertices[:, 0], self.vertices[:, 1]
        bound = np.min(np.hypot(px[:, None] - vx[[0, -1]],
                                pz[:, None] - vz[[0, -1]]), axis=1)
        inside = (px >= vx[0]) & (px <= vx[-1])
        bound[inside] = np.minimum(bound, height[idx] - pz)[inside]
        bound += 1e-9 * (bound + np.abs(px) + np.abs(pz))
        first = np.maximum(np.searchsorted(vx, px - bound) - 1, 0)
        last = np.minimum(np.searchsorted(vx, px + bound, side="right") - 1,
                          vx.size - 2)
        count = last - first + 1
        order = np.argsort(-count)
        px, pz, first, count = (v[order] for v in (px, pz, first, count))
        # the samples whose window holds more than j segments: a prefix
        longer = np.searchsorted(-count, -np.arange(count.max(initial=0)))
        dx, dz = np.diff(vx), np.diff(vz)
        denom = dx * dx + dz * dz
        best = np.full(idx.size, np.inf)
        for j, m in enumerate(longer):
            seg = first[:m] + j
            ax, az, abx, abz = vx[seg], vz[seg], dx[seg], dz[seg]
            t = ((px[:m] - ax) * abx + (pz[:m] - az) * abz) / denom[seg]
            t = np.clip(t, 0.0, 1.0)
            ex, ez = px[:m] - (ax + t * abx), pz[:m] - (az + t * abz)
            np.minimum(best[:m], ex * ex + ez * ez, out=best[:m])
        depth[idx[order]] = np.sqrt(best)
        return depth


class InvalidTrajectory(ValueError):
    """A trajectory that fails validation at sample ``index``."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"sample {index}: {message}")
        self.index = index


def make_trajectory(t, x, z, rho) -> np.recarray:
    """Bucket tip states as a read-only record array, one row per sample.

    Fields: ``t`` (s), ``x`` and ``z`` (m) and ``rho``, the blade angle
    relative to the stockpile surface (rad). ``traj.x`` is a float array;
    iterating yields rows with the same attributes. The columns must have
    equal length, finite values and nondecreasing ``t``; a violation
    raises InvalidTrajectory naming the first offending sample.
    """
    names = ("t", "x", "z", "rho")
    columns = [np.asarray(c, dtype=float) for c in (t, x, z, rho)]
    if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
        raise ValueError("t, x, z and rho must be 1-D of equal length")
    finite = np.isfinite(columns)
    bad = np.flatnonzero(~finite.all(axis=0))
    if bad.size:
        i = int(bad[0])
        name = names[int(np.argmin(finite[:, i]))]
        raise InvalidTrajectory(i, f"{name} must be finite")
    back = np.flatnonzero(columns[0][1:] < columns[0][:-1])
    if back.size:
        raise InvalidTrajectory(int(back[0]) + 1,
                                "sample times must be nondecreasing")
    trajectory = np.rec.fromarrays(columns, names=names)
    trajectory.flags.writeable = False
    return trajectory


@dataclass(frozen=True)
class CycleDataset:
    """One loading cycle: a trajectory plus observed force series."""

    samples: np.recarray
    f_t_obs: np.ndarray
    f_n_obs: np.ndarray
    surface: Surface
    loader: LoaderParameters

    def __post_init__(self) -> None:
        ft = np.array(self.f_t_obs, dtype=float)
        fn = np.array(self.f_n_obs, dtype=float)
        if not (len(self.samples) == ft.size == fn.size):
            raise ValueError("samples and force series must have equal length")
        ft.setflags(write=False)
        fn.setflags(write=False)
        object.__setattr__(self, "f_t_obs", ft)
        object.__setattr__(self, "f_n_obs", fn)

    @property
    def n(self) -> int:
        return len(self.samples)

    def tip_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.samples.x, self.samples.z


# ---------------------------------------------------------------------------
# Swept soil load
# ---------------------------------------------------------------------------

def swept_area_profile(samples: np.recarray, surface: Surface) -> np.ndarray:
    """Cumulative area between the trajectory prefix and the surface.

    Each path segment with x1 > x0 is split at the surface vertices
    strictly inside it, all breakpoints are evaluated in one array pass,
    and the gap's positive part is integrated exactly per linear piece,
    so the profile is nondecreasing along an x-monotone dig. Raises
    DegenerateRegion when the trajectory doubles back in x.
    """
    if len(samples) == 0:
        return np.zeros(0)
    xs, zs = samples.x, samples.z
    span = max(float(xs.max() - xs.min()), 1e-12)
    if np.any(np.diff(xs) < -1e-9 * span):
        raise DegenerateRegion("trajectory x decreases; swept region would "
                               "self-intersect")
    seg = np.flatnonzero(xs[1:] > xs[:-1])
    vx = surface.vertex_xs()
    lo = np.searchsorted(vx, xs[seg], side="right")
    npts = np.searchsorted(vx, xs[seg + 1], side="left") - lo + 2
    # breakpoints of each segment: x0, the vertices strictly inside, x1
    owner = np.repeat(np.arange(seg.size), npts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(npts) - npts, npts)
    i = seg[owner]
    x0, x1, z0, z1 = xs[i], xs[i + 1], zs[i], zs[i + 1]
    bx = np.where(rank == 0, x0, x1)
    inner = (rank > 0) & (rank < npts[owner] - 1)
    bx[inner] = vx[lo[owner[inner]] + rank[inner] - 1]
    gap = (np.asarray(surface.height_at(bx))
           - (z0 + (z1 - z0) * (bx - x0) / (x1 - x0)))
    piece = np.flatnonzero(owner[:-1] == owner[1:])
    ga, gb, w = gap[piece], gap[piece + 1], bx[piece + 1] - bx[piece]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = ga / (ga - gb)     # single sign change on a linear piece
        part = np.select(
            [(ga >= 0.0) & (gb >= 0.0), (ga <= 0.0) & (gb <= 0.0), ga > 0.0],
            [0.5 * (ga + gb) * w, 0.0, 0.5 * ga * cross * w],
            0.5 * gb * (1.0 - cross) * w)
    totals = np.zeros(xs.size - 1)
    np.add.at(totals, i[piece], part)
    return np.concatenate([[0.0], np.cumsum(totals)])


def wedge_geometry(samples: np.recarray, surface: Surface
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (depth, lt, swept area) of a trajectory on a surface.

    depth is the tip's penetration below the surface, lt = d/sin(rho) the
    blade length in soil (zero where the tip is out of soil or sin(rho)
    is not positive; the force engine flags such blade angles), and the
    swept area is ``swept_area_profile``, the cross-section whose weight
    loads the wedge.
    """
    sin_rho = np.sin(samples.rho)
    depth = np.asarray(surface.depth_of(samples.x, samples.z), dtype=float)
    lt = np.where((depth > 0.0) & (sin_rho > 0.0),
                  depth / np.where(sin_rho > 0.0, sin_rho, 1.0), 0.0)
    return depth, lt, swept_area_profile(samples, surface)


# ---------------------------------------------------------------------------
# Path generation and surface update
# ---------------------------------------------------------------------------

def quadratic_bezier_path(p0: tuple[float, float], p1: tuple[float, float],
                          p2: tuple[float, float], n_samples: int,
                          duration: float, surface: Surface | None = None
                          ) -> np.recarray:
    """Sample a quadratic Bezier tip path at uniform parameter values.

    The blade angle at each sample is the angle between the path tangent
    and the local surface direction (horizontal when no surface is given),
    clamped to [``RHO_MIN``, pi/2].
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    u = np.linspace(0.0, 1.0, n_samples)
    w = u[:, None]
    pts = (1.0 - w) ** 2 * p0 + 2.0 * w * (1.0 - w) * p1 + w ** 2 * p2
    tangent = 2.0 * (1.0 - w) * (p1 - p0) + 2.0 * w * (p2 - p1)
    theta_t = np.arctan2(tangent[:, 1], tangent[:, 0])
    if surface is None:
        theta_s = np.zeros(n_samples)
    else:
        theta_s = np.asarray(surface.direction_angle_at(pts[:, 0]))
    diff = np.arctan2(np.sin(theta_t - theta_s), np.cos(theta_t - theta_s))
    rho = np.clip(np.abs(diff), RHO_MIN, math.pi / 2.0)
    return make_trajectory(u * duration, pts[:, 0], pts[:, 1], rho)


def _collapse_vertical_moves(xs: np.ndarray, zs: np.ndarray, tol: float):
    """Reduce duplicate-x path points to their lowest z (envelope view).

    A point within tol of the first x of the current group joins the
    group. One array pass compares every point with its predecessor, which
    is the group's first point whenever the predecessor starts a group;
    only the points after a joined one are compared again, in a loop,
    with their group's first point.
    """
    n = xs.size
    starts = np.ones(n, dtype=bool)
    starts[1:] = xs[1:] - xs[:-1] > tol
    x_list = xs.tolist()
    done = 1            # starts[:done] is final
    for j in (np.flatnonzero(~starts[1:]) + 1).tolist():
        if j < done:
            continue
        # j joins the group that its predecessor, a final start, opens
        first = x_list[j - 1]
        i = j + 1
        while i < n and x_list[i] - first <= tol:
            starts[i] = False
            i += 1
        if i < n:
            starts[i] = True
        done = i + 1
    group = np.flatnonzero(starts)
    return xs[group], np.minimum.reduceat(zs, group)


def _bends(x0, z0, x1, z1, x2, z2, tol: float):
    """Whether (x1, z1) leaves the line from (x0, z0) to (x2, z2) by more
    than tol, scaled by the larger of 1 and the chord's extent."""
    cross = (x1 - x0) * (z2 - z0) - (z1 - z0) * (x2 - x0)
    scale = np.maximum(np.maximum(1.0, np.abs(x2 - x0)), np.abs(z2 - z0))
    return np.abs(cross) > tol * scale


def _prune_collinear(xs: np.ndarray, zs: np.ndarray, tol: float):
    """Drop vertices collinear with the last kept vertex and the next one.

    Whether a vertex is kept depends on the last vertex kept, its anchor.
    One array pass decides every vertex against its predecessor, which is
    its anchor whenever the predecessor is kept. A second array pass
    decides the vertex after each drop again, against the drop's
    predecessor. A drop is settled when both passes keep the vertex after
    it, as they nearly always do: then either the drop's predecessor is
    kept, and is the anchor of both, or a run of drops before it decides
    both. Only the vertices after the other drops are decided again, in a
    loop, against their anchor.
    """
    n = xs.size
    keep = np.ones(n, dtype=bool)
    keep[1:-1] = _bends(xs[:-2], zs[:-2], xs[1:-1], zs[1:-1], xs[2:],
                        zs[2:], tol)
    drops = np.flatnonzero(~keep)
    settled = keep[drops + 1]
    # the last vertex is always kept
    again = settled & (drops + 1 < n - 1)
    j = drops[again]
    settled[again] = _bends(xs[j - 1], zs[j - 1], xs[j + 1], zs[j + 1],
                            xs[j + 2], zs[j + 2], tol)
    x_list, z_list = xs.tolist(), zs.tolist()
    done = 1            # keep[:done] is final
    for j in drops[~settled].tolist():
        if j < done:
            continue
        # j is dropped against its predecessor, a final kept vertex, which
        # stays the anchor of the vertices after j until one is kept
        xa, za = x_list[j - 1], z_list[j - 1]
        i = j + 1
        while i < n - 1:
            cross = ((x_list[i] - xa) * (z_list[i + 1] - za)
                     - (z_list[i] - za) * (x_list[i + 1] - xa))
            scale = max(1.0, abs(x_list[i + 1] - xa), abs(z_list[i + 1] - za))
            keep[i] = abs(cross) > tol * scale
            if keep[i]:
                break
            i += 1
        done = i + 1
    return xs[keep], zs[keep]


def surface_after_cycle(prior_surface: Surface,
                        cycle_trajectory: np.recarray) -> Polyline:
    """Surface left behind by a pass: the lower envelope of prior surface
    and trajectory inside the excavated span, the prior surface outside.

    The soil is assumed to retain the carved shape (no collapse to the
    angle of repose). Raises DegenerateRegion for fewer than two samples
    and NonMonotonePath when the trajectory doubles back in x beyond
    tolerance.
    """
    xs, zs = cycle_trajectory.x, cycle_trajectory.z
    if xs.size < 2:
        raise DegenerateRegion("trajectory needs at least two samples")
    span = max(float(xs.max() - xs.min()), 1e-12)
    tol = 1e-9 * span
    if np.any(np.diff(xs) < -tol):
        raise NonMonotonePath("trajectory x decreases beyond tolerance")
    xs, zs = _collapse_vertical_moves(xs, zs, tol)

    pad = max(1.0, 0.5 * span)
    lo = xs[0] - pad
    hi = xs[-1] + pad
    inner = prior_surface.vertex_xs()
    inner = inner[(inner > lo) & (inner < hi)]
    bx = np.unique(np.concatenate([[lo, hi], inner, xs]))

    prior_z = np.asarray(prior_surface.height_at(bx), dtype=float)
    path_z = np.interp(bx, xs, zs, left=np.inf, right=np.inf)
    env = np.minimum(prior_z, path_z)

    # insert exact crossings where prior and path swap order, each
    # strictly inside its breakpoint cell
    gap = prior_z - path_z
    ga, gb = gap[:-1], gap[1:]
    cell = np.flatnonzero(np.isfinite(ga) & np.isfinite(gb)
                          & ((ga > 0) != (gb > 0)) & (ga != 0.0)
                          & (gb != 0.0))
    left, right = bx[cell], bx[cell + 1]
    xc = left + ga[cell] / (ga[cell] - gb[cell]) * (right - left)
    inside = (left + tol < xc) & (xc < right - tol)
    cell, xc = cell[inside], xc[inside]
    zc = np.asarray(prior_surface.height_at(xc), dtype=float)
    out_x = np.insert(bx, cell + 1, xc)
    out_z = np.insert(env, cell + 1, zc)
    out_x, out_z = _prune_collinear(out_x, out_z, 1e-12)
    return Polyline(np.column_stack([out_x, out_z]),
                    nominal_alpha=prior_surface.nominal_alpha)
