"""Soil-tool force model for a planar cutting blade.

Implements the fundamental earthmoving equation with the four bearing
capacity factors in their numerically stable sine-cosine form, the
constrained failure-angle minimization in closed form, the Bekker
pressure-sinkage law, and the composition of tangential/normal bucket
forces. One kernel, ``bearing_factors``, runs the chain from the
blade-angle margins through the failure-angle window and solve to the
factors, for one friction angle or many at once; the force engine
(``predict_force_arrays``) and stage 2 of the calibration both call it.
It evaluates every entry of the broadcast shape of friction angle
against blade angle, the infeasible ones too, and sets those to NaN at
the end, so nothing is gathered through the feasibility mask but the
stationary roots that fall inside the failure-angle window; a pass in
which no entry has a stationary root skips the root trigonometry.
Its two steps, ``_failure_angle`` and ``_factor_arrays``, are what the
tests hold against their references: a grid and golden-section search
for the failure angle, and the cotangent form of the factors. All
quantities are base SI (N, m, rad, kg/m^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularGeometry

GRAVITY = 9.80665  # m/s^2

#: The eight soil parameters, in the field order of ``SoilParameters``.
PARAM_NAMES = ("gamma", "cohesion_c", "adhesion_ca", "phi", "delta",
               "kc", "kphi", "n")


# Feasibility margins guarding the wedge trigonometry.
# EPS1 and EPS2 bound the failure-angle search window (see ``beta_window``).
EPS1 = math.radians(5.0)
EPS2 = math.radians(5.0)
# minimum magnitude allowed for every sine/cosine denominator
SIN_MARGIN = math.sin(math.radians(1.0))
# SIN_MARGIN expressed as an angle offset from 0/pi
ANGLE_MARGIN = math.asin(SIN_MARGIN)
# smallest blade angle for which the wedge assumption holds
RHO_MIN = math.radians(10.0)
# cap on the stockpile inclination (angle of repose)
ALPHA_MAX = math.radians(45.0)

# Upper bound on the loader's width and edge thickness, m: far above any
# bucket (a few metres wide), and far below the sizes whose forces
# overflow
MAX_LOADER_M = 100.0


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SoilParameters:
    """The eight soil parameters governing the force model."""

    gamma: float        # soil density, kg/m^3
    cohesion_c: float   # cohesion along the failure surface, N/m^2
    adhesion_ca: float  # adhesion along the blade, N/m^2
    phi: float          # internal friction angle, rad
    delta: float        # external (soil-tool) friction angle, rad
    kc: float           # cohesive modulus of deformation, N/m^(n+1)
    kphi: float         # frictional modulus of deformation, N/m^(n+2)
    n: float            # sinkage exponent, dimensionless

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            _require_finite(name, getattr(self, name))
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        for name in ("cohesion_c", "adhesion_ca", "kc", "kphi"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("phi", "delta"):
            angle = getattr(self, name)
            if not 0.0 <= angle < math.pi / 2.0:
                raise ValueError(f"{name} must lie in [0, pi/2)")
        if self.n <= 0.0:
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class ParameterBounds:
    """Closed per-parameter intervals used as hard optimization constraints.

    Defaults follow literature ranges for diggable soils; kc/kphi are
    stored in base SI (the common catalog unit is kN).
    """

    gamma: tuple[float, float] = (1297.0, 2345.0)
    cohesion_c: tuple[float, float] = (0.0, 50_000.0)
    adhesion_ca: tuple[float, float] = (0.0, 50_000.0)
    phi: tuple[float, float] = (0.0, 0.785)
    delta: tuple[float, float] = (0.0, 0.785)
    kc: tuple[float, float] = (0.0, 10_000.0)
    kphi: tuple[float, float] = (0.0, 5_000_000.0)
    n: tuple[float, float] = (0.11, 1.53)

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            lo, hi = getattr(self, name)
            _require_finite(name + ".min", lo)
            _require_finite(name + ".max", hi)
            if lo > hi:
                raise ValueError(f"{name}: min {lo} exceeds max {hi}")

    def contains(self, soil: SoilParameters, rtol: float = 1e-9) -> bool:
        for name in PARAM_NAMES:
            lo, hi = getattr(self, name)
            pad = rtol * max(1.0, abs(lo), abs(hi))
            if not lo - pad <= getattr(soil, name) <= hi + pad:
                return False
        return True


@dataclass(frozen=True)
class LoaderParameters:
    """Geometry of the bucket acting as the cutting blade."""

    omega: float  # blade/bucket width, m
    b: float      # cutting-edge thickness, m

    def __post_init__(self) -> None:
        for name in ("omega", "b"):
            _require_finite(name, getattr(self, name))
            if not 0.0 < getattr(self, name) <= MAX_LOADER_M:
                raise ValueError(f"{name} must lie in (0 m, "
                                 f"{MAX_LOADER_M:g} m]")


# ---------------------------------------------------------------------------
# Bearing capacity factors
# ---------------------------------------------------------------------------

def _ngamma_array(alpha, beta, rho, phi, delta):
    """N_gamma at beta; inputs broadcast as numpy arrays."""
    return (np.cos(alpha + beta) * np.sin(alpha + beta + phi)
            / (2.0 * np.cos(alpha) * np.sin(beta)
               * np.sin(rho + delta + beta + phi)))


def _factor_arrays(alpha, beta, rho, phi, delta, sin_rho, n_gamma):
    """Sine-cosine bearing factors; inputs broadcast as numpy arrays.
    ``sin_rho`` is np.sin(rho) and ``n_gamma`` N_gamma at beta
    (``_ngamma_array``), both of which the failure-angle solve has
    already computed."""
    s_beta = np.sin(beta)
    s_chain = np.sin(rho + delta + beta + phi)
    n_c = np.cos(phi) / (s_beta * s_chain)
    n_a = -np.cos(rho + beta + phi) / (sin_rho * s_chain)
    n_q = np.sin(alpha + beta + phi) / s_chain
    return n_gamma, n_c, n_a, n_q


# ---------------------------------------------------------------------------
# Failure-angle minimization
# ---------------------------------------------------------------------------

def beta_window(alpha: float, rho, phi, delta: float):
    """Feasible interval [lo, hi] for the failure angle, per sample.

    The window keeps beta above EPS1, the angle chain rho+delta+beta+phi
    at least EPS2 short of pi (a physical wedge keeps the chain below pi),
    and sin(beta+phi) clear of its margin. It is additionally capped at
    pi/2 - alpha, where the wedge cross-section factor cot(beta)-tan(alpha)
    changes sign: beyond it the unit-weight factor goes negative and its
    minimization would chase nonphysical inverted wedges. hi <= lo marks
    infeasibility. rho and phi broadcast against each other, as in
    ``_failure_angle``.
    """
    rho = np.asarray(rho, dtype=float)
    hi = np.minimum(math.pi - rho - delta - phi - EPS2,
                    math.pi - phi - ANGLE_MARGIN)
    hi = np.minimum(hi, math.pi / 2.0 - alpha)
    lo = np.full(np.shape(hi), EPS1, dtype=float)
    return lo, hi


def _stationary_angles(rho, delta: float, phi, a, cos_a, sin_a, sin_phi):
    """The two roots b of dN_gamma/dbeta = 0, mod pi, stacked on a last
    axis of length 2 (NaN where there is none), or None when no entry has
    one; see ``_failure_angle``. rho broadcasts against phi and the terms
    of phi alone: a = 2*alpha + phi, cos a, sin a and sin phi."""
    c = rho + delta + phi
    cos_c = np.cos(c)
    p = cos_c * cos_a - sin_phi * np.sin(c)
    q = -(cos_c * sin_a + sin_phi * cos_c)
    r = np.cos(a - c)
    # arccos is NaN where |R| > sqrt(P^2+Q^2) or P = Q = 0: no interior root
    ratio = r / np.hypot(p, q)
    if not np.any(np.abs(ratio) <= 1.0):
        return None
    half = 0.5 * np.arccos(ratio)
    mid = 0.5 * np.arctan2(q, p)
    # mod pi: the roots lie in [-pi, pi], and only those that land in the
    # window, inside (0, pi), are used, where this equals np.mod
    roots = np.stack((mid - half, mid + half), axis=-1)
    return np.where(roots < 0.0, roots + math.pi, roots)


def _beats(f, f_best):
    """Where a candidate's N_gamma f takes the place of the lowest so far,
    f_best, as np.argmin picks: f is lower, or f is the first NaN."""
    return ~(f >= f_best) & ~np.isnan(f_best)


def _failure_angle(alpha: float, rho, phi, delta: float, usable):
    """Vectorized failure-angle solve in closed form.

    Returns (beta, feasible, n_gamma) arrays: feasible where the window is
    not empty and the per-sample mask ``usable`` holds; beta and N_gamma
    at beta there, NaN elsewhere.
    With c = rho+delta+phi and A = 2*alpha+phi, the product-to-sum
    identities give

        N_gamma = (sin(2b+A) + sin phi) / (2 cos(alpha) (cos c - cos(2b+c))),

    and dN_gamma/dbeta = 0 reduces to P cos 2b + Q sin 2b = R with
    P = cos c cos A - sin phi sin c, Q = -(cos c sin A + sin phi cos c) and
    R = cos(A-c). Its roots are
    b = (atan2(Q, P) +/- arccos(R / sqrt(P^2+Q^2))) / 2 mod pi; there are
    none when |R| > sqrt(P^2+Q^2) or P = Q = 0. The window keeps sin(b) and
    sin(b+c) positive, so N_gamma is smooth on it and its minimum lies at
    a window end or at a root inside the window. The candidates are lo,
    hi and the in-window roots; the one with the lowest N_gamma wins, and
    lo wins whenever it is within 1e-12 (relative) of that minimum, so
    flat objectives tie-break to the smallest feasible angle.

    rho and phi broadcast against each other, as in ``bearing_factors``,
    and every entry of that shape is evaluated, the infeasible ones too
    (their values are set to NaN at the end); the terms of phi alone keep
    phi's shape.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    lo, hi = beta_window(alpha, rho, phi, delta)
    feasible = (hi > lo) & usable
    a = 2.0 * alpha + phi
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = _stationary_angles(rho, delta, phi, a, np.cos(a), np.sin(a),
                                   np.sin(phi))
        f_lo = _ngamma_array(alpha, EPS1, rho, phi, delta)
        # the pick runs over lo, the in-window roots and hi in that order,
        # keeping the lowest N_gamma as np.argmin over them would; N_gamma
        # is evaluated at the roots inside the window alone
        best, f_best = np.full(hi.shape, EPS1), f_lo.copy()
        if roots is not None:
            inside = (roots >= EPS1) & (roots <= hi[..., None])
            rho_b = np.broadcast_to(rho, hi.shape)
            phi_b = np.broadcast_to(phi, hi.shape)
            for k in (0, 1):
                root = roots[..., k]
                at = np.nonzero(inside[..., k])
                f = _ngamma_array(alpha, root[at], rho_b[at], phi_b[at],
                                  delta)
                take = _beats(f, f_best[at])
                at = tuple(i[take] for i in at)
                best[at] = root[at]
                f_best[at] = f[take]
        f_hi = _ngamma_array(alpha, hi, rho, phi, delta)
        take = _beats(f_hi, f_best)
        best = np.where(take, hi, best)
        f_best = np.where(take, f_hi, f_best)
        snap = f_lo <= f_best + 1e-12 * np.maximum(1.0, np.abs(f_best))
    return (np.where(feasible, np.where(snap, EPS1, best), np.nan), feasible,
            np.where(feasible, np.where(snap, f_lo, f_best), np.nan))


# ---------------------------------------------------------------------------
# Cycle-level prediction engine
# ---------------------------------------------------------------------------

# per-sample status codes used by the vectorized engine
_OK = 0
_OUT_OF_SOIL = 1
_EMPTY_WINDOW = 2
_SINGULAR_RHO = 3
_RHO_BELOW_MIN = 4

_STATUS_TEXT = {
    _EMPTY_WINDOW: "empty failure-angle window",
    _SINGULAR_RHO: "sin(rho) below margin",
    _RHO_BELOW_MIN: "blade angle below minimum",
}


def _blade_margins(alpha: float, rho, sin_rho):
    """The margins that do not depend on the soil: masks of the samples
    whose rho is below RHO_MIN and of those whose sin(rho) = ``sin_rho``
    is within SIN_MARGIN of zero. Raises SingularGeometry when cos(alpha),
    which every sample shares, is below its margin."""
    if abs(math.cos(alpha)) <= SIN_MARGIN:
        raise SingularGeometry("cos(alpha) below margin")
    return rho < RHO_MIN, np.abs(sin_rho) <= SIN_MARGIN


def bearing_factors(alpha: float, rho, phi, delta: float):
    """(beta, feasible, (n_gamma, n_c, n_a, n_q)) at each blade angle:
    the failure angle and the four bearing factors, NaN where
    ``feasible`` fails. feasible needs the blade-angle margins (see
    ``_blade_margins``, whose SingularGeometry it raises) and a non-empty
    failure-angle window. rho has shape (m,); phi is a float, giving (m,)
    arrays, or k friction angles as a (k, 1) column, giving (k, m) arrays
    whose row i has the bits of the call at the float phi[i, 0], since
    every entry is computed by the same elementwise operations. The force
    engine makes the float call, stage 2 of the calibration the grid call.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    sin_rho = np.sin(rho)
    below, singular = _blade_margins(alpha, rho, sin_rho)
    beta, feasible, n_gamma = _failure_angle(alpha, rho, phi, delta,
                                             ~(below | singular))
    return beta, feasible, _factor_arrays(alpha, beta, rho, phi, delta,
                                          sin_rho, n_gamma)


@dataclass(frozen=True)
class CycleForceArrays:
    """Per-sample force results for one cycle, one array per quantity.

    Out-of-soil samples (depth <= 0) carry zero forces; in-soil samples
    that hit a margin carry NaN forces and are listed in ``failures``.
    ``bearing_factors`` gives the factors at ``beta``. ``trajectory``
    holds the trajectory (``geometry.make_trajectory``) predicted along,
    when the caller sampled one, and ``step_ms`` the wall time in ms of
    each step the caller took to predict (see
    ``calibration.predict_next_cycle``).
    """

    depth: np.ndarray     # penetration depth, m (the engine's input)
    beta: np.ndarray      # solved failure angle (NaN where not applicable)
    fee: np.ndarray       # wedge reaction force, N
    f_t: np.ndarray       # tangential force, N
    f_n: np.ndarray       # normal force, N
    status: np.ndarray    # per-sample status code
    in_soil: np.ndarray   # depth > 0
    valid: np.ndarray     # in-soil samples that evaluated cleanly
    trajectory: np.recarray | None = None
    step_ms: dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.f_t.size

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(f_t, f_n) arrays with NaN at failed samples."""
        return self.f_t, self.f_n

    @property
    def failures(self) -> list[tuple[int, str]]:
        """(index, reason) of every in-soil sample that hit a margin."""
        return [(int(i), _STATUS_TEXT[int(self.status[i])])
                for i in np.flatnonzero(self.in_soil & ~self.valid)]


def predict_force_arrays(depth, rho, lt, area, soil: SoilParameters,
                         loader: LoaderParameters, alpha: float
                         ) -> CycleForceArrays:
    """Evaluate the full force chain over parallel per-sample arrays.

    ``area`` is the swept cross-section; the surcharge on the wedge is its
    weight gamma*g*omega*area. Out-of-soil samples (depth <= 0) yield zero
    forces. In-soil samples that violate a margin are flagged in
    ``status`` with NaN forces rather than aborting the cycle.
    """
    depth = np.asarray(depth, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = depth.size
    in_soil = depth > 0.0
    beta_s, feasible, factors = bearing_factors(alpha, rho[in_soil],
                                                soil.phi, soil.delta)
    beta = np.full(n, np.nan)
    beta[in_soil] = beta_s
    valid = np.zeros(n, dtype=bool)
    valid[in_soil] = feasible
    failed = in_soil & ~valid
    below, singular = _blade_margins(alpha, rho[failed], np.sin(rho[failed]))
    status = np.where(in_soil, _OK, _OUT_OF_SOIL).astype(np.int8)
    status[failed] = np.where(singular, _SINGULAR_RHO,
                              np.where(below, _RHO_BELOW_MIN, _EMPTY_WINDOW))
    fee, f_t, f_n = (np.where(failed, np.nan, 0.0) for _ in range(3))
    if np.any(valid):
        d_v = depth[valid]
        n_gamma, n_c, n_a, n_q = (f[feasible] for f in factors)
        w_load = (soil.gamma * GRAVITY * loader.omega
                  * np.asarray(area, dtype=float)[valid])
        fee_v = (d_v * d_v * loader.omega * soil.gamma * GRAVITY * n_gamma
                 + soil.cohesion_c * loader.omega * d_v * n_c
                 + soil.adhesion_ca * loader.omega * d_v * n_a
                 + w_load * n_q)
        p_v = (soil.kc / loader.b + soil.kphi) * d_v ** soil.n
        fee[valid] = fee_v
        f_t[valid] = (loader.omega * loader.b * p_v
                      + fee_v * math.sin(soil.delta)
                      + soil.adhesion_ca * loader.omega
                      * np.asarray(lt, dtype=float)[valid])
        f_n[valid] = fee_v * math.cos(soil.delta)
    return CycleForceArrays(depth=depth, beta=beta, fee=fee, f_t=f_t,
                            f_n=f_n, status=status, in_soil=in_soil,
                            valid=valid)
