"""Soil-tool force model for a planar cutting blade.

Implements the fundamental earthmoving equation with the four bearing
capacity factors in their numerically stable sine-cosine form, the
constrained failure-angle minimization in closed form, the Bekker
pressure-sinkage law, and the composition of tangential/normal bucket
forces. One kernel, ``BearingKernel``, the one entry to the chain from
the blade-angle margins through the failure-angle window and solve to
the factors, is bound once to a set of blade angles, a pile inclination
and a tool friction angle, which computes every term that does not
depend on the internal friction angle, the margins among them; each
pass then computes only the terms of its friction angle, one or many at
once. The force engine (``predict_force_arrays``) binds one per call,
the calibration one per fit and tool friction angle; both take the
forces from one pass and each failed sample's status from the kernel's
margins. A pass evaluates every entry of the broadcast shape of friction
angle against blade angle, the infeasible ones too, and sets those to
NaN at the end, so nothing is gathered through the feasibility mask but
the stationary roots that fall inside the failure-angle window. A
closed-form test per row of friction angle (``BearingKernel.rootless``)
alone decides whether a pass runs the root solve. The kernel's steps,
its ``window`` and ``failure_angle`` and the formulas ``_ngamma_array``
and ``_factor_arrays``, are what the tests hold against their
references: a grid and golden-section search for the failure angle, and
the cotangent form of the factors. All quantities are base SI (N, m,
rad, kg/m^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SingularGeometry

GRAVITY = 9.80665  # m/s^2

#: The eight soil parameters, in the field order of ``SoilParameters``.
PARAM_NAMES = ("gamma", "cohesion_c", "adhesion_ca", "phi", "delta",
               "kc", "kphi", "n")


# Feasibility margins guarding the wedge trigonometry.
# EPS1 and EPS2 bound the failure-angle search window (see
# ``BearingKernel.window``).
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
# The failure-angle and bearing-factor kernel
# ---------------------------------------------------------------------------

def _blade_margins(alpha: float, rho, sin_rho):
    """The margins that do not depend on the soil: masks of the samples
    whose rho is below RHO_MIN and of those whose sin(rho) = ``sin_rho``
    is within SIN_MARGIN of zero. Raises SingularGeometry when cos(alpha),
    which every sample shares, is below its margin."""
    if abs(math.cos(alpha)) <= SIN_MARGIN:
        raise SingularGeometry("cos(alpha) below margin")
    return rho < RHO_MIN, np.abs(sin_rho) <= SIN_MARGIN


# ``BearingKernel.rootless`` rules a pass's stationary roots out when
# (sin A + sin phi)(m - sin phi) > _ROOT_MARGIN, m being the least
# sin(2c - A) over the row; by the identity in its docstring that is a
# lower bound on every entry's R^2 - P^2 - Q^2, up to the rounding of
# its angles. With every angle of the call within _ROOT_ANGLE_CAP of 0,
# the computed c, A and 2c - A are off by under 1e-14, which moves the
# bound by under 1e-13, and the computed P, Q and R are off by under
# 1e-15 each, which moves R^2 - P^2 - Q^2 by under 1e-14. So the
# computed |R| / hypot(P, Q) stays above sqrt(1 + 1e-10), as
# P^2 + Q^2 <= 8, far from 1.
_ROOT_MARGIN = 1e-9
_ROOT_ANGLE_CAP = 2.0 * math.pi
_TROUGH = 1.5 * math.pi     # where sin is -1, mod 2 pi


def _stationary_angles(rho_delta, phi, a, cos_a, sin_a, sin_phi):
    """The two roots b of dN_gamma/dbeta = 0, mod pi, stacked on a last
    axis of length 2, NaN where there is none; see
    ``BearingKernel.failure_angle``. ``rho_delta`` (rho + delta)
    broadcasts against phi and the terms of phi alone: a = 2*alpha + phi,
    cos a, sin a and sin phi."""
    c = rho_delta + phi
    cos_c = np.cos(c)
    p = cos_c * cos_a - sin_phi * np.sin(c)
    q = -(cos_c * sin_a + sin_phi * cos_c)
    r = np.cos(a - c)
    # arccos is NaN where |R| > sqrt(P^2+Q^2) or P = Q = 0: no interior root
    half = 0.5 * np.arccos(r / np.hypot(p, q))
    mid = 0.5 * np.arctan2(q, p)
    # mod pi: the roots lie in [-pi, pi], and only those that land in the
    # window, inside (0, pi), are used, where this equals np.mod
    roots = np.stack((mid - half, mid + half), axis=-1)
    return np.where(roots < 0.0, roots + math.pi, roots)


def _ngamma_array(alpha, two_cos_alpha, beta, rho_delta, phi):
    """N_gamma at failure angle beta; inputs broadcast as numpy arrays.
    ``two_cos_alpha`` is 2.0 * np.cos(alpha) and ``rho_delta`` rho + delta,
    which a kernel binds."""
    alpha_beta = alpha + beta
    return (np.cos(alpha_beta) * np.sin(alpha_beta + phi)
            / (two_cos_alpha * np.sin(beta) * np.sin(rho_delta + beta + phi)))


def _factor_arrays(alpha, beta, rho, rho_delta, phi, sin_rho):
    """Sine-cosine bearing factors (n_c, n_a, n_q) at failure angle beta;
    inputs broadcast as numpy arrays. ``rho_delta`` is rho + delta and
    ``sin_rho`` np.sin(rho), which a kernel binds. N_gamma is
    ``_ngamma_array``'s."""
    s_beta = np.sin(beta)
    s_chain = np.sin(rho_delta + beta + phi)
    n_c = np.cos(phi) / (s_beta * s_chain)
    n_a = -np.cos(rho + beta + phi) / (sin_rho * s_chain)
    n_q = np.sin(alpha + beta + phi) / s_chain
    return n_c, n_a, n_q


class BearingKernel:
    """The failure-angle and bearing-factor kernel bound to a pile
    inclination ``alpha``, blade angles ``rho`` and a tool friction angle
    ``delta``.

    Binding computes once what does not depend on the internal friction
    angle: sin(rho), the blade-angle margins ``below`` and ``singular``
    (see ``_blade_margins``, whose SingularGeometry it raises), which also
    give a failed sample its status, rho + delta, (pi - rho) - delta,
    rho + delta + EPS1 and the terms of alpha alone. A pass,
    ``kernel(phi)``, computes the terms of phi alone. Each hoisted term is
    the leading sum or product of the expression it enters (Python
    evaluates rho + delta + phi as (rho + delta) + phi), so a pass makes
    the floating-point operations of the whole formulas, in their order.

    rho has shape (m,) (a scalar is taken as (1,)); phi is a float,
    giving (m,) arrays, or k friction angles as a (k, 1) column, giving
    (k, m) arrays whose row i has the bits of the pass at the float
    phi[i, 0], since every entry is computed by the same elementwise
    operations. Every entry is evaluated, the infeasible ones too, and
    set to NaN at the end. ``passes`` counts the passes and
    ``root_passes`` those that ran the stationary-root solve.
    """

    def __init__(self, alpha: float, rho, delta: float):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        self.alpha, self.rho, self.delta = alpha, rho, delta
        self.sin_rho = np.sin(rho)
        self.below, self.singular = _blade_margins(alpha, rho, self.sin_rho)
        self.usable = ~(self.below | self.singular)
        self.rho_delta = rho + delta
        self.room = math.pi - rho - delta
        self.rho_delta_lo = self.rho_delta + EPS1
        self.cap = math.pi / 2.0 - alpha
        self.two_alpha = 2.0 * alpha
        self.two_cos_alpha = 2.0 * np.cos(alpha)
        self.alpha_lo = alpha + EPS1
        self.cos_alpha_lo = np.cos(self.alpha_lo)
        self.denom_lo = self.two_cos_alpha * np.sin(EPS1)
        # 2c - A = 2 rho + 2 delta + phi - 2 alpha, less phi, at the least
        # and the largest rho (see ``rootless``)
        self.span = None
        cap = _ROOT_ANGLE_CAP
        if rho.size and abs(alpha) <= cap and abs(delta) <= cap:
            lo, hi = float(rho.min()), float(rho.max())
            if -cap <= lo and hi <= cap:
                base = 2.0 * delta - 2.0 * alpha
                self.span = (2.0 * lo + base, 2.0 * hi + base)
        self.passes = self.root_passes = 0

    def window(self, phi):
        """hi, the upper end of the failure-angle window at each entry; its
        lower end is EPS1, and hi <= EPS1 marks an empty window.

        The window keeps beta above EPS1, the angle chain rho+delta+beta+phi
        at least EPS2 short of pi (a physical wedge keeps the chain below
        pi), and sin(beta+phi) clear of its margin. It is additionally
        capped at pi/2 - alpha, where the wedge cross-section factor
        cot(beta)-tan(alpha) changes sign: beyond it the unit-weight factor
        goes negative and its minimization would chase nonphysical
        inverted wedges.
        """
        hi = np.minimum(self.room - phi - EPS2, math.pi - phi - ANGLE_MARGIN)
        return np.minimum(hi, self.cap)

    def rootless(self, phi) -> bool:
        """Whether no entry of the pass at ``phi`` has a stationary root,
        decided per row of phi in Python floats, without per-entry
        trigonometry.

        With c = rho+delta+phi and A = 2*alpha+phi, the discriminant of the
        root equation (see ``failure_angle``) is exactly

            R^2 - P^2 - Q^2 = (sin A + sin phi) (sin(2c - A) - sin phi).

        Over a row, 2c - A spans an interval between its values at the
        least and the largest rho; the least sine over it is -1 when it
        holds a trough 3 pi/2 + 2 pi n, else the smaller end value. A row
        has no root when sin A + sin phi > 0 and its product with that
        least sine less sin phi exceeds ``_ROOT_MARGIN``, which covers the
        rounding on both sides. False rules nothing out.
        """
        if self.span is None:
            return False
        for phi in np.ravel(phi).tolist():
            if not abs(phi) <= _ROOT_ANGLE_CAP:
                return False
            sin_phi = math.sin(phi)
            lead = math.sin(self.two_alpha + phi) + sin_phi
            lo, hi = self.span[0] + phi, self.span[1] + phi
            trough = _TROUGH + 2.0 * math.pi * math.ceil((lo - _TROUGH)
                                                         / (2.0 * math.pi))
            least = -1.0 if trough <= hi else min(math.sin(lo), math.sin(hi))
            if not (lead > 0.0 and lead * (least - sin_phi) > _ROOT_MARGIN):
                return False
        return True

    def failure_angle(self, phi):
        """The failure-angle solve in closed form.

        Returns (beta, feasible, n_gamma) arrays: feasible where the window
        is not empty and the blade-angle margins hold; beta and N_gamma at
        beta there, NaN elsewhere.
        With c = rho+delta+phi and A = 2*alpha+phi, the product-to-sum
        identities give

            N_gamma = (sin(2b+A) + sin phi)
                      / (2 cos(alpha) (cos c - cos(2b+c))),

        and dN_gamma/dbeta = 0 reduces to P cos 2b + Q sin 2b = R with
        P = cos c cos A - sin phi sin c, Q = -(cos c sin A + sin phi cos c)
        and R = cos(A-c). Its roots are
        b = (atan2(Q, P) +/- arccos(R / sqrt(P^2+Q^2))) / 2 mod pi; there
        are none when |R| > sqrt(P^2+Q^2) or P = Q = 0, and a pass that
        ``rootless`` clears skips their trigonometry. The window keeps
        sin(b) and sin(b+c) positive, so N_gamma is smooth on it and its
        minimum lies at a window end or at a root inside the window. The
        candidates are lo, hi and the in-window roots; the one with the
        lowest N_gamma wins, and lo wins whenever it is within 1e-12
        (relative) of that minimum, so flat objectives tie-break to the
        smallest feasible angle.
        """
        hi = self.window(phi)
        feasible = (hi > EPS1) & self.usable
        with np.errstate(divide="ignore", invalid="ignore"):
            f_lo = (self.cos_alpha_lo * np.sin(self.alpha_lo + phi)
                    / (self.denom_lo * np.sin(self.rho_delta_lo + phi)))
            # the pick runs over lo, the in-window roots and hi in that
            # order, keeping the first lowest N_gamma, which is finite at
            # a feasible entry; it is evaluated at the in-window roots alone
            best, f_best = EPS1, f_lo
            if not self.rootless(phi):
                self.root_passes += 1
                a = self.two_alpha + phi
                roots = _stationary_angles(self.rho_delta, phi, a, np.cos(a),
                                           np.sin(a), np.sin(phi))
                best, f_best = np.full(hi.shape, EPS1), f_lo.copy()
                inside = (roots >= EPS1) & (roots <= hi[..., None])
                rho_delta = np.broadcast_to(self.rho_delta, hi.shape)
                phi_b = np.broadcast_to(phi, hi.shape)
                for k in (0, 1):
                    root = roots[..., k]
                    at = np.nonzero(inside[..., k])
                    f = _ngamma_array(self.alpha, self.two_cos_alpha,
                                      root[at], rho_delta[at], phi_b[at])
                    take = f < f_best[at]
                    at = tuple(i[take] for i in at)
                    best[at] = root[at]
                    f_best[at] = f[take]
            f_hi = _ngamma_array(self.alpha, self.two_cos_alpha, hi,
                                 self.rho_delta, phi)
            take = f_hi < f_best
            best = np.where(take, hi, best)
            f_best = np.where(take, f_hi, f_best)
            snap = f_lo <= f_best + 1e-12 * np.maximum(1.0, np.abs(f_best))
        return (np.where(feasible, np.where(snap, EPS1, best), np.nan),
                feasible,
                np.where(feasible, np.where(snap, f_lo, f_best), np.nan))

    def __call__(self, phi):
        """(beta, feasible, (n_gamma, n_c, n_a, n_q)) at friction angle
        phi: the failure angle and the four bearing factors, NaN where
        ``feasible`` fails."""
        self.passes += 1
        beta, feasible, n_gamma = self.failure_angle(phi)
        return beta, feasible, (n_gamma, *_factor_arrays(
            self.alpha, beta, self.rho, self.rho_delta, phi, self.sin_rho))


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


@dataclass(frozen=True)
class CycleForceArrays:
    """Per-sample force results for one cycle, one array per quantity.

    Out-of-soil samples (depth <= 0) carry zero forces; in-soil samples
    that hit a margin carry NaN forces and are listed in ``failures``.
    A ``BearingKernel`` pass gives the factors at ``beta``. ``trajectory``
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

    def with_sinkage(self, lt, soil: SoilParameters,
                     loader: LoaderParameters) -> CycleForceArrays:
        """These forces with f_t at the sinkage parameters (kc, kphi, n)
        of ``soil``, whose other parameters are the ones these forces were
        predicted at: the wedge force, and so f_n, does not depend on
        them. ``lt`` is the engine's input; the bits are the engine's."""
        f_t = self.f_t.copy()
        valid = self.valid
        if np.any(valid):
            f_t[valid] = _tangential_force(
                self.fee[valid], self.depth[valid],
                np.asarray(lt, dtype=float)[valid], soil, loader)
        return replace(self, f_t=f_t)


def _tangential_force(fee, depth, lt, soil: SoilParameters,
                      loader: LoaderParameters):
    """The tangential force at wedge force ``fee``: penetration pressure
    plus the wedge force through the tool friction angle plus adhesion."""
    p = (soil.kc / loader.b + soil.kphi) * depth ** soil.n
    return (loader.omega * loader.b * p + fee * math.sin(soil.delta)
            + soil.adhesion_ca * loader.omega * lt)


def _cycle_forces(kernel: BearingKernel, depth, lt, area,
                  soil: SoilParameters, loader: LoaderParameters
                  ) -> CycleForceArrays:
    """``predict_force_arrays`` through ``kernel``, bound to the in-soil
    samples' blade angles at soil.delta: one pass at soil.phi, and each
    failed sample's status from the kernel's blade-margin masks."""
    n = depth.size
    in_soil = depth > 0.0
    beta_s, feasible, factors = kernel(soil.phi)
    beta = np.full(n, np.nan)
    beta[in_soil] = beta_s
    valid = np.zeros(n, dtype=bool)
    valid[in_soil] = feasible
    failed = in_soil & ~valid
    failed_s = ~feasible
    status = np.where(in_soil, _OK, _OUT_OF_SOIL).astype(np.int8)
    status[failed] = np.where(kernel.singular[failed_s], _SINGULAR_RHO,
                              np.where(kernel.below[failed_s], _RHO_BELOW_MIN,
                                       _EMPTY_WINDOW))
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
        fee[valid] = fee_v
        f_t[valid] = _tangential_force(fee_v, d_v,
                                       np.asarray(lt, dtype=float)[valid],
                                       soil, loader)
        f_n[valid] = fee_v * math.cos(soil.delta)
    return CycleForceArrays(depth=depth, beta=beta, fee=fee, f_t=f_t,
                            f_n=f_n, status=status, in_soil=in_soil,
                            valid=valid)


def predict_force_arrays(depth, rho, lt, area, soil: SoilParameters,
                         loader: LoaderParameters, alpha: float
                         ) -> CycleForceArrays:
    """Evaluate the full force chain over parallel per-sample arrays.

    ``area`` is the swept cross-section; the surcharge on the wedge is its
    weight gamma*g*omega*area. Out-of-soil samples (depth <= 0) yield zero
    forces. In-soil samples that violate a margin are flagged in
    ``status`` with NaN forces rather than aborting the cycle. One pass of
    a ``BearingKernel`` bound to the in-soil samples gives the failure
    angle and the bearing factors.
    """
    depth = np.asarray(depth, dtype=float)
    rho = np.asarray(rho, dtype=float)
    kernel = BearingKernel(alpha, rho[depth > 0.0], soil.delta)
    return _cycle_forces(kernel, depth, lt, area, soil, loader)
