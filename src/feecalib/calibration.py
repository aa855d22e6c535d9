"""Soil parameter calibration from one loading cycle's force data.

Two entry points: a single-stage baseline fitting the seven parameters the
model sees (K = kc/b + kphi in place of kc and kphi) at once with the
generic multi-start optimizer, and the staged pipeline that exploits the
separable structure of the force equations. Stage 1 fits the
tangential-force subset using the observed normal force to stand in for
the wedge reaction (no failure-angle solve at all), stage 2 fits
density/cohesion/friction against the reconstructed wedge force, and
stage 3 re-fits the compaction parameters against the raw tangential
observations. Each stage is linear in all its unknowns but one, so it is
fitted by variable projection (Golub & Pereyra 1973): a bounded search
over the one nonlinear parameter, solving the others by bounded linear
least squares. A grid of trials is screened first: one batched QR gives
each trial's unconstrained residual, a lower bound on its bounded one, and
only the trials whose bound can still beat the best solve so far are
solved, which leaves the fitted bits as they would be with every trial
solved. Both methods keep what they fitted in one named record per
stage, ``StageResult.parameters``, and ``assemble`` builds the soil
parameters from those records.

The staged fit runs on numpy alone: its bounded Brent search is the port
in ``optimizer``, which returns scipy's bits, and its bounded least
squares searches the box's faces. Only the single-stage fit, which runs
scipy's L-BFGS-B, loads scipy.optimize, before its clock starts.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DegenerateDepths, EmptySeries, SolverFailure
from .geometry import CycleDataset, surface_after_cycle, wedge_geometry
from .optimizer import (SolverOptions, _load_solvers,
                        finite_difference_gradient, minimize_scalar_bounded,
                        multi_start)
from .soil import (GRAVITY, BearingKernel, CycleForceArrays,
                   LoaderParameters, ParameterBounds, SoilParameters,
                   _blade_margins, _cycle_forces, predict_force_arrays)

log = logging.getLogger(__name__)

_SPLIT_NOTE = ("the model uses kc and kphi only through K = kc/b + kphi; K "
               "is fitted and the split follows the rule kphi = clip(K - "
               "kc_min/b, kphi_min, kphi_max), kc = b*(K - kphi)")


# The box every fit searches: the literature ranges of ``ParameterBounds``.
BOUNDS = ParameterBounds()


@dataclass(frozen=True)
class CalibrationOptions:
    """Knobs of the single-stage fit: its tangential-vs-normal weight and
    its optimizer. The staged fit takes no options; ``calibrate_multi_stage``
    only copies ``lambda_weight`` and the solver seed into its report."""

    lambda_weight: float = 0.5       # tangential-vs-normal weight
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must lie in [0, 1]")


@dataclass
class StageResult:
    """What one optimization stage fitted, and its diagnostics.

    ``parameters`` is the only record of the fit: each fitted value by
    name, with K = kc/b + kphi next to the kc and kphi it splits into;
    ``assemble`` builds the soil parameters from a fit's records.
    ``at_bound`` maps each fitted parameter that ends on a bound (K, not
    kc or kphi) to "lower" or "upper". ``dropped_samples`` counts every
    sample of the cycle that the stage's fit does not use: those out of
    soil or outside the blade margins (``PreparedCycle.dropped``) and, in
    stages 2 and 3, those the engine finds infeasible at the stage's
    parameters. In the single-stage fit ``function_evaluations`` counts
    objective calls over every start, and its ``work`` holds the
    optimizer's ``starts`` and the L-BFGS-B ``iterations`` of its best
    start.

    A staged fit's ``work`` is the one record of its work, which its
    DEBUG line prints, keyed by ``_WORK_KEYS`` in that order. Its trials
    of the outer parameter, each a full-cycle evaluation of the stage
    model, sum to ``function_evaluations``: the ``grid``, ``brent``,
    ``derivative`` and stage 3's ``incumbent`` check. ``brent`` is 0
    when the best grid point is a bound whose one-sided derivative
    points out of the box, so Brent is skipped (the bound shortcut).
    Each trial solves the linear unknowns by least squares inside the
    box (``interior``) or on its faces (``bounded``), or is ``screened``
    out as unable to win. ``engine_passes`` counts passes of the force
    kernel, of which ``root_passes`` ran the stationary-root solve.
    ``gradient_norm`` is the projected derivative along the outer
    parameter in unit-interval coordinates.
    """

    name: str
    parameters: dict[str, float]
    objective_value: float
    function_evaluations: int
    converged: bool
    gradient_norm: float
    wall_time_s: float
    dropped_samples: int
    rmse_n: float
    rmse_pct: float
    rmse_series: str
    at_bound: dict[str, str]
    work: dict[str, int]


@dataclass
class CalibrationReport:
    """Fitted parameters plus per-stage and final force errors.

    The final errors score the whole cycle, out-of-soil samples as zero
    force. ``dropped_samples`` counts only the in-soil samples they leave
    out, those the engine flags at the fitted parameters; each stage
    record's count of the same name also counts the samples out of soil.
    """

    method: str
    theta_star: SoilParameters
    stages: list[StageResult]
    rmse_ft_n: float
    rmse_ft_pct: float
    rmse_fn_n: float
    rmse_fn_pct: float
    rmse_fr_n: float
    rmse_fr_pct: float
    function_evaluations: int
    wall_time_s: float
    n_samples: int
    dropped_samples: int
    lambda_weight: float
    seed: int

    @property
    def not_identified(self) -> dict[str, str]:
        """What the force data cannot determine, and how it was set."""
        return {"kc/kphi split": _SPLIT_NOTE}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rmse(observed, predicted) -> tuple[float, float]:
    """(absolute, percent) root-mean-square error.

    Percent uses the peak absolute observed value as denominator, the rule
    under which published error tables are internally consistent.
    """
    o = np.asarray(observed, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if o.size == 0:
        raise EmptySeries("rmse of an empty series")
    if o.shape != p.shape:
        raise ValueError("series lengths differ")
    absolute = float(np.sqrt(np.mean((o - p) ** 2)))
    peak = float(np.max(np.abs(o)))
    if peak > 0.0:
        percent = 100.0 * absolute / peak
    else:
        percent = 0.0 if absolute == 0.0 else math.inf
    return absolute, percent


def resultant(f_t, f_n):
    """Euclidean magnitude of the tangential/normal force pair."""
    return np.hypot(f_t, f_n)


# ---------------------------------------------------------------------------
# The prepared cycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedCycle:
    """One cycle's per-sample arrays, built once per fit by
    ``prepare_cycle``.

    ``depth``, ``rho``, ``lt``, ``area``, ``ft_obs`` and ``fn_obs`` hold
    the ``kept`` samples, in soil and inside the blade margins, which
    every fit uses. The whole cycle's observations (``ft_cycle``,
    ``fn_cycle``) and its ``in_soil`` mask serve only the final report,
    which scores the whole cycle.

    ``kernel``, bound on first use, is the cycle's one kernel; it keeps
    the fit's last pass at one (phi, delta) (``_forces``). Every cycle
    binds its own, ``dataclasses.replace``'s copies too.
    """

    depth: np.ndarray
    rho: np.ndarray
    lt: np.ndarray
    area: np.ndarray        # swept cross-section, scaled by gamma on demand
    ft_obs: np.ndarray
    fn_obs: np.ndarray
    kept: np.ndarray        # per cycle sample: in soil, inside the margins
    in_soil: np.ndarray     # per cycle sample: depth > 0
    ft_cycle: np.ndarray
    fn_cycle: np.ndarray
    alpha: float
    loader: LoaderParameters

    @property
    def dropped(self) -> int:
        """Samples out of soil or the blade margins, which no fit uses."""
        return self.kept.size - self.depth.size

    def on_cycle(self, values: np.ndarray) -> np.ndarray:
        """A kept-sample array spread over the cycle, zero elsewhere."""
        full = np.zeros(self.kept.size, dtype=values.dtype)
        full[self.kept] = values
        return full

    @functools.cached_property
    def kernel(self) -> BearingKernel:
        """The failure-angle and bearing-factor kernel bound to the pile
        inclination and the samples' blade angles."""
        return BearingKernel(self.alpha, self.rho)


def prepare_cycle(dataset: CycleDataset) -> PreparedCycle:
    """The wedge geometry and observations of the samples every fit uses:
    in soil and inside the blade margins (``soil._blade_margins``, which
    need no soil parameter). Raises DegenerateDepths when no sample is in
    soil, and EmptySeries when none of those is inside the margins."""
    depth, lt, area = wedge_geometry(dataset.samples, dataset.surface)
    in_soil = depth > 0.0
    if not in_soil.any():
        raise DegenerateDepths("all samples have zero penetration depth")
    alpha, rho = dataset.surface.nominal_alpha, dataset.samples.rho
    below, singular = _blade_margins(alpha, rho, np.sin(rho))
    kept = in_soil & ~(below | singular)
    if not kept.any():
        raise EmptySeries("no in-soil sample inside the blade margins")
    ft, fn = dataset.f_t_obs, dataset.f_n_obs
    return PreparedCycle(depth=depth[kept], rho=rho[kept], lt=lt[kept],
                         area=area[kept], ft_obs=ft[kept], fn_obs=fn[kept],
                         kept=kept, in_soil=in_soil, ft_cycle=ft,
                         fn_cycle=fn, alpha=alpha, loader=dataset.loader)


def _forces(theta: SoilParameters, cycle: PreparedCycle) -> CycleForceArrays:
    """The force engine over the cycle's samples, through the cycle's
    kernel: the bits of ``predict_force_arrays``, in new arrays.

    The kernel pass depends on (phi, delta) alone. So the forces are
    built from the pass the kernel keeps at the last (phi, delta) asked
    for (``BearingKernel.pass_at``): stage 2's record, stage 3 and the
    final report of a staged fit share one pass, and so do the
    single-stage fit's finite-difference steps at one (phi, delta).
    """
    k = cycle.kernel
    return _cycle_forces(k, k.pass_at(theta.phi, theta.delta), cycle.depth,
                         cycle.lt, cycle.area, theta, cycle.loader)


def stage1_tangential_force(cycle: PreparedCycle, adhesion_ca: float,
                            delta: float, kc: float, kphi: float,
                            n: float) -> np.ndarray:
    """Tangential force model of the first stage over the cycle's in-soil
    samples.

    Sinkage pressure plus the observed normal force redirected through the
    tool friction angle plus blade adhesion; linear in the observed normal
    force and free of any failure-angle solve.
    """
    loader = cycle.loader
    return (loader.omega * loader.b * (kc / loader.b + kphi) * cycle.depth ** n
            + cycle.fn_obs * math.tan(delta)
            + adhesion_ca * loader.omega * cycle.lt)


def _series_scale(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values), initial=0.0))
    return peak * peak * max(values.size, 1) + 1e-300


def split_pressure_coefficient(big_k: float, b: float) -> tuple[float, float]:
    """(kc, kphi) for a fitted K = kc/b + kphi, inside ``BOUNDS``.

    The force model sees kc and kphi only through K, so data from one
    blade thickness cannot separate them (Bekker's plate tests need two
    widths). The rule: kphi = clip(K - kc_min/b, kphi_min, kphi_max), then
    kc = b*(K - kphi), clipped to its bounds against rounding. For any K
    inside [kc_min/b + kphi_min, kc_max/b + kphi_max] both stay in bounds.
    """
    kphi = min(max(big_k - BOUNDS.kc[0] / b, BOUNDS.kphi[0]), BOUNDS.kphi[1])
    kc = min(max(b * (big_k - kphi), BOUNDS.kc[0]), BOUNDS.kc[1])
    return kc, kphi


# The parameters a fit searches, in the order ``at_bound`` lists them: K
# stands in for kc and kphi, which split it by rule.
_FITTED = ("gamma", "cohesion_c", "adhesion_ca", "phi", "delta", "K", "n")


def _box(name: str, b: float) -> tuple[float, float]:
    """The fit box's (lo, hi) for ``name``; K = kc/b + kphi spans the sums
    of kc's and kphi's bounds."""
    if name == "K":
        return (BOUNDS.kc[0] / b + BOUNDS.kphi[0],
                BOUNDS.kc[1] / b + BOUNDS.kphi[1])
    return getattr(BOUNDS, name)


def _at_bound(parameters: dict[str, float], b: float) -> dict[str, str]:
    """{name: 'lower' | 'upper'} for each fitted parameter of the record
    that sits on its bound; kc and kphi are never listed."""
    at = {}
    for name in _FITTED:
        if name in parameters:
            lo, hi = _box(name, b)
            if parameters[name] <= lo:
                at[name] = "lower"
            elif parameters[name] >= hi:
                at[name] = "upper"
    return at


def _faces(first: np.ndarray):
    """``first``, then the box's other faces, fewest sides changed first."""
    yield first
    faces = np.array(list(itertools.product((-1, 0, 1), repeat=first.size)))
    changed = np.count_nonzero(faces != first, axis=1)
    yield from faces[np.argsort(changed, kind="stable")[1:]]


def _face_lsq(A: np.ndarray, b: np.ndarray, x_lsq: np.ndarray,
              lb: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min ||A x - b|| over lb <= x <= ub, when the unconstrained solution
    ``x_lsq`` leaves the box: the least-squares solution on one of its
    faces, where each unknown is free (side 0) or fixed at its lower (-1)
    or upper (1) bound. The face ``x_lsq`` leaves towards comes first,
    then the others (``_faces``). The free unknowns are solved on ``b - A
    x_fixed``, as lsq_linear(method="bvls") solves them, so an optimum on
    its face has its bits. The first in-box solution that meets the KKT
    sign test ``side * A^T (A x - b) <= 0`` is returned, else the in-box
    one with the lowest residual (an all-fixed face is always in the
    box). Returns x and each unknown's side.
    """
    best = None
    first = np.where(x_lsq >= ub, 1, np.where(x_lsq <= lb, -1, 0))
    for side in _faces(first):
        free = side == 0
        x = np.where(side < 0, lb, ub) * ~free     # 0 where free
        if free.any():
            z = np.linalg.lstsq(A[:, free], b - A.dot(x), rcond=None)[0]
            if not ((z >= lb[free]) & (z <= ub[free])).all():
                continue
            x[free] = z
        r = A.dot(x) - b
        if (side * A.T.dot(r) <= 0.0).all():
            return x, side
        rss = r.dot(r)
        if best is None or rss < best[0]:
            best = rss, x, side
    return best[1], best[2]


def _bounded_lsq(design: np.ndarray, target: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, paths: Counter) -> tuple[np.ndarray, float]:
    """min ||design @ x - target|| subject to lo <= x <= hi.

    Least squares on unit-norm columns. The unconstrained solution comes
    first, from the LAPACK call ``lsq_linear(method="bvls")`` starts with;
    when it lies in the box it is the answer, the same bits lsq_linear
    would return. Only when it leaves the box does ``_face_lsq`` search
    the box's faces. An unknown whose column is all zero (the data
    cannot see it) or whose bounds coincide is pinned at its lower
    bound. Unknowns that end on a bound are set to it exactly. Returns x
    and the residual sum of squares at x, and counts the solve in
    ``paths`` as "interior" or "bounded". A least-squares solve that
    fails, as on non-finite data, raises SolverFailure.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    is_free = (norms > 0.0) & (hi > lo)
    x = lo.copy()
    if is_free.all():
        # every unknown is free: views, not gathers
        free, rest = slice(None), target
    else:
        free = np.flatnonzero(is_free)
        rest = target - design[:, ~is_free] @ x[~is_free]
    w, lo_f, hi_f = norms[free], lo[free], hi[free]
    if w.size:
        # column-major, as a gather of columns gives it: the bits of the
        # matrix products depend on the layout
        scaled = np.divide(design[:, free], w, order="F")
        lb, ub = lo_f * w, hi_f * w
        try:
            x_lsq = np.linalg.lstsq(scaled, rest, rcond=-1)[0]
            if ((x_lsq >= lb) & (x_lsq <= ub)).all():
                paths["interior"] += 1
                x[free] = np.clip(x_lsq / w, lo_f, hi_f)
            else:
                paths["bounded"] += 1
                x_face, side = _face_lsq(scaled, rest, x_lsq, lb, ub)
                x[free] = np.select([side < 0, side > 0], [lo_f, hi_f],
                                    np.clip(x_face / w, lo_f, hi_f))
        except np.linalg.LinAlgError as exc:
            finite = np.isfinite(design).all() and np.isfinite(target).all()
            raise SolverFailure(f"bounded least squares failed ({exc}) on "
                                f"{'' if finite else 'non-'}finite data"
                                ) from exc
    residual = target - design @ x
    return x, float(residual @ residual)


# ``_screened_lsq`` skips a candidate when its computed unconstrained
# residual sum of squares, less a margin, exceeds the best exact value of
# the call. In exact arithmetic that bound is never above the candidate's
# box-constrained value, so a wrong skip needs the two computed values to
# be off by more than the margin together. The designs have p <= 3
# unit-norm columns, so |R_11| = 1 and every |R_jj| <= 1; a diagonal ratio
# below C = _SCREEN_CONDITION puts every |R_jj| above 1/C, every entry of
# R^-1 below C^2 in size, and |A^+| = |R^-1| below 2.5 C^2. Householder
# QR is exact for a design A + dA with |dA| <= g |A|_F, where g grows
# like sqrt(m p) unit roundoffs in practice: under 100 u = 1.1e-14 for
# m p <= 1e4. To first order that moves the bound r.r by -2 r'dA x, at
# most 2 g sqrt(p) |A^+| |y|^2 < 1e-7 |y|^2 at C = 1e3, as |r| <= |y|
# and |x| <= |A^+| |y|; the exact solve's rounding of target - design @ x
# adds under a tenth of that. The margin of 1e-6 |y|^2 is 9 times their
# sum. (Over a 702-fit preset and slope sweep no bound exceeded an exact
# value by 1e-15 |y|^2, and no diagonal ratio reached 36.) A candidate
# above the cap, or with a zero on R's diagonal, is always solved.
_SCREEN_MARGIN = 1e-6       # of the candidate's |y|^2
_SCREEN_CONDITION = 1e3     # diagonal ratio of R up to which it screens


def _screened_lsq(designs: np.ndarray, targets: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, scale: float, paths: Counter,
                  rows: np.ndarray | None = None) -> list:
    """``_bounded_lsq`` for each of k candidates, solving only those that
    can still give the lowest residual.

    Candidate i fits ``designs[i]`` (m, p) to ``targets[i]`` (or to a
    shared (m,) target) on the rows where ``rows[i]`` holds (all rows
    when ``rows`` is None). Returns one ``(rss / scale, x)`` per
    candidate; ``(1e12, None)`` for a candidate with no row to fit.

    One candidate has nothing to screen: it goes straight to
    ``_bounded_lsq`` on its rows. With more than one, one batched QR of
    the unit-norm designs, infeasible rows zeroed, gives each candidate's
    unconstrained residual sum of squares, which no box-constrained one
    can undercut. The candidates are solved in order of that bound, and
    one whose bound exceeds the best exact value found so far by more
    than the margin is skipped: it could not have become the lowest, and
    it returns ``(inf, None)``, counted as "screened" in ``paths``. Every
    solved candidate goes through the unchanged ``_bounded_lsq`` on its
    own rows, so the lowest value, its x and the first index to reach it
    are the bits a solve of every candidate gives.
    """
    k = designs.shape[0]
    if k == 1:
        design = designs[0]
        target = targets[0] if targets.ndim == 2 else targets
        if rows is not None:
            if not rows[0].any():
                return [(1e12, None)]
            design, target = design[rows[0]], target[rows[0]]
        x, rss = _bounded_lsq(design, target, lo, hi, paths)
        return [(rss / scale, x)]
    targets = np.broadcast_to(targets, designs.shape[:2])
    fits = [True] * k if rows is None else rows.any(axis=1).tolist()
    y = targets if rows is None else np.where(rows, targets, 0.0)
    stack = designs if rows is None else np.where(rows[..., None], designs,
                                                  0.0)
    norms = np.sqrt(np.einsum("kij,kij->kj", stack, stack))
    q, r = np.linalg.qr(stack / np.where(norms > 0.0, norms, 1.0)[:, None])
    residual = y - (q @ (q.transpose(0, 2, 1) @ y[..., None]))[..., 0]
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    screen = (diag.min(axis=1) * _SCREEN_CONDITION > diag.max(axis=1)).tolist()
    bound = (np.einsum("ki,ki->k", residual, residual)
             - _SCREEN_MARGIN * np.einsum("ki,ki->k", y, y)).tolist()
    results = [(1e12, None)] * k
    best = math.inf
    for i in sorted(range(k), key=bound.__getitem__):
        if not fits[i]:
            continue
        if screen[i] and bound[i] > best:
            paths["screened"] += 1
            results[i] = (math.inf, None)
            continue
        design, target = designs[i], targets[i]
        if rows is not None:
            design, target = design[rows[i]], target[rows[i]]
        x, rss = _bounded_lsq(design, target, lo, hi, paths)
        best = min(best, rss)
        results[i] = (rss / scale, x)
    return results


_PROFILE_GRID = 33      # coarse grid points of the outer search
_PROFILE_XATOL = 1e-10  # Brent's absolute tolerance, as a share of the bracket

# The keys of a staged fit's ``StageResult.work``, in its DEBUG line's
# order: the kinds of trial first, which sum to its function_evaluations.
_TRIAL_KEYS = ("grid", "brent", "derivative", "incumbent")
_WORK_KEYS = _TRIAL_KEYS + ("interior", "bounded", "screened",
                            "engine_passes", "root_passes")
_WORK_LINE = ("%(stage)s: %(ms).2f ms; %(trials)d trials: %(grid)d grid, "
              "%(brent)d Brent, %(derivative)d derivative, %(incumbent)d "
              "incumbent; least squares %(interior)d interior, %(bounded)d "
              "bounded, %(screened)d screened; bound shortcut %(shortcut)s; "
              "%(engine_passes)d engine passes, %(root_passes)d with the "
              "root solve")


@dataclass
class _Profile:
    """Best trial of a one-parameter profile search and what it cost."""

    x: float
    value: float = math.inf
    inner: np.ndarray | None = None
    converged: bool = True
    gradient_norm: float = 0.0
    work: Counter = field(default_factory=Counter)


def _profile_search(trial, lo: float, hi: float) -> _Profile:
    """Minimize a variable-projection profile over one bounded parameter.

    ``trial(xs, paths)`` takes an array of candidates and returns one
    ``(value, inner)`` per candidate: the stage objective with the linear
    unknowns solved for at that candidate, and those unknowns; it hands
    ``paths`` to ``_screened_lsq``, which counts its solves and skips
    there. The search evaluates a fixed grid in one call and keeps the
    best trial. That call is screened: a grid point whose least-squares
    lower bound exceeds the best solved value comes back as
    ``(inf, None)`` unsolved. It could never have been the best trial,
    nor the lowest grid value that places Brent's bracket, and it still
    counts as a trial, so the search takes the same steps and returns
    the same bits as with every grid point solved.
    When the best grid point is a bound, one trial gives the one-sided
    derivative there (the grid value is its centre); if it points out of
    the box the bound is the answer and Brent does not run. Otherwise a
    bounded Brent search (``optimizer.minimize_scalar_bounded``, the port
    of scipy's ``minimize_scalar(method="bounded")``) runs over the two
    grid cells around the best grid point, to an absolute tolerance of
    1e-10 of that bracket; it makes at least one trial. Brent and the
    derivative call ``trial`` with one candidate at a time. The gradient
    norm is the projected finite-difference derivative of the profile at
    the best trial, in unit-interval coordinates; by the variable
    projection theorem it is the projected gradient of the full
    objective, whose linear part is stationary by construction. Every
    candidate is counted once, in ``work`` under its kind of trial:
    ``grid``, ``brent`` or ``derivative``.
    """
    best = _Profile(x=lo)

    def counted(xs, kind: str) -> list:
        xs = np.asarray(xs, dtype=float)
        best.work[kind] += xs.size
        return trial(xs, best.work)

    def keep_best(xs, results) -> list[float]:
        for x, (v, inner) in zip(xs, results):
            if v < best.value:
                best.x, best.value, best.inner = float(x), v, inner
        return [v for v, _ in results]

    def value(x: float) -> float:
        return keep_best([x], counted([x], "brent"))[0]

    width = hi - lo

    def derivative(centre: float | None = None) -> float:
        """The profile's derivative at best.x in unit coordinates; a
        known ``centre`` value at best.x is used, not evaluated again."""
        u = (best.x - lo) / width
        return finite_difference_gradient(
            lambda v: (centre if centre is not None and v[0] == u
                       else counted([lo + v[0] * width], "derivative")[0][0]),
            np.array([u]), [(0.0, 1.0)])[0]

    def points_out(grad: float) -> bool:
        return (best.x <= lo and grad > 0.0) or (best.x >= hi and grad < 0.0)

    grid = np.linspace(lo, hi, _PROFILE_GRID)
    k = int(np.argmin(keep_best(grid, counted(grid, "grid"))))
    if best.inner is None:
        raise SolverFailure(f"no grid point in [{lo}, {hi}] gives a finite "
                            f"objective with samples to fit")
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, _PROFILE_GRID - 1)]
    grad = None
    if best.x <= lo or best.x >= hi:
        grad = derivative(centre=best.value)
        if points_out(grad):
            return best
    kept = best.x
    best.converged = minimize_scalar_bounded(
        value, a, b, _PROFILE_XATOL * (b - a))[2]
    if grad is None or best.x != kept:
        grad = derivative()
    best.gradient_norm = 0.0 if points_out(grad) else float(abs(grad))
    return best


def _staged_result(name: str, parameters: dict[str, float], b: float,
                   objective: float, profile: _Profile, t0: float,
                   dropped: int, rmse_pair: tuple[float, float],
                   series: str) -> StageResult:
    """The stage's StageResult, with ``at_bound`` read from its record for
    blade thickness ``b`` and ``work`` from the profile's; logs the work
    at DEBUG."""
    wall = time.perf_counter() - t0
    work = {key: profile.work[key] for key in _WORK_KEYS}
    evaluations = sum(work[key] for key in _TRIAL_KEYS)
    log.debug(_WORK_LINE, dict(
        work, stage=name, ms=1e3 * wall, trials=evaluations,
        shortcut="not taken" if work["brent"] else "taken"))
    return StageResult(name=name, parameters=parameters,
                       objective_value=objective,
                       function_evaluations=evaluations,
                       converged=profile.converged,
                       gradient_norm=profile.gradient_norm,
                       wall_time_s=wall,
                       dropped_samples=dropped, rmse_n=rmse_pair[0],
                       rmse_pct=rmse_pair[1], rmse_series=series,
                       at_bound=_at_bound(parameters, b), work=work)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def calibrate_stage1(cycle: PreparedCycle) -> StageResult:
    """Fit adhesion_ca, delta, K and n to the raw tangential force.

    The wedge reaction is taken from the observed normal force, so no
    failure-angle solve or bearing-factor evaluation happens here. For a
    given n the model is linear in (adhesion, tan delta, K = kc/b + kphi):
    the search runs over n and solves for the rest by bounded linear least
    squares. kc and kphi come from K by ``split_pressure_coefficient``.
    """
    t0 = time.perf_counter()
    loader = cycle.loader
    depth, lt, ft_obs = cycle.depth, cycle.lt, cycle.ft_obs
    scale = _series_scale(ft_obs)
    delta_lo, delta_hi = _box("delta", loader.b)
    lo, hi = np.array([_box("adhesion_ca", loader.b),
                       (math.tan(delta_lo), math.tan(delta_hi)),
                       _box("K", loader.b)]).T

    def trial(ns: np.ndarray, paths: Counter):
        designs = np.empty((ns.size, depth.size, 3))
        designs[:, :, 0] = loader.omega * lt
        designs[:, :, 1] = cycle.fn_obs
        designs[:, :, 2] = loader.omega * loader.b * depth ** ns[:, None]
        return _screened_lsq(designs, ft_obs, lo, hi, scale, paths)

    profile = _profile_search(trial, *_box("n", loader.b))
    ca, tan_delta, big_k = profile.inner.tolist()
    if tan_delta <= lo[1]:
        delta = delta_lo
    elif tan_delta >= hi[1]:
        delta = delta_hi
    else:
        delta = min(max(math.atan(tan_delta), delta_lo), delta_hi)
    kc, kphi = map(float, split_pressure_coefficient(big_k, loader.b))
    fit = stage1_tangential_force(cycle, ca, delta, kc, kphi, profile.x)
    residual = ft_obs - fit
    parameters = dict(adhesion_ca=ca, delta=float(delta), kc=kc, kphi=kphi,
                      n=profile.x, K=big_k)
    return _staged_result("stage1", parameters, loader.b,
                          float(residual @ residual) / scale, profile, t0,
                          cycle.dropped, rmse(ft_obs, fit),
                          series="f_t observed (raw), in-soil samples")


def calibrate_stage2(cycle: PreparedCycle, adhesion_ca: float,
                     delta: float) -> StageResult:
    """Fit gamma, cohesion_c and phi against the wedge force reconstructed
    from the raw in-soil normal observations divided by cos(delta), with
    the adhesion and tool friction angle fitted by stage 1.

    For a given friction angle the wedge force
    F = gamma*g*omega*(d^2 N_gamma + A_swept N_q) + c*omega*d*N_c
    + c_a*omega*d*N_a is linear in (gamma, c): the search runs over phi
    and solves for (gamma, c) by bounded linear least squares. The failure
    angle and the bearing factors come from the cycle's kernel
    (``PreparedCycle.kernel``), whose pass at delta takes every candidate
    of a call at once (the whole grid in one broadcast pass). Samples it
    marks infeasible for a candidate (an empty failure-angle window) are
    dropped from that candidate's residual (zeroed in its screening
    bound).
    """
    t0 = time.perf_counter()
    target = cycle.fn_obs / math.cos(delta)
    scale = _series_scale(target)
    omega, b = cycle.loader.omega, cycle.loader.b
    lo, hi = np.array([_box("gamma", b), _box("cohesion_c", b)]).T
    # the per-sample coefficients of the factors, the same for every phi
    depth_sq, omega_depth = cycle.depth * cycle.depth, omega * cycle.depth
    adhesion = adhesion_ca * omega * cycle.depth
    kernel = cycle.kernel
    start = kernel.passes, kernel.root_passes

    def trial(phis: np.ndarray, paths: Counter):
        _, feasible, (n_gamma, n_c, n_a, n_q) = kernel(phis[:, None], delta)
        designs = np.stack([GRAVITY * omega * (depth_sq * n_gamma
                                               + cycle.area * n_q),
                            omega_depth * n_c], axis=-1)
        return _screened_lsq(designs, target - adhesion * n_a, lo, hi,
                             scale, paths, rows=feasible)

    profile = _profile_search(trial, *_box("phi", b))
    gamma, cohesion = profile.inner.tolist()
    # the wedge force does not depend on the sinkage parameters
    out = _forces(SoilParameters(gamma=gamma, cohesion_c=cohesion,
                                 adhesion_ca=adhesion_ca, phi=profile.x,
                                 delta=delta, kc=0.0, kphi=0.0, n=1.0),
                  cycle)
    force, valid = out.fee[out.valid], out.valid
    residual = target[valid] - force
    profile.work["engine_passes"] += kernel.passes - start[0]
    profile.work["root_passes"] += kernel.root_passes - start[1]
    return _staged_result("stage2", dict(gamma=gamma, cohesion_c=cohesion,
                                         phi=profile.x),
                          b, float(residual @ residual) / scale, profile, t0,
                          cycle.dropped + int((~valid).sum()),
                          rmse(target[valid], force),
                          series="wedge force reconstructed from raw f_n, "
                                 "in-soil samples")


def calibrate_stage3(cycle: PreparedCycle,
                     theta_fixed: SoilParameters) -> StageResult:
    """Re-fit K (split into kc and kphi) and n against the raw tangential
    observations with every other parameter frozen.

    The wedge force does not depend on the sinkage parameters, so it is
    evaluated once, from the pass the cycle's kernel keeps from stage 2
    when it keeps one (see ``_forces``). For a given n the model is
    linear in K = kc/b + kphi: the search runs over n and solves for K by
    bounded least squares. The incumbent (kc, kphi, n) is always a
    candidate and wins ties, which makes the tangential error
    non-increasing across this stage. Normal-force predictions are
    untouched by construction.
    """
    t0 = time.perf_counter()
    loader = cycle.loader
    kernel = cycle.kernel
    start = kernel.passes, kernel.root_passes
    out = _forces(theta_fixed, cycle)
    valid = out.valid
    if not valid.any():
        raise EmptySeries("no in-soil sample evaluates cleanly")
    depth = cycle.depth[valid]
    lt = cycle.lt[valid]
    ft_obs = cycle.ft_obs[valid]
    friction_term = (out.fee[valid] * math.sin(theta_fixed.delta)
                     + theta_fixed.adhesion_ca * loader.omega * lt)
    scale = _series_scale(ft_obs)
    sinkage_target = ft_obs - friction_term
    k_lo, k_hi = np.array([_box("K", loader.b)]).T

    def model(kc: float, kphi: float, n: float) -> np.ndarray:
        return (loader.omega * loader.b * (kc / loader.b + kphi) * depth ** n
                + friction_term)

    def objective(kc: float, kphi: float, n: float) -> float:
        residual = ft_obs - model(kc, kphi, n)
        return float(residual @ residual) / scale

    def trial(ns: np.ndarray, paths: Counter):
        designs = (loader.omega * loader.b * depth ** ns[:, None])[..., None]
        return _screened_lsq(designs, sinkage_target, k_lo, k_hi, scale,
                             paths)

    profile = _profile_search(trial, *_box("n", loader.b))
    big_k = float(profile.inner[0])
    best = (*split_pressure_coefficient(big_k, loader.b), profile.x)
    incumbent = (theta_fixed.kc, theta_fixed.kphi, theta_fixed.n)
    f_best, f_incumbent = objective(*best), objective(*incumbent)
    if f_incumbent <= f_best:
        best, f_best = incumbent, f_incumbent
        big_k = float(theta_fixed.kc / loader.b + theta_fixed.kphi)
    kc, kphi, n = map(float, best)
    profile.work["incumbent"] = 1
    profile.work["engine_passes"] += kernel.passes - start[0]
    profile.work["root_passes"] += kernel.root_passes - start[1]
    return _staged_result("stage3", dict(kc=kc, kphi=kphi, n=n, K=big_k),
                          loader.b, f_best, profile, t0,
                          cycle.dropped + int((~valid).sum()),
                          rmse(ft_obs, model(kc, kphi, n)),
                          series="f_t observed (raw), in-soil samples")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def assemble(stages: list[StageResult]) -> SoilParameters:
    """The soil parameters the stages' records give: a later stage's value
    of a parameter replaces an earlier one's, and K, which the records
    carry next to its kc and kphi, is skipped."""
    return SoilParameters(**{name: value for stage in stages
                             for name, value in stage.parameters.items()
                             if name != "K"})


def _final_report(method: str, stages: list[StageResult],
                  cycle: PreparedCycle, options: CalibrationOptions,
                  wall: float) -> CalibrationReport:
    """The report of a fit whose parameters ``assemble(stages)`` gives,
    with force errors over the whole cycle: out-of-soil samples predict
    zero force, and samples that hit a margin are left out."""
    theta = assemble(stages)
    out = _forces(theta, cycle)
    f_t, f_n = cycle.on_cycle(out.f_t), cycle.on_cycle(out.f_n)
    ok = ~cycle.in_soil | cycle.on_cycle(out.valid)
    ft_obs, fn_obs = cycle.ft_cycle[ok], cycle.fn_cycle[ok]
    ft_pair = rmse(ft_obs, f_t[ok])
    fn_pair = rmse(fn_obs, f_n[ok])
    fr_pair = rmse(resultant(ft_obs, fn_obs), resultant(f_t[ok], f_n[ok]))
    return CalibrationReport(
        method=method, theta_star=theta, stages=stages,
        rmse_ft_n=ft_pair[0], rmse_ft_pct=ft_pair[1],
        rmse_fn_n=fn_pair[0], rmse_fn_pct=fn_pair[1],
        rmse_fr_n=fr_pair[0], rmse_fr_pct=fr_pair[1],
        function_evaluations=sum(s.function_evaluations for s in stages),
        wall_time_s=wall, n_samples=ok.size,
        dropped_samples=int((~ok).sum()),
        lambda_weight=options.lambda_weight,
        seed=options.solver.seed)


def _finite_arithmetic(fit):
    """``fit`` (a fit or a prediction) under numpy's errstate raise for
    overflow, invalid and divide-by-zero results, except where a block of
    it says otherwise. A cycle whose values leave the floating-point
    range then fails at its first such result with one SolverFailure,
    before a NaN reaches LAPACK or a file. Finite-range cycles emit no
    such result, so their bits are unchanged."""
    @functools.wraps(fit)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fit(*args, **kwargs)
        except FloatingPointError as exc:
            raise SolverFailure(f"floating-point error ({exc})") from exc
    return run


@_finite_arithmetic
def calibrate_single_stage(dataset: CycleDataset,
                           options: CalibrationOptions = CalibrationOptions()
                           ) -> CalibrationReport:
    """Baseline: fit the seven parameters the model sees at once.

    Minimizes the lambda-weighted sum of squared tangential and normal
    residuals on the raw observations over in-soil samples, by
    ``multi_start`` on the unit box over (gamma, c, c_a, phi, delta, K, n),
    scaled to the staged fits' box, ``BOUNDS``. Every evaluated point,
    the answer included, takes its kc and kphi from
    ``split_pressure_coefficient``, as the staged fits do. Raises
    DegenerateDepths when no sample is in soil, EmptySeries when none of
    them is inside the blade margins, and SolverFailure when the
    arithmetic leaves the floating-point range.
    """
    _load_solvers()
    t0 = time.perf_counter()
    cycle = prepare_cycle(dataset)
    b = cycle.loader.b
    lo, hi = np.array([_box(name, b) for name in _FITTED]).T
    lam = options.lambda_weight
    ft_obs, fn_obs = cycle.ft_obs, cycle.fn_obs
    scale = (lam * _series_scale(ft_obs)
             + (1.0 - lam) * _series_scale(fn_obs) + 1e-300)

    def soil_at(values: np.ndarray) -> SoilParameters:
        gamma, cohesion, ca, phi, delta, big_k, n = values.tolist()
        kc, kphi = split_pressure_coefficient(big_k, b)
        return SoilParameters(gamma, cohesion, ca, phi, delta, kc, kphi, n)

    def objective(unit: np.ndarray) -> float:
        out = _forces(soil_at(lo + unit * (hi - lo)), cycle)
        valid = out.valid
        if not valid.any():
            return 1e12
        r_t = ft_obs[valid] - out.f_t[valid]
        r_n = fn_obs[valid] - out.f_n[valid]
        return (lam * float(r_t @ r_t)
                + (1.0 - lam) * float(r_n @ r_n)) / scale

    unit_box = np.repeat([[0.0, 1.0]], len(_FITTED), axis=0)
    solve = multi_start(objective, unit_box, options.solver)
    values = lo + solve.x_star * (hi - lo)
    wall = time.perf_counter() - t0
    parameters = dict(asdict(soil_at(values)), K=float(values[5]))
    stage = StageResult(
        name="single", parameters=parameters,
        objective_value=solve.objective_value,
        function_evaluations=solve.function_evaluations,
        converged=solve.converged, gradient_norm=solve.gradient_norm,
        wall_time_s=wall, dropped_samples=cycle.dropped, rmse_n=math.nan,
        rmse_pct=math.nan,
        rmse_series="(final report carries the force errors)",
        at_bound=_at_bound(parameters, b),
        work={"starts": solve.starts_tried, "iterations": solve.iterations})
    return _final_report("single-stage", [stage], cycle, options, wall)


@_finite_arithmetic
def calibrate_multi_stage(dataset: CycleDataset,
                          options: CalibrationOptions = CalibrationOptions()
                          ) -> CalibrationReport:
    """Staged pipeline: tangential subset, then material subset, then
    compaction refinement, all on one prepared cycle. Reports each
    stage's record plus final force errors under the parameters
    ``assemble`` builds from them. Raises DegenerateDepths when no sample
    is in soil, EmptySeries when none of them is inside the blade
    margins, and SolverFailure when the arithmetic leaves the
    floating-point range."""
    t0 = time.perf_counter()
    cycle = prepare_cycle(dataset)
    s1 = calibrate_stage1(cycle)
    s2 = calibrate_stage2(cycle, s1.parameters["adhesion_ca"],
                          s1.parameters["delta"])
    s3 = calibrate_stage3(cycle, assemble([s1, s2]))
    return _final_report("multi-stage", [s1, s2, s3], cycle, options,
                         time.perf_counter() - t0)


@_finite_arithmetic
def predict_next_cycle(theta_star: SoilParameters, scenario,
                       prior_cycle: np.recarray | None = None
                       ) -> CycleForceArrays:
    """Predict forces for a new pass using fitted parameters.

    When a prior cycle is given, depth (and the swept load) is measured
    against the surface carved by that pass rather than the nominal pile
    face. The bearing factors keep the nominal pile inclination. The
    sampled trajectory comes back as the prediction's ``trajectory``, and
    the wall time of each step (carve, trajectory, depth and swept area,
    engine) as its ``step_ms``. Raises SolverFailure when the arithmetic
    leaves the floating-point range.
    """
    marks = [time.perf_counter()]
    surface = scenario.surface
    if prior_cycle is not None:
        surface = surface_after_cycle(surface, prior_cycle)
    marks.append(time.perf_counter())
    trajectory = scenario.trajectory(surface=surface)
    marks.append(time.perf_counter())
    depth, lt, area = wedge_geometry(trajectory, surface)
    marks.append(time.perf_counter())
    prediction = predict_force_arrays(depth, trajectory.rho, lt, area,
                                      theta_star, scenario.loader,
                                      surface.nominal_alpha)
    marks.append(time.perf_counter())
    steps = ("carve", "trajectory", "depth and swept area", "engine")
    return replace(prediction, trajectory=trajectory,
                   step_ms={step: 1e3 * (end - start) for step, start, end
                            in zip(steps, marks, marks[1:])})
