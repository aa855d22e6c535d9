"""Forward simulation of ground-truth cycles and bundled soil presets.

``simulate_cycle`` stands in for a physics-engine data source: it runs the
analytic force model along a trajectory with known soil parameters and
returns the result as observed data, optionally perturbed with seeded
Gaussian noise scaled to the per-series force peak.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .calibration import predict_next_cycle
from .errors import InfeasibleGeometry
from .geometry import CycleDataset, Surface, SlopedLine, quadratic_bezier_path
from .soil import LoaderParameters, SoilParameters


@dataclass(frozen=True)
class Scenario:
    """A surface, a tip path and the sampling scheme for one cycle.

    The path is either three quadratic Bezier control points or an
    explicit trajectory; exactly one of the two must be given.
    """

    surface: Surface
    loader: LoaderParameters
    control_points: tuple[tuple[float, float], ...] | None = None
    samples: np.recarray | None = None
    sample_rate: float = 60.0
    duration: float = 4.67

    def __post_init__(self) -> None:
        if (self.control_points is None) == (self.samples is None):
            raise ValueError("give either control_points or samples")
        if self.control_points is not None \
                and len(self.control_points) != 3:
            raise ValueError("control_points must hold exactly 3 points")
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.samples is None \
                and not 1.0 <= self.sample_rate * self.duration < math.inf:
            raise ValueError("sample_rate * duration must be finite and at "
                             "least 1, for 2 or more samples")

    @property
    def n_samples(self) -> int:
        if self.samples is not None:
            return len(self.samples)
        return int(math.floor(self.sample_rate * self.duration)) + 1

    def trajectory(self, surface: Surface | None = None) -> np.recarray:
        """Sample the tip path; blade angles reference ``surface``
        (defaults to the scenario's own surface)."""
        if self.samples is not None:
            return self.samples
        p0, p1, p2 = self.control_points
        return quadratic_bezier_path(
            p0, p1, p2, self.n_samples, self.duration,
            surface=self.surface if surface is None else surface)


def simulate_cycle(scenario: Scenario, truth: SoilParameters) -> CycleDataset:
    """Noiseless ground-truth cycle from known soil parameters.

    The observed force series are ``predict_next_cycle``'s forces under
    the truth parameters, so they equal the model predictions exactly; the
    surcharge is recomputed per sample from the swept area and the truth
    density. Any infeasible sample aborts with its index, since a ground
    truth must be complete.
    """
    pred = predict_next_cycle(truth, scenario)
    failures = pred.failures
    if failures:
        index, reason = failures[0]
        raise InfeasibleGeometry(
            f"sample {index}: {reason} "
            f"({len(failures)} infeasible samples in total)")
    return CycleDataset(samples=pred.trajectory, f_t_obs=pred.f_t,
                        f_n_obs=pred.f_n, surface=scenario.surface,
                        loader=scenario.loader)


def add_noise(dataset: CycleDataset, relative_sigma: float,
              seed: int) -> CycleDataset:
    """Perturb both force series with zero-mean Gaussian noise.

    The standard deviation is ``relative_sigma`` times the peak absolute
    force of each series, so a 5% setting is comparable across soils.
    Deterministic for a fixed seed.
    """
    if relative_sigma < 0.0:
        raise ValueError("relative_sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    sigma_t = relative_sigma * float(np.max(np.abs(dataset.f_t_obs),
                                            initial=0.0))
    sigma_n = relative_sigma * float(np.max(np.abs(dataset.f_n_obs),
                                            initial=0.0))
    f_t = dataset.f_t_obs + sigma_t * rng.standard_normal(dataset.n)
    f_n = dataset.f_n_obs + sigma_n * rng.standard_normal(dataset.n)
    return replace(dataset, f_t_obs=f_t, f_n_obs=f_n)


# ---------------------------------------------------------------------------
# Soil presets
# ---------------------------------------------------------------------------

Value = float | tuple[float, float] | None


@dataclass(frozen=True)
class SoilPreset:
    """Named literature values or ranges for a subset of soil parameters.

    Sinkage-only presets (pressure-sinkage catalogs) and classification
    presets (density/cohesion/friction by soil class) can be merged to
    form a complete parameter set. All values are base SI.
    """

    name: str
    provenance: str
    gamma: Value = None
    cohesion_c: Value = None
    adhesion_ca: Value = None
    phi: Value = None
    delta: Value = None
    kc: Value = None
    kphi: Value = None
    n: Value = None

    _FIELDS = ("gamma", "cohesion_c", "adhesion_ca", "phi", "delta",
               "kc", "kphi", "n")

    def value(self, field: str) -> float | None:
        """Scalar value of a field; ranges collapse to their midpoint."""
        raw = getattr(self, field)
        if raw is None:
            return None
        if isinstance(raw, tuple):
            return 0.5 * (raw[0] + raw[1])
        return float(raw)

    def merged(self, other: "SoilPreset", name: str | None = None
               ) -> "SoilPreset":
        """This preset with missing fields filled from ``other``."""
        fields = {f: getattr(self, f) if getattr(self, f) is not None
                  else getattr(other, f) for f in self._FIELDS}
        return SoilPreset(name=name or f"{self.name} + {other.name}",
                          provenance=f"{self.provenance}; {other.provenance}",
                          **fields)

    def soil_parameters(self, **overrides: float) -> SoilParameters:
        """Instantiate full parameters (range midpoints, steel-contact
        defaults for delta, adhesion defaulting to cohesion)."""
        values = {f: self.value(f) for f in self._FIELDS}
        values.update(overrides)
        missing = [f for f in ("gamma", "cohesion_c", "phi", "kc", "kphi",
                               "n") if values.get(f) is None]
        if missing:
            raise ValueError(
                f"preset {self.name!r} lacks {missing}; merge with another "
                "preset or pass overrides")
        if values.get("adhesion_ca") is None:
            values["adhesion_ca"] = values["cohesion_c"]
        if values.get("delta") is None:
            values["delta"] = steel_contact_delta(values["phi"])
        return SoilParameters(**values)


def steel_contact_delta(phi: float) -> float:
    """External friction angle for a steel tool: 20 deg, capped at 2/3 phi
    guidance for low-friction soils."""
    return min(math.radians(20.0), 2.0 * phi / 3.0) if phi > 0.0 \
        else math.radians(20.0)


def _load_catalog() -> tuple[SoilPreset, ...]:
    raw = json.loads(resources.files("feecalib").joinpath(
        "data/soil_presets.json").read_text(encoding="utf-8"))
    presets = []
    for row in raw["sinkage_presets"]:
        presets.append(SoilPreset(name=row["name"],
                                  provenance=row["provenance"],
                                  kc=row["kc_N_m_n1"],
                                  kphi=row["kphi_N_m_n2"], n=row["n"]))
    for row in raw["soil_classes"]:
        presets.append(SoilPreset(
            name=row["name"],
            provenance=f"USCS {row['uscs']}; {row['provenance']}",
            gamma=tuple(row["gamma_kg_m3"]),
            cohesion_c=row["cohesion_c_N_m2"],
            phi=math.radians(row["phi_deg"])))
    return tuple(presets)


_PRESETS = _load_catalog()


def preset_catalog() -> tuple[SoilPreset, ...]:
    """Bundled soil presets, loaded from the packaged catalog file."""
    return _PRESETS


def find_preset(name: str) -> SoilPreset:
    """Look up a preset by exact or unique-substring name, case-insensitive."""
    key = name.casefold().strip()
    exact = [p for p in _PRESETS if p.name.casefold() == key]
    if exact:
        return exact[0]
    matches = [p for p in _PRESETS if key in p.name.casefold()]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"no preset matching {name!r}")
    raise KeyError(f"ambiguous preset {name!r}: "
                   f"{[p.name for p in matches]}")


# ---------------------------------------------------------------------------
# Default scenario
# ---------------------------------------------------------------------------

def default_loader() -> LoaderParameters:
    return LoaderParameters(omega=1.2, b=0.05)


def default_truth() -> SoilParameters:
    """Lean-clay pile with a heavy-clay pressure-sinkage response."""
    clay = find_preset("Clay of low plasticity, lean clay")
    sink = find_preset("Heavy Clay WES 40")
    return clay.merged(sink).soil_parameters()


def default_scenario() -> Scenario:
    """A single bucket-loading pass through a 25 degree pile face."""
    surface = SlopedLine(origin=(0.0, 0.0), alpha=math.radians(25.0))
    return Scenario(surface=surface, loader=default_loader(),
                    control_points=((-0.4, 0.05), (0.9, -0.35), (2.2, 1.2)),
                    sample_rate=60.0, duration=4.67)


def heldout_scenario() -> Scenario:
    """A second pass over the same pile with different curvature."""
    surface = SlopedLine(origin=(0.0, 0.0), alpha=math.radians(25.0))
    return Scenario(surface=surface, loader=default_loader(),
                    control_points=((-0.3, 0.08), (1.0, -0.25), (2.0, 1.15)),
                    sample_rate=60.0, duration=4.67)
