"""Excavation force prediction and soil parameter calibration.

Predicts resistive forces on a wheel-loader bucket with the fundamental
earthmoving equation plus a pressure-sinkage compaction term, and
calibrates the eight governing soil parameters from one loading cycle's
force data via bound-constrained nonlinear least squares (single-stage
baseline or the faster staged pipeline).
"""

from .calibration import (CalibrationOptions, CalibrationReport,
                          PreparedCycle, StageResult, calibrate_multi_stage,
                          calibrate_single_stage, calibrate_stage1,
                          calibrate_stage2, calibrate_stage3,
                          predict_next_cycle, prepare_cycle, resultant, rmse)
from .errors import (ConfigError, DegenerateDepths, DegenerateRegion,
                     EmptySeries, FeeCalibError, InfeasibleGeometry,
                     NonFiniteObjective, NonMonotonePath, SingularGeometry,
                     SolverFailure)
from .geometry import (CycleDataset, Polyline, SlopedLine, Surface,
                       make_trajectory, quadratic_bezier_path,
                       surface_after_cycle, swept_area_profile,
                       wedge_geometry)
from .optimizer import (SolveResult, SolverOptions,
                        finite_difference_gradient, minimize_bounded,
                        multi_start)
from .soil import (ALPHA_MAX, ANGLE_MARGIN, EPS1, EPS2, GRAVITY, PARAM_NAMES,
                   RHO_MIN, SIN_MARGIN, CycleForceArrays, LoaderParameters,
                   ParameterBounds, SoilParameters, bearing_factors,
                   predict_force_arrays)
from .synthetic import (Scenario, SoilPreset, add_noise, default_loader,
                        default_scenario, default_truth, find_preset,
                        heldout_scenario, preset_catalog, simulate_cycle)

__version__ = "0.1.0"
