"""Exception types shared across the package."""


class FeeCalibError(Exception):
    """Base class for all library-specific failures."""


class SingularGeometry(FeeCalibError):
    """A trigonometric denominator fell below its stability margin."""


class InfeasibleGeometry(FeeCalibError):
    """Wedge geometry violates a hard angular or depth precondition."""


class DegenerateRegion(FeeCalibError):
    """Swept-area region is self-intersecting or otherwise ill-formed."""


class NonMonotonePath(FeeCalibError):
    """Trajectory doubles back in x beyond tolerance."""


class NonFiniteObjective(FeeCalibError):
    """Objective returned NaN/Inf and the solver could not recover."""


class EmptySeries(FeeCalibError):
    """A metric was requested on an empty series."""


class DegenerateDepths(FeeCalibError):
    """Every sample of the cycle has zero penetration depth."""


class SolverFailure(FeeCalibError):
    """A fit or prediction could not produce a finite result."""


class ConfigError(FeeCalibError):
    """Invalid run configuration or input file."""
