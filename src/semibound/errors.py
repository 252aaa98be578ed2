"""Exception hierarchy shared across the package."""


class SemiboundError(Exception):
    """Base class for all solver errors."""


class NoEffectiveMass(SemiboundError):
    """Kinetic law has no usable second derivative at p=0."""


class NoClassicalRegion(SemiboundError):
    """Binding energy at or below the potential minimum: no classically allowed region."""


class NotConfining(SemiboundError):
    """No turning point on one side of the minimum: the well does not confine at this energy."""


class MultiWellUnsupported(SemiboundError):
    """More than two turning points detected; only single wells are supported."""


class OutsideClassicalRegion(SemiboundError):
    """Position query outside the turning points."""


class EnergyCeilingExceeded(SemiboundError):
    """Quantization bracket search exceeded the configured energy ceiling."""


class QuadratureNotConverged(SemiboundError):
    """An integral did not reach its tolerance within the quadrature node budget."""


class DegenerateAlpha(SemiboundError):
    """Semiclassical parameter undefined: inverse kinetic momentum is zero."""


class OddGridRequired(SemiboundError):
    """Fourier grid needs an odd number of points for a symmetric momentum set."""


class EigensolverFailure(SemiboundError):
    """Dense symmetric eigensolver did not converge."""


class StateRangeMismatch(SemiboundError):
    """Spectra to compare do not cover the same quantum numbers."""


class WindowTooWide(SemiboundError):
    """Averaging window exceeds the density support."""


class GridMismatch(SemiboundError):
    """Densities to compare are not tabulated on the same grid."""


class ConfigError(SemiboundError):
    """Run configuration failed to parse or validate."""
