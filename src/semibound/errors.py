"""Exception hierarchy shared across the package."""


class SemiboundError(Exception):
    """Base class for all solver errors; `exit_code` is the CLI's exit status for each."""

    exit_code = 1


class NoEffectiveMass(SemiboundError):
    """Kinetic law has no usable second derivative at p=0."""


class NoClassicalRegion(SemiboundError):
    """Binding energy at or below the potential minimum: no classically allowed region."""


class NotConfining(SemiboundError):
    """No turning point on one side of the minimum: the well does not confine at this energy."""


class MultiWellUnsupported(SemiboundError):
    """More than two turning points detected; only single wells are supported."""


class EnergyCeilingExceeded(SemiboundError):
    """Quantization bracket lost the classical region, or passed `wkbj.ENERGY_CEILING`."""


class QuadratureNotConverged(SemiboundError):
    """An integral did not reach its tolerance within the quadrature node budget."""


class DegenerateAlpha(SemiboundError):
    """Semiclassical parameter undefined: inverse kinetic momentum is zero."""


class EigensolverFailure(SemiboundError):
    """Dense symmetric eigensolver did not converge, or its Hamiltonian is not finite."""


class StateRangeMismatch(SemiboundError):
    """Spectra to compare do not cover the same quantum numbers."""


class GridMismatch(SemiboundError):
    """Densities to compare are not tabulated on the same grid."""


class ConfigError(SemiboundError):
    """Run configuration failed to parse or validate."""

    exit_code = 2


class InadmissibleLaw(SemiboundError):
    """Kinetic law cannot be built or fails the admissibility checks (conditions A-D)."""

    exit_code = 3


class OddGridRequired(ConfigError, ValueError):
    """Fourier grid needs an odd number of points for a symmetric momentum set."""


class GridTooSmall(ConfigError, ValueError):
    """FGH grid has fewer than 2 * n_states + 1 points."""


class NoStatesRequested(ConfigError, ValueError):
    """FGH configuration asks for fewer than one state."""


class GridTooCoarse(ConfigError):
    """A density grid has fewer than two samples inside the region a distance is measured over."""
