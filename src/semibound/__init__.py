"""Bound-state spectra and probability densities for one-dimensional
Hamiltonians H = T(p) + V(x) with arbitrary admissible kinetic laws.

Three independent routes are provided and can be compared quantitatively:

* classical: random-time measurement density (2/tau)/|v(x)|,
* wkbj: generalized semiclassical quantization and wavefunctions,
* fgh: exact-numerical Fourier grid Hamiltonian diagonalization.
"""

from .classical import (
    Provenance,
    SampledDensity,
    classical_density,
    period,
)
from .compare import (
    ComparisonReport,
    DensityMetrics,
    StateComparison,
    build_report,
    compare_spectra,
    debroglie_average,
    density_distance,
    export,
)
from .errors import (
    ConfigError,
    DegenerateAlpha,
    EigensolverFailure,
    EnergyCeilingExceeded,
    GridMismatch,
    GridTooCoarse,
    GridTooSmall,
    InadmissibleLaw,
    MultiWellUnsupported,
    NoClassicalRegion,
    NoStatesRequested,
    NotConfining,
    OddGridRequired,
    QuadratureNotConverged,
    SemiboundError,
    StateRangeMismatch,
)
from .fgh import (
    FghConfig,
    FghState,
    Spectrum,
    auto_box,
    build_hamiltonian,
    fgh_density,
    solve,
)
from .kinetics import (
    BoundStateProblem,
    KineticLaw,
    Smoothness,
    ValidationReport,
    massless,
    nonrelativistic,
    reduced_kinetic,
    relativistic,
    validate_admissibility,
)
from .potentials import (
    LocalForm,
    PotentialLaw,
    TurningPoints,
    binding_energy,
    harmonic,
    linear,
    power,
    turning_points,
)
from .wkbj import (
    WkbjState,
    action_integral,
    quantize,
    wkbj_wavefunction,
)

__version__ = "0.1.0"
