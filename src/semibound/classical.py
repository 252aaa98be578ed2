"""Classical probability distribution from Hamilton's equations.

For a bound orbit at energy E the density of a random-time position
measurement is rho_cl(x) = (2/tau) / |v(x)| between the turning points and
zero outside, where |v(x)| = T'(T^-1(E - V(x))) and tau is the period.
rho_cl diverges (integrably) at the turning points for smooth kinetic laws.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .kinetics import BoundStateProblem, Smoothness
from .potentials import TurningPoints, turning_points
from .quadrature import well_integral

#: default number of samples for auto-generated density grids
DEFAULT_GRID_POINTS = 2001
#: margin (fraction of d) added on each side of the classical region
GRID_MARGIN = 0.05
#: fraction of d within which a grid sample counts as sitting on a turning point;
#: no field is evaluated nearer a turning point than this
TP_EXCLUSION = 1e-9


class Provenance(str, enum.Enum):
    """The route a density came from; its value is the density table's column name."""

    CLASSICAL = "rho_cl"
    WKBJ = "rho_wkbj"
    FGH = "rho_fgh"


@dataclass(frozen=True)
class SampledDensity:
    """Probability density per unit length tabulated on a position grid.

    Samples within TP_EXCLUSION * d of a divergent (sqrt-substituted)
    turning point carry the sentinel value +inf; writers serialize the
    sentinel as null. Near any other turning point a sample holds the
    density's finite limit there (see `sample_on_well`). `n` is the quantum
    number when the density belongs to a specific bound state.
    """

    grid: np.ndarray
    values: np.ndarray
    support: Optional[TurningPoints]
    provenance: Provenance
    n: Optional[int] = None

    def integral(self) -> float:
        """Trapezoid integral of the finite samples over the support, or the whole grid.

        The domain is (support.a, support.b), or the grid ends when `support`
        is None. Exact only away from singular endpoints, so the producers of
        rho_cl and rho_WKBJ normalize by quadrature instead; `compare`
        renormalizes with it.
        """
        lo, hi = ((self.support.a, self.support.b) if self.support is not None
                  else (self.grid[0], self.grid[-1]))
        mask = (self.grid >= lo) & (self.grid <= hi) & np.isfinite(self.values)
        return float(np.trapezoid(self.values[mask], self.grid[mask]))


def default_grid(tps: TurningPoints, n_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    return np.linspace(tps.a - GRID_MARGIN * tps.d, tps.b + GRID_MARGIN * tps.d, n_points)


def momentum_field(problem: BoundStateProblem, E: float) -> callable:
    """p(x) = T^-1(E - V(x)), clamped to p = 0 outside the classical region (vectorized)."""
    law, V = problem.kinetic, problem.potential.eval

    def momentum(x):
        y = np.maximum(np.asarray(E - V(x), dtype=float), law.rest_energy)
        return np.asarray(law.inverse(y), dtype=float)

    return momentum


def speed_field(problem: BoundStateProblem, E: float) -> callable:
    """|v(x)| = T'(p(x)) for x inside the classical region (vectorized)."""
    deriv, momentum = problem.kinetic.deriv, momentum_field(problem, E)

    def speed(x):
        return np.abs(np.asarray(deriv(momentum(x)), dtype=float))

    return speed


def well_layout(problem: BoundStateProblem) -> Tuple[float, bool]:
    """(split, sqrt_ends) of `well_integral` over this problem's classical region.

    The region is split at the potential minimum; for smooth kinetic laws
    both turning points are sqrt-substituted.
    """
    return problem.potential.minimum_location, problem.kinetic.smoothness is Smoothness.SMOOTH


def sample_on_well(problem: BoundStateProblem, tps: TurningPoints, grid: np.ndarray,
                   field: Callable) -> np.ndarray:
    """field on the grid in [a, b], 0 outside; never evaluated at a turning point.

    Each sample is evaluated clipped to [a + TP_EXCLUSION * d, b - TP_EXCLUSION * d],
    where p > 0, so a sample nearer a turning point takes the field's limit
    there (the flat 1/d of the massless law's rho_cl). Where `well_layout`
    substitutes the turning point the field diverges instead, and such a
    sample is the +inf sentinel.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.zeros_like(grid)
    inside = (grid >= tps.a) & (grid <= tps.b)
    margin = TP_EXCLUSION * tps.d
    values[inside] = field(np.clip(grid[inside], tps.a + margin, tps.b - margin))
    if well_layout(problem)[1]:
        for tp in (tps.a, tps.b):
            values[inside & (np.abs(grid - tp) < margin)] = np.inf
    return values


def period(problem: BoundStateProblem, E: float,
           tps: Optional[TurningPoints] = None) -> float:
    """Orbit period tau = 2 * integral dx / |v(x)| over the classical region."""
    tps = tps or turning_points(problem, E)
    speed = speed_field(problem, E)
    return 2.0 * well_integral(lambda x: 1.0 / speed(x), tps.a, tps.b,
                               *well_layout(problem))


def classical_density(problem: BoundStateProblem, E: float,
                      grid: Optional[np.ndarray] = None,
                      tps: Optional[TurningPoints] = None,
                      tau: Optional[float] = None) -> SampledDensity:
    """rho_cl on a grid: (2/tau)/|v| inside (a, b), 0 outside, +inf at the TPs.

    `tau` is the period at E when the caller already has it.
    """
    tps = tps or turning_points(problem, E)
    if grid is None:
        grid = default_grid(tps)
    grid = np.asarray(grid, dtype=float)
    if tau is None:
        tau = period(problem, E, tps)
    speed = speed_field(problem, E)
    return SampledDensity(
        grid=grid,
        values=sample_on_well(problem, tps, grid, lambda x: (2.0 / tau) / speed(x)),
        support=tps,
        provenance=Provenance.CLASSICAL,
    )
