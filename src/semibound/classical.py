"""Classical probability distribution from Hamilton's equations.

For a bound orbit at energy E the density of a random-time position
measurement is rho_cl(x) = (2/tau) / |v(x)| between the turning points and
zero outside, where |v(x)| = T'(T^-1(E - V(x))) and tau is the period.
rho_cl diverges (integrably) at the turning points for smooth kinetic laws.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kinetics import BoundStateProblem, Smoothness
from .potentials import TurningPoints, turning_points
from .quadrature import well_integral

#: default number of samples for auto-generated density grids
DEFAULT_GRID_POINTS = 2001
#: margin (fraction of d) added on each side of the classical region
GRID_MARGIN = 0.05


class Provenance(str, enum.Enum):
    CLASSICAL = "classical"
    WKBJ = "wkbj"
    WKBJ_AVERAGED = "wkbj_averaged"
    FGH = "fgh"


@dataclass(frozen=True)
class SampledDensity:
    """Probability density per unit length tabulated on a position grid.

    Samples exactly at a divergent turning point carry the sentinel value
    +inf; writers serialize the sentinel as null. `n` is the quantum number
    when the density belongs to a specific bound state.
    """

    grid: np.ndarray
    values: np.ndarray
    support: Optional[TurningPoints]
    provenance: Provenance
    normalization_domain: tuple
    n: Optional[int] = None

    def integral(self) -> float:
        """Trapezoid integral of the finite samples over the normalization domain.

        Exact only away from singular endpoints, so the producers of rho_cl and
        rho_WKBJ normalize by quadrature instead; `compare` renormalizes with it.
        """
        lo, hi = self.normalization_domain
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


def well_layout(problem: BoundStateProblem) -> dict:
    """Keyword layout of `well_integral` over this problem's classical region.

    The region is split at the potential minimum; for smooth kinetic laws
    both turning points are sqrt-substituted.
    """
    smooth = problem.kinetic.smoothness is Smoothness.SMOOTH
    return dict(splits=(problem.potential.minimum_location,),
                sqrt_left=smooth, sqrt_right=smooth)


def period(problem: BoundStateProblem, E: float,
           tps: Optional[TurningPoints] = None) -> float:
    """Orbit period tau = 2 * integral dx / |v(x)| over the classical region."""
    tps = tps or turning_points(problem, E)
    speed = speed_field(problem, E)
    return 2.0 * well_integral(lambda x: 1.0 / speed(x), tps.a, tps.b,
                               **well_layout(problem))


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

    values = np.zeros_like(grid)
    inside = (grid >= tps.a) & (grid <= tps.b)
    v = speed(grid[inside])
    with np.errstate(divide="ignore"):
        values[inside] = (2.0 / tau) / v
    return SampledDensity(
        grid=grid,
        values=values,
        support=tps,
        provenance=Provenance.CLASSICAL,
        normalization_domain=(tps.a, tps.b),
    )
