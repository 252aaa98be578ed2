"""Generalized WKBJ machinery for arbitrary admissible kinetic laws.

The action A(E) = integral of t^-1(E_B - V(x)) between the turning points is
strictly increasing in E, with slope dA/dE = tau/2 (the classical half-period);
bound-state energies solve A(E_n) = pi*hbar*(n+1/2).
Inside the well the semiclassical wavefunction is

    psi(x) = D * sin(Phi(x)/hbar + pi/4) / sqrt(T'(T^-1(E - V(x)))),

with Phi(x) the partial action integral from x to the right turning point and
the Langer phase pi/4 fixed by the small-momentum reduction to an effective
Schroedinger problem near the turning points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy.interpolate import CubicSpline

from .classical import (Provenance, SampledDensity, classical_density, default_grid,
                        momentum_field, speed_field, well_layout)
from .errors import DegenerateAlpha, EnergyCeilingExceeded, NoClassicalRegion, NotConfining
from .kinetics import BoundStateProblem
from .potentials import TurningPoints, binding_energy, turning_points
from .quadrature import well_integral, well_integral_pair

#: Langer connection phase at a linear turning point
LANGER_PHASE = np.pi / 4.0
#: fraction of d within which a grid sample counts as sitting on a turning point
TP_EXCLUSION = 1e-9
#: samples per side for the cumulative phase spline
PHASE_SAMPLES = 2049
#: quantization stops once |A - target| <= RESOLUTION_ULPS * ulp(E) * dA/dE
RESOLUTION_ULPS = 4


@dataclass(frozen=True)
class WkbjState:
    """One quantized level: energy, turning points and diagnostics."""

    n: int
    energy: float
    turning_points: TurningPoints
    alpha: float
    action_residual: float


def action_integral(problem: BoundStateProblem, E: float,
                    tps: Optional[TurningPoints] = None, *,
                    with_slope: bool = False):
    """A(E) = integral of T^-1(E - V(x)) over the classical region.

    with_slope=True returns (A, dA/dE) from one pass: the slope is the
    half-period integral of 1/|v(x)| = tau/2, taken on the coarsest rule of
    A's own nodes. It is an estimate for root finding, not a period.
    """
    tps = tps or turning_points(problem, E)
    momentum = momentum_field(problem, E)
    layout = well_layout(problem)
    if not with_slope:
        return well_integral(momentum, tps.a, tps.b, **layout)
    speed = speed_field(problem, E)

    def inverse_speed(x):
        with np.errstate(divide="ignore"):
            return 1.0 / speed(x)

    return well_integral_pair(momentum, inverse_speed, tps.a, tps.b, **layout)


def semiclassical_alpha(problem: BoundStateProblem, state: "WkbjState",
                        e_star: Union[float, str] = "auto") -> float:
    """alpha = hbar / (t^-1(E*) * d); auto picks E* = E_B - min V."""
    e_b = binding_energy(problem, state.energy)
    return _alpha(problem, state.turning_points, e_b, e_star)


def _alpha(problem: BoundStateProblem, tps: TurningPoints, e_b: float,
           e_star: Union[float, str] = "auto") -> float:
    if e_star == "auto":
        e_star = e_b - problem.potential.minimum_value
    if not e_star > 0:
        raise DegenerateAlpha(f"E* = {e_star} not positive")
    law = problem.kinetic
    p_star = float(law.inverse(e_star + law.rest_energy))
    if p_star == 0.0:
        raise DegenerateAlpha(f"t^-1(E*) = 0 at E* = {e_star}")
    return problem.hbar / (p_star * tps.d)


class _Probe(NamedTuple):
    """A(E) and dA/dE at one energy, with the turning points they used."""

    energy: float
    tps: TurningPoints
    action: float
    slope: float

    @property
    def slope_usable(self) -> bool:
        return 0.0 < self.slope < math.inf


def _probe(problem: BoundStateProblem, E: float) -> _Probe:
    tps = turning_points(problem, E)
    return _Probe(E, tps, *action_integral(problem, E, tps, with_slope=True))


def _newton_energy(e_lo: float, point: _Probe, target: float) -> Optional[float]:
    """Newton step for log A against log(E - e_lo); None when the slope is unusable.

    In these variables A = c * (E - e_lo)^k is solved in one step, and the
    step equals the plain Newton step (target - A) / (dA/dE) near the root.
    """
    if not (point.action > 0.0 and point.slope_usable):
        return None
    s = point.energy - e_lo
    k = s * point.slope / point.action
    du = math.log(target / point.action) / k
    # exp overflows past ~709; any step that long leaves the bracket anyway
    return e_lo + s * math.exp(min(du, 700.0))


def quantize(problem: BoundStateProblem, n: int,
             energy_ceiling: Optional[float] = None) -> WkbjState:
    """Solve A(E_n) = pi*hbar*(n + 1/2) by safeguarded Newton with dA/dE = tau/2.

    A(E) is strictly increasing for confining wells, so the root is unique.
    The bracket starts at the well bottom e_lo, where A = 0 exactly and is
    never evaluated, and its top grows geometrically until A reaches the
    target; exceeding `energy_ceiling` (default 1e12 above the well bottom)
    or losing the turning points signals a non-confining configuration.
    Inside the bracket each step is Newton on log A against log(E - e_lo),
    replaced by bisection when it leaves the bracket, fails to halve the
    step before last, or meets a slope that is not finite and positive. The
    iteration stops once |A - target| <= RESOLUTION_ULPS * ulp(E) * dA/dE,
    which is as finely as A resolves at E, or when the bracket or the step
    shrinks below one ulp; the best iterate is returned.
    """
    if n < 0:
        raise ValueError(f"quantum number must be >= 0, got {n}")
    target = np.pi * problem.hbar * (n + 0.5)
    law, pot = problem.kinetic, problem.potential
    e_lo = pot.minimum_value + law.rest_energy
    if energy_ceiling is None:
        energy_ceiling = e_lo + 1e12 * max(1.0, abs(e_lo))

    lo, gap = e_lo, max(1.0, abs(e_lo))
    while True:
        try:
            point = _probe(problem, e_lo + gap)
        except (NoClassicalRegion, NotConfining) as exc:
            raise EnergyCeilingExceeded(
                f"no classical region at probe energy {e_lo + gap}: {exc}") from exc
        if point.action >= target:
            break
        lo = point.energy
        gap *= 2.0
        if e_lo + gap > energy_ceiling:
            raise EnergyCeilingExceeded(
                f"A(E) below pi*hbar*(n+1/2) = {target} up to E = {e_lo + gap}")
    hi = point.energy

    best = point
    last_step = step_before_last = math.inf
    while True:
        residual = point.action - target
        if (point.slope_usable
                and abs(residual) <= RESOLUTION_ULPS * np.spacing(point.energy) * point.slope):
            break
        if residual > 0.0:
            hi = point.energy
        else:
            lo = point.energy
        if hi - lo <= 2.0 * np.spacing(hi):
            break
        e_new = _newton_energy(e_lo, point, target)
        if (e_new is None or not lo < e_new < hi
                or abs(e_new - point.energy) > 0.5 * step_before_last):
            e_new = 0.5 * (lo + hi)
        if e_new == point.energy:
            break
        step_before_last, last_step = last_step, abs(e_new - point.energy)
        point = _probe(problem, e_new)
        if abs(point.action - target) < abs(best.action - target):
            best = point

    tps = best.tps
    alpha = _alpha(problem, tps, binding_energy(problem, best.energy))
    return WkbjState(n=n, energy=float(best.energy), turning_points=tps,
                     alpha=alpha, action_residual=float(abs(best.action - target)))


def _half_well_phase(momentum: Callable, tp: float, x0: float, sqrt: bool) -> Callable:
    """x -> integral of p between the turning point tp and x, for x on tp's side of x0.

    Accumulated by a cubic spline in u = |x - tp|^(1/k) with k = 2 where the
    layout sqrt-substitutes tp (p vanishes like sqrt there and the integrand
    k*u^(k-1)*p is smooth in u) and k = 1 otherwise.
    """
    k, to_u = (2, np.sqrt) if sqrt else (1, np.asarray)
    inward = 1.0 if x0 > tp else -1.0
    u = np.linspace(0.0, to_u(abs(x0 - tp)), PHASE_SAMPLES)
    h = CubicSpline(u, k * u ** (k - 1) * momentum(tp + inward * u ** k)).antiderivative()
    return lambda x: h(to_u(np.maximum(inward * (x - tp), 0.0)))


def _phase_spline(problem: BoundStateProblem, E: float, tps: TurningPoints) -> Callable:
    """Phi(x) = integral from x to b of T^-1(E - V(y)) dy, cubically interpolated.

    The well is cut at the `well_layout` split; each half is accumulated
    from its own turning point and the two are stitched at the split.
    """
    momentum, layout = momentum_field(problem, E), well_layout(problem)
    a, b = tps.a, tps.b
    x0 = min(max(layout["splits"][0], a + 1e-12 * tps.d), b - 1e-12 * tps.d)
    right = _half_well_phase(momentum, b, x0, layout["sqrt_right"])
    left = _half_well_phase(momentum, a, x0, layout["sqrt_left"])
    total = float(right(x0)) + float(left(x0))

    def phi(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        on_right = x >= x0
        out[on_right] = right(x[on_right])
        out[~on_right] = total - left(x[~on_right])
        return out

    return phi


def wavefunction_values(problem: BoundStateProblem, state: WkbjState,
                        grid: np.ndarray) -> np.ndarray:
    """Normalized WKBJ wavefunction sampled on `grid` (0 outside the well)."""
    tps = state.turning_points
    E = state.energy
    phi = _phase_spline(problem, E, tps)
    speed = speed_field(problem, E)
    hbar = problem.hbar

    def raw_psi(x):
        with np.errstate(divide="ignore"):
            return np.sin(phi(x) / hbar + LANGER_PHASE) / np.sqrt(speed(x))

    layout = well_layout(problem)
    norm = well_integral(lambda x: raw_psi(x) ** 2, tps.a, tps.b, **layout)
    D = 1.0 / np.sqrt(norm)

    grid = np.asarray(grid, dtype=float)
    psi = np.zeros_like(grid)
    inside = (grid >= tps.a) & (grid <= tps.b)
    psi[inside] = D * raw_psi(grid[inside])
    # psi diverges at a turning point exactly where the layout sqrt-substitutes it
    for tp, divergent in ((tps.a, layout["sqrt_left"]), (tps.b, layout["sqrt_right"])):
        if divergent:
            psi[inside & (np.abs(grid - tp) < TP_EXCLUSION * tps.d)] = np.inf
    return psi


def wkbj_wavefunction(problem: BoundStateProblem, state: WkbjState,
                      grid: Optional[np.ndarray] = None) -> SampledDensity:
    """rho_WKBJ = psi^2, normalized to 1 on (a, b); +inf sentinel at the TPs."""
    tps = state.turning_points
    if grid is None:
        grid = default_grid(tps)
    psi = wavefunction_values(problem, state, grid)
    return SampledDensity(
        grid=np.asarray(grid, dtype=float),
        values=psi * psi,
        support=tps,
        provenance=Provenance.WKBJ,
        normalization_domain=(tps.a, tps.b),
        n=state.n,
    )


def wkbj_averaged_density(problem: BoundStateProblem, state: WkbjState,
                          grid: Optional[np.ndarray] = None) -> SampledDensity:
    """sin^2 replaced by its mean 1/2: rho = const / T'(T^-1(E - V(x))) on (a, b).

    After the mandated renormalization the constant is 1 over the integral of
    1/|v|, which makes the curve the classical distribution at the same
    energy (acceptance criterion 6); it is computed as such and relabelled.
    """
    rho = classical_density(problem, state.energy, grid, state.turning_points)
    return replace(rho, provenance=Provenance.WKBJ_AVERAGED, n=state.n)
