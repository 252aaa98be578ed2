"""Generalized WKBJ machinery for arbitrary admissible kinetic laws.

The action A(E) = integral of t^-1(E_B - V(x)) between the turning points is
strictly increasing in E, with slope dA/dE = tau/2 (the classical half-period);
bound-state energies solve A(E_n) = pi*hbar*(n+1/2).
Inside the well the semiclassical wavefunction is

    psi(x) = D * sin(Phi(x)/hbar + pi/4) / sqrt(T'(T^-1(E - V(x)))),

with Phi(x) the partial action integral from x to the right turning point and
the Langer phase pi/4 fixed by the small-momentum reduction to an effective
Schroedinger problem near the turning points. Phi is the running well
integral of the momentum (`quadrature.cumulative_well_integral`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, NamedTuple, Optional, Union

import numpy as np

from .classical import (Provenance, SampledDensity, default_grid, momentum_field, sample_on_well,
                        speed_field, well_layout)
from .errors import DegenerateAlpha, EnergyCeilingExceeded, NoClassicalRegion, NotConfining
from .kinetics import BoundStateProblem
from .potentials import TurningPoints, binding_energy, turning_points
from .quadrature import cumulative_well_integral, well_integral, well_integrals

#: Langer connection phase at a linear turning point
LANGER_PHASE = np.pi / 4.0
#: quantization stops once |A - target| <= RESOLUTION_ULPS * ulp(E) * dA/dE
RESOLUTION_ULPS = 4
#: quantize gives up this far above the well bottom e_lo, in units of max(1, |e_lo|)
ENERGY_CEILING = 1e12


@dataclass(frozen=True)
class WkbjState:
    """One quantized level: energy, turning points and diagnostics."""

    n: int
    energy: float
    turning_points: TurningPoints
    alpha: float
    action_residual: float


def action_integral(problem: BoundStateProblem, E: Union[float, np.ndarray],
                    tps: Optional[TurningPoints] = None) -> tuple:
    """(A, dA/dE) from one pass, A(E) = integral of T^-1(E - V(x)) over the classical region.

    E is one energy, or a 1-D array of energies whose turning points tps
    then lists in order; A and dA/dE are then arrays. All energies share one
    `quadrature.well_integrals` pass. The slope is the half-period integral
    of 1/|v(x)| = tau/2, taken on the coarsest rule from the momentum at
    A's own nodes. It is an estimate for root finding, not a period.
    """
    energies = np.atleast_1d(np.asarray(E, dtype=float))
    if tps is None:
        tps = [turning_points(problem, e) for e in energies]
    elif np.ndim(E) == 0:
        tps = [tps]
    deriv = problem.kinetic.deriv
    # every node of the coarse rule is interior, where the speed is positive
    action, slope = well_integrals(
        lambda x, k: momentum_field(problem, energies[k])(x),
        [t.a for t in tps], [t.b for t in tps], *well_layout(problem),
        coarse=lambda p: 1.0 / np.abs(np.asarray(deriv(p), dtype=float)))
    return (float(action[0]), float(slope[0])) if np.ndim(E) == 0 else (action, slope)


def _alpha(problem: BoundStateProblem, tps: TurningPoints, e_b: float) -> float:
    """alpha = hbar / (t^-1(E*) * d) with E* = E_B - min V."""
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


def _probes(problem: BoundStateProblem, energies) -> dict:
    """energy -> its _Probe, or the error its evaluation raised; one A(E) pass for all.

    When that pass raises, each energy is evaluated alone, so that an error
    stays with the energy that raised it. Every error is caught: `quantize`
    throws it into each level that asked for that energy.
    """
    out, tps = {}, {}
    for E in energies:
        try:
            tps[E] = turning_points(problem, E)
        except Exception as exc:
            out[E] = exc

    def evaluate(batch):
        actions, slopes = action_integral(problem, np.array(batch), [tps[E] for E in batch])
        out.update((E, _Probe(E, tps[E], float(A), float(s)))
                   for E, A, s in zip(batch, actions, slopes))

    try:
        if tps:
            evaluate(list(tps))
    except Exception:
        for E in tps:
            try:
                evaluate([E])
            except Exception as exc:
                out[E] = exc
    return out


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


def _level(problem: BoundStateProblem, n: int) -> Generator[float, _Probe, WkbjState]:
    """Quantize level n as a generator that yields each energy it probes.

    It is sent that energy's _Probe, or has the error of its evaluation
    thrown in, and returns the level's WkbjState (see `quantize`).
    """
    if n < 0:
        raise ValueError(f"quantum number must be >= 0, got {n}")
    target = np.pi * problem.hbar * (n + 0.5)
    law, pot = problem.kinetic, problem.potential
    e_lo = pot.minimum_value + law.rest_energy
    ceiling = e_lo + ENERGY_CEILING * max(1.0, abs(e_lo))

    lo, gap = e_lo, max(1.0, abs(e_lo))
    while True:
        try:
            point = yield e_lo + gap
        except (NoClassicalRegion, NotConfining) as exc:
            raise EnergyCeilingExceeded(
                f"no classical region at probe energy {e_lo + gap}: {exc}") from exc
        if point.action >= target:
            break
        lo = point.energy
        gap *= 2.0
        if e_lo + gap > ceiling:
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
        point = yield e_new
        if abs(point.action - target) < abs(best.action - target):
            best = point

    tps = best.tps
    alpha = _alpha(problem, tps, binding_energy(problem, best.energy))
    return WkbjState(n=n, energy=float(best.energy), turning_points=tps,
                     alpha=alpha, action_residual=float(abs(best.action - target)))


def quantize(problem: BoundStateProblem,
             n: Union[int, Iterable[int]]) -> Union[WkbjState, tuple]:
    """Solve A(E_n) = pi*hbar*(n + 1/2) by safeguarded Newton with dA/dE = tau/2.

    n is one level, or an iterable of levels whose states are returned as a
    tuple in its order. A(E) is strictly increasing for confining wells, so
    the root is unique. The bracket starts at the well bottom e_lo, where
    A = 0 exactly and is never evaluated, and its top grows geometrically
    until A reaches the target; exceeding ENERGY_CEILING * max(1, |e_lo|)
    above the well bottom or losing the turning points signals a
    non-confining configuration. Inside the bracket each step is Newton on
    log A against log(E - e_lo), replaced by bisection when it leaves the
    bracket, fails to halve the step before last, or meets a slope that is
    not finite and positive. The iteration stops once
    |A - target| <= RESOLUTION_ULPS * ulp(E) * dA/dE, which is as finely as
    A resolves at E, or when the bracket or the step shrinks below one ulp;
    the best iterate is returned.

    The levels move in lock-step: each takes the energies it would take
    alone, and each round evaluates A(E) at the next energy of every level
    in one `_probes` call, once for levels that ask for the same energy.
    Many levels raise what quantizing them one by one in ascending n
    raises: the error of the lowest failing level. Levels above it stop.
    """
    ns = list(n) if np.iterable(n) else [n]
    runs = [_level(problem, level) for level in ns]
    states, failed = [None] * len(ns), {}
    replies = dict.fromkeys(range(len(ns)))  # level i -> what it is sent next
    while replies:
        asks = {}
        for i, reply in replies.items():
            try:
                asks[i] = (runs[i].throw(reply) if isinstance(reply, Exception)
                           else runs[i].send(reply))
            except StopIteration as done:
                states[i] = done.value
            except Exception as exc:
                failed[i] = exc
        if failed:
            lowest = min(ns[i] for i in failed)
            asks = {i: E for i, E in asks.items() if ns[i] < lowest}
        probes = _probes(problem, sorted(set(asks.values())))
        replies = {i: probes[E] for i, E in asks.items()}
    if failed:
        raise failed[min(failed, key=lambda i: ns[i])]
    return tuple(states) if np.iterable(n) else states[0]


def _phase(problem: BoundStateProblem, E: float, tps: TurningPoints) -> Callable:
    """Phi(x) = integral from x to b of T^-1(E - V(y)) dy, on the `well_layout`."""
    return cumulative_well_integral(momentum_field(problem, E), tps.a, tps.b,
                                    *well_layout(problem))


def wavefunction_values(problem: BoundStateProblem, state: WkbjState,
                        grid: np.ndarray) -> np.ndarray:
    """Normalized WKBJ wavefunction sampled on `grid` (0 outside the well)."""
    tps, E, hbar = state.turning_points, state.energy, problem.hbar
    phi, speed = _phase(problem, E, tps), speed_field(problem, E)

    def raw_psi(x):
        return np.sin(phi(x) / hbar + LANGER_PHASE) / np.sqrt(speed(x))

    norm = well_integral(lambda x: raw_psi(x) ** 2, tps.a, tps.b, *well_layout(problem))
    D = 1.0 / np.sqrt(norm)
    return sample_on_well(problem, tps, grid, lambda x: D * raw_psi(x))


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
        n=state.n,
    )

