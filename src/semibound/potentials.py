"""Potential wells and the turning-point solver.

Turning points a < b at energy E are the two solutions of V(x) = E_B where
E_B = E - T(0) is the binding energy. Only single wells (exactly two turning
points) are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import MultiWellUnsupported, NoClassicalRegion, NotConfining, SemiboundError

if TYPE_CHECKING:
    from .kinetics import BoundStateProblem

#: half-width of the interval around 0 searched for the minimum of an opaque V(x)
SEARCH_WIDTH = 100.0


@dataclass(frozen=True)
class PotentialLaw:
    """Singularity-free confining potential V(x)."""

    name: str
    eval: Callable
    minimum_location: float
    minimum_value: float
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TurningPoints:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"turning points out of order: a={self.a}, b={self.b}")

    @property
    def d(self) -> float:
        return self.b - self.a


def linear(lam: float) -> PotentialLaw:
    """V(x) = lam * |x|."""
    if not 0 < lam < np.inf:
        raise ValueError(f"slope must be positive and finite, got {lam}")
    return PotentialLaw(
        name="linear",
        eval=lambda x: lam * np.abs(np.asarray(x, dtype=float)),
        minimum_location=0.0,
        minimum_value=0.0,
        params={"lambda": lam},
    )


def harmonic(mass: float = 1.0, omega: float = 1.0) -> PotentialLaw:
    """V(x) = (1/2) * mass * omega^2 * x^2."""
    if not (0 < mass < np.inf and 0 < omega < np.inf):
        raise ValueError(f"mass and omega must be positive and finite, got {mass}, {omega}")
    return PotentialLaw(
        name="harmonic",
        eval=lambda x: 0.5 * mass * omega**2 * np.asarray(x, dtype=float) ** 2,
        minimum_location=0.0,
        minimum_value=0.0,
        params={"mass": mass, "omega": omega},
    )


def power(c: float, q: float) -> PotentialLaw:
    """V(x) = c * |x|^q with q >= 1."""
    if not (0 < c < np.inf and 1 <= q < np.inf):
        raise ValueError(f"need finite c > 0 and q >= 1, got c={c}, q={q}")
    return PotentialLaw(
        name="power",
        eval=lambda x: c * np.abs(np.asarray(x, dtype=float)) ** q,
        minimum_location=0.0,
        minimum_value=0.0,
        params={"c": c, "q": q},
    )


def from_callable(
    name: str,
    eval: Callable,
    minimum_location: Optional[float] = None,
    params: Optional[dict] = None,
) -> PotentialLaw:
    """Wrap an opaque V(x); the minimum is located numerically when not given."""
    fn = lambda x: np.asarray(eval(np.asarray(x, dtype=float)), dtype=float)
    if minimum_location is None:
        res = minimize_scalar(lambda x: float(fn(x)), bounds=(-SEARCH_WIDTH, SEARCH_WIDTH),
                              method="bounded", options={"xatol": 1e-12})
        minimum_location = float(res.x)
    return PotentialLaw(
        name=name,
        eval=fn,
        minimum_location=float(minimum_location),
        minimum_value=float(fn(minimum_location)),
        params=params or {},
    )


def binding_energy(problem: "BoundStateProblem", E: float) -> float:
    """E_B = E - T(0)."""
    return E - problem.kinetic.rest_energy


def _bracket_outward(V: Callable, x0: float, e_b: float, direction: float) -> tuple:
    """Scan from x0 in geometric steps until V - e_b changes sign."""
    step = 1e-3 * max(1.0, abs(x0))
    prev = x0
    for _ in range(200):
        x = x0 + direction * step
        if float(V(x)) - e_b > 0.0:
            return (x, prev) if direction < 0 else (prev, x)
        prev = x
        step *= 2.0
    raise NotConfining(
        f"no turning point within |x - {x0}| <= {step}: potential may not confine")


def turning_points(problem: "BoundStateProblem", E: float) -> TurningPoints:
    """Solve V(a) = V(b) = E_B around the potential minimum.

    Raises NoClassicalRegion when E_B does not exceed the well minimum,
    NotConfining when V stays below E_B on one side, and
    MultiWellUnsupported when the well rises above E_B between the roots.
    """
    pot = problem.potential
    e_b = binding_energy(problem, E)
    if e_b <= pot.minimum_value:
        raise NoClassicalRegion(
            f"binding energy {e_b} at or below well minimum {pot.minimum_value}")

    V = pot.eval
    x0 = pot.minimum_location
    f = lambda x: float(V(x)) - e_b
    tol_root = 1e-15

    lo, hi = _bracket_outward(V, x0, e_b, +1.0)
    b = brentq(f, lo, hi, xtol=tol_root, rtol=8.9e-16)
    lo, hi = _bracket_outward(V, x0, e_b, -1.0)
    a = brentq(f, lo, hi, xtol=tol_root, rtol=8.9e-16)

    # reject anything that is not a single well: V must stay below E_B inside
    # and above E_B on a scan grid extending several well-widths outward
    tol_mw = 1e-9 * max(1.0, abs(e_b))
    interior = np.linspace(a, b, 513)[1:-1]
    if np.any(np.asarray(V(interior), dtype=float) > e_b + tol_mw):
        raise MultiWellUnsupported(
            f"potential exceeds E_B = {e_b} between turning points ({a}, {b})")
    for root, direction in ((b, +1.0), (a, -1.0)):
        span = 4.0 * max(abs(root - x0), 1e-3)
        beyond = root + direction * np.linspace(span / 512, span, 512)
        if np.any(np.asarray(V(beyond), dtype=float) < e_b - tol_mw):
            raise MultiWellUnsupported(
                f"additional classical region beyond x = {root} at E_B = {e_b}")
    tol_e = 1e-12 * max(1.0, abs(e_b))
    if abs(float(V(a)) - e_b) > tol_e or abs(float(V(b)) - e_b) > tol_e:
        raise SemiboundError(f"turning-point refinement failed at E_B = {e_b}")
    return TurningPoints(a, b)
