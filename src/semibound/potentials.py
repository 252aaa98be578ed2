"""Potential wells and the turning-point solver.

Turning points a < b at energy E are the two solutions of V(x) = E_B where
E_B = E - T(0) is the binding energy. Only single wells (exactly two turning
points) are supported. Each well carries its own solver for V(x) = E_B: the
built-in wells are c|x|^q and invert in closed form as -+(E_B/c)^(1/q), with
1/c computed once, and an opaque V(x) has both roots refined by one
Brent-Dekker call and is then checked to be a single well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import MultiWellUnsupported, NoClassicalRegion, NotConfining, SemiboundError
from .roots import brentq_array, golden_minimum

if TYPE_CHECKING:
    from .kinetics import BoundStateProblem

#: half-width of the interval around 0 searched for the minimum of an opaque V(x)
SEARCH_WIDTH = 100.0


@dataclass(frozen=True)
class LocalForm:
    """The form of a well at its minimum x0: V(x0 + s) - V(x0) ~ c |s|^q.

    left, right : the one-sided coefficients c for s < 0 and for s > 0
    q           : the exponent, q > 0
    """

    left: float
    right: float
    q: float

    def __post_init__(self):
        if not (0 < self.q < np.inf and 0 <= self.left < np.inf and 0 <= self.right < np.inf):
            raise ValueError(f"local form needs finite q > 0 and coefficients >= 0, got "
                             f"left={self.left}, right={self.right}, q={self.q}")


@dataclass(frozen=True)
class PotentialLaw:
    """Singularity-free confining potential V(x).

    eval       : x -> V(x), vectorized over position arrays
    inverse    : E_B -> (a, b), the roots of V(x) = E_B either side of the
                 minimum, for E_B above the minimum value
    local_form : the well's form at its minimum, when declared; the FGH grid
                 then has a point on the minimum and corrects its sampling of
                 the kink there (see fgh)
    """

    name: str
    eval: Callable
    inverse: Callable
    minimum_location: float
    minimum_value: float
    local_form: Optional[LocalForm] = None


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
    return replace(power(lam, 1.0), name="linear")


def harmonic(mass: float, omega: float) -> PotentialLaw:
    """V(x) = (1/2) * mass * omega^2 * x^2."""
    # float products overflow to inf and underflow to 0 without raising
    k = 0.5 * mass * (omega * omega)
    if not (0 < mass < np.inf and 0 < omega < np.inf and 0 < k < np.inf):
        raise ValueError(f"mass and omega must be positive and finite with "
                         f"0 < 0.5*mass*omega^2 < inf, got {mass}, {omega}")
    return replace(power(k, 2.0), name="harmonic")


def power(c: float, q: float) -> PotentialLaw:
    """V(x) = c * |x|^q with q >= 1, whose roots of V = E_B are -+(E_B/c)^(1/q)."""
    if not (0 < c < np.inf and 1 <= q < np.inf):
        raise ValueError(f"need finite c > 0 and q >= 1, got c={c}, q={q}")
    inv_c, inv_q = 1.0 / c, 1.0 / q

    def inverse(e_b: float) -> tuple:
        r = (e_b * inv_c) ** inv_q
        return -r, r

    return PotentialLaw(
        name="power",
        eval=lambda x: c * np.abs(np.asarray(x, dtype=float)) ** q,
        inverse=inverse,
        minimum_location=0.0,
        minimum_value=0.0,
        local_form=LocalForm(c, c, q),
    )


def from_callable(
    name: str,
    eval: Callable,
    minimum_location: Optional[float] = None,
    local_form: Optional[LocalForm] = None,
) -> PotentialLaw:
    """Wrap an opaque V(x); when not given, the minimum is found by golden-section search.

    A search that ends at +-SEARCH_WIDTH is a ValueError. Both turning points
    are found by one `roots.brentq_array` call (see `_brent_inverse`), so
    eval must take arrays. Without a `local_form` the FGH grid puts the
    minimum at the Gauss offset and applies no kink correction.
    """
    fn = lambda x: np.asarray(eval(np.asarray(x, dtype=float)), dtype=float)
    if minimum_location is None:
        minimum_location, at_edge = golden_minimum(lambda x: float(fn(x)),
                                                   -SEARCH_WIDTH, SEARCH_WIDTH)
        if at_edge:
            raise ValueError(f"{name}: no minimum of V inside +-{SEARCH_WIDTH} (search "
                             f"stopped at x = {minimum_location}); pass minimum_location")
    return PotentialLaw(
        name=name,
        eval=fn,
        inverse=_brent_inverse(fn, float(minimum_location)),
        minimum_location=float(minimum_location),
        minimum_value=float(fn(minimum_location)),
        local_form=local_form,
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


def _brent_inverse(V: Callable, x0: float) -> Callable:
    """E_B -> (a, b) for an opaque single well V with its minimum at x0.

    Each root is bracketed outward from x0, and both are refined by one
    `brentq_array` call and returned as Python floats. Raises
    NotConfining when V stays below E_B on one side, MultiWellUnsupported
    when the well rises above E_B between the roots or falls below it on a
    scan grid several well-widths beyond them, and SemiboundError when a
    root misses V = E_B by more than 1e-12 * max(1, |E_B|).
    """

    def inverse(e_b: float) -> tuple:
        brackets = [_bracket_outward(V, x0, e_b, d) for d in (+1.0, -1.0)]
        b, a = brentq_array(lambda x, i: V(x) - e_b, *np.array(brackets).T).tolist()

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
        return a, b

    return inverse


def turning_points(problem: "BoundStateProblem", E: float) -> TurningPoints:
    """Solve V(a) = V(b) = E_B around the potential minimum with the well's own inverse.

    Raises NoClassicalRegion when E_B does not exceed the well minimum and
    NotConfining when a root is not finite (V stays below E_B on one side,
    or a closed-form root overflows); an opaque well may also raise what
    `_brent_inverse` raises.
    """
    pot = problem.potential
    # a Python float, so that a closed-form root overflows to inf without a numpy warning
    e_b = float(binding_energy(problem, E))
    if e_b <= pot.minimum_value:
        raise NoClassicalRegion(
            f"binding energy {e_b} at or below well minimum {pot.minimum_value}")
    a, b = pot.inverse(e_b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NotConfining(f"turning points ({a}, {b}) at E_B = {e_b} are not finite: "
                           f"potential may not confine")
    return TurningPoints(a, b)
