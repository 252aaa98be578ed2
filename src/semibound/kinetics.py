"""Kinetic-law abstraction: T(p) together with its derivatives and inverse.

A kinetic law is admissible when it is non-negative, even, monotonically
increasing in |p| and (away from flagged points) twice differentiable. The
speed of the classical particle is T'(p), the rest energy is T(0), and the
reduced law t(p) = T(p) - T(0) carries the dynamics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .roots import brentq_array

if TYPE_CHECKING:
    from .potentials import PotentialLaw

#: absolute slack below the rest energy tolerated by inverse() (round-off guard)
INVERSE_CLAMP = 1e-12


class Smoothness(enum.Enum):
    SMOOTH = "smooth"
    NON_SMOOTH_AT_ZERO = "non_smooth_at_zero"


@dataclass(frozen=True)
class KineticLaw:
    """T(p) with derivatives and inverse, all vectorized over momentum arrays.

    eval      : p -> kinetic energy T(p)
    deriv     : p -> speed T'(p)
    deriv2    : p -> inverse-mass T''(p)
    inverse   : y -> non-negative momentum with T(inverse(y)) = y, y >= T(0)
    """

    name: str
    eval: Callable
    deriv: Callable
    deriv2: Callable
    inverse: Callable
    rest_energy: float
    smoothness: Smoothness = Smoothness.SMOOTH


@dataclass(frozen=True)
class BoundStateProblem:
    """One physical system: H = T(p) + V(x) with a confining well."""

    kinetic: KineticLaw
    potential: "PotentialLaw"
    hbar: float = 1.0

    def __post_init__(self):
        if isinstance(self.hbar, bool) or not 0 < self.hbar < np.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


def _clamped_inverse(raw: Callable, rest: float) -> Callable:
    """Wrap an inverse defined for y >= rest so that round-off below rest maps to 0."""

    def inverse(y):
        arr = np.asarray(y, dtype=float)
        if np.any(arr < rest - INVERSE_CLAMP):
            bad = float(np.min(arr))
            raise ValueError(f"inverse argument {bad} below rest energy {rest}")
        out = raw(np.maximum(arr, rest))
        return out if isinstance(y, np.ndarray) or arr.ndim else float(out)

    return inverse


def nonrelativistic(m: float) -> KineticLaw:
    """T(p) = p^2 / (2m)."""
    if not 0 < m < np.inf:
        raise ValueError(f"mass must be positive and finite, got {m}")
    return KineticLaw(
        name="nonrelativistic",
        eval=lambda p: np.asarray(p) ** 2 / (2.0 * m),
        deriv=lambda p: np.asarray(p) / m,
        deriv2=lambda p: np.full_like(np.asarray(p, dtype=float), 1.0 / m),
        inverse=_clamped_inverse(lambda y: np.sqrt(2.0 * m * y), 0.0),
        rest_energy=0.0,
    )


def relativistic(m: float) -> KineticLaw:
    """T(p) = sqrt(p^2 + m^2), rest energy m."""
    if not 0 < m < np.inf:
        raise ValueError(f"mass must be positive and finite, got {m}")
    return KineticLaw(
        name="relativistic",
        eval=lambda p: np.sqrt(np.asarray(p) ** 2 + m * m),
        deriv=lambda p: np.asarray(p) / np.sqrt(np.asarray(p) ** 2 + m * m),
        deriv2=lambda p: m * m / (np.asarray(p) ** 2 + m * m) ** 1.5,
        inverse=_clamped_inverse(lambda y: np.sqrt(np.maximum(y * y - m * m, 0.0)), m),
        rest_energy=m,
    )


def massless() -> KineticLaw:
    """T(p) = |p|; not differentiable at p=0, speed is sign(p)."""
    return KineticLaw(
        name="massless",
        eval=lambda p: np.abs(np.asarray(p, dtype=float)),
        deriv=lambda p: np.sign(np.asarray(p, dtype=float)),
        deriv2=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        inverse=_clamped_inverse(lambda y: np.asarray(y, dtype=float), 0.0),
        rest_energy=0.0,
        smoothness=Smoothness.NON_SMOOTH_AT_ZERO,
    )


def from_callable(
    name: str,
    eval: Callable,
    deriv: Optional[Callable] = None,
    deriv2: Optional[Callable] = None,
    inverse: Optional[Callable] = None,
    smoothness: Smoothness = Smoothness.SMOOTH,
) -> KineticLaw:
    """Build a law from T(p) alone; missing pieces are synthesized numerically.

    Derivatives use central differences (step 1e-6*max(1,|p|) for T', a wider
    step for T'' to beat round-off); the inverse is `roots.brentq_array` on [0, hi].
    """
    fn = lambda p: np.asarray(eval(np.asarray(p, dtype=float)), dtype=float)
    rest = float(fn(0.0))

    if deriv is None:
        def deriv(p):
            p = np.asarray(p, dtype=float)
            h = 1e-6 * np.maximum(1.0, np.abs(p))
            return (fn(p + h) - fn(p - h)) / (2.0 * h)

    if deriv2 is None:
        def deriv2(p):
            p = np.asarray(p, dtype=float)
            h = 1e-4 * np.maximum(1.0, np.abs(p))
            return (fn(p + h) - 2.0 * fn(p) + fn(p - h)) / (h * h)

    if inverse is None:
        def inverse(y):
            y = np.asarray(y, dtype=float)
            p, above = np.zeros(y.shape), ~(y <= rest)  # NaN goes on to the solver, which raises
            target = y[above]
            hi = np.ones_like(target)  # doubled element by element until T(hi) >= y
            while np.any(short := fn(hi) < target):
                hi[short] *= 2.0
                if np.any(hi > 1e18):
                    raise ValueError(f"no momentum found with T(p) = {target[hi > 1e18][0]}")
            p[above] = brentq_array(lambda x, i: fn(x) - target[i], np.zeros_like(hi), hi)
            return p

    return KineticLaw(
        name=name,
        eval=fn,
        deriv=deriv,
        deriv2=deriv2,
        inverse=_clamped_inverse(inverse, rest),
        rest_energy=rest,
        smoothness=smoothness,
    )


def reduced_kinetic(law: KineticLaw) -> KineticLaw:
    """Strip the rest energy: t(p) = T(p) - T(0), t^-1(w) = T^-1(w + T(0)).

    The speed t'(p) = T'(p) is unchanged, so the dynamics are identical.
    """
    if law.rest_energy == 0.0:
        return law
    base_eval, base_inv, rest = law.eval, law.inverse, law.rest_energy
    return replace(
        law,
        name=law.name + "_reduced",
        eval=lambda p: base_eval(p) - rest,
        inverse=_clamped_inverse(lambda w: base_inv(np.asarray(w) + rest), 0.0),
        rest_energy=0.0,
    )


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    passed: bool
    worst_violation: float = 0.0
    worst_location: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    law_name: str
    checks: tuple
    smoothness: Smoothness

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"kinetic law '{self.law_name}' ({self.smoothness.value}):"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" worst={c.worst_violation:.3e} at p={c.worst_location}" if not c.passed else ""
            note = f" ({c.note})" if c.note else ""
            lines.append(f"  [{status}] {c.condition}{extra}{note}")
        return "\n".join(lines)


def validate_admissibility(law: KineticLaw, p_samples: np.ndarray) -> ValidationReport:
    """Check conditions A-D on a finite sample grid. Never raises: failures are reported.

    The grid must be symmetric about 0. Laws flagged non-smooth at p=0 skip
    the second-derivative continuity check there.
    """
    p = np.sort(np.asarray(p_samples, dtype=float))
    if p.size == 0:
        raise ValueError("p_samples must be non-empty")
    T = np.asarray(law.eval(p), dtype=float)
    names = ("values finite", "A: non-negativity", "B: evenness", "C: monotonicity", "D: class C2")
    if not np.all(np.isfinite(T)):
        bad = float(p[~np.isfinite(T)][0])
        return ValidationReport(law.name, tuple(
            ConditionCheck(name, False, float("nan"), bad if name == names[0] else None)
            for name in names), law.smoothness)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(T))))
    checks = [ConditionCheck(names[0], True)]

    # A: T(p) >= 0
    i = int(np.argmin(T))
    checks.append(ConditionCheck(
        names[1], bool(T[i] >= -tol), min(float(T[i]), 0.0), float(p[i])))

    # B: T(p) = T(-p)
    diff = np.abs(np.asarray(law.eval(-p)) - T)
    i = int(np.argmax(diff))
    checks.append(ConditionCheck(names[2], bool(diff[i] <= tol), float(diff[i]), float(p[i])))

    # C: strictly increasing in |p| (checked on the positive half)
    pos = p[p > 0]
    if pos.size >= 2:
        d = np.diff(np.asarray(law.eval(pos), dtype=float))
        i = int(np.argmin(d))
        checks.append(ConditionCheck(
            names[3], bool(d[i] > -tol), min(float(d[i]), 0.0), float(pos[i])))
    else:
        checks.append(ConditionCheck(names[3], True, note="fewer than 2 positive samples"))

    # D: class C^2 on the sampled grid
    non_smooth = law.smoothness is Smoothness.NON_SMOOTH_AT_ZERO
    q = p[np.abs(p) > 1e-3] if non_smooth else p
    d2 = np.asarray(law.deriv2(q), dtype=float)
    ok = bool(np.all(np.isfinite(d2)))
    loc = None if ok else float(q[~np.isfinite(d2)][0])
    note = "continuity at p=0 skipped (non-smooth law)" if non_smooth else ""
    if ok and not non_smooth:
        h = float(np.min(np.abs(p[p > 0]))) if np.any(p > 0) else 1e-6
        jump = abs(float(law.deriv2(h)) - float(law.deriv2(-h)))
        d2scale = max(1.0, abs(float(law.deriv2(0.0))))
        ok = jump <= 1e-6 * d2scale
        if not ok:
            loc, note = 0.0, f"T'' jump {jump:.3e} across p=0"
    checks.append(ConditionCheck(names[4], ok, 0.0, loc, note))

    return ValidationReport(law.name, tuple(checks), law.smoothness)
