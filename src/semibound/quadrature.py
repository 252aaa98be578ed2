"""Gauss-Legendre quadrature tuned for turning-point integrands.

Integrands over a classical region (a, b) either vanish like sqrt(x - a) or
diverge like 1/sqrt(x - a) at the endpoints (smooth kinetic laws). The
substitution x = a + u^2 makes both smooth, after which composite
Gauss-Legendre with panel doubling converges rapidly. Every integral is two
halves cut at the well's minimum (where any kink sits), each smooth with one
turning point. An integral not converged within the node budget raises
QuadratureNotConverged rather than returning its last estimate.
`cumulative_well_integral` is the running form on the same halves: fixed
panels between even samples, and cubic Hermite pieces between those.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

#: relative agreement between successive panel doublings
REL_TOL = 1e-11
#: node budget cap for one integral
MAX_NODES = 2**20
#: Gauss-Legendre order per panel
PANEL_ORDER = 16
#: panels of the first (coarsest) level of adaptive_gauss
START_PANELS = 2
#: Gauss-Legendre order per panel of cumulative_well_integral
CUMULATIVE_ORDER = 4
#: samples per half of cumulative_well_integral, one panel between neighbours
CUMULATIVE_SAMPLES = 2049

#: Gauss-Legendre nodes and weights of one panel, on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)
_CUMULATIVE_NODES, _CUMULATIVE_WEIGHTS = np.polynomial.legendre.leggauss(CUMULATIVE_ORDER)


def composite_gauss(f: Callable, lo: float, hi: float, panels: int) -> float:
    """Composite Gauss-Legendre with `panels` equal panels of PANEL_ORDER nodes."""
    if hi == lo:
        return 0.0
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes for all panels in one evaluation: shape (panels, PANEL_ORDER)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(panels, PANEL_ORDER)
    return float(np.sum(y * _WEIGHTS[None, :] * half[:, None]))


def adaptive_gauss(f: Callable, lo: float, hi: float) -> float:
    """Double the panel count until successive finite estimates agree to REL_TOL.

    Raises QuadratureNotConverged when the next doubling would exceed
    MAX_NODES. A non-finite estimate never counts as agreement.
    """
    if hi == lo:
        return 0.0
    panels = START_PANELS
    prev = composite_gauss(f, lo, hi, panels)
    while True:
        panels *= 2
        cur = composite_gauss(f, lo, hi, panels)
        if (math.isfinite(cur) and math.isfinite(prev)
                and abs(cur - prev) <= REL_TOL * max(abs(cur), abs(prev))):
            return cur
        if panels * 2 * PANEL_ORDER > MAX_NODES:
            raise QuadratureNotConverged(
                f"no agreement to {REL_TOL:g} on [{lo}, {hi}] within {MAX_NODES} nodes "
                f"per level: last estimates {prev!r}, {cur!r}")
        prev = cur


def sqrt_substituted(f: Callable, endpoint: float, inward: float) -> Callable:
    """Transform f for x = endpoint + sign*u^2 with sign toward the interior.

    Returns h(u) = 2u * f(endpoint + sign*u^2); integrating h over
    [0, sqrt(|segment|)] equals integrating f over the segment.
    """
    sign = 1.0 if inward > endpoint else -1.0

    def h(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * u * np.asarray(f(endpoint + sign * u * u), dtype=float)

    return h


def _require_inside(a: float, b: float, split: float) -> None:
    if not a < split < b:
        raise ValueError(f"split {split!r} is not inside ({a!r}, {b!r})")


def _halves(a: float, b: float, split: float, sqrt_ends: bool) -> tuple:
    """(lo, hi, substitute) of the halves (a, split) and (split, b); a < split < b.

    substitute maps an integrand over x to the integrand on [lo, hi]: the sqrt
    substitution at the half's turning point when sqrt_ends, else the identity.
    """
    _require_inside(a, b, split)
    if sqrt_ends:
        return ((0.0, np.sqrt(split - a), lambda f: sqrt_substituted(f, a, b)),
                (0.0, np.sqrt(b - split), lambda f: sqrt_substituted(f, b, a)))
    return (a, split, lambda f: f), (split, b, lambda f: f)


def well_integral(f: Callable, a: float, b: float, split: float, sqrt_ends: bool = True) -> float:
    """Integrate f over (a, b) as its two halves cut at split, a < split < b.

    sqrt_ends substitutes x = endpoint + u^2 at both endpoints.
    """
    return sum(adaptive_gauss(sub(f), lo, hi)
               for lo, hi, sub in _halves(a, b, split, sqrt_ends))


def well_integral_pair(f: Callable, g: Callable, a: float, b: float,
                       split: float, sqrt_ends: bool = True) -> tuple:
    """(integral of f to REL_TOL, integral of g on the coarsest rule), one pass.

    Both use the halves and substitutions of well_integral. g is integrated
    only on the START_PANELS nodes that begin f's panel doubling: a cheap
    estimate that never reaches the deep panels next to the endpoints.
    """
    total, coarse = 0.0, 0.0
    for lo, hi, sub in _halves(a, b, split, sqrt_ends):
        total += adaptive_gauss(sub(f), lo, hi)
        coarse += composite_gauss(sub(g), lo, hi, START_PANELS)
    return total, coarse


def _cumulative_half(f: Callable, tp: float, x0: float, sqrt: bool) -> Callable:
    """x -> integral of f between the turning point tp and x, for x on tp's side of x0.

    In u = sqrt|x - tp| when sqrt (2u*f is then smooth in u), else u = |x - tp|.
    One CUMULATIVE_ORDER-node panel spans each gap of CUMULATIVE_SAMPLES even u;
    on piece i the Hermite cubic in t = (v - u[i]) / du[i] has values F, slopes g.
    """
    to_u = np.sqrt if sqrt else np.asarray
    inward = 1.0 if x0 > tp else -1.0
    u = np.linspace(0.0, to_u(abs(x0 - tp)), CUMULATIVE_SAMPLES)
    integrand = sqrt_substituted(f, tp, x0) if sqrt else lambda v: f(tp + inward * v)
    du = np.diff(u)
    half = 0.5 * du
    nodes = 0.5 * (u[1:] + u[:-1])[:, None] + half[:, None] * _CUMULATIVE_NODES
    y = np.asarray(integrand(np.concatenate((u, nodes.ravel()))), dtype=float)
    panels = y[len(u):].reshape(nodes.shape) @ _CUMULATIVE_WEIGHTS * half
    F, g = np.concatenate(([0.0], np.cumsum(panels))), y[:len(u)]
    if not (math.isfinite(F[-1]) and np.all(np.isfinite(g))):
        raise ValueError(f"integral from {tp!r} to {x0!r} is not finite")
    rise = np.diff(F)
    c2 = 3.0 * rise - du * (2.0 * g[:-1] + g[1:])
    c3 = du * (g[:-1] + g[1:]) - 2.0 * rise

    def integral(x):
        v = to_u(np.maximum(inward * (x - tp), 0.0))
        i = np.searchsorted(u[1:-1], v, side="right")
        t = (v - u[i]) / du[i]
        return F[i] + t * (du[i] * g[i] + t * (c2[i] + t * c3[i]))

    return integral


def cumulative_well_integral(f: Callable, a: float, b: float, split: float,
                             sqrt_ends: bool = True) -> Callable:
    """x -> integral of f from x to b; each half of well_integral is summed from its end."""
    _require_inside(a, b, split)
    right, left = (_cumulative_half(f, tp, split, sqrt_ends) for tp in (b, a))
    total = float(right(split)) + float(left(split))

    def integral(x):
        x = np.asarray(x, dtype=float)
        out, on_right = np.empty(x.shape), x >= split
        out[on_right] = right(x[on_right])
        out[~on_right] = total - left(x[~on_right])
        return out

    return integral
