"""Gauss-Legendre quadrature tuned for turning-point integrands.

Integrands over a classical region (a, b) either vanish like sqrt(x - a) or
diverge like 1/sqrt(x - a) at the endpoints (smooth kinetic laws). The
substitution x = a + u^2 makes both smooth, after which composite
Gauss-Legendre with panel doubling converges rapidly. Every integral is two
halves cut at the well's minimum (where any kink sits), each smooth with one
turning point. An integral not converged within the node budget raises
QuadratureNotConverged rather than returning its last estimate.
`cumulative_gauss` instead sums fixed panels into a running integral.
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
#: Gauss-Legendre order per panel of cumulative_gauss
CUMULATIVE_ORDER = 4

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


def cumulative_gauss(f: Callable, u: np.ndarray) -> tuple:
    """(F, f(u)) with F[i] the integral of f from u[0] to u[i].

    Each panel [u[i], u[i+1]] takes CUMULATIVE_ORDER Gauss-Legendre nodes;
    f is evaluated once, on the samples and the panel nodes together.
    """
    half = 0.5 * np.diff(u)
    nodes = 0.5 * (u[1:] + u[:-1])[:, None] + half[:, None] * _CUMULATIVE_NODES
    y = np.asarray(f(np.concatenate((u, nodes.ravel()))), dtype=float)
    panels = y[len(u):].reshape(nodes.shape) @ _CUMULATIVE_WEIGHTS * half
    return np.concatenate(([0.0], np.cumsum(panels))), y[:len(u)]


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


def _halves(a: float, b: float, split: float, sqrt_ends: bool) -> tuple:
    """(lo, hi, substitute) of the halves (a, split) and (split, b); a < split < b.

    substitute maps an integrand over x to the integrand on [lo, hi]: the sqrt
    substitution at the half's turning point when sqrt_ends, else the identity.
    """
    if not a < split < b:
        raise ValueError(f"split {split!r} is not inside ({a!r}, {b!r})")
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
