"""Gauss-Legendre quadrature tuned for turning-point integrands.

Integrands over a classical region (a, b) either vanish like sqrt(x - a) or
diverge like 1/sqrt(x - a) at the endpoints (smooth kinetic laws). The
substitution x = a + u^2 makes both smooth, after which composite
Gauss-Legendre with panel doubling converges rapidly. Integrals are split at
interior break points (e.g. a potential kink) so each piece is smooth. An
integral that has not converged within the node budget raises
QuadratureNotConverged rather than returning its last estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureNotConverged

#: default relative agreement between successive panel doublings
REL_TOL = 1e-11
#: node budget cap for one integral
MAX_NODES = 2**20
#: Gauss-Legendre order per panel
PANEL_ORDER = 16
#: panels of the first (coarsest) level of adaptive_gauss
START_PANELS = 2


@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def composite_gauss(f: Callable, lo: float, hi: float, panels: int,
                    order: int = PANEL_ORDER) -> float:
    """Composite Gauss-Legendre with `panels` equal panels of the given order."""
    if hi == lo:
        return 0.0
    xg, wg = _gl_nodes(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes for all panels in one evaluation: shape (panels, order)
    x = mid[:, None] + half[:, None] * xg[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(panels, order)
    return float(np.sum(y * wg[None, :] * half[:, None]))


def adaptive_gauss(f: Callable, lo: float, hi: float, rel_tol: float = REL_TOL,
                   max_nodes: int = MAX_NODES) -> float:
    """Double the panel count until successive finite estimates agree to rel_tol.

    Raises QuadratureNotConverged when the next doubling would exceed
    max_nodes. A non-finite estimate never counts as agreement.
    """
    if hi == lo:
        return 0.0
    panels = START_PANELS
    prev = composite_gauss(f, lo, hi, panels)
    while True:
        panels *= 2
        cur = composite_gauss(f, lo, hi, panels)
        if (math.isfinite(cur) and math.isfinite(prev)
                and abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev))):
            return cur
        if panels * 2 * PANEL_ORDER > max_nodes:
            raise QuadratureNotConverged(
                f"no agreement to {rel_tol:g} on [{lo}, {hi}] within {max_nodes} nodes "
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


def _pieces(a: float, b: float, splits: Sequence[float],
            sqrt_left: bool, sqrt_right: bool):
    """(lo, hi, substitute) per smooth piece of (a, b).

    substitute maps an integrand over x to the integrand on [lo, hi]: the
    sqrt substitution at a substituted endpoint, the identity elsewhere.
    """
    pts = sorted(x for x in splits if a < x < b)
    if not pts and (sqrt_left or sqrt_right):
        pts = [0.5 * (a + b)]
    edges = [a] + pts + [b]
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        if i == 0 and sqrt_left:
            yield 0.0, np.sqrt(hi - lo), lambda f: sqrt_substituted(f, a, b)
        elif i == len(edges) - 2 and sqrt_right:
            yield 0.0, np.sqrt(hi - lo), lambda f: sqrt_substituted(f, b, a)
        else:
            yield lo, hi, lambda f: f


def well_integral(f: Callable, a: float, b: float,
                  splits: Sequence[float] = (),
                  sqrt_left: bool = True, sqrt_right: bool = True) -> float:
    """Integrate f over (a, b) with endpoint substitutions and interior splits.

    splits: interior break points (points of reduced smoothness, such as a
    potential kink); values outside (a, b) are ignored.
    """
    return sum(adaptive_gauss(sub(f), lo, hi)
               for lo, hi, sub in _pieces(a, b, splits, sqrt_left, sqrt_right))


def well_integral_pair(f: Callable, g: Callable, a: float, b: float,
                       splits: Sequence[float] = (),
                       sqrt_left: bool = True, sqrt_right: bool = True) -> tuple:
    """(integral of f to REL_TOL, integral of g on the coarsest rule), one pass.

    Both use the pieces and substitutions of well_integral. g is integrated
    only on the START_PANELS nodes that begin f's panel doubling: a cheap
    estimate that never reaches the deep panels next to the endpoints.
    """
    total, coarse = 0.0, 0.0
    for lo, hi, sub in _pieces(a, b, splits, sqrt_left, sqrt_right):
        total += adaptive_gauss(sub(f), lo, hi)
        coarse += composite_gauss(sub(g), lo, hi, START_PANELS)
    return total, coarse
