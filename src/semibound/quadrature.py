"""Gauss-Legendre quadrature tuned for turning-point integrands.

Integrands over a classical region (a, b) either vanish like sqrt(x - a) or
diverge like 1/sqrt(x - a) at the endpoints (smooth kinetic laws). The
substitution x = a + u^2 makes both smooth, after which composite
Gauss-Legendre with panel doubling converges rapidly. Every integral is two
halves cut at the well's minimum (where any kink sits), each smooth with one
turning point. `well_integrals` takes both halves of many wells through each
of the first two panel counts in one vectorized `composite_gauss` call. An
integral not converged within the node budget raises
QuadratureNotConverged rather than returning its last estimate.
`cumulative_well_integral` is the running form on the same halves: fixed
panels between even samples, and cubic Hermite pieces between those.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureNotConverged

#: relative agreement between successive panel doublings
REL_TOL = 1e-11
#: node budget cap for one integral
MAX_NODES = 2**20
#: Gauss-Legendre order per panel
PANEL_ORDER = 16
#: panels of the first (coarsest) level of every panel doubling
START_PANELS = 2
#: Gauss-Legendre order per panel of cumulative_well_integral
CUMULATIVE_ORDER = 4
#: samples per half of cumulative_well_integral, one panel between neighbours
CUMULATIVE_SAMPLES = 2049

#: Gauss-Legendre nodes and weights of one panel, on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)
_CUMULATIVE_NODES, _CUMULATIVE_WEIGHTS = np.polynomial.legendre.leggauss(CUMULATIVE_ORDER)


def composite_gauss(f: Callable, lo, hi, panels: int):
    """Composite Gauss-Legendre with `panels` equal panels of PANEL_ORDER nodes on [lo, hi].

    lo and hi are floats, or arrays of one shape S with one interval each. f
    takes the nodes, shape S + (panels * PANEL_ORDER,), and returns the
    integrand there, or several integrands stacked on leading axes R; the
    result has shape R + S, a float when that is ().
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # the panel edges as np.linspace(lo, hi, panels + 1) puts them, without its overhead
    edges = np.arange(panels + 1.0) * ((hi - lo) / panels)[..., None] + lo[..., None]
    edges[..., -1] = hi
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    # nodes of all panels of every interval in one evaluation
    x = mid[..., None] + half[..., None] * _NODES
    y = np.asarray(f(x.reshape(*lo.shape, panels * PANEL_ORDER)), dtype=float)
    y = y.reshape(*y.shape[:-1], panels, PANEL_ORDER)
    total = (y * _WEIGHTS * half[..., None]).sum(axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def _agree(prev, cur):
    """Successive estimates that are finite and agree to REL_TOL (elementwise)."""
    return (np.isfinite(cur) & np.isfinite(prev)
            & (np.abs(cur - prev) <= REL_TOL * np.maximum(np.abs(cur), np.abs(prev))))


def _converge(f: Callable, lo: float, hi: float, panels: int, prev: float, cur: float) -> float:
    """Go on doubling from the estimates prev and cur at panels/2 and panels panels.

    Returns the first estimate that agrees with the one before it; raises
    QuadratureNotConverged when the next doubling would exceed MAX_NODES.
    """
    while not _agree(prev, cur):
        if panels * 2 * PANEL_ORDER > MAX_NODES:
            raise QuadratureNotConverged(
                f"no agreement to {REL_TOL:g} on [{lo}, {hi}] within {MAX_NODES} nodes "
                f"per level: last estimates {prev!r}, {cur!r}")
        panels *= 2
        prev, cur = cur, composite_gauss(f, lo, hi, panels)
    return cur


def adaptive_gauss(f: Callable, lo: float, hi: float) -> float:
    """Double the panel count until successive finite estimates agree to REL_TOL.

    Raises QuadratureNotConverged when the next doubling would exceed
    MAX_NODES. A non-finite estimate never counts as agreement.
    """
    if hi == lo:
        return 0.0
    return _converge(f, lo, hi, 2 * START_PANELS, composite_gauss(f, lo, hi, START_PANELS),
                     composite_gauss(f, lo, hi, 2 * START_PANELS))


def sqrt_substituted(f: Callable, endpoint, inward) -> Callable:
    """Transform f for x = endpoint + sign*u^2 with sign toward inward, a point inside.

    Returns h(u) = 2u * f(endpoint + sign*u^2); integrating h over
    [0, sqrt(|segment|)] equals integrating f over the segment. endpoint may be
    an array of shape S, one interval's end each, for u of shape S + (n,).
    """
    endpoint = np.asarray(endpoint, dtype=float)
    sign, endpoint = np.where(inward > endpoint, 1.0, -1.0)[..., None], endpoint[..., None]

    def h(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * u * np.asarray(f(endpoint + sign * u * u), dtype=float)

    return h


def _require_inside(a, b, split: float) -> None:
    """Refuse a split outside (a, b), or outside any (a[k], b[k]) when a and b are arrays."""
    inside = (np.asarray(a) < split) & (split < np.asarray(b))
    if not np.all(inside):
        k = np.argmin(inside)
        a, b = float(np.ravel(a)[k]), float(np.ravel(b)[k])
        raise ValueError(f"split {split!r} is not inside ({a!r}, {b!r})")


def well_integrals(f: Callable, a, b, split: float, sqrt_ends: bool = True,
                   coarse: Optional[Callable] = None):
    """Integrate f over each well (a[k], b[k]) as its two halves cut at split.

    Every well needs a[k] < split < b[k]. f(x, k) is the integrand at the
    nodes x, where k (broadcastable against x) is the index of each node's
    well. sqrt_ends substitutes x = endpoint + u^2 at both endpoints
    (sqrt_substituted). Both halves of every well are integrated on START_PANELS
    panels, then on 2 * START_PANELS, in one composite_gauss call each; a half
    whose two estimates disagree goes on doubling by itself, as in
    adaptive_gauss. Returns one integral per well. With `coarse`, returns
    (integrals, coarse integrals), the second of coarse(f(x, k)) on the
    START_PANELS rule, made from the same values of f.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    _require_inside(a, b, split)
    # interval [k, 0] is the left half of well k, [k, 1] its right half
    ends = np.stack((a, b), axis=-1)
    lo, hi = ((np.zeros_like(ends), np.sqrt(np.abs(split - ends))) if sqrt_ends
              else (np.minimum(ends, split), np.maximum(ends, split)))

    def integrand(end, k, with_coarse: bool = False) -> Callable:
        """The integrand, in u or in x, of the halves from turning points `end` in wells k."""

        def g(x):
            y = np.asarray(f(x, k), dtype=float)
            return np.stack((y, np.asarray(coarse(y), dtype=float))) if with_coarse else y

        return sqrt_substituted(g, end, split) if sqrt_ends else g

    every = (ends, np.arange(a.size)[:, None, None])
    first = composite_gauss(integrand(*every, coarse is not None), lo, hi, START_PANELS)
    prev = first if coarse is None else first[0]
    cur = composite_gauss(integrand(*every), lo, hi, 2 * START_PANELS)
    for k, half in np.argwhere(~_agree(prev, cur)):
        cur[k, half] = _converge(integrand(ends[k, half], k),
                                 float(lo[k, half]), float(hi[k, half]), 2 * START_PANELS,
                                 float(prev[k, half]), float(cur[k, half]))
    total = cur[:, 0] + cur[:, 1]
    return total if coarse is None else (total, first[1, :, 0] + first[1, :, 1])


def well_integral(f: Callable, a: float, b: float, split: float, sqrt_ends: bool = True) -> float:
    """Integrate f(x) over (a, b) as its two halves cut at split, a < split < b.

    The one-well form of well_integrals.
    """
    return float(well_integrals(lambda x, k: f(x), a, b, split, sqrt_ends)[0])


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
