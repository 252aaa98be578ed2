"""Bracketed root finding and bounded minimization in one variable.

`brentq_array` is the Brent-Dekker iteration (Brent 1973, ch. 4) on many
independent brackets at once, under masks, retiring each element once it
has converged. Each element takes the steps scipy.optimize.brentq takes on
its own bracket, so at the same xtol/rtol/maxiter it visits the same
iterates and returns the same root to the last bit.
`golden_minimum` is a golden-section search for a minimum on an interval.

The package needs only these two routines, so it carries them itself
rather than importing scipy.optimize, whose import (with scipy.interpolate,
which pulls it in) was about a third of a second of every CLI run's set-up.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: brentq_array stops once the bracket half-width is below (XTOL + RTOL*|x|)/2
XTOL = 1e-15
RTOL = 8.9e-16
#: iteration cap of brentq_array
MAXITER = 100
#: golden_minimum stops once its bracket is narrower than this
XATOL = 1e-12
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def brentq_array(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Roots of independent problems on the brackets [a[i], b[i]] of 1-D arrays a and b.

    f(x, idx) returns the values of problems idx (an index array into a and
    b) at the points x. Each element stops when its bracket half-width falls
    below (XTOL + RTOL*|x|)/2 or f vanishes there, and its root equals
    scipy.optimize.brentq's on the same bracket bit for bit. Raises
    ValueError for a bracket without a sign change or a NaN value of f, and
    RuntimeError when MAXITER iterations leave any element unconverged.
    """
    root = np.array(b, dtype=float)

    def value(x, idx):
        fx = np.asarray(f(x, idx), dtype=float)
        if np.any(np.isnan(fx)):
            raise ValueError(f"The function value at x={x[np.isnan(fx)][0]} is NaN; "
                             "solver cannot continue.")
        return fx

    idx = np.arange(root.size)
    xpre, xcur = np.array(a, dtype=float), root.copy()
    fpre, fcur = value(xpre, idx), value(xcur, idx)
    at_a = fpre == 0.0
    root[at_a] = xpre[at_a]
    if np.any((fcur != 0.0) & ~at_a & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    keep = ~at_a & (fcur != 0.0)
    idx, xpre, xcur, fpre, fcur = idx[keep], xpre[keep], xcur[keep], fpre[keep], fcur[keep]
    xblk, fblk, spre, scur = (np.zeros_like(xcur) for _ in range(4))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAXITER):
            new = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(new, step, spre), np.where(new, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))

            delta = (XTOL + RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if np.any(done):
                root[idx[done]] = xcur[done]
                live = ~done
                idx, xpre, xcur, xblk = idx[live], xpre[live], xcur[live], xblk[live]
                fpre, fcur, fblk = fpre[live], fcur[live], fblk[live]
                spre, scur, delta, sbis = spre[live], scur[live], delta[live], sbis[live]
            if idx.size == 0:
                return root

            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            bound = 3 * np.abs(sbis) - delta
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.where(np.abs(spre) < bound, np.abs(spre), bound)))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = value(xcur, idx)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations, value is {xcur[0]}")


def golden_minimum(f: Callable[[float], float], lo: float, hi: float) -> tuple:
    """(x, at_edge): a local minimum x of f on [lo, hi] by golden-section search.

    The bracket shrinks by 1/phi per evaluation until it is narrower than
    XATOL (or a few ulp of its ends). at_edge says that x lies within that
    final width of lo or hi, where a minimum cannot be told from the bound.
    """
    a, b = float(lo), float(hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > max(XATOL, 8 * math.ulp(max(abs(a), abs(b)))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, min(x - lo, hi - x) <= b - a
