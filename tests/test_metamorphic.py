"""Metamorphic oracles: spectra that must not change, or must scale exactly, under a
transformation of the system, checked on both the WKBJ and the FGH routes."""

import numpy as np
import pytest

from semibound import (
    BoundStateProblem,
    FghConfig,
    linear,
    massless,
    nonrelativistic,
    power,
    quantize,
    relativistic,
    solve,
)
from semibound.potentials import LocalForm, from_callable

NS = [0, 5, 15]
FGH = FghConfig(n_points=513, n_states=16)


def _spectra(problem):
    """(WKBJ energies, FGH energies) of the states NS."""
    wkbj = np.array([quantize(problem, n).energy for n in NS])
    return wkbj, solve(problem, FGH).energies[NS]


def _rel(new, ref):
    return float(np.max(np.abs(new - ref) / np.abs(ref)))


@pytest.mark.parametrize("law", [relativistic(0.2), massless()], ids=["A", "B"])
def test_translation_leaves_spectrum_unchanged(law):
    well = lambda x: 0.2 * np.abs(x)
    base = BoundStateProblem(law, from_callable("well", well, minimum_location=0.0))
    moved = BoundStateProblem(law, from_callable("moved", lambda x: well(x - 3.7),
                                                 minimum_location=3.7))
    (w0, f0), (w1, f1) = _spectra(base), _spectra(moved)
    assert _rel(w1, w0) < 1e-12
    assert _rel(f1, f0) < 1e-12


def _asymmetric_kink(law, declared=True):
    """The well with slopes 0.2 (x > 0) and 0.5 (x < 0) at a kink at 0, and its reflection.

    Declared, each carries its local form, so that the FGH solve corrects the kink.
    """
    well = lambda x: np.where(x > 0, 0.2 * x, -0.5 * x)
    form = lambda left, right: ({"local_form": LocalForm(left, right, 1.0)}
                                if declared else {})
    return (BoundStateProblem(law, from_callable("asym", well, minimum_location=0.0,
                                                 **form(0.5, 0.2))),
            BoundStateProblem(law, from_callable("mirror", lambda x: well(-x),
                                                 minimum_location=0.0, **form(0.2, 0.5))))


def test_reflection_of_asymmetric_well_leaves_spectrum_unchanged():
    # declared, a grid point sits on the kink, so the two grids are mirror images
    left, right = _asymmetric_kink(relativistic(0.2))
    (w0, f0), (w1, f1) = _spectra(left), _spectra(right)
    assert _rel(w1, w0) < 1e-12
    assert _rel(f1, f0) < 1e-12
    # undeclared, the Gauss-offset anchor sits on opposite sides of the kink in the two grids
    left, right = _asymmetric_kink(relativistic(0.2), declared=False)
    (w0, f0), (w1, f1) = _spectra(left), _spectra(right)
    assert _rel(w1, w0) < 1e-12
    assert _rel(f1, f0) < 1e-5


def test_asymmetric_kink_reflection_gap_converges_at_third_order():
    """The Gauss offset of an undeclared well cancels the corner error only for equal slopes.

    With slopes 0.2 and 0.5 the FGH reflection gap falls by ~8 per doubling of N
    (measured 7.99-8.24 for n = 0, 5, 15 at N = 257 -> 513 -> 1025), not by 16.
    """
    left, right = _asymmetric_kink(nonrelativistic(1.0), declared=False)
    gaps = []
    for n_points in (257, 513, 1025):
        cfg = FghConfig(n_points=n_points, n_states=16)
        e0, e1 = solve(left, cfg).energies[NS], solve(right, cfg).energies[NS]
        gaps.append(np.abs(e1 - e0) / np.abs(e0))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((ratios >= 6.0) & (ratios <= 10.0))


def test_corrected_asymmetric_kink_converges_at_fifth_order():
    """Both kink terms cancelled, the FGH energies change ~34 times less per doubling of N.

    Measured 34.2 for the lowest 16 levels at N = 257 -> 513 -> 1025; an
    uncorrected kink with unequal slopes converges at third order (x8).
    """
    asym, _ = _asymmetric_kink(nonrelativistic(1.0))
    es = [solve(asym, FghConfig(n_points=N, n_states=16)).energies for N in (257, 513, 1025)]
    steps = [np.max(np.abs(a - b) / np.abs(b)) for a, b in zip(es, es[1:])]
    assert 25.0 <= steps[0] / steps[1] <= 45.0
    assert steps[1] < 1e-8


def test_massless_linear_energies_scale_as_sqrt_hbar_lambda():
    """|p| + lam|x|: x = sqrt(hbar/lam) y maps H onto sqrt(hbar*lam) (|q| + |y|)."""
    scaled = []
    for lam, hbar in [(0.2, 1.0), (3.0, 1.0), (0.2, 0.25), (1.0, 2.0)]:
        wkbj, fgh = _spectra(BoundStateProblem(massless(), linear(lam), hbar=hbar))
        scaled.append((wkbj / np.sqrt(hbar * lam), fgh / np.sqrt(hbar * lam)))
    for wkbj, fgh in scaled[1:]:
        assert _rel(wkbj, scaled[0][0]) < 1e-12
        assert _rel(fgh, scaled[0][1]) < 1e-10


def test_quartic_energies_scale_as_c_cube_root_over_m_two_thirds():
    """p^2/2m + c x^4: x = (m c)^(-1/6) y maps H onto c^(1/3) m^(-2/3) (q^2/2 + y^4)."""
    scaled = []
    for m, c in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.1), (2.0, 5.0)]:
        wkbj, fgh = _spectra(BoundStateProblem(nonrelativistic(m), power(c, 4.0)))
        unit = c ** (1.0 / 3.0) * (1.0 / m) ** (2.0 / 3.0)
        scaled.append((wkbj / unit, fgh / unit))
    for wkbj, fgh in scaled[1:]:
        assert _rel(wkbj, scaled[0][0]) < 1e-12
        assert _rel(fgh, scaled[0][1]) < 1e-10


@pytest.mark.parametrize("q", [1.5, 3.0, 6.0])
def test_power_well_energies_scale_as_c_and_m_powers(q):
    """p^2/2m + c|x|^q: x = (m c)^(-1/(q+2)) y scales H by c^(2/(q+2)) m^(-q/(q+2))."""
    scaled = []
    for m, c in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.1), (2.0, 5.0)]:
        wkbj, fgh = _spectra(BoundStateProblem(nonrelativistic(m), power(c, q)))
        unit = c ** (2.0 / (q + 2.0)) * m ** (-q / (q + 2.0))
        scaled.append((wkbj / unit, fgh / unit))
    for wkbj, fgh in scaled[1:]:
        assert _rel(wkbj, scaled[0][0]) < 1e-12
        assert _rel(fgh, scaled[0][1]) < 1e-10
