import numpy as np
import pytest

import semibound.quadrature
from semibound import QuadratureNotConverged
from semibound.quadrature import (
    PANEL_ORDER,
    START_PANELS,
    composite_gauss,
    cumulative_well_integral,
    sqrt_substituted,
    well_integral,
    well_integrals,
)


def test_polynomial_exact():
    val = composite_gauss(lambda x: 3 * x**2, 0.0, 2.0, panels=1)
    assert val == pytest.approx(8.0, rel=1e-14)


def test_adaptive_smooth():
    val = well_integral(np.sin, 0.0, np.pi, 1.0, sqrt_ends=False)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_inverse_sqrt_endpoints():
    # integral of 1/sqrt(x(2-x)) over (0,2) = pi
    f = lambda x: 1.0 / np.sqrt(x * (2.0 - x))
    val = well_integral(f, 0.0, 2.0, 1.0)
    assert val == pytest.approx(np.pi, rel=1e-11)


def test_sqrt_vanishing_endpoints():
    # integral of sqrt(1-x^2) over (-1,1) = pi/2
    f = lambda x: np.sqrt(np.maximum(1.0 - x * x, 0.0))
    val = well_integral(f, -1.0, 1.0, 0.0)
    assert val == pytest.approx(np.pi / 2, rel=1e-11)


def test_interior_kink_split():
    # |x| on (-1, 2): exact 2.5; split at the kink keeps each panel polynomial
    val = well_integral(np.abs, -1.0, 2.0, 0.0, sqrt_ends=False)
    assert val == pytest.approx(2.5, rel=1e-13)


def test_no_substitution_when_disabled():
    val = well_integral(lambda x: x * x, 0.0, 3.0, 1.5, sqrt_ends=False)
    assert val == pytest.approx(9.0, rel=1e-13)


def test_oscillatory_integrand():
    # sin^2(20x) over one envelope: mean 1/2 -> pi/2 over (0, pi)
    val = well_integral(lambda x: np.sin(20 * x) ** 2, 0.0, np.pi, 1.0, sqrt_ends=False)
    assert val == pytest.approx(np.pi / 2, rel=1e-11)


def test_infinite_integrand_raises_at_budget(monkeypatch):
    monkeypatch.setattr(semibound.quadrature, "MAX_NODES", 2**12)
    with pytest.raises(QuadratureNotConverged):
        well_integral(lambda x: np.full_like(x, np.inf), 0.0, 1.0, 0.5)


def test_infinite_estimate_never_agrees_with_finite(monkeypatch):
    # finite on the coarsest level only: a finite-vs-inf pair must not pass
    # as agreement, and the inf levels that follow run into the budget
    coarse = START_PANELS * PANEL_ORDER
    f = lambda x: np.ones_like(x) if x.shape[-1] == coarse else np.full_like(x, np.inf)
    monkeypatch.setattr(semibound.quadrature, "MAX_NODES", 2**12)
    with pytest.raises(QuadratureNotConverged):
        well_integral(f, 0.0, 1.0, 0.5)


def test_pair_matches_separate_integrals():
    # integral of sqrt(1-x^2) to tolerance; of 1/sqrt(1-x^2), made from its values, on the
    # coarse rule
    f = lambda x: np.sqrt(np.maximum(1.0 - x * x, 0.0))
    total, coarse = well_integrals(lambda x, k: f(x), -1.0, 1.0, 0.0, coarse=lambda y: 1.0 / y)
    assert total[0] == well_integral(f, -1.0, 1.0, 0.0)
    assert coarse[0] == pytest.approx(np.pi, rel=1e-12)


@pytest.mark.parametrize("sqrt_ends", [True, False])
def test_many_wells_match_one_well_each(sqrt_ends):
    # c_k cos^2(w_k x / r_k) on (-r_k, r_k): the wells differ in width and in integrand, and
    # the fastest oscillation needs more panels than the pass's first two levels
    r, c = np.array([0.5, 1.0, 3.0, 40.0]), np.array([1.0, 2.0, 0.5, 3.0])
    w = np.array([1, 2, 5, 60])

    def f(x, k):
        return c[k] * np.cos(w[k] * x / r[k]) ** 2

    wells = well_integrals(f, -r, r, 0.1 * r[0], sqrt_ends)
    for k in range(r.size):
        assert wells[k] == well_integral(lambda x: f(x, k), -r[k], r[k], 0.1 * r[0], sqrt_ends)


def test_sqrt_substituted_over_many_endpoints_is_each_scalar_call():
    # intervals ending at -1, 0.5 and 2 with their interior above, at 3, 1 and 4 with it
    # below: the array of endpoints, one row of u each, gives each scalar call's bits
    ends = np.array([[-1.0, 3.0], [0.5, 1.0], [2.0, 4.0]])
    inward = np.array([[0.0, 2.0], [0.7, 0.8], [3.0, 3.0]])
    u = np.linspace(0.0, 1.5, 7) * np.arange(1.0, 7.0).reshape(3, 2, 1)
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    every = sqrt_substituted(f, ends, inward)(u)
    assert every.shape == u.shape
    for i, j in np.ndindex(ends.shape):
        one = sqrt_substituted(f, ends[i, j], inward[i, j])(u[i, j])
        assert every[i, j].tobytes() == one.tobytes()


@pytest.mark.parametrize("sqrt_ends", [True, False])
def test_cumulative_integral_closed_form(sqrt_ends):
    # f = 1 + x^2 on (-1, 2): the integral from x to 2 is 2 - x + (8 - x^3)/3, 6 in all
    x = np.linspace(-1.0, 2.0, 3001)
    running = cumulative_well_integral(lambda t: 1.0 + t * t, -1.0, 2.0, 0.5, sqrt_ends)(x)
    exact = 2.0 - x + (8.0 - x**3) / 3.0
    assert np.max(np.abs(running - exact)) <= 1e-13 * 6.0


@pytest.mark.parametrize("split", [0.0, 3.0, -1.0, 4.0, np.nan])
@pytest.mark.parametrize("integrate", [
    lambda f, split: well_integral(f, 0.0, 3.0, split),
    lambda f, split: well_integrals(lambda x, k: f(x), [-1.0, 0.0], [4.0, 3.0], split,
                                    coarse=f),
    lambda f, split: well_integral(f, 0.0, 3.0, split, sqrt_ends=False),
    lambda f, split: cumulative_well_integral(f, 0.0, 3.0, split),
], ids=["single", "pair", "no-substitution", "cumulative"])
def test_split_outside_the_interval_is_refused(integrate, split):
    # the two halves need a < split < b; a split at an end or outside is an error, also
    # when it is inside another well of the same pass
    with pytest.raises(ValueError, match="not inside"):
        integrate(lambda x: x * x, split)
