import numpy as np
import pytest

from semibound import QuadratureNotConverged
from semibound.quadrature import (
    PANEL_ORDER,
    START_PANELS,
    adaptive_gauss,
    composite_gauss,
    well_integral,
    well_integral_pair,
)


def test_polynomial_exact():
    val = composite_gauss(lambda x: 3 * x**2, 0.0, 2.0, panels=1)
    assert val == pytest.approx(8.0, rel=1e-14)


def test_adaptive_smooth():
    val = adaptive_gauss(np.sin, 0.0, np.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_inverse_sqrt_endpoints():
    # integral of 1/sqrt(x(2-x)) over (0,2) = pi
    f = lambda x: 1.0 / np.sqrt(x * (2.0 - x))
    val = well_integral(f, 0.0, 2.0, splits=(1.0,))
    assert val == pytest.approx(np.pi, rel=1e-11)


def test_sqrt_vanishing_endpoints():
    # integral of sqrt(1-x^2) over (-1,1) = pi/2
    f = lambda x: np.sqrt(np.maximum(1.0 - x * x, 0.0))
    val = well_integral(f, -1.0, 1.0, splits=(0.0,))
    assert val == pytest.approx(np.pi / 2, rel=1e-11)


def test_interior_kink_split():
    # |x| on (-1, 2): exact 2.5; split at the kink keeps each panel polynomial
    val = well_integral(np.abs, -1.0, 2.0, splits=(0.0,),
                        sqrt_left=False, sqrt_right=False)
    assert val == pytest.approx(2.5, rel=1e-13)


def test_no_substitution_when_disabled():
    val = well_integral(lambda x: x * x, 0.0, 3.0, splits=(),
                        sqrt_left=False, sqrt_right=False)
    assert val == pytest.approx(9.0, rel=1e-13)


def test_oscillatory_integrand():
    # sin^2(20x) over one envelope: mean 1/2 -> pi/2 over (0, pi)
    val = adaptive_gauss(lambda x: np.sin(20 * x) ** 2, 0.0, np.pi)
    assert val == pytest.approx(np.pi / 2, rel=1e-11)


def test_empty_interval():
    assert adaptive_gauss(np.exp, 1.0, 1.0) == 0.0


def test_infinite_integrand_raises_at_budget():
    with pytest.raises(QuadratureNotConverged):
        adaptive_gauss(lambda x: np.full_like(x, np.inf), 0.0, 1.0, max_nodes=2**12)


def test_infinite_estimate_never_agrees_with_finite():
    # finite on the coarsest level only: a finite-vs-inf pair must not pass
    # as agreement, and the inf levels that follow run into the budget
    coarse = START_PANELS * PANEL_ORDER
    f = lambda x: np.ones_like(x) if x.size == coarse else np.full_like(x, np.inf)
    with pytest.raises(QuadratureNotConverged):
        adaptive_gauss(f, 0.0, 1.0, max_nodes=2**12)


def test_pair_matches_separate_integrals():
    # integral of sqrt(1-x^2) to tolerance; of 1/sqrt(1-x^2) on the coarse rule
    f = lambda x: np.sqrt(np.maximum(1.0 - x * x, 0.0))
    g = lambda x: 1.0 / np.sqrt(1.0 - x * x)
    total, coarse = well_integral_pair(f, g, -1.0, 1.0, splits=(0.0,))
    assert total == well_integral(f, -1.0, 1.0, splits=(0.0,))
    assert coarse == pytest.approx(np.pi, rel=1e-12)
