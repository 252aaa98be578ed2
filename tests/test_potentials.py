import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibound import (
    BoundStateProblem,
    MultiWellUnsupported,
    NoClassicalRegion,
    binding_energy,
    harmonic,
    linear,
    massless,
    nonrelativistic,
    relativistic,
    turning_points,
)
from semibound.kinetics import from_callable as kinetic_from_callable
from semibound.potentials import from_callable as potential_from_callable


def test_linear_turning_points():
    prob = BoundStateProblem(massless(), linear(0.2))
    tps = turning_points(prob, 1.0)
    assert tps.a == pytest.approx(-5.0, abs=1e-12)
    assert tps.b == pytest.approx(5.0, abs=1e-12)
    assert tps.d == pytest.approx(10.0, abs=1e-12)


def test_harmonic_turning_points():
    # V = x^2 via harmonic(mass=2, omega=1); E_B = 4 -> (-2, 2)
    prob = BoundStateProblem(massless(), harmonic(2.0, 1.0))
    tps = turning_points(prob, 4.0)
    assert tps.a == pytest.approx(-2.0, abs=1e-12)
    assert tps.b == pytest.approx(2.0, abs=1e-12)


def test_rest_energy_shifts_only_total_energy():
    # relativistic m=0.2: E = 1.2 gives E_B = 1.0, same points as massless E = 1
    prob = BoundStateProblem(relativistic(0.2), linear(0.2))
    tps = turning_points(prob, 1.2)
    assert tps.a == pytest.approx(-5.0, abs=1e-12)
    assert tps.b == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("law,E,expected", [
    (relativistic(0.2), 1.2, 1.0),
    (massless(), 0.7, 0.7),
    (nonrelativistic(1.0), 0.5, 0.5),
])
def test_binding_energy(law, E, expected):
    prob = BoundStateProblem(law, linear(0.2))
    assert binding_energy(prob, E) == pytest.approx(expected, abs=1e-15)


def test_symmetric_mirror():
    prob = BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0))
    for E in (0.3, 1.7, 9.2):
        tps = turning_points(prob, E)
        assert tps.b == pytest.approx(-tps.a, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(e1=st.floats(0.1, 5.0), e2=st.floats(0.1, 5.0))
def test_region_grows_with_energy(e1, e2):
    prob = BoundStateProblem(massless(), linear(0.2))
    lo, hi = sorted((e1, e2))
    t_lo, t_hi = turning_points(prob, lo), turning_points(prob, hi)
    assert t_hi.a <= t_lo.a and t_hi.b >= t_lo.b


def test_rest_energy_invariance_exact():
    # adding a constant c to T and to E leaves the turning points unchanged
    base = nonrelativistic(1.0)
    c = 0.7
    shifted = kinetic_from_callable(
        "shifted", lambda p: np.asarray(p) ** 2 / 2 + c,
        deriv=base.deriv, deriv2=base.deriv2,
        inverse=lambda y: np.sqrt(2.0 * np.maximum(np.asarray(y) - c, 0.0)))
    pot = harmonic(1.0, 1.0)
    for E in (0.5, 2.5):
        t0 = turning_points(BoundStateProblem(base, pot), E)
        t1 = turning_points(BoundStateProblem(shifted, pot), E + c)
        assert t1.a == t0.a and t1.b == t0.b


def test_no_classical_region_below_minimum():
    prob = BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0))
    with pytest.raises(NoClassicalRegion):
        turning_points(prob, 0.0)
    with pytest.raises(NoClassicalRegion):
        turning_points(prob, -1.0)


def test_multi_well_rejected():
    double = potential_from_callable(
        "double_well", lambda x: (np.asarray(x) ** 2 - 1.0) ** 2,
        minimum_location=1.0)
    prob = BoundStateProblem(nonrelativistic(1.0), double)
    with pytest.raises(MultiWellUnsupported):
        turning_points(prob, 0.5)  # below the barrier: four roots of V = E_B
    # above the barrier the region is single and the solver accepts it
    tps = turning_points(prob, 2.0)
    assert tps.b == pytest.approx(np.sqrt(1.0 + np.sqrt(2.0)), rel=1e-12)


def test_turning_points_satisfy_defining_equation():
    prob = BoundStateProblem(relativistic(0.2), harmonic(1.0, 1.0))
    for E in (0.9, 2.3, 7.1):
        tps = turning_points(prob, E)
        e_b = binding_energy(prob, E)
        assert float(prob.potential.eval(tps.a)) == pytest.approx(e_b, abs=1e-12 * max(1, e_b))
        assert float(prob.potential.eval(tps.b)) == pytest.approx(e_b, abs=1e-12 * max(1, e_b))


def test_numeric_minimum_search():
    pot = potential_from_callable("offset", lambda x: (np.asarray(x) - 1.5) ** 2)
    assert pot.minimum_location == pytest.approx(1.5, abs=1e-8)
    assert pot.minimum_value == pytest.approx(0.0, abs=1e-12)
