import numpy as np
import pytest
from scipy.integrate import quad

from semibound import (
    BoundStateProblem,
    Provenance,
    classical_density,
    harmonic,
    linear,
    massless,
    nonrelativistic,
    period,
    relativistic,
    turning_points,
)
from semibound.classical import speed_field
from semibound.kinetics import from_callable as kinetic_from_callable


def test_speed_massless_is_unity_inside(benchmark_b):
    tps = turning_points(benchmark_b, 1.0)
    for x in np.linspace(tps.a + 1e-6, tps.b - 1e-6, 7):
        assert float(speed_field(benchmark_b, 1.0)(x)) == pytest.approx(1.0, abs=1e-14)


def test_speed_vanishes_at_turning_points(benchmark_a, benchmark_b, oscillator):
    for prob, E in ((benchmark_a, 1.2), (benchmark_b, 1.0), (oscillator, 2.0)):
        tps = turning_points(prob, E)
        speed = speed_field(prob, E)
        assert float(speed(tps.a)) == pytest.approx(0.0, abs=1e-6)
        assert float(speed(tps.b)) == pytest.approx(0.0, abs=1e-6)


def test_speed_relativistic_closed_form(benchmark_a):
    # E = 1.2 at x = 0: p = sqrt(1.2^2 - 0.2^2), v = p / 1.2
    p = np.sqrt(1.2**2 - 0.2**2)
    assert float(speed_field(benchmark_a, 1.2)(0.0)) == pytest.approx(p / 1.2, rel=1e-12)
    assert p / 1.2 == pytest.approx(0.98601329718326, rel=1e-10)


def test_period_massless_linear(benchmark_b):
    # |v| = 1 so tau = 2d = 20 for E_B = 1, lam = 0.2
    assert period(benchmark_b, 1.0) == pytest.approx(20.0, rel=1e-12)


def test_period_harmonic_energy_independent(oscillator):
    for E in (0.5, 1.0, 4.3):
        assert period(oscillator, E) == pytest.approx(2 * np.pi, rel=1e-11)


def test_period_scales_with_width():
    # at fixed |v| = 1, doubling the well width doubles the period
    narrow = BoundStateProblem(massless(), linear(0.4))
    wide = BoundStateProblem(massless(), linear(0.2))
    assert period(wide, 1.0) == pytest.approx(2 * period(narrow, 1.0), rel=1e-12)


def test_density_massless_flat(benchmark_b):
    rho = classical_density(benchmark_b, 1.0)
    inside = (rho.grid > rho.support.a) & (rho.grid < rho.support.b)
    assert np.allclose(rho.values[inside], 0.1, rtol=1e-12, atol=0)
    outside = ~((rho.grid >= rho.support.a) & (rho.grid <= rho.support.b))
    assert np.all(rho.values[outside] == 0.0)
    assert rho.provenance is Provenance.CLASSICAL


def test_density_harmonic_closed_form(oscillator):
    # rho(x) = 1/(pi sqrt(2E - x^2)) for m = omega = 1
    E = 1.0
    rho = classical_density(oscillator, E)
    inside = np.abs(rho.grid) < np.sqrt(2 * E) * 0.999
    expected = 1.0 / (np.pi * np.sqrt(2 * E - rho.grid[inside] ** 2))
    assert np.allclose(rho.values[inside], expected, rtol=1e-10)


def test_density_diverges_at_turning_points(benchmark_a):
    E = 1.2
    tps = turning_points(benchmark_a, E)
    near = tps.b - tps.d * np.array([1e-4, 1e-6, 1e-8])
    rho = classical_density(benchmark_a, E, grid=near)
    assert np.all(np.diff(rho.values) > 0)
    assert rho.values[-1] > 50 * rho.values[0]
    # exactly at the turning point the sample is the +inf sentinel
    at_tp = classical_density(benchmark_a, E, grid=np.array([tps.a, 0.0, tps.b]))
    assert np.isinf(at_tp.values[0]) and np.isinf(at_tp.values[2])
    assert np.isfinite(at_tp.values[1])


@pytest.mark.parametrize("law,pot,E", [
    (relativistic(0.2), linear(0.2), 1.2),
    (massless(), linear(0.2), 1.0),
    (nonrelativistic(1.0), harmonic(1.0, 1.0), 2.0),
    (relativistic(0.2), harmonic(1.0, 1.0), 1.5),
])
def test_normalization_independent_quadrature(law, pot, E):
    """Integral of rho_cl over (a,b) is 1, checked with scipy's adaptive quad."""
    prob = BoundStateProblem(law, pot)
    tps = turning_points(prob, E)

    def rho(x):
        return float(classical_density(prob, E, grid=np.array([x]), tps=tps).values[0])

    val, err = quad(rho, tps.a, tps.b, limit=400, points=[tps.a, 0.0, tps.b])
    assert val == pytest.approx(1.0, abs=5e-7)


def test_symmetry(benchmark_a):
    E = 1.7
    tps = turning_points(benchmark_a, E)
    x = np.linspace(0.01, tps.b * 0.99, 200)
    right = classical_density(benchmark_a, E, grid=x).values
    left = classical_density(benchmark_a, E, grid=-x).values
    assert np.allclose(left, right, rtol=1e-10)


def test_rest_energy_invariance_pointwise():
    base = nonrelativistic(1.0)
    c = 1.3
    shifted = kinetic_from_callable(
        "shifted", lambda p: np.asarray(p) ** 2 / 2 + c,
        deriv=base.deriv, deriv2=base.deriv2,
        inverse=lambda y: np.sqrt(2.0 * np.maximum(np.asarray(y) - c, 0.0)))
    pot = harmonic(1.0, 1.0)
    E = 2.0
    grid = np.linspace(-2.2, 2.2, 801)
    rho0 = classical_density(BoundStateProblem(base, pot), E, grid=grid)
    rho1 = classical_density(BoundStateProblem(shifted, pot), E + c, grid=grid)
    finite = np.isfinite(rho0.values)
    assert np.allclose(rho0.values[finite], rho1.values[finite], rtol=1e-12, atol=1e-12)


def test_monotone_from_turning_point_to_minimum(oscillator):
    E = 3.0
    tps = turning_points(oscillator, E)
    x = np.linspace(tps.a + 1e-9, 0.0, 400)
    rho = classical_density(oscillator, E, grid=x).values
    assert np.all(np.diff(rho) <= 1e-12)
