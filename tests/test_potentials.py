import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semibound.potentials
from semibound import (
    BoundStateProblem,
    MultiWellUnsupported,
    NoClassicalRegion,
    NotConfining,
    SemiboundError,
    binding_energy,
    harmonic,
    linear,
    massless,
    nonrelativistic,
    power,
    relativistic,
    roots,
    turning_points,
)
from semibound.kinetics import from_callable as kinetic_from_callable
from semibound.potentials import LocalForm, TurningPoints
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


@pytest.mark.parametrize("centre", [150.0, -150.0])
def test_minimum_outside_the_search_interval_is_refused(centre):
    # the bounded search ends at the bound nearest the minimum instead of reporting it
    with pytest.raises(ValueError, match="pass minimum_location"):
        potential_from_callable("far", lambda x: (np.asarray(x) - centre) ** 2)
    pot = potential_from_callable("far", lambda x: (np.asarray(x) - centre) ** 2,
                                  minimum_location=centre)
    assert pot.minimum_value == 0.0


BUILT_IN_WELLS = {
    "linear": linear(0.2),
    "harmonic": harmonic(2.0, 0.7),
    "power-q1": power(0.3, 1.0),
    "power-q1.5": power(0.3, 1.5),
    "power-q4": power(0.3, 4.0),
}
BINDING_ENERGIES = np.logspace(-6.0, 6.0, 25)


@pytest.mark.parametrize("name", sorted(BUILT_IN_WELLS))
def test_closed_form_turning_points_match_brent(name):
    # the same V behind the opaque-well path: bracket, brentq_array, single-well scans
    well = BUILT_IN_WELLS[name]
    opaque = potential_from_callable(name, well.eval, minimum_location=0.0)
    for e_b in BINDING_ENERGIES:
        tps = turning_points(BoundStateProblem(massless(), well), e_b)
        ref = turning_points(BoundStateProblem(massless(), opaque), e_b)
        for x, x_ref in ((tps.a, ref.a), (tps.b, ref.b)):
            assert abs(x - x_ref) <= 4.0 * (roots.XTOL + roots.RTOL * abs(x_ref))
            assert float(well.eval(x)) == pytest.approx(e_b, rel=2e-15)


@pytest.mark.parametrize("well", [linear(1e-300), harmonic(2e-300, 1.0), power(1e-300, 1.0)],
                         ids=["linear", "harmonic", "power"])
def test_overflowing_closed_form_root_is_not_confining(well):
    for E in (1e300, np.float64(1e300)):  # a numpy energy overflows without a RuntimeWarning
        with pytest.raises(NotConfining):
            turning_points(BoundStateProblem(massless(), well), E)


def test_built_in_wells_never_call_brent(monkeypatch):
    calls = []

    def counting(f, a, b, real=roots.brentq_array):
        calls.append((a.tolist(), b.tolist()))
        return real(f, a, b)

    monkeypatch.setattr(roots, "brentq_array", counting)
    monkeypatch.setattr(semibound.potentials, "brentq_array", counting)
    for well in BUILT_IN_WELLS.values():
        for e_b in (1e-3, 1.0, 1e3):
            turning_points(BoundStateProblem(massless(), well), e_b)
    assert calls == []
    # the patch sits where the opaque-well path looks for brentq_array: one call, both brackets
    turning_points(BoundStateProblem(
        massless(), potential_from_callable("v", linear(0.2).eval, minimum_location=0.0)), 1.0)
    assert len(calls) == 1
    (lo, hi), = calls
    (a_lo, b_lo), (a_hi, b_hi) = sorted(lo), sorted(hi)
    assert a_lo < -5.0 < a_hi < 0.0 < b_lo < 5.0 < b_hi


def test_barrier_between_the_outward_samples_is_multi_well():
    # the outward scan samples x = 0.256 and 0.512, stepping over the barrier on
    # 0.3 < x < 0.45; the scan between the roots finds it
    barrier = lambda x: 0.2 * np.abs(x) + 5.0 * ((x > 0.3) & (x < 0.45))
    well = potential_from_callable("barrier", barrier, minimum_location=0.0)
    with pytest.raises(MultiWellUnsupported,
                       match="potential exceeds E_B .* between turning points"):
        turning_points(BoundStateProblem(massless(), well), 1.0)


def test_builtin_wells_declare_their_local_form():
    assert linear(0.2).local_form == LocalForm(0.2, 0.2, 1.0)
    assert harmonic(2.0, 3.0).local_form == LocalForm(9.0, 9.0, 2.0)
    assert power(0.5, 1.5).local_form == LocalForm(0.5, 0.5, 1.5)
    assert potential_from_callable("v", np.abs, minimum_location=0.0).local_form is None


@pytest.mark.parametrize("left,right,q", [
    (0.2, 0.2, 0.0),      # q > 0
    (0.2, np.inf, 1.0),
    (-0.2, 0.2, 1.0),
])
def test_local_form_rejects_inconsistent_values(left, right, q):
    with pytest.raises(ValueError):
        LocalForm(left, right, q)


def test_turning_points_out_of_order_are_refused():
    with pytest.raises(ValueError, match="out of order"):
        TurningPoints(1.0, 0.0)


def test_root_on_a_step_of_an_opaque_well_fails_refinement():
    # V jumps from 1.0 to 2.0 at |x| = 5, so Brent closes on the step, where V never equals E_B
    step = lambda x: 0.2 * np.abs(x) + 1.0 * (np.abs(x) > 5)
    well = potential_from_callable("step", step, minimum_location=0.0)
    with pytest.raises(SemiboundError, match=r"turning-point refinement failed at E_B = 1\.5"):
        turning_points(BoundStateProblem(massless(), well), 1.5)
