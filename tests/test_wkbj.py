import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import semibound.wkbj
from semibound import (
    BoundStateProblem,
    EnergyCeilingExceeded,
    MultiWellUnsupported,
    NotConfining,
    QuadratureNotConverged,
    action_integral,
    harmonic,
    linear,
    massless,
    nonrelativistic,
    power,
    quantize,
    relativistic,
    turning_points,
    wkbj_wavefunction,
)
from semibound.classical import momentum_field, speed_field, well_layout
from semibound.kinetics import from_callable as kinetic_from_callable
from semibound.potentials import from_callable as potential_from_callable
from semibound.quadrature import (START_PANELS, adaptive_gauss, composite_gauss,
                                  cumulative_well_integral, sqrt_substituted)
from semibound.wkbj import wavefunction_values

from conftest import count_sign_changes
from test_metamorphic import _asymmetric_kink


def relativistic_linear_action(E, m, lam):
    """Closed form of the action for sqrt(p^2+m^2) + lam|x| (hand integral).

    A(E) = (1/lam) * [E*pbar - m^2*ln((E + pbar)/m)], pbar = sqrt(E^2 - m^2).
    """
    pbar = np.sqrt(E * E - m * m)
    return (E * pbar - m * m * np.log((E + pbar) / m)) / lam


def test_action_massless_linear(benchmark_b):
    # A(E) = E^2 / lam
    assert action_integral(benchmark_b, 1.0)[0] == pytest.approx(5.0, rel=1e-10)
    assert action_integral(benchmark_b, 0.3)[0] == pytest.approx(0.45, rel=1e-10)


def test_action_harmonic(oscillator):
    assert action_integral(oscillator, 2.0)[0] == pytest.approx(2 * np.pi, rel=1e-10)
    assert action_integral(oscillator, 0.5)[0] == pytest.approx(0.5 * np.pi, rel=1e-10)


def test_action_relativistic_closed_form(benchmark_a):
    for E in (0.5, 1.2, 3.1):
        assert action_integral(benchmark_a, E)[0] == pytest.approx(
            relativistic_linear_action(E, 0.2, 0.2), rel=1e-10)


def test_action_vanishes_at_well_bottom(oscillator):
    assert action_integral(oscillator, 1e-8)[0] == pytest.approx(np.pi * 1e-8, rel=1e-6)


def test_action_strictly_increasing(benchmark_a):
    rng = np.random.default_rng(7)
    for _ in range(20):
        e1, e2 = sorted(rng.uniform(0.25, 4.0, size=2))
        if e2 - e1 < 1e-6:
            continue
        assert action_integral(benchmark_a, e2)[0] > action_integral(benchmark_a, e1)[0]


def test_quantize_oscillator_exact(oscillator):
    for n in range(21):
        state = quantize(oscillator, n)
        assert state.energy == pytest.approx(n + 0.5, rel=1e-10)


def test_quantize_oscillator_with_hbar():
    prob = BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0), hbar=2.0)
    for n in (0, 3):
        assert quantize(prob, n).energy == pytest.approx(2.0 * (n + 0.5), rel=1e-10)


def test_quantize_massless_closed_form(benchmark_b):
    for n in range(21):
        state = quantize(benchmark_b, n)
        assert state.energy == pytest.approx(np.sqrt(np.pi * 0.2 * (n + 0.5)), rel=1e-10)


def test_quantize_round_trip_and_residual(benchmark_a):
    for n in (0, 3, 9, 15):
        state = quantize(benchmark_a, n)
        target = np.pi * (n + 0.5)
        assert state.action_residual <= 1e-10 * target
        assert action_integral(benchmark_a, state.energy)[0] == pytest.approx(
            target, abs=2e-10 * target)


def test_energies_strictly_increasing(benchmark_b):
    energies = [quantize(benchmark_b, n).energy for n in range(10)]
    assert np.all(np.diff(energies) > 0)


def test_quantize_rest_energy_invariance():
    base = nonrelativistic(1.0)
    c = 0.9
    shifted = kinetic_from_callable(
        "shifted", lambda p: np.asarray(p) ** 2 / 2 + c,
        deriv=base.deriv, deriv2=base.deriv2,
        inverse=lambda y: np.sqrt(2.0 * np.maximum(np.asarray(y) - c, 0.0)))
    pot = harmonic(1.0, 1.0)
    for n in (0, 4, 11):
        e0 = quantize(BoundStateProblem(base, pot), n).energy
        e1 = quantize(BoundStateProblem(shifted, pot), n).energy
        assert e1 - c == pytest.approx(e0, abs=1e-12)


def test_energy_ceiling_for_saturating_potential():
    plateau = potential_from_callable(
        "plateau", lambda x: 1.0 - 1.0 / (1.0 + np.asarray(x) ** 2),
        minimum_location=0.0)
    prob = BoundStateProblem(nonrelativistic(1.0), plateau)
    with pytest.raises(EnergyCeilingExceeded):
        quantize(prob, 40)


def test_energy_ceiling_stops_the_bracket(monkeypatch, oscillator):
    # E_40 = 40.5; a ceiling of 10 above the well bottom stops the doubling at E = 16
    monkeypatch.setattr(semibound.wkbj, "ENERGY_CEILING", 10.0)
    with pytest.raises(EnergyCeilingExceeded, match=r"A\(E\) below pi\*hbar\*\(n\+1/2\) = .* "
                       r"up to E = 16"):
        quantize(oscillator, 40)


def test_double_well_keeps_its_error_type():
    dw = potential_from_callable("dw", lambda x: 4 * (x * x - 1) ** 2, minimum_location=1.0)
    with pytest.raises(MultiWellUnsupported):
        quantize(BoundStateProblem(nonrelativistic(1.0), dw), 0)


QUANTIZER_CASES = {
    "benchmark_a": (relativistic(0.2), linear(0.2)),
    "benchmark_b": (massless(), linear(0.2)),
    "oscillator": (nonrelativistic(1.0), harmonic(1.0, 1.0)),
    "relativistic_quartic": (relativistic(1.0), power(1.0, 4.0)),
    "relativistic_m50": (relativistic(50.0), linear(0.2)),
    "relativistic_m100": (relativistic(100.0), linear(0.2)),
}


def _well_bottom(problem):
    return problem.potential.minimum_value + problem.kinetic.rest_energy


@pytest.mark.parametrize("n", [0, 5, 15, 63])
@pytest.mark.parametrize("case", sorted(QUANTIZER_CASES))
def test_quantize_matches_brent_reference(case, n):
    problem = BoundStateProblem(*QUANTIZER_CASES[case])
    state = quantize(problem, n)
    target = np.pi * (n + 0.5)
    e_lo = _well_bottom(problem)
    s = state.energy - e_lo
    # Brent on A(E) - target, bracketed well away from the well bottom
    reference = brentq(lambda E: action_integral(problem, E)[0] - target,
                       e_lo + 0.5 * s, e_lo + 2.0 * s,
                       xtol=1e-300, rtol=4 * np.finfo(float).eps)
    assert abs(state.energy - reference) <= 1e-13 * abs(reference)
    assert state.action_residual <= 1e-12 * target


@pytest.mark.parametrize("n", [0, 5, 15, 63])
@pytest.mark.parametrize("case", sorted(QUANTIZER_CASES))
def test_quantize_probes(monkeypatch, case, n):
    problem = BoundStateProblem(*QUANTIZER_CASES[case])
    energies = []
    original = semibound.wkbj.action_integral

    def counting(problem, E, *args, **kwargs):
        energies.extend(np.atleast_1d(E).tolist())  # a round's energies come as one array
        return original(problem, E, *args, **kwargs)

    monkeypatch.setattr(semibound.wkbj, "action_integral", counting)
    state = quantize(problem, n)
    e_lo = _well_bottom(problem)
    # A(e_lo) = 0 is known: no probe at or next to the well bottom
    assert min(energies) - e_lo > 1e-6 * (state.energy - e_lo)
    # the bracket probes come first, at e_lo + gap * 2^k
    gap = max(1.0, abs(e_lo))
    bracket = 0
    while bracket < len(energies) and energies[bracket] == e_lo + gap * 2.0**bracket:
        bracket += 1
    assert bracket >= 1
    assert len(energies) - bracket <= 12


def _reference_action(problem, E, tps):
    """(A, dA/dE) at one energy, the reference for the lock-step pass: each half of the well
    by its own adaptive_gauss, and tau/2 on each half's START_PANELS rule, on which the
    momentum is evaluated once more."""
    momentum, speed = momentum_field(problem, E), speed_field(problem, E)
    split, sqrt_ends = well_layout(problem)
    halves = ([(0.0, np.sqrt(split - tps.a), lambda f: sqrt_substituted(f, tps.a, tps.b)),
               (0.0, np.sqrt(tps.b - split), lambda f: sqrt_substituted(f, tps.b, tps.a))]
              if sqrt_ends else [(tps.a, split, lambda f: f), (split, tps.b, lambda f: f)])
    action = slope = 0.0
    for lo, hi, sub in halves:
        action += adaptive_gauss(sub(momentum), lo, hi)
        slope += composite_gauss(sub(lambda x: 1.0 / speed(x)), lo, hi, START_PANELS)
    return action, slope


def _one_level_at_a_time(monkeypatch, problem, ns):
    """The states of ns quantized one level after another on _reference_action; the first
    error raised ends the loop and is returned in place of the states."""

    known = {}  # every level probes the same bracket energies

    def reference(problem, E, tps):
        for e, t in zip(E, tps):
            if e not in known:
                known[e] = _reference_action(problem, e, t)
        return tuple(np.array(column) for column in zip(*(known[e] for e in E)))

    with monkeypatch.context() as patch:
        patch.setattr(semibound.wkbj, "action_integral", reference)
        try:
            return [quantize(problem, n) for n in ns]
        except Exception as exc:
            return exc


def _bits(state):
    """Every field of a WkbjState, each float as its exact hex form."""
    tps = state.turning_points
    return [state.n] + [float(x).hex() for x in (state.energy, tps.a, tps.b, state.alpha,
                                                 state.action_residual)]


LEVELS_CASES = {
    "benchmark_a": lambda: BoundStateProblem(relativistic(0.2), linear(0.2)),
    "benchmark_b": lambda: BoundStateProblem(massless(), linear(0.2)),
    "oscillator": lambda: BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0)),
    # T^-1 synthesized by brentq_array
    "quartic_law": lambda: BoundStateProblem(
        kinetic_from_callable("quartic", lambda p: 0.5 * p * p + 0.01 * p**4), linear(0.2)),
    # slopes 0.2 and 0.5 either side of a kink, turning points by brentq_array
    "asymmetric_kink": lambda: _asymmetric_kink(relativistic(0.2))[0],
}


@pytest.mark.parametrize("case", sorted(LEVELS_CASES))
def test_levels_in_lock_step_equal_one_level_at_a_time(monkeypatch, case):
    problem = LEVELS_CASES[case]()
    ns = range(64)
    states = quantize(problem, ns)
    assert [s.n for s in states] == list(ns)
    assert [_bits(s) for s in states] == [
        _bits(s) for s in _one_level_at_a_time(monkeypatch, problem, ns)]


def _plateau(height: float):
    """V = height * x^2 / (1 + x^2): confining below E_B = height only."""
    return potential_from_callable("plateau", lambda x: height * x * x / (1.0 + x * x),
                                   minimum_location=0.0)


def test_levels_beyond_a_plateau_raise_as_one_level_at_a_time(monkeypatch):
    # E_0..E_3 lie below 16, where their bracket ends; the others probe E = 32, above the plateau
    problem = BoundStateProblem(nonrelativistic(1.0), _plateau(20.0))
    ns = list(range(8))
    expected = _one_level_at_a_time(monkeypatch, problem, ns)
    assert isinstance(expected, EnergyCeilingExceeded)
    assert isinstance(expected.__cause__, NotConfining)
    assert quantize(problem, range(4)) == tuple(quantize(problem, n) for n in range(4))
    with pytest.raises(EnergyCeilingExceeded) as raised:
        quantize(problem, ns[::-1])
    assert str(raised.value) == str(expected)
    assert isinstance(raised.value.__cause__, NotConfining)


def test_a_quadrature_failure_stays_with_its_level(monkeypatch, benchmark_a):
    """Level 3 fails in its Newton phase, after levels 7 and up have failed at a bracket probe.

    A(E) fails to converge within 1e-3 of E_3 = 1.53, and above E = 4, which levels 7 and
    up (E_7 = 2.20) probe at E = 4.2 in the same round as lower levels probe below it. The
    multi-level call raises level 3's error, as one level at a time does.
    """
    e3 = quantize(benchmark_a, 3).energy
    original = semibound.wkbj.action_integral

    def failing(problem, E, tps):
        energies = np.atleast_1d(E)
        if np.any(np.abs(energies - e3) < 1e-3):
            raise QuadratureNotConverged("no agreement near E_3")
        if np.any(energies > 4.0):
            raise QuadratureNotConverged("no agreement above E = 4")
        return original(problem, E, tps)

    rounds = []
    probes = semibound.wkbj._probes

    def recording(problem, energies):
        rounds.append(energies)
        return probes(problem, energies)

    monkeypatch.setattr(semibound.wkbj, "action_integral", failing)
    monkeypatch.setattr(semibound.wkbj, "_probes", recording)
    ns = list(range(12))
    with pytest.raises(QuadratureNotConverged, match="near E_3"):
        quantize(benchmark_a, ns)
    # the bracket probe above 4 came in an earlier round than level 3's failing probe, and
    # with energies of levels below 3
    above = min(i for i, energies in enumerate(rounds) if any(e > 4.0 for e in energies))
    near = min(i for i, energies in enumerate(rounds) if any(abs(e - e3) < 1e-3 for e in energies))
    assert above < near
    assert min(rounds[above]) < e3
    with pytest.raises(QuadratureNotConverged, match="near E_3"):
        for n in ns:
            quantize(benchmark_a, n)


def test_alpha_massless_closed_form(benchmark_b):
    # t^-1 = id, E* = E, d = 2E/lam  ->  alpha = lam / (2 E^2)
    state = quantize(benchmark_b, 5)
    assert state.alpha == pytest.approx(0.2 / (2 * state.energy**2), rel=1e-12)
    assert state.alpha == pytest.approx(1.0 / (2 * np.pi * 5.5), rel=1e-10)


def test_alpha_nonrelativistic_reduction(oscillator):
    # alpha = hbar / (sqrt(2 m E*) d) for T = p^2/(2m)
    state = quantize(oscillator, 6)
    e_star = state.energy  # E_B - min V with T(0) = 0, min V = 0
    expected = 1.0 / (np.sqrt(2.0 * e_star) * state.turning_points.d)
    assert state.alpha == pytest.approx(expected, rel=1e-12)


def test_alpha_order_of_magnitude(benchmark_a, benchmark_b, oscillator):
    """alpha * pi * n is O(1) for n >= 5 (exact band depends on the E* choice)."""
    for prob in (benchmark_a, benchmark_b, oscillator):
        for n in (5, 10, 15):
            state = quantize(prob, n)
            assert state.alpha > 0
            assert 0.2 < state.alpha * np.pi * n < 1.25


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 15])
def test_node_counts(benchmark_a, n):
    state = quantize(benchmark_a, n)
    tps = state.turning_points
    x = np.linspace(tps.a + 1e-6 * tps.d, tps.b - 1e-6 * tps.d, 50001)
    psi = wavefunction_values(benchmark_a, state, x)
    assert count_sign_changes(psi) == n


def test_node_counts_massless(benchmark_b):
    for n in (0, 5, 15):
        state = quantize(benchmark_b, n)
        tps = state.turning_points
        x = np.linspace(tps.a + 1e-6 * tps.d, tps.b - 1e-6 * tps.d, 50001)
        assert count_sign_changes(wavefunction_values(benchmark_b, state, x)) == n


def test_wavefunction_normalized_independent_quadrature(benchmark_a):
    state = quantize(benchmark_a, 4)
    tps = state.turning_points

    def rho(x):
        return float(wkbj_wavefunction(benchmark_a, state,
                                       grid=np.array([x])).values[0])

    val, err = quad(rho, tps.a, tps.b, limit=800, points=[tps.a, 0.0, tps.b])
    assert val == pytest.approx(1.0, abs=5e-7)


def test_density_diverges_at_turning_points(benchmark_a):
    state = quantize(benchmark_a, 3)
    tps = state.turning_points
    rho = wkbj_wavefunction(benchmark_a, state,
                            grid=np.array([tps.a, tps.a + 0.3 * tps.d, tps.b]))
    assert np.isinf(rho.values[0]) and np.isinf(rho.values[2])


def test_massless_density_oscillates_about_flat(benchmark_b):
    state = quantize(benchmark_b, 5)
    tps = state.turning_points
    x = np.linspace(tps.a * 0.9, tps.b * 0.9, 4001)
    rho = wkbj_wavefunction(benchmark_b, state, grid=x)
    flat = 1.0 / tps.d
    # psi^2 = D^2 sin^2(Phi + pi/4) with Phi stationary at the turning points,
    # so the norm is d/2 plus a Fresnel boundary term:
    #   integral of sin(2 Phi) = sqrt(pi/(2 lam)) with Phi = lam (b-x)^2 / 2,
    # giving a peak value 1/(d/2 + sqrt(pi/(2 lam))/2) instead of naive 2/d.
    lam = 0.2
    peak = 1.0 / (tps.d / 2 + 0.5 * np.sqrt(np.pi / (2 * lam)))
    assert rho.values.max() == pytest.approx(peak, rel=0.005)
    assert rho.values.min() < 0.02 * flat
    assert np.mean(rho.values) == pytest.approx(flat, rel=0.05)


def test_wavefunction_zero_outside_region(benchmark_a):
    state = quantize(benchmark_a, 2)
    tps = state.turning_points
    rho = wkbj_wavefunction(benchmark_a, state,
                            grid=np.array([tps.a - 1.0, tps.b + 1.0]))
    assert np.all(rho.values == 0.0)


def test_phase_boundary_value(benchmark_a):
    # at x -> b the phase is pi/4: psi has the sign of sin(pi/4) > 0 there
    state = quantize(benchmark_a, 6)
    tps = state.turning_points
    x = np.array([tps.b - 1e-5 * tps.d])
    assert wavefunction_values(benchmark_a, state, x)[0] > 0


@pytest.mark.parametrize("n", [0, 5, 15, 63])
def test_phase_massless_linear_closed_form(benchmark_b, n):
    # p(x) = lam*(b - |x|) with b = E/lam: Phi(x) = lam*(b - x)^2/2 for x >= 0
    # and A - lam*(x - a)^2/2 for x <= 0, with A = lam*b^2 = E^2/lam
    lam = 0.2
    state = quantize(benchmark_b, n)
    tps, E = state.turning_points, state.energy
    b = E / lam
    x = np.linspace(tps.a, tps.b, 4001)
    exact = np.where(x >= 0.0, 0.5 * lam * (b - x) ** 2, lam * b * b - 0.5 * lam * (x + b) ** 2)
    phi = semibound.wkbj._phase(benchmark_b, E, tps)(x)
    assert np.max(np.abs(phi - exact)) <= 1e-12 * (E * E / lam)


@pytest.mark.parametrize("case", ["benchmark_a", "benchmark_b", "oscillator"])
@pytest.mark.parametrize("n", [0, 5, 15])
def test_phase_ends_at_action_and_zero(request, case, n):
    problem = request.getfixturevalue(case)
    state = quantize(problem, n)
    tps = state.turning_points
    phi = semibound.wkbj._phase(problem, state.energy, tps)([tps.a, tps.b])
    assert phi[0] == pytest.approx(action_integral(problem, state.energy, tps)[0], rel=1e-12)
    assert phi[1] == 0.0


@pytest.mark.parametrize("sqrt", [True, False])
def test_phase_of_a_momentum_that_is_not_finite_is_a_value_error(sqrt):
    with pytest.raises(ValueError, match="not finite"):
        cumulative_well_integral(lambda x: np.full(np.shape(x), np.nan), -1.0, 1.0, 0.0, sqrt)


def _quad_phase(problem, E, tps, x):
    """Phi(x) by scipy's quad, summed over the pieces between x, the minimum at 0 and b."""
    p = momentum_field(problem, E)
    edges = np.union1d(x, [0.0, tps.b])
    pieces = [quad(lambda y: float(p(np.array([y]))[0]), lo, hi, epsabs=0.0, epsrel=1e-13,
                   limit=200)[0] for lo, hi in zip(edges[:-1], edges[1:])]
    return np.cumsum(pieces[::-1])[::-1][np.searchsorted(edges, x)]


@pytest.mark.parametrize("case, bound", [
    ("benchmark_a", 1e-13),
    ("oscillator", 1e-13),
    # a kink of non-integer order 1.5 at the minimum, where the momentum is least smooth
    (BoundStateProblem(relativistic(0.5), power(0.3, 1.5)), 1e-11),
], ids=["benchmark_a", "oscillator", "relativistic-power-1.5"])
@pytest.mark.parametrize("n", [0, 5, 15, 63])
def test_phase_matches_quad(request, case, bound, n):
    problem = request.getfixturevalue(case) if isinstance(case, str) else case
    state = quantize(problem, n)
    tps, E = state.turning_points, state.energy
    x = np.linspace(tps.a, tps.b, 101)[1:-1]
    phi = semibound.wkbj._phase(problem, E, tps)(x)
    action = action_integral(problem, E, tps)[0]
    assert np.max(np.abs(phi - _quad_phase(problem, E, tps, x))) <= bound * action


def test_negative_quantum_number_is_refused(oscillator):
    with pytest.raises(ValueError, match="quantum number must be >= 0"):
        quantize(oscillator, -1)
