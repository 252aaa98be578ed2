import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import airy

from semibound import (
    BoundStateProblem,
    ConfigError,
    FghConfig,
    OddGridRequired,
    auto_box,
    build_hamiltonian,
    fgh_density,
    harmonic,
    linear,
    nonrelativistic,
    relativistic,
    solve,
)
from semibound.fgh import resolve_grid
from semibound.kinetics import from_callable as kinetic_from_callable
from semibound.potentials import from_callable as potential_from_callable

from conftest import count_sign_changes


def airy_zero(k: int, of_derivative: bool = False) -> float:
    """k-th negative zero of Ai (or Ai'), by Newton refinement of the
    asymptotic estimate; uses Ai'' = x * Ai to avoid extra special functions."""
    t = 3.0 * np.pi * (4 * k - (3 if of_derivative else 1)) / 8.0
    x = -t ** (2.0 / 3.0)
    for _ in range(60):
        ai, aip, _, _ = airy(x)
        if of_derivative:
            step = aip / (x * ai)  # f = Ai', f' = Ai'' = x Ai
        else:
            step = ai / aip
        x -= step
        if abs(step) < 1e-14:
            break
    return x


def airy_spectrum(count: int) -> np.ndarray:
    """Eigenvalues of p^2 + |x|: even states at -Ai' zeros, odd at -Ai zeros."""
    levels = []
    for k in range(1, count):
        levels.append(-airy_zero(k, of_derivative=True))
        levels.append(-airy_zero(k, of_derivative=False))
    return np.sort(np.array(levels))[:count]


def test_airy_oracle_matches_literature_constants():
    assert airy_zero(1) == pytest.approx(-2.338107410459767, abs=1e-12)
    assert airy_zero(2) == pytest.approx(-4.087949444130971, abs=1e-12)
    assert airy_zero(1, of_derivative=True) == pytest.approx(
        -1.018792971647471, abs=1e-12)


def test_zero_kinetic_gives_diagonal_potential():
    zero = kinetic_from_callable("zero", lambda p: 0.0 * np.asarray(p),
                                 deriv=lambda p: 0.0 * np.asarray(p),
                                 deriv2=lambda p: 0.0 * np.asarray(p),
                                 inverse=lambda y: 0.0 * np.asarray(y))
    prob = BoundStateProblem(zero, harmonic(1.0, 1.0))
    cfg = FghConfig(n_points=65, box=(-4.0, 4.0), n_states=4)
    H = build_hamiltonian(prob, cfg)
    grid = resolve_grid(prob, cfg)
    assert np.allclose(H, np.diag(grid**2 / 2), atol=1e-14)


def test_zero_potential_eigenvalues_are_kinetic_samples():
    flat = potential_from_callable("flat", lambda x: 0.0 * np.asarray(x),
                                   minimum_location=0.0)
    prob = BoundStateProblem(relativistic(0.2), flat)
    N = 33
    cfg = FghConfig(n_points=N, box=(-8.0, 8.0), n_states=N // 2)
    H = build_hamiltonian(prob, cfg)
    dx = 16.0 / N
    k = np.arange(-(N - 1) // 2, (N - 1) // 2 + 1)
    expected = np.sort(np.sqrt((2 * np.pi * k / (N * dx)) ** 2 + 0.04))
    assert np.allclose(np.sort(np.linalg.eigvalsh(H)), expected, rtol=1e-12)


def test_hamiltonian_symmetric(benchmark_a):
    H = build_hamiltonian(benchmark_a, FghConfig(n_points=129, box=(-20, 20)))
    assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))


def test_even_grid_rejected(benchmark_a):
    with pytest.raises(OddGridRequired):
        build_hamiltonian(benchmark_a, FghConfig(n_points=128, box=(-20, 20)))


def test_too_few_points_rejected(benchmark_a):
    with pytest.raises(ValueError):
        solve(benchmark_a, FghConfig(n_points=21, box=(-20, 20), n_states=11))


@pytest.mark.parametrize("box", [(3.0, -3.0), (-3.0, -3.0), (-np.inf, 3.0)])
def test_box_without_width_is_a_config_error(oscillator, box):
    with pytest.raises(ConfigError, match="fgh.box"):
        solve(oscillator, FghConfig(n_points=65, box=box, n_states=2))


def test_config_is_frozen():
    cfg = FghConfig(n_points=257, n_states=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_states = 8
    assert cfg == FghConfig(n_points=257, n_states=4)


def test_harmonic_spectrum(oscillator):
    spectrum = solve(oscillator, FghConfig(n_points=513, box=(-12.0, 12.0), n_states=16))
    expected = np.arange(16) + 0.5
    assert np.allclose(spectrum.energies, expected, rtol=1e-8)


def test_harmonic_spectrum_with_hbar():
    # E_n = hbar * omega * (n + 1/2): checks hbar threading through the kernel
    prob = BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0), hbar=2.0)
    spectrum = solve(prob, FghConfig(n_points=513, box=(-14.0, 14.0), n_states=6))
    assert np.allclose(spectrum.energies, 2.0 * (np.arange(6) + 0.5), rtol=1e-8)


def test_airy_spectrum_lowest_eight(airy_problem):
    spectrum = solve(airy_problem, FghConfig(n_points=513, n_states=8))
    exact = airy_spectrum(8)
    rel = np.abs(spectrum.energies - exact) / exact
    assert rel.max() <= 1e-7


def test_orthonormality(benchmark_a):
    spectrum = solve(benchmark_a, FghConfig(n_points=257, n_states=8))
    dx = spectrum.grid[1] - spectrum.grid[0]
    psi = np.column_stack([s.wavefunction for s in spectrum.states])
    gram = dx * psi.T @ psi
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-8


def test_parity_alternates(benchmark_a):
    spectrum = solve(benchmark_a, FghConfig(n_points=513, n_states=6))
    x = spectrum.grid
    inner = (x > x[0] + 2) & (x < -(x[0] + 2))
    for state in spectrum.states:
        cs = CubicSpline(x, state.wavefunction)
        dx = x[1] - x[0]
        score = float(np.sum(cs(-x[inner]) * state.wavefunction[inner]) * dx)
        assert score == pytest.approx((-1.0) ** state.n, abs=1e-3)


@pytest.mark.parametrize("fixture", ["benchmark_a", "benchmark_b"])
def test_node_counts(fixture, request):
    prob = request.getfixturevalue(fixture)
    spectrum = solve(prob, FghConfig(n_points=513, n_states=16))
    for state in spectrum.states:
        assert count_sign_changes(state.wavefunction) == state.n


def test_density_normalized_and_shaped(benchmark_a):
    spectrum = solve(benchmark_a, FghConfig(n_points=513, n_states=3))
    dx = spectrum.grid[1] - spectrum.grid[0]
    rho = fgh_density(spectrum, 0)
    assert dx * np.sum(rho.values) == pytest.approx(1.0, abs=1e-10)
    # symmetric ground state: single interior maximum, even shape
    assert count_sign_changes(np.diff(rho.values), threshold=1e-9) == 1
    with pytest.raises(IndexError):
        fgh_density(spectrum, 3)


def test_auto_box_massless(benchmark_b):
    lo, hi = auto_box(benchmark_b, 16)
    e15 = np.sqrt(np.pi * 0.2 * 15.5)
    b = e15 / 0.2
    assert hi == pytest.approx(b + 0.35 * 2 * b, rel=1e-9)
    assert lo == pytest.approx(-hi, abs=1e-9)
    assert hi == pytest.approx(26.52, abs=0.01)


def test_auto_box_harmonic(oscillator):
    lo, hi = auto_box(oscillator, 6)
    tp = np.sqrt(11.0)  # E5 = 5.5 -> x = sqrt(2 E)
    assert hi == pytest.approx(tp + 0.35 * 2 * tp, rel=1e-9)
    assert hi == pytest.approx(5.64, abs=0.01)


def test_padding_matters_for_tails(oscillator):
    """Clipping the box at the turning points visibly shifts the spectrum."""
    clipped = solve(oscillator, FghConfig(n_points=513, box=(-3.4, 3.4), n_states=6))
    padded = solve(oscillator, FghConfig(n_points=513, n_states=6))
    assert abs(clipped.energies[5] - padded.energies[5]) > 1e-3


def test_grid_convergence_smooth_defaults(oscillator):
    e1 = solve(oscillator, FghConfig(n_points=513, n_states=16)).energies
    e2 = solve(oscillator, FghConfig(n_points=1025, n_states=16)).energies
    assert np.max(np.abs(e2 - e1) / np.abs(e2)) <= 1e-8


def test_grid_convergence_airy_defaults(airy_problem):
    e1 = solve(airy_problem, FghConfig(n_points=513, n_states=8)).energies
    e2 = solve(airy_problem, FghConfig(n_points=1025, n_states=8)).energies
    assert np.max(np.abs(e2 - e1) / np.abs(e2)) <= 1e-8


def test_box_convergence_harmonic(oscillator):
    box = auto_box(oscillator, 16)
    wide = (box[0] - 0.5 * (box[1] - box[0]) / 1.7, box[1] + 0.5 * (box[1] - box[0]) / 1.7)
    e1 = solve(oscillator, FghConfig(n_points=513, box=box, n_states=16)).energies
    e2 = solve(oscillator, FghConfig(n_points=513, box=wide, n_states=16)).energies
    assert np.max(np.abs(e2 - e1) / np.abs(e2)) <= 1e-8


def test_small_momentum_reduction_scaling():
    """Heavy relativistic spectra approach the nonrelativistic one as m grows.

    The relative correction to a binding energy is O(E_B/m), and in a linear
    well E_B itself scales like m^(-1/3), so the discrepancy falls off as
    m^(-4/3): about 1.6e-3 at m = 50 and 2^(4/3) times smaller at m = 100.
    """
    def binding_gap(m):
        pot = linear(0.2)
        rel = solve(BoundStateProblem(relativistic(m), pot),
                    FghConfig(n_points=1025, n_states=16)).energies - m
        nonrel = solve(BoundStateProblem(nonrelativistic(m), pot),
                       FghConfig(n_points=1025, n_states=16)).energies
        return np.max(np.abs(rel - nonrel) / np.abs(nonrel))

    gap50 = binding_gap(50.0)
    gap100 = binding_gap(100.0)
    assert gap50 <= 2.5e-3
    assert gap50 / gap100 == pytest.approx(2.0 ** (4.0 / 3.0), rel=0.05)
