import ctypes
import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import CubicSpline
from scipy.special import airy, zeta

import semibound.fgh
from semibound import (
    BoundStateProblem,
    ConfigError,
    EigensolverFailure,
    FghConfig,
    OddGridRequired,
    auto_box,
    build_hamiltonian,
    build_report,
    fgh_density,
    harmonic,
    linear,
    nonrelativistic,
    power,
    relativistic,
    solve,
)
from semibound.cli import main
from semibound.fgh import (GAUSS_OFFSET, _block, _eigenpairs, _kernel_and_potential, _lowest,
                           _parity_blocks, _zeta_negative, kinetic_kernel, resolve_grid)
from semibound.kinetics import from_callable as kinetic_from_callable
from semibound.potentials import LocalForm
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
    grid = resolve_grid(prob, cfg)
    H = build_hamiltonian(prob, grid)
    assert np.allclose(H, np.diag(grid**2 / 2), atol=1e-14)


@pytest.mark.parametrize("box", [(-5.0, 5.0), (-4.8, 5.0)], ids=["centred", "off-centre"])
def test_grid_puts_a_point_on_the_minimum(box):
    prob = BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0))  # minimum at 0
    N = 65
    grid = resolve_grid(prob, FghConfig(n_points=N, box=box, n_states=4))
    dx = (box[1] - box[0]) / N
    assert np.allclose(np.diff(grid), dx, rtol=1e-12, atol=0)
    assert 0.0 in grid
    # the points are those nearest the box's cell midpoints box[0] + dx * (i + 1/2)
    assert abs(grid[0] - (box[0] + 0.5 * dx)) <= 0.5 * dx
    if box[0] == -box[1]:
        assert grid[N // 2] == 0.0
        assert np.array_equal(grid, -grid[::-1])


@pytest.mark.parametrize("box", [(-5.0, 5.0), (-4.8, 5.0)], ids=["centred", "off-centre"])
def test_undeclared_well_puts_the_minimum_at_the_gauss_offset(box):
    well = potential_from_callable("harmonic", lambda x: 0.5 * x ** 2, minimum_location=0.0)
    prob = BoundStateProblem(nonrelativistic(1.0), well)
    N = 65
    grid = resolve_grid(prob, FghConfig(n_points=N, box=box, n_states=4))
    dx = (box[1] - box[0]) / N
    assert np.allclose(np.diff(grid), dx, rtol=1e-12, atol=0)
    offset = (0.0 - grid[0]) / dx
    assert offset - np.floor(offset) == pytest.approx(GAUSS_OFFSET, abs=1e-12)
    assert abs(grid[0] - (box[0] + 0.5 * dx)) <= 0.5 * dx


def test_zero_potential_eigenvalues_are_kinetic_samples():
    flat = potential_from_callable("flat", lambda x: 0.0 * np.asarray(x),
                                   minimum_location=0.0)
    prob = BoundStateProblem(relativistic(0.2), flat)
    N = 33
    cfg = FghConfig(n_points=N, box=(-8.0, 8.0), n_states=N // 2)
    H = build_hamiltonian(prob, resolve_grid(prob, cfg))
    dx = 16.0 / N
    k = np.arange(-(N - 1) // 2, (N - 1) // 2 + 1)
    expected = np.sort(np.sqrt((2 * np.pi * k / (N * dx)) ** 2 + 0.04))
    assert np.allclose(np.sort(np.linalg.eigvalsh(H)), expected, rtol=1e-12)


def test_hamiltonian_symmetric(benchmark_a):
    cfg = FghConfig(n_points=129, box=(-20, 20))
    H = build_hamiltonian(benchmark_a, resolve_grid(benchmark_a, cfg))
    assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))


def test_even_grid_rejected(benchmark_a):
    with pytest.raises(OddGridRequired):
        cfg = FghConfig(n_points=128, box=(-20, 20))
        build_hamiltonian(benchmark_a, resolve_grid(benchmark_a, cfg))


def test_too_few_points_rejected(benchmark_a):
    with pytest.raises(ValueError):
        solve(benchmark_a, FghConfig(n_points=21, box=(-20, 20), n_states=11))


def test_covering_needs_a_state():
    with pytest.raises(ValueError, match="at least one state is needed"):
        FghConfig().covering([])


@pytest.mark.parametrize("box", [(-10.0, 10.0, 3.0), "Auto", (5.0,), ("a", "b"), (False, True),
                                 np.array([True, False]), None, {"x_min": -3.0}])
def test_malformed_box_is_refused_when_made(box):
    # a box that is neither "auto" nor two real numbers, bools excluded, never reaches a grid
    with pytest.raises(ConfigError, match=r"fgh.box must be 'auto' or \[x_min, x_max\]"):
        FghConfig(n_points=65, box=box, n_states=2)


@pytest.mark.parametrize("field,value", [("n_points", 65.0), ("n_points", "65"),
                                         ("n_points", True), ("n_states", 3.5),
                                         ("n_states", True), ("n_states", None)])
def test_size_that_is_not_an_integer_is_refused_when_made(field, value):
    with pytest.raises(ConfigError) as refused:
        FghConfig(**{field: value})
    assert str(refused.value) == f"fgh.{field} must be an integer, got {value!r}"


def test_box_pair_is_stored_as_a_hashable_tuple():
    for box in ([-3, 3.5], (-3, 3.5), np.array([-3.0, 3.5])):
        config = FghConfig(box=box)
        assert type(config.box) is tuple and config.box == (-3.0, 3.5)
        assert hash(config) == hash(FghConfig(box=(-3.0, 3.5)))
    assert FghConfig(n_points=np.int64(65), n_states=np.int32(2)).n_points == 65


@pytest.mark.parametrize("box", [(3.0, -3.0), (-3.0, -3.0), (-np.inf, 3.0)])
def test_box_without_width_is_a_config_error(oscillator, box):
    # a box with no finite width is refused on both library routes to a grid
    config = FghConfig(n_points=65, box=box, n_states=2)
    with pytest.raises(ConfigError, match="fgh.box"):
        solve(oscillator, config)
    with pytest.raises(ConfigError, match="fgh.box"):
        build_report(oscillator, [0, 1], config)


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


@pytest.mark.parametrize("n_points,n_states", [(513, 16), (9, 4)])
def test_partial_solve_matches_full_diagonalisation(benchmark_a, n_points, n_states):
    # (9, 4) is the smallest grid resolve_grid accepts: N = 2 * n_states + 1
    cfg = FghConfig(n_points=n_points, n_states=n_states)
    spectrum = solve(benchmark_a, cfg)
    energies, vectors = np.linalg.eigh(build_hamiltonian(benchmark_a, resolve_grid(benchmark_a, cfg)))
    assert np.allclose(spectrum.energies, energies[:n_states], rtol=1e-12, atol=0)
    dx = spectrum.grid[1] - spectrum.grid[0]
    psi = np.column_stack([s.wavefunction for s in spectrum.states])
    assert np.max(np.abs(np.abs(psi) * np.sqrt(dx) - np.abs(vectors[:, :n_states]))) <= 1e-10
    for state in spectrum.states:
        big = np.abs(state.wavefunction) > 1e-6 * np.abs(state.wavefunction).max()
        assert state.wavefunction[np.argmax(big)] > 0


@pytest.mark.parametrize("box", ["auto", (-3.0, 5.0)], ids=["parity blocks", "one block"])
def test_states_are_the_scaled_and_signed_eigenvectors_bit_for_bit(oscillator, box):
    cfg = FghConfig(n_points=129, n_states=8, box=box)
    spectrum = solve(oscillator, cfg)
    grid = resolve_grid(oscillator, cfg)
    energies, vectors = _eigenpairs(oscillator, grid, cfg.n_states)
    for n, state in enumerate(spectrum.states):
        psi = vectors[:, n] / np.sqrt(grid[1] - grid[0])
        if psi[np.argmax(np.abs(psi) > 1e-6 * np.abs(psi).max())] < 0:
            psi = -psi
        assert (state.n, state.energy) == (n, float(energies[n]))
        assert state.wavefunction.tobytes() == psi.tobytes()


@pytest.mark.parametrize("fixture,n_points,n_states", [
    ("benchmark_a", 513, 16), ("benchmark_b", 513, 7), ("oscillator", 257, 8),
    ("benchmark_a", 33, 33),  # every state: n_states = N = 2M + 1
])
def test_parity_blocks_match_the_full_matrix(fixture, n_points, n_states, request):
    prob = request.getfixturevalue(fixture)
    grid = resolve_grid(prob, FghConfig(n_points=n_points, n_states=min(n_states, 16)))
    energies, vectors = _eigenpairs(prob, grid, n_states)
    full_e, full_v = np.linalg.eigh(build_hamiltonian(prob, grid))
    full_v = full_v[:, :n_states]
    assert np.allclose(energies, full_e[:n_states], rtol=1e-12, atol=0)
    vectors = vectors * np.sign(np.sum(vectors * full_v, axis=0))  # eigh's signs are arbitrary
    assert np.max(np.abs(vectors - full_v)) <= 1e-12


@pytest.mark.parametrize("fixture", ["benchmark_a", "benchmark_b"])
def test_lowest_is_scipy_eigh_bit_for_bit(fixture, request):
    """The direct dsyevr call gives eigh's bits on both parity blocks and on the unsplit H.

    The odd block is read as its upper triangle, so its reference is eigh's lower=False.
    """
    if semibound.fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: the eigh fallback is "
                    "held to a tolerance instead")
    prob = request.getfixturevalue(fixture)
    grid = resolve_grid(prob, FghConfig(n_points=513, n_states=16))
    K, V = _kernel_and_potential(prob, grid)
    M = len(grid) // 2
    for parity, diagonal, count in ((1, V[M:], 9), (-1, V[M + 1:], 9), (0, V, 16)):
        energies, vectors = _lowest(_held(K, V, parity), parity, count)
        reference = scipy.linalg.eigh(_block(K, diagonal, parity), lower=parity >= 0,
                                      subset_by_index=[0, count - 1])
        assert energies.tobytes() == reference[0].tobytes()
        assert vectors.tobytes() == reference[1].tobytes()


def _held(K, V, parity):
    """The array _eigenpairs solves a block in: both parity blocks in one, or the unsplit H."""
    return _block(K, V, 0) if parity == 0 else _parity_blocks(K, V)


@pytest.fixture
def lapack_routes(monkeypatch):
    """fgh._lapack() on numpy's bundled OpenBLAS, then on its eigh fallback (locator hidden)."""
    fgh = semibound.fgh
    if fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: there is one route only")
    fgh._lapack.cache_clear()
    numpy_route = fgh._lapack()
    monkeypatch.setattr(fgh, "_numpy_openblas", lambda: None)
    fgh._lapack.cache_clear()
    yield numpy_route, fgh._lapack()
    fgh._lapack.cache_clear()  # the next solve finds the route again, with the locator restored


@pytest.mark.parametrize("n_points,n_states,split", [(513, 16, True), (513, 16, False),
                                                      (2049, 64, True)],
                         ids=["513", "513-one-block", "2049"])
def test_eigh_fallback_agrees_with_dsyevr(benchmark_a, benchmark_b, lapack_routes, monkeypatch,
                                          n_points, n_states, split):
    """Benchmarks A and B solved on each route: energies within 1e-13 relative, and the
    signed wavefunctions within 1e-12 of their largest value.

    eigh is another algorithm than dsyevr's subset solve, so the bits differ.
    Both parity blocks, or one unsplit H on a box shifted off the minimum; at
    N = 2049 with 64 states, as perfbench's fgh_fine solves them.
    """
    numpy_route, fallback = lapack_routes
    assert fallback == (semibound.fgh._eigh_dsyevr, None)
    for prob in (benchmark_a, benchmark_b):
        x_min, x_max = auto_box(prob, n_states)
        cfg = FghConfig(n_points=n_points, n_states=n_states,
                        box=(x_min, x_max) if split else (x_min - 1.0, x_max))
        spectra = []
        for route in (numpy_route, fallback):
            with monkeypatch.context() as m:
                m.setattr(semibound.fgh, "_lapack", lambda: route)
                spectra.append(solve(prob, cfg))
        reference, found = spectra
        assert np.max(np.abs(found.energies / reference.energies - 1.0)) <= 1e-13
        for a, b in zip(reference.states, found.states):
            largest = np.abs(a.wavefunction).max()
            assert np.max(np.abs(b.wavefunction - a.wavefunction)) <= 1e-12 * largest


def test_eigh_fallback_failure_is_typed_and_exits_1(benchmark_a, lapack_routes, monkeypatch,
                                                    tmp_path, capsys):
    def fails(A, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(EigensolverFailure, match="dense eigensolver failed: .* info = 1"):
        solve(benchmark_a, FghConfig(n_points=65, n_states=4))
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark_a.yaml"
    assert main(["solve", "--config", str(config), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 1
    assert "dense eigensolver failed" in capsys.readouterr().err


def test_merge_solves_again_a_block_that_runs_out(monkeypatch):
    """Parities need not alternate: a block whose every state is among the lowest is solved again.

    A kinetic law and a symmetric well given as random tables on the grid's
    momenta and positions put up to four states of one parity among the
    lowest five; the merge still equals the full matrix's spectrum.
    """
    N, rng = 21, np.random.default_rng(1)
    calls = []
    lowest = semibound.fgh._lowest

    def counted(B, parity, count):
        calls.append(parity)
        return lowest(B, parity, count)

    monkeypatch.setattr(semibound.fgh, "_lowest", counted)
    solved_again = 0
    for _ in range(12):
        t, v = rng.standard_normal(N // 2 + 1), rng.standard_normal(N // 2 + 1)
        law = kinetic_from_callable("table",
                                    lambda p: t[np.rint(np.abs(p) * N / (2 * np.pi)).astype(int)],
                                    deriv=lambda p: p, deriv2=lambda p: np.ones_like(p),
                                    inverse=lambda y: y)
        well = potential_from_callable("table", lambda x: v[np.rint(np.abs(x)).astype(int)],
                                       minimum_location=0.0,
                                       local_form=LocalForm(0.0, 0.0, 2.0))
        prob = BoundStateProblem(law, well)
        for n_states in range(1, N // 2 + 1):
            cfg = FghConfig(n_points=N, box=(-N / 2, N / 2), n_states=n_states)  # dx = 1
            calls.clear()
            energies = solve(prob, cfg).energies
            solved_again += len(calls) > 2
            full = np.linalg.eigvalsh(build_hamiltonian(prob, resolve_grid(prob, cfg)))
            assert np.allclose(energies, full[:n_states], rtol=0, atol=1e-13)
    assert solved_again > 0


@pytest.mark.parametrize("n_points", [9, 513])
def test_parity_blocks_hold_both_blocks_in_one_array(benchmark_a, n_points):
    """The even block in the upper triangle, the odd one below it, each equal to its own block."""
    grid = resolve_grid(benchmark_a, FghConfig(n_points=n_points, n_states=4))
    K, V = _kernel_and_potential(benchmark_a, grid)
    M = n_points // 2
    Y = _parity_blocks(K, V)
    assert Y.shape == (M + 1, M + 1)
    upper, lower = np.triu_indices(M + 1), np.tril_indices(M)
    assert Y[upper].tobytes() == _block(K, V[M:], 1)[upper].tobytes()
    assert Y[1:, :-1][lower].tobytes() == _block(K, V[M + 1:], -1)[lower].tobytes()


def test_split_well_bits_do_not_follow_the_blas_thread_count(tmp_path):
    """Benchmark B at N = 2049 with 64 states, as fgh_fine solves it, at 2 and at 1 BLAS thread.

    The split well is solved at one BLAS thread whatever the host's count, so the
    energies and wavefunctions are the same bytes; the caller's count is read again
    after the solve.
    """
    if semibound.fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: eigh's threads are the host's")
    code = ("import ctypes, hashlib; from semibound import BoundStateProblem, FghConfig, fgh, "
            "massless, linear; blas = ctypes.CDLL(fgh._numpy_openblas()); "
            "start = blas.scipy_openblas_get_num_threads64_(); "
            "spectrum = fgh.solve(BoundStateProblem(massless(), linear(0.2)), "
            "FghConfig(n_points=2049, n_states=64)); "
            "print(start, blas.scipy_openblas_get_num_threads64_(), hashlib.sha256(b''.join("
            "[spectrum.energies.tobytes()] + [s.wavefunction.tobytes() for s in spectrum.states]"
            ")).hexdigest())")
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for count in ("2", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": count,
               "OMP_NUM_THREADS": count}
        runs.append(subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                                   capture_output=True, text=True, check=True).stdout.split())
    assert all(start == end for start, end, _ in runs)
    assert runs[0][2] == runs[1][2]


def test_odd_block_failure_in_the_worker_is_typed_and_exits_1(benchmark_a, monkeypatch,
                                                               tmp_path, capsys):
    """The worker's info = 3 is a typed failure, and the caller's BLAS thread count is restored."""
    if semibound.fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: the eigh fallback solves in turn")
    # info = 3 from the UPLO = 'U' call only, which runs in the worker thread
    (dsyevr, one_blas_thread), in_worker, escaped = semibound.fgh._lapack(), [], []

    def fails_on_upper(A, count, lower):
        if lower:
            return dsyevr(A, count, lower)
        in_worker.append(threading.current_thread() is not threading.main_thread())
        return None, None, 3

    monkeypatch.setattr(semibound.fgh, "_lapack", lambda: (fails_on_upper, one_blas_thread))
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    blas = ctypes.CDLL(semibound.fgh._numpy_openblas())
    start = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(2)  # a count the solve must not leave at 1
    try:
        count = blas.scipy_openblas_get_num_threads64_()
        with pytest.raises(EigensolverFailure, match="dense eigensolver failed: .* info = 3"):
            solve(benchmark_a, FghConfig(n_points=65, n_states=4))
        assert blas.scipy_openblas_get_num_threads64_() == count
        config = Path(__file__).resolve().parents[1] / "configs" / "benchmark_a.yaml"
        assert main(["solve", "--config", str(config), "--pipeline", "fgh",
                     "--out", str(tmp_path / "x")]) == 1
        assert blas.scipy_openblas_get_num_threads64_() == count
    finally:
        blas.scipy_openblas_set_num_threads64_(start)
    assert "dense eigensolver failed" in capsys.readouterr().err
    assert in_worker == [True, True]
    assert escaped == []


def test_overlapping_pins_from_two_threads_restore_the_callers_count():
    """Two threads' one_blas_thread sections, in the order A enters, B enters, A leaves, B leaves.

    B still runs at one BLAS thread once A has left, and the count the first
    entrant found reads again once the last has left.
    """
    if semibound.fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: no thread count is pinned")
    one_blas_thread = semibound.fgh._lapack()[1]
    blas = ctypes.CDLL(semibound.fgh._numpy_openblas())
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    in_b_after_a = []

    def a():
        with one_blas_thread():
            a_in.set()
            b_in.wait(60)
        a_out.set()

    def b():
        a_in.wait(60)
        with one_blas_thread():
            b_in.set()
            a_out.wait(60)
            in_b_after_a.append(blas.scipy_openblas_get_num_threads64_())

    start = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(2)  # a count the pins must not leave at 1
    try:
        count = blas.scipy_openblas_get_num_threads64_()
        threads = [threading.Thread(target=run) for run in (a, b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert in_b_after_a == [1]
        assert blas.scipy_openblas_get_num_threads64_() == count
    finally:
        blas.scipy_openblas_set_num_threads64_(start)


def test_zeta_at_negative_arguments():
    assert _zeta_negative(1.0) == pytest.approx(-1 / 12, rel=1e-15)
    assert _zeta_negative(3.0) == pytest.approx(1 / 120, rel=1e-15)
    for q in (1.5, 2.5, 5.0, 7.3):
        assert _zeta_negative(q) == pytest.approx(float(zeta(-q)), rel=1e-14)
    for q in (2.0, 4.0, 2000.0):
        assert _zeta_negative(q) == 0.0


def test_power_well_q_1_5_converges_at_high_order():
    """p^2/2 + |x|^1.5: the corrected kink's energies change ~70-85 times less per doubling of N.

    Uncorrected, the order is q + 1 = 2.5 (a factor 5.6 per doubling).
    """
    prob = BoundStateProblem(nonrelativistic(1.0), power(1.0, 1.5))
    es = [solve(prob, FghConfig(n_points=N, n_states=8)).energies for N in (129, 257, 513)]
    steps = [np.max(np.abs(a - b) / b) for a, b in zip(es, es[1:])]
    assert steps[0] / steps[1] > 40.0
    assert steps[1] < 1e-9


def test_airy_spectrum_converges_at_fifth_order(airy_problem):
    """p^2 + |x| against the Airy zeros, on a box wide enough for its tails: ~x35 per doubling."""
    exact = airy_spectrum(8)
    errors = [np.max(np.abs(solve(airy_problem, FghConfig(n_points=N, box=(-20.0, 20.0),
                                                          n_states=8)).energies - exact) / exact)
              for N in (257, 513)]
    assert errors[0] / errors[1] > 25.0
    assert errors[1] < 1e-8


def test_undeclared_equal_slope_kink_converges_at_fourth_order():
    """p^2 + |x| as an opaque callable: the Gauss offset alone gives ~x16 per doubling of N."""
    exact = airy_spectrum(8)
    prob = BoundStateProblem(nonrelativistic(0.5),
                             potential_from_callable("abs", np.abs, minimum_location=0.0))
    errors = [np.max(np.abs(solve(prob, FghConfig(n_points=N, box=(-20.0, 20.0),
                                                  n_states=8)).energies - exact) / exact)
              for N in (257, 513)]
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert errors[1] < 1e-7


def test_asymmetric_power_kink_converges_at_high_order():
    """Coefficients 0.5 (x < 0) and 0.2 (x > 0) on |x|^1.5: ~x45 per doubling of N.

    That is h^(q+4). Without the tilt of the neighbours' edits, the
    zeta(-q-1) (c_R - c_L) g'(0) term would leave h^(q+2), x11.3. The box is
    centred on the kink, so its grids end at the same points for every N.
    """
    well = potential_from_callable("asym", lambda x: np.where(x > 0, 0.2, 0.5) * np.abs(x) ** 1.5,
                                   minimum_location=0.0, local_form=LocalForm(0.5, 0.2, 1.5))
    prob = BoundStateProblem(nonrelativistic(1.0), well)
    es = [solve(prob, FghConfig(n_points=N, box=(-25.0, 25.0), n_states=8)).energies
          for N in (257, 513, 1025)]
    steps = [np.max(np.abs(a - b) / b) for a, b in zip(es, es[1:])]
    assert 30.0 < steps[0] / steps[1] < 60.0
    assert steps[1] < 1e-8


def test_kink_correction_overflow_is_an_eigensolver_failure():
    # Gamma(1 + q) of zeta(-q - 1) overflows at q = 170
    prob = BoundStateProblem(nonrelativistic(1.0), power(1.0, 170.0))
    with pytest.raises(EigensolverFailure, match="q = 170"):
        solve(prob, FghConfig(n_points=65, box=(-2.0, 2.0), n_states=2))


def test_eigensolver_failure_is_typed_and_exits_1(benchmark_a, monkeypatch, tmp_path, capsys):
    # a LAPACK whose dsyevr reports info = 3 > 0: it did not converge; with no
    # one_blas_thread, as on the eigh fallback, the blocks are solved in turn
    monkeypatch.setattr(semibound.fgh, "_lapack", lambda: (lambda A, count, lower: (None, None, 3),
                                                           None))
    with pytest.raises(EigensolverFailure, match="dense eigensolver failed: .* info = 3"):
        solve(benchmark_a, FghConfig(n_points=65, n_states=4))
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark_a.yaml"
    assert main(["solve", "--config", str(config), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 1
    assert "dense eigensolver failed" in capsys.readouterr().err


def test_nonfinite_potential_is_an_eigensolver_failure():
    wall = potential_from_callable("wall", lambda x: np.where(np.abs(x) > 3.0, np.inf, 0.5 * x * x),
                                   minimum_location=0.0)
    prob = BoundStateProblem(nonrelativistic(1.0), wall)
    cfg = FghConfig(n_points=65, box=(-5.0, 5.0), n_states=4)
    first = resolve_grid(prob, cfg)[0]
    assert first < -3.0
    with pytest.raises(EigensolverFailure, match=f"V\\(x\\) is not finite at grid x = {first:.6g}"):
        solve(prob, cfg)


def test_nonfinite_kinetic_law_is_an_eigensolver_failure():
    # the grid momenta reach pi / dx ~ 12.6, beyond the cap at |p| = 5
    capped = kinetic_from_callable("capped", lambda p: np.where(np.abs(p) > 5.0, np.inf, 0.5 * p * p),
                                   deriv=lambda p: p, deriv2=lambda p: np.ones_like(p),
                                   inverse=lambda y: np.sqrt(2.0 * y))
    prob = BoundStateProblem(capped, harmonic(1.0, 1.0))
    # refused before the kernel's DFT, so no "invalid value" RuntimeWarning comes first
    with pytest.raises(EigensolverFailure, match="kinetic kernel needs a finite T"):
        solve(prob, FghConfig(n_points=65, box=(-8.0, 8.0), n_states=4))


def test_overflowing_potential_exits_1_without_traceback(tmp_path):
    # c |x|^2000 overflows to inf at the auto box's edges; run in a subprocess
    # because the overflow RuntimeWarning is an error under the test suite's filter
    config = tmp_path / "run.yaml"
    config.write_text("problem: {kinetic: {kind: nonrelativistic, m: 1.0}, "
                      "potential: {kind: power, c: 1.0, q: 2000}}\n"
                      "states: [0, 1]\nfgh: {n_points: 65, n_states: 4, box: auto}\n",
                      encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-m", "semibound.cli", "solve", "--config",
                             str(config), "--pipeline", "fgh", "--out", str(tmp_path / "x")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert "EigensolverFailure" in result.stderr
    assert "Traceback" not in result.stderr


def test_solving_both_blocks_at_once_holds_one_block(benchmark_b):
    """Both parity blocks solved at the same time share one (M+1) x (M+1) array.

    The peak stays under 1.5 blocks; two arrays, one per block, would be 2.0 or more.
    """
    if semibound.fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: eigh returns every eigenvector")
    N = 1025
    cfg = FghConfig(n_points=N, n_states=32)
    solve(benchmark_b, cfg)
    tracemalloc.start()
    try:
        solve(benchmark_b, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (N // 2 + 1) ** 2


def test_in_place_solve_is_repeatable(benchmark_a):
    cfg = FghConfig(n_points=257, n_states=8)
    first, second = solve(benchmark_a, cfg), solve(benchmark_a, cfg)
    assert np.array_equal(first.energies, second.energies)
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a.wavefunction, b.wavefunction)
    H = build_hamiltonian(benchmark_a, resolve_grid(benchmark_a, cfg))
    assert np.array_equal(H, H.T)


@pytest.mark.parametrize("n_points", [9, 513, 2049])
def test_lower_hamiltonian_is_the_lower_triangle_of_the_dense_reference(benchmark_a, n_points):
    """H is exactly symmetric; its lower triangle, the part LAPACK reads, is toeplitz(K) + diag(V).

    V carries lam |x|'s kink correction on the minimum and its neighbours.
    """
    grid = resolve_grid(benchmark_a, FghConfig(n_points=n_points, n_states=4))
    dx, M = grid[1] - grid[0], n_points // 2
    dense = scipy.linalg.toeplitz(kinetic_kernel(benchmark_a, n_points, dx))
    V = benchmark_a.potential.eval(grid)
    V[M - 1:M + 2] += 0.2 * dx * np.array([-1 / 120, 1 / 6 + 1 / 60, -1 / 120])
    dense[np.diag_indices_from(dense)] += V
    H = build_hamiltonian(benchmark_a, grid)
    assert np.array_equal(H, H.T)
    assert np.allclose(np.tril(H), np.tril(dense), rtol=0, atol=1e-15 * np.abs(dense).max())


RSS_PROBE = """
import resource
from semibound import BoundStateProblem, FghConfig, linear, massless, solve
problem = BoundStateProblem(massless(), linear(0.2))
solve(problem, FghConfig(n_points=65, n_states=8))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
solve(problem, FghConfig(n_points=2049, n_states=64))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
#: ru_maxrss starts at the peak of the process whose memory an exec replaced, so
#: the probe is started from a small interpreter rather than from the test's
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"


def test_solve_commits_about_the_lower_triangle_only():
    """Peak RSS grows by about one 8 (M+1)^2 parity block over a split solve at N = 2049.

    One block is about half of H's lower triangle (4 N^2). The bound, 1.5
    blocks (12.6 MB), lies between one block and the two blocks held at once,
    below the lower triangle (16.8 MB) and well below the 8 N^2 (33.6 MB) of a full H.
    """
    pytest.importorskip("resource")
    if semibound.fgh._numpy_openblas() is None:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: eigh returns every eigenvector")
    N = 2049
    bound = 1.5 * 8 * (N // 2 + 1) ** 2
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", LAUNCHER, RSS_PROBE], env=env,
                            capture_output=True, text=True, check=True)
    growth = int(result.stdout) * (1 if sys.platform == "darwin" else 1024)
    assert growth < bound


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


def test_finite_kinetic_law_overflowing_its_dft_is_an_eigensolver_failure():
    # every T(p_k) is finite, but their sum in the kernel's DFT overflows
    huge = kinetic_from_callable("huge", lambda p: 1e308 * np.minimum(0.5 * p * p, 1.0),
                                 deriv=lambda p: p, deriv2=lambda p: np.ones_like(p),
                                 inverse=lambda y: np.sqrt(2.0 * y))
    prob = BoundStateProblem(huge, harmonic(1.0, 1.0))
    with pytest.raises(EigensolverFailure, match="a finite T\\(p\\) overflowed its DFT"):
        solve(prob, FghConfig(n_points=65, box=(-8.0, 8.0), n_states=4))
