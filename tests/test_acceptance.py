"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from semibound import (
    BoundStateProblem,
    FghConfig,
    auto_box,
    build_report,
    classical_density,
    massless,
    nonrelativistic,
    quantize,
    reduced_kinetic,
    relativistic,
    solve,
    turning_points,
    validate_admissibility,
)
from semibound.classical import speed_field, well_layout
from semibound.cli import main
from semibound.quadrature import well_integral
from semibound.wkbj import LANGER_PHASE, _phase, wavefunction_values

from conftest import builtin_problems, count_sign_changes
from test_fgh import airy_spectrum

REPO = Path(__file__).resolve().parents[1]

#: paper error bands: [value/3, value*3] around the quoted orders of magnitude
BAND_A = {0: 1e-1, 5: 1e-3, 15: 1e-4}
BAND_B = {0: 2e-1, 5: 3e-3, 15: 3e-4}


def _ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}", flush=True)


def _check_bands(report, bands):
    errs = {row.n: row.relative_error for row in report.per_state}
    for n, ref in bands.items():
        assert ref / 3 <= errs[n] <= ref * 3, \
            f"n={n}: error {errs[n]:.3e} outside [{ref/3:.1e}, {ref*3:.1e}]"
    return errs


def test_criterion_1_benchmark_a(benchmark_a):
    start = time.time()
    report, _ = build_report(benchmark_a, [0, 5, 15], FghConfig(n_points=513))
    elapsed = time.time() - start
    errs = _check_bands(report, BAND_A)
    assert elapsed <= 60.0, f"benchmark A took {elapsed:.1f}s"
    _ok("1 (relativistic benchmark)",
        f"errors {errs[0]:.2e}/{errs[5]:.2e}/{errs[15]:.2e} in bands, {elapsed:.1f}s")


def test_criterion_2_benchmark_b(benchmark_b):
    report, _ = build_report(benchmark_b, [0, 5, 15], FghConfig(n_points=513))
    errs = _check_bands(report, BAND_B)
    state = quantize(benchmark_b, 5)
    rho = classical_density(benchmark_b, state.energy)
    inside = (rho.grid > rho.support.a) & (rho.grid < rho.support.b)
    flat = 1.0 / rho.support.d
    assert np.allclose(rho.values[inside], flat, rtol=1e-12, atol=0.0)
    _ok("2 (massless benchmark)",
        f"errors {errs[0]:.2e}/{errs[5]:.2e}/{errs[15]:.2e}, rho_cl flat to 1e-12")


def test_criterion_3_oscillator_oracle(oscillator):
    for n in range(11):
        assert quantize(oscillator, n).energy == pytest.approx(n + 0.5, rel=1e-10)
    spectrum = solve(oscillator, FghConfig(n_points=513, box=(-12.0, 12.0), n_states=11))
    exact = np.arange(11) + 0.5
    rel = np.max(np.abs(spectrum.energies - exact) / exact)
    assert rel <= 1e-8
    _ok("3 (oscillator)", f"WKBJ exact to 1e-10, FGH max rel err {rel:.1e}")


def test_criterion_4_airy_oracle(airy_problem):
    spectrum = solve(airy_problem, FghConfig(n_points=513, n_states=8))
    exact = airy_spectrum(8)
    rel = np.max(np.abs(spectrum.energies - exact) / exact)
    assert rel <= 1e-7
    _ok("4 (Airy)", f"max rel err {rel:.1e} vs Newton-refined Ai/Ai' zeros")


def test_criterion_5_massless_wkbj_closed_form(benchmark_b):
    worst = 0.0
    for n in range(21):
        e = quantize(benchmark_b, n).energy
        exact = np.sqrt(np.pi * 0.2 * (n + 0.5))
        worst = max(worst, abs(e - exact) / exact)
    assert worst <= 1e-10
    _ok("5 (massless closed form)", f"max rel dev {worst:.1e} for n <= 20")


def test_criterion_6_wkbj_normalization_approaches_classical():
    """Averaging sin^2 to 1/2 turns rho_WKBJ into rho_cl only as n grows.

    With num = 2 * integral sin^2(Phi/hbar + pi/4)/|v| and den = integral 1/|v|,
    num/den is rho_cl over the sin^2-averaged WKBJ density under WKBJ's own
    normalization D^2; |num/den - 1| must fall strictly along the ladder.
    """
    ladder = (0, 5, 15, 31, 63)
    worst = 0.0
    for problem in builtin_problems():
        devs = []
        for n in ladder:
            state = quantize(problem, n)
            tps = state.turning_points
            phi = _phase(problem, state.energy, tps)
            speed = speed_field(problem, state.energy)
            layout = well_layout(problem)

            def inverse_speed(x):
                with np.errstate(divide="ignore"):
                    return 1.0 / speed(x)

            num = well_integral(
                lambda x: 2.0 * np.sin(phi(x) / problem.hbar + LANGER_PHASE) ** 2
                * inverse_speed(x), tps.a, tps.b, *layout)
            den = well_integral(inverse_speed, tps.a, tps.b, *layout)
            devs.append(abs(num / den - 1.0))
        label = f"{problem.kinetic.name} + {problem.potential.name}"
        assert all(hi > lo for hi, lo in zip(devs, devs[1:])), f"{label}: {devs}"
        assert devs[-1] < 0.1, f"{label}: |num/den - 1| = {devs[-1]} at n = 63"
        worst = max(worst, devs[-1])
    _ok("6 (central identity)",
        f"|num/den - 1| falls strictly over n = {ladder} on 9 systems, max {worst:.3f} at n = 63")


def test_criterion_7_semiclassical_convergence(benchmark_a, benchmark_b):
    msgs = []
    for label, problem in (("A", benchmark_a), ("B", benchmark_b)):
        report, _ = build_report(problem, [0, 5, 15], FghConfig(n_points=513))
        l1 = [m.l1_classical_vs_fgh_averaged for m in report.density_metrics]
        assert l1[0] > l1[1] > l1[2], f"benchmark {label}: L1 sequence {l1}"
        msgs.append(f"{label}: {l1[0]:.3f}>{l1[1]:.3f}>{l1[2]:.3f}")
    _ok("7 (density convergence)", "; ".join(msgs))


def test_criterion_8a_rest_energy_invariance(benchmark_a):
    law = benchmark_a.kinetic
    reduced = BoundStateProblem(reduced_kinetic(law), benchmark_a.potential)
    for n in (0, 7):
        e_full = quantize(benchmark_a, n).energy
        e_red = quantize(reduced, n).energy
        assert e_red + law.rest_energy == pytest.approx(e_full, abs=1e-12)
    for E in (0.9, 2.1):
        t_full = turning_points(benchmark_a, E)
        t_red = turning_points(reduced, E - law.rest_energy)
        assert t_full.a == t_red.a and t_full.b == t_red.b
    _ok("8a (rest-energy invariance)", "spectra shift exactly; turning points identical")


def test_criterion_8b_node_counts(benchmark_a, benchmark_b):
    for problem in (benchmark_a, benchmark_b):
        spectrum = solve(problem, FghConfig(n_points=513, n_states=16))
        for state in spectrum.states:
            assert count_sign_changes(state.wavefunction) == state.n
        for n in range(16):
            wk = quantize(problem, n)
            tps = wk.turning_points
            x = np.linspace(tps.a + 1e-6 * tps.d, tps.b - 1e-6 * tps.d, 40001)
            assert count_sign_changes(wavefunction_values(problem, wk, x)) == n
    _ok("8b (node counts)", "FGH and WKBJ states have exactly n nodes, n <= 15")


def test_criterion_8c_fgh_convergence(oscillator, airy_problem):
    # grid doubling at default settings for the two high-accuracy oracle problems
    devs = []
    for problem, n_states in ((oscillator, 16), (airy_problem, 8)):
        e1 = solve(problem, FghConfig(n_points=513, n_states=n_states)).energies
        e2 = solve(problem, FghConfig(n_points=1025, n_states=n_states)).energies
        devs.append(np.max(np.abs(e2 - e1) / np.abs(e2)))
        assert devs[-1] <= 1e-8
    # 16 linear-well states need N = 1025 (the kink limits order at larger boxes)
    e1 = solve(airy_problem, FghConfig(n_points=1025, n_states=16)).energies
    e2 = solve(airy_problem, FghConfig(n_points=2049, n_states=16)).energies
    dev_16 = np.max(np.abs(e2 - e1) / np.abs(e2))
    assert dev_16 <= 1e-8
    # box padding 0.35 -> 0.7 at fixed resolution
    box_devs = []
    for problem, n_pts, n_states in ((oscillator, 513, 16), (airy_problem, 1025, 16)):
        box = auto_box(problem, n_states)
        width = box[1] - box[0]
        wide = (box[0] - 0.35 * width / 1.7, box[1] + 0.35 * width / 1.7)
        e1 = solve(problem, FghConfig(n_points=n_pts, box=box, n_states=n_states)).energies
        e2 = solve(problem, FghConfig(n_points=n_pts, box=wide, n_states=n_states)).energies
        box_devs.append(np.max(np.abs(e2 - e1) / np.abs(e2)))
        assert box_devs[-1] <= 1e-8
    _ok("8c (FGH convergence)",
        f"grid devs {devs[0]:.1e}/{devs[1]:.1e}/{dev_16:.1e}, "
        f"box devs {box_devs[0]:.1e}/{box_devs[1]:.1e}")


def test_criterion_8d_kinetics_checks():
    for law in (nonrelativistic(1.0), nonrelativistic(3.0), relativistic(0.2), massless()):
        p = np.linspace(0.0, 5.0, 501)
        assert np.allclose(law.inverse(law.eval(p)), p, rtol=1e-12, atol=1e-12)
        q = p[p > 1e-3] if law.smoothness.value != "smooth" else np.linspace(-4, 4, 81)
        h = 1e-6
        fd = (np.asarray(law.eval(q + h)) - np.asarray(law.eval(q - h))) / (2 * h)
        assert np.allclose(fd, np.asarray(law.deriv(q)), rtol=1e-6, atol=1e-9)
        assert validate_admissibility(law, np.linspace(-5, 5, 2048)).all_passed
    _ok("8d (kinetics checks)", "round-trips at 1e-12, derivatives match FD at 1e-6")


def test_criterion_9_determinism(tmp_path):
    config = REPO / "configs" / "benchmark_a.yaml"
    for sub in ("first", "second"):
        rc = main(["solve", "--config", str(config), "--pipeline", "compare",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    files1 = sorted((tmp_path / "first").iterdir())
    files2 = sorted((tmp_path / "second").iterdir())
    assert [p.name for p in files1] == [p.name for p in files2]
    for p1, p2 in zip(files1, files2):
        assert p1.read_bytes() == p2.read_bytes(), f"{p1.name} differs between runs"
    _ok("9 (determinism)", f"{len(files1)} output files byte-identical across reruns")
