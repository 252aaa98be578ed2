from dataclasses import replace

import numpy as np
import pytest

import semibound.compare
import semibound.wkbj
from semibound import (
    FghConfig,
    GridMismatch,
    Provenance,
    SampledDensity,
    StateRangeMismatch,
    WindowTooWide,
    build_report,
    compare_spectra,
    debroglie_average,
    density_distance,
    export,
    local_average,
    quantize,
    solve,
    wkbj_averaged_density,
    wkbj_wavefunction,
)
from semibound.compare import write_density_tables, write_outputs
from semibound.potentials import TurningPoints


def _density(values, grid=None, support=None, n=None):
    grid = grid if grid is not None else np.linspace(-1.0, 1.0, len(values))
    return SampledDensity(
        grid=grid, values=np.asarray(values, dtype=float), support=support,
        provenance=Provenance.FGH, normalization_domain=(grid[0], grid[-1]), n=n)


def test_distance_identical_is_zero():
    d = _density(np.linspace(0.2, 0.8, 50))
    assert density_distance(d, d) == 0.0
    assert density_distance(d, d, "sup_interior") == 0.0


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 2.0, 64)
    for _ in range(20):
        a, b, c = (_density(rng.uniform(0, 1, 64), grid) for _ in range(3))
        dab = density_distance(a, b)
        assert dab == pytest.approx(density_distance(b, a), rel=1e-14)
        assert dab <= density_distance(a, c) + density_distance(c, b) + 1e-12


def test_distance_grid_mismatch():
    a = _density(np.ones(10), np.linspace(0, 1, 10))
    b = _density(np.ones(11), np.linspace(0, 1, 11))
    with pytest.raises(GridMismatch):
        density_distance(a, b)


def test_distance_restricted_to_support_overlap():
    grid = np.linspace(-2.0, 2.0, 401)
    inside = np.where(np.abs(grid) <= 1.0, 0.5, 0.0)
    a = _density(inside, grid, support=TurningPoints(-1.0, 1.0))
    b = _density(np.full_like(grid, 0.5), grid, support=TurningPoints(-1.0, 1.0))
    # curves agree on the overlap; the mismatch outside must not count
    assert density_distance(a, b) == pytest.approx(0.0, abs=1e-14)


def test_local_average_constant_fixed_point():
    d = _density(np.full(101, 0.5))
    out = local_average(d, 0.3)
    assert np.allclose(out.values, 0.5, rtol=1e-12)


def test_local_average_zero_window_identity():
    d = _density(np.linspace(0.0, 1.0, 101))
    out = local_average(d, 0)
    assert out is d


def test_local_average_too_wide():
    d = _density(np.ones(101), support=TurningPoints(-1.0, 1.0))
    with pytest.raises(WindowTooWide):
        local_average(d, 2.5)


def test_local_average_auto_needs_metadata():
    d = _density(np.ones(101))
    with pytest.raises(ValueError):
        local_average(d, "auto")


def test_local_average_preserves_normalization(benchmark_a):
    state = quantize(benchmark_a, 9)
    spec = solve(benchmark_a, FghConfig(n_points=513, n_states=10))
    rho = wkbj_wavefunction(benchmark_a, state, grid=spec.grid)
    out = local_average(rho, "auto")
    assert out.integral() == pytest.approx(1.0, abs=1e-6)


def test_fixed_auto_window_partially_removes_oscillation(benchmark_a):
    """The d/(n+1/2) boxcar matches the oscillation period only at the well
    center; toward the turning points the local period exceeds the window, so
    a sizable L1 residual remains (measured ~0.24 at n=15). The adaptive
    averager tracks the local period and does markedly better."""
    state = quantize(benchmark_a, 15)
    spec = solve(benchmark_a, FghConfig(n_points=513, n_states=16))
    rho_w = wkbj_wavefunction(benchmark_a, state, grid=spec.grid)
    rho_avg = wkbj_averaged_density(benchmark_a, state, grid=spec.grid)
    raw = density_distance(rho_w, rho_avg)
    fixed = density_distance(local_average(rho_w, "auto"), rho_avg)
    adaptive = density_distance(
        debroglie_average(benchmark_a, state.energy, rho_w), rho_avg)
    assert fixed < 0.6 * raw
    assert fixed == pytest.approx(0.238, abs=0.03)
    assert adaptive < fixed


def test_compare_spectra_self_is_zero(benchmark_a):
    spec = solve(benchmark_a, FghConfig(n_points=257, n_states=4))
    states = [quantize(benchmark_a, n) for n in range(4)]
    fake = [type(s)(n=s.n, energy=spec.states[s.n].energy,
                    turning_points=s.turning_points, alpha=s.alpha,
                    action_residual=s.action_residual) for s in states]
    report = compare_spectra(spec, fake)
    assert all(r.relative_error == 0.0 for r in report.per_state)


def test_compare_spectra_range_mismatch(benchmark_a):
    spec = solve(benchmark_a, FghConfig(n_points=257, n_states=3))
    with pytest.raises(StateRangeMismatch):
        compare_spectra(spec, [quantize(benchmark_a, 5)])


def test_report_ordering_and_errors(benchmark_a):
    report, densities = build_report(benchmark_a, [0, 5, 15], FghConfig())
    by_n = {r.n: r for r in report.per_state}
    assert 0.03 < by_n[0].relative_error < 0.3
    assert 3e-4 < by_n[5].relative_error < 3e-3
    assert 3e-5 < by_n[15].relative_error < 3e-4
    l1 = [m.l1_classical_vs_fgh_averaged for m in report.density_metrics]
    assert l1[0] > l1[1] > l1[2]
    assert all(0.0 <= v <= 2.0 for v in l1)


def test_build_report_leaves_config_alone_and_quantizes_once(monkeypatch, benchmark_a):
    calls = []
    original = semibound.wkbj.quantize

    def counting(problem, n, *args, **kwargs):
        calls.append(n)
        return original(problem, n, *args, **kwargs)

    # compare holds its own reference; auto_box looks quantize up in wkbj
    monkeypatch.setattr(semibound.compare, "quantize", counting)
    monkeypatch.setattr(semibound.wkbj, "quantize", counting)
    cfg = FghConfig(n_points=257, n_states=4)
    report, _ = build_report(benchmark_a, [0, 5, 9], cfg)
    assert cfg == FghConfig(n_points=257, n_states=4)
    assert sorted(calls) == [0, 5, 9]
    assert [r.n for r in report.per_state] == [0, 5, 9]


def test_build_report_box_equals_auto_box(benchmark_a):
    report, _ = build_report(benchmark_a, [0, 3], FghConfig(n_points=257, n_states=4))
    spectrum = solve(benchmark_a, FghConfig(n_points=257, n_states=4))
    assert [r.energy_fgh for r in report.per_state] == [
        spectrum.states[n].energy for n in (0, 3)]


def test_export_files_and_determinism(tmp_path, benchmark_a):
    report, densities = build_report(benchmark_a, [0, 2], FghConfig(n_points=257))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    paths1 = export(report, densities, ["csv", "json"], out1)
    paths2 = export(report, densities, ["csv", "json"], out2)
    names1 = sorted(p.name for p in paths1)
    assert names1 == ["density_n000.csv", "density_n002.csv", "report.json", "summary.csv"]
    for p1, p2 in zip(sorted(paths1), sorted(paths2)):
        assert p1.read_bytes() == p2.read_bytes()


def test_export_sentinels_serialized_as_null(tmp_path, benchmark_a):
    state = quantize(benchmark_a, 1)
    tps = state.turning_points
    grid = np.linspace(tps.a, tps.b, 51)  # endpoints exactly on the TPs
    rho = wkbj_wavefunction(benchmark_a, state, grid=grid)
    report, _ = build_report(benchmark_a, [1], FghConfig(n_points=257))
    paths = export(report, [rho], ["csv"], tmp_path)
    table = (tmp_path / "density_n001.csv").read_text()
    first_row = table.splitlines()[1]
    assert first_row.endswith(",null")


def test_export_empty_densities_summary_only(tmp_path, benchmark_a):
    report, _ = build_report(benchmark_a, [0], FghConfig(n_points=257))
    paths = export(report, [], ["csv", "json"], tmp_path)
    assert sorted(p.name for p in paths) == ["report.json", "summary.csv"]


def test_density_table_text_is_pinned(tmp_path):
    values = np.array([0.1, -0.0, 1e-300, 2.0 / 3.0, np.inf, -np.inf, np.nan])
    grid = np.linspace(-1.5, 1.5, len(values))
    rho_cl = SampledDensity(grid=grid, values=values, support=None,
                            provenance=Provenance.CLASSICAL, normalization_domain=(-1.5, 1.5),
                            n=2)
    rho_fgh = replace(rho_cl, values=values[::-1], provenance=Provenance.FGH)
    (path,) = write_density_tables([rho_cl, rho_fgh], tmp_path)
    assert path.name == "density_n002.csv"
    assert path.read_text(encoding="utf-8") == (
        "x,rho_cl,rho_fgh\n"
        "-1.5,0.10000000000000001,null\n"
        "-1,-0,null\n"
        "-0.5,1e-300,null\n"
        "0,0.66666666666666663,0.66666666666666663\n"
        "0.5,null,1e-300\n"
        "1,null,-0\n"
        "1.5,null,0.10000000000000001\n")


def test_summary_text_is_pinned(tmp_path):
    rows = [{"n": 3, "energy": 2.0 / 3.0, "alpha": None}]
    (path,) = write_outputs(("n", "energy", "alpha"), rows, {}, [], ["csv"], tmp_path)
    assert path.name == "summary.csv"
    assert path.read_text(encoding="utf-8") == "n,energy,alpha\n3,0.66666666666666663,null\n"


def test_json_report_structure(tmp_path, benchmark_a):
    import json

    report, densities = build_report(benchmark_a, [0], FghConfig(n_points=257),
                                     config_echo={"tag": "unit"})
    export(report, densities, ["json"], tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"] == {"tag": "unit"}
    assert doc["per_state"][0]["n"] == 0
    assert set(doc["per_state"][0]) == {
        "n", "energy_fgh", "energy_wkbj", "relative_error", "alpha"}
    assert set(doc["density_metrics"][0]) == {
        "n", "l1_classical_vs_fgh_averaged", "sup_interior_classical_vs_fgh_averaged"}
