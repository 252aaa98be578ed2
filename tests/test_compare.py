from dataclasses import replace

import numpy as np
import pytest

import semibound.compare
import semibound.wkbj
from semibound import (
    ConfigError,
    FghConfig,
    GridMismatch,
    GridTooCoarse,
    Provenance,
    SampledDensity,
    StateRangeMismatch,
    build_report,
    classical_density,
    compare_spectra,
    debroglie_average,
    density_distance,
    export,
    fgh_density,
    quantize,
    solve,
    wkbj_wavefunction,
)
from semibound.compare import _masked_boxcar, write_density_tables, write_outputs
from semibound.potentials import TurningPoints


def _density(values, grid=None, support=None, n=None):
    grid = grid if grid is not None else np.linspace(-1.0, 1.0, len(values))
    return SampledDensity(
        grid=grid, values=np.asarray(values, dtype=float), support=support,
        provenance=Provenance.FGH, n=n)


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


@pytest.mark.parametrize("metric", ["L1", "sup_interior"])
def test_distance_with_no_sample_inside_the_well_is_a_config_error(benchmark_a, metric):
    # dx = 400/33 = 12.1 against a classical width of 4.39 at n = 0: one sample, at 0
    spectrum = solve(benchmark_a, FghConfig(n_points=33, n_states=4, box=(-200.0, 200.0)))
    state = quantize(benchmark_a, 0)
    rho_cl = replace(classical_density(benchmark_a, state.energy, grid=spectrum.grid,
                                       tps=state.turning_points), n=0)
    rho_avg = debroglie_average(benchmark_a, spectrum.states[0].energy,
                                fgh_density(spectrum, 0))
    with pytest.raises(GridTooCoarse, match=rf"state n=0: .*{metric} region.* dx = 12\.1212"):
        density_distance(rho_cl, rho_avg, metric)


def test_sup_norm_needs_a_sample_inside_its_margins():
    # the two samples at -+0.98 lie in the L1 region [-1, 1] but not in [-0.96, 0.96]
    grid = np.array([-2.94, -0.98, 0.98, 2.94])
    a = _density([0.1, 0.5, 0.5, 0.1], grid, support=TurningPoints(-1.0, 1.0), n=3)
    b = _density([0.1, 0.25, 0.25, 0.1], grid, n=3)
    assert density_distance(a, b, "L1") == pytest.approx(1.96 * 0.5, rel=1e-14)
    with pytest.raises(GridTooCoarse, match=r"state n=3: .*\[-0\.96, 0\.96\].* dx = 1\.96"):
        density_distance(a, b, "sup_interior")


def local_average(density):
    """The fixed-window baseline: a boxcar of width d/(n + 1/2), renormalized to unit integral."""
    dx = density.grid[1] - density.grid[0]
    half = int(round(density.support.d / (density.n + 0.5) / dx)) // 2
    smoothed = _masked_boxcar(density.values, np.full(len(density.grid), half))
    return replace(density, values=smoothed / replace(density, values=smoothed).integral())


def test_debroglie_average_preserves_normalization(benchmark_a):
    state = quantize(benchmark_a, 9)
    spec = solve(benchmark_a, FghConfig(n_points=513, n_states=10))
    rho = wkbj_wavefunction(benchmark_a, state, grid=spec.grid)
    out = debroglie_average(benchmark_a, state.energy, rho)
    assert out.integral() == pytest.approx(1.0, abs=1e-6)


def test_fixed_auto_window_partially_removes_oscillation(benchmark_a):
    """The d/(n+1/2) boxcar matches the oscillation period only at the well
    center; toward the turning points the local period exceeds the window, so
    a sizable L1 residual remains (measured ~0.24 at n=15). The adaptive
    averager tracks the local period and does markedly better."""
    state = quantize(benchmark_a, 15)
    spec = solve(benchmark_a, FghConfig(n_points=513, n_states=16))
    rho_w = wkbj_wavefunction(benchmark_a, state, grid=spec.grid)
    rho_avg = classical_density(benchmark_a, state.energy, grid=spec.grid,
                                tps=state.turning_points)
    raw = density_distance(rho_w, rho_avg)
    fixed = density_distance(local_average(rho_w), rho_avg)
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
        calls.extend(np.atleast_1d(n).tolist())  # one level, or a multi-level call's levels
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


@pytest.mark.parametrize("box", [(1.0, 30.0), (-2.0, 2.0)], ids=["one-sided", "narrow"])
def test_build_report_refuses_a_box_that_cuts_the_classical_region(benchmark_a, box):
    # n = 0 of benchmark A reaches [-2.193, 2.193]; such a box measured L1 over part of it
    with pytest.raises(ConfigError, match=r"fgh.box .* \[-2.19304, 2.19304\] of state n=0"):
        build_report(benchmark_a, [0], FghConfig(n_points=65, box=box, n_states=2))


def test_build_report_needs_a_state(benchmark_a):
    with pytest.raises(ValueError, match="at least one state is needed"):
        build_report(benchmark_a, [], FghConfig(n_points=65, n_states=2))


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
                            provenance=Provenance.CLASSICAL, n=2)
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


def test_density_table_matches_per_cell_rendering(tmp_path):
    # the one-format table writer against a per-cell rendering over varied magnitudes
    rng = np.random.default_rng(13)
    grid = np.linspace(-4.0, 4.0, 61)
    values = rng.standard_normal((3, 61)) * 10.0 ** rng.integers(-320, 300, (3, 61))
    values[0, [0, 9]] = np.inf
    values[1, [5, 60]] = -np.inf
    values[2, [2, 30]] = np.nan
    values[2, [3, 4, 6]] = (-0.0, 5e-324, 1.0)
    routes = (Provenance.CLASSICAL, Provenance.WKBJ, Provenance.FGH)
    densities = [SampledDensity(grid=grid, values=v, support=None, provenance=r, n=7)
                 for v, r in zip(values, routes)]
    (path,) = write_density_tables(densities, tmp_path)
    header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert header == "x,rho_cl,rho_wkbj,rho_fgh"
    table = np.column_stack([grid, *values])
    assert len(rows) == len(table)
    for row, expected in zip(rows, table):
        cells = row.split(",")
        assert cells == [f"{v:.17g}" if np.isfinite(v) else "null" for v in expected]
        assert [c == "null" for c in cells] == [not np.isfinite(v) for v in expected]


def test_summary_text_is_pinned(tmp_path):
    rows = [{"n": 3, "energy": 2.0 / 3.0, "alpha": None}]
    (path,) = write_outputs(rows, {}, [], ["csv"], tmp_path)
    assert path.name == "summary.csv"
    assert path.read_text(encoding="utf-8") == "n,energy,alpha\n3,0.66666666666666663,null\n"


def test_summary_columns_are_the_first_rows_keys(tmp_path):
    rows = [{"b": 1.0, "a": 2.0}, {"a": 4.0, "b": 3.0}]
    (path,) = write_outputs(rows, {}, [], ["csv"], tmp_path)
    assert path.read_text(encoding="utf-8") == "b,a\n1,2\n3,4\n"
    with pytest.raises(KeyError, match="'b'"):
        write_outputs([{"a": 1.0, "b": 2.0}, {"a": 3.0}], {}, [], ["csv"], tmp_path)


def test_write_outputs_refuses_no_rows(tmp_path, benchmark_a):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="at least one summary row"):
        write_outputs([], {}, [], ["csv", "json"], out)
    spectrum = solve(benchmark_a, FghConfig(n_points=65, n_states=2))
    with pytest.raises(ValueError, match="at least one summary row"):
        export(compare_spectra(spectrum, []), [], ["csv"], out)
    assert not out.exists()


def test_export_refuses_a_density_without_a_state(tmp_path, benchmark_a):
    # the README's rho_cl call carries no n: it was dropped without a table or an error
    state = quantize(benchmark_a, 0)
    report, _ = build_report(benchmark_a, [0], FghConfig(n_points=257))
    with pytest.raises(ValueError, match="rho_cl density without a state n"):
        export(report, [classical_density(benchmark_a, state.energy)], ["csv"], tmp_path)


def test_json_report_structure(tmp_path, benchmark_a):
    import json

    report, densities = build_report(benchmark_a, [0], FghConfig(n_points=257))
    export(report, densities, ["json"], tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"per_state", "density_metrics"}
    assert doc["per_state"][0]["n"] == 0
    assert set(doc["per_state"][0]) == {
        "n", "energy_fgh", "energy_wkbj", "relative_error", "alpha"}
    assert set(doc["density_metrics"][0]) == {
        "n", "l1_classical_vs_fgh_averaged", "sup_interior_classical_vs_fgh_averaged"}


def test_distance_refuses_an_unknown_metric_and_a_nonuniform_grid():
    a = _density(np.ones(5))
    with pytest.raises(ValueError, match="unknown metric 'bogus'"):
        density_distance(a, a, "bogus")
    skewed = _density(np.ones(5), np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
    with pytest.raises(ValueError, match="must be uniform"):
        density_distance(skewed, skewed)


def test_density_tables_refuse_columns_on_different_grids(tmp_path):
    # two n = 0 densities on grids of one length: neither goes under the other's x values
    rho = _density(np.ones(5), np.linspace(-1.0, 1.0, 5), n=0)
    shifted = replace(rho, grid=rho.grid + 0.5, provenance=Provenance.CLASSICAL)
    with pytest.raises(GridMismatch, match="state n=0"):
        write_density_tables([rho, shifted], tmp_path)
    assert not (tmp_path / "density_n000.csv").exists()


@pytest.mark.parametrize("refused", ["no state", "grids"])
def test_refused_write_leaves_the_directory_as_it_found_it(tmp_path, refused):
    # every density is checked before summary.csv, or an earlier state's table, is written
    good = _density(np.ones(5), n=0)
    bad, error = ((replace(good, n=None), ValueError) if refused == "no state"
                  else (replace(good, n=1, grid=good.grid + 0.5), GridMismatch))
    densities = [good, replace(good, n=1), bad]
    old = tmp_path / "old.txt"
    old.write_text("kept\n", encoding="utf-8")
    with pytest.raises(error):
        write_outputs([{"n": 0.0}], {}, densities, ["csv", "json"], tmp_path)
    with pytest.raises(error):
        write_density_tables(densities, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert old.read_text(encoding="utf-8") == "kept\n"
    with pytest.raises(error):
        write_outputs([{"n": 0.0}], {}, densities, ["csv"], tmp_path / "new")
    assert not (tmp_path / "new").exists()
