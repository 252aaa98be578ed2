import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import semibound.classical
import semibound.cli
import semibound.fgh
import semibound.kinetics
import semibound.potentials
import semibound.wkbj
from semibound.cli import main, parse_config, run_solve, validate
from semibound.errors import ConfigError, QuadratureNotConverged
from semibound.kinetics import ConditionCheck

REPO = Path(__file__).resolve().parents[1]
BENCH_A = REPO / "configs" / "benchmark_a.yaml"
BENCH_B = REPO / "configs" / "benchmark_b.yaml"


def write_config(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


OSCILLATOR_YAML = """
problem:
  kinetic: {kind: nonrelativistic, m: 1.0}
  potential: {kind: harmonic, mass: 1.0, omega: 1.0}
states: [0]
fgh: {n_points: 257, n_states: 4}
outputs: {directory: out, formats: [csv, json], grid_points: 401}
"""


def test_parse_benchmark_config():
    cfg = parse_config(BENCH_A)
    assert cfg.kinetic_kind == "relativistic"
    assert cfg.kinetic_params == {"m": 0.2}
    assert cfg.potential_params == {"lambda": 0.2}
    assert cfg.states == [0, 5, 15]
    assert cfg.fgh.n_points == 513


def test_parse_states_range(tmp_path):
    path = write_config(tmp_path, """
problem:
  kinetic: {kind: massless}
  potential: {kind: linear, lambda: 0.2}
states: {range: [2, 5]}
""")
    assert parse_config(path).states == [2, 3, 4, 5]


@pytest.mark.parametrize("snippet,fragment", [
    ("problem: {potential: {kind: linear, lambda: 0.2}}\nstates: [0]",
     "problem.kinetic"),
    ("problem:\n  kinetic: {kind: warp}\n  potential: {kind: linear, lambda: 0.2}\nstates: [0]",
     "kind 'warp'"),
    ("problem:\n  kinetic: {kind: massless}\n  potential: {kind: linear, lambda: 0.2}\nstates: []",
     "states"),
    ("problem:\n  kinetic: {kind: massless}\n  potential: {kind: linear, lambda: 0.2}\nstates: [-1]",
     "states"),
    ("- problem\n- states", "config root must be a mapping"),
])
def test_parse_errors(tmp_path, snippet, fragment):
    path = write_config(tmp_path, snippet)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert fragment in str(err.value)


def test_run_solve_refuses_an_unknown_pipeline(tmp_path):
    cfg = parse_config(BENCH_A)
    with pytest.raises(ConfigError, match="pipeline must be one of"):
        run_solve(cfg, "bogus", out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_validate_passes_benchmark():
    report = validate(parse_config(BENCH_A))
    assert report.all_passed


def test_validate_flags_massless_smoothness():
    report = validate(parse_config(BENCH_B))
    assert report.all_passed
    assert report.smoothness.value == "non_smooth_at_zero"


def test_wkbj_pipeline_oscillator(tmp_path):
    path = write_config(tmp_path, OSCILLATOR_YAML)
    cfg = parse_config(path)
    written = run_solve(cfg, "wkbj", out_dir=tmp_path / "out")
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("n,energy_wkbj")
    row = summary[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == pytest.approx(0.5, rel=1e-10)


def test_classical_pipeline_massless_flat(tmp_path):
    path = write_config(tmp_path, """
problem:
  kinetic: {kind: massless}
  potential: {kind: linear, lambda: 0.2}
states: [3]
outputs: {formats: [csv], grid_points: 501}
""")
    cfg = parse_config(path)
    run_solve(cfg, "classical", out_dir=tmp_path / "out")
    table = (tmp_path / "out" / "density_n003.csv").read_text().splitlines()
    assert table[0] == "x,rho_cl"
    data = np.array([[float(c) if c != "null" else np.nan for c in line.split(",")]
                     for line in table[1:]])
    inside = ~np.isnan(data[:, 1]) & (data[:, 1] > 0)
    e3 = np.sqrt(np.pi * 0.2 * 3.5)
    d = 2 * e3 / 0.2
    assert np.allclose(data[inside, 1], 1.0 / d, rtol=1e-12)


def test_fgh_pipeline(tmp_path):
    path = write_config(tmp_path, OSCILLATOR_YAML)
    cfg = parse_config(path)
    run_solve(cfg, "fgh", out_dir=tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    # auto box for 4 states is only +-4.5, so tails truncate around 1e-8
    assert doc["states"][0]["energy"] == pytest.approx(0.5, abs=1e-7)


def test_compare_pipeline_and_exit_codes(tmp_path):
    rc = main(["solve", "--config", str(BENCH_A), "--pipeline", "compare",
               "--out", str(tmp_path / "cmp")])
    assert rc == 0
    doc = json.loads((tmp_path / "cmp" / "report.json").read_text())
    errs = {row["n"]: row["relative_error"] for row in doc["per_state"]}
    assert 0.03 < errs[0] < 0.3
    assert 3e-5 < errs[15] < 3e-4


@pytest.mark.parametrize("points", [527, 561])
def test_compare_l1_is_bounded_with_fgh_points_on_turning_points(tmp_path, points):
    # odd multiples of 17 put FGH points on the turning points of n = 15; the sample there
    # is the +inf sentinel, so the L1 distance stays near its 0.127 at N = 513
    path = write_config(tmp_path, BENCH_A.read_text(encoding="utf-8")
                        .replace("n_points: 513", f"n_points: {points}"))
    assert main(["solve", "--config", str(path), "--pipeline", "compare",
                 "--out", str(tmp_path / "cmp")]) == 0
    with (tmp_path / "cmp" / "summary.csv").open(newline="", encoding="utf-8") as f:
        l1 = [float(row["l1_classical_vs_fgh_averaged"]) for row in csv.DictReader(f)]
    assert len(l1) == 3 and all(np.isfinite(v) and v < 1.0 for v in l1)


def test_massless_density_is_flat_on_fgh_points_on_turning_points(tmp_path):
    # at N = 527 two FGH points sit on the turning points of n = 15 on benchmark B; the
    # massless layout substitutes neither, so rho_cl there is its flat 1/d, never null
    path = write_config(tmp_path, BENCH_B.read_text(encoding="utf-8")
                        .replace("n_points: 513", "n_points: 527"))
    assert main(["solve", "--config", str(path), "--pipeline", "compare",
                 "--out", str(tmp_path / "cmp")]) == 0
    with (tmp_path / "cmp" / "density_n015.csv").open(newline="", encoding="utf-8") as f:
        rho_cl = [row["rho_cl"] for row in csv.DictReader(f)]
    assert "null" not in rho_cl
    assert len(set(rho_cl) - {"0"}) == 1


def test_compare_report_echoes_the_parsed_config(tmp_path):
    # the CLI adds the YAML mapping to the library report under "config"
    path = write_config(tmp_path, OSCILLATOR_YAML)
    assert main(["solve", "--config", str(path), "--pipeline", "compare",
                 "--out", str(tmp_path / "cmp")]) == 0
    doc = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert doc["config"] == yaml.safe_load(OSCILLATOR_YAML)


def test_exponent_without_dot_is_a_number(tmp_path):
    # PyYAML reads 1e-3 as the string '1e-3'; it is still a valid mass
    path = write_config(tmp_path, OSCILLATOR_YAML.replace("m: 1.0}", "m: 1e-3}"))
    assert yaml.safe_load(path.read_text())["problem"]["kinetic"]["m"] == "1e-3"
    assert parse_config(path).kinetic_params == {"m": 1e-3}
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 0


def test_empty_out_is_a_config_error(tmp_path, monkeypatch, capsys):
    # only an absent --out falls back to outputs.directory
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, OSCILLATOR_YAML)
    assert main(["solve", "--config", str(path), "--pipeline", "fgh", "--out", ""]) == 2
    assert "outputs.directory must be a non-empty string, got ''" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "path-under-file"])
def test_output_directory_that_cannot_be_made_is_refused_before_the_solve(
        tmp_path, monkeypatch, capsys, under_file):
    def unreachable(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(semibound.fgh, "solve", unreachable)
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "sub" if under_file else blocker)
    path = write_config(tmp_path, OSCILLATOR_YAML)
    assert main(["solve", "--config", str(path), "--pipeline", "fgh", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["benchmark_a", "benchmark_b", "readme"])
def test_config_echo_equals_safe_load(tmp_path, source):
    if source == "readme":
        section = (REPO / "README.md").read_text(encoding="utf-8").split(
            "## Config file schema (YAML)", 1)[1]
        text = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = write_config(tmp_path, text)
    else:
        path = REPO / "configs" / f"{source}.yaml"
        text = path.read_text(encoding="utf-8")
    assert parse_config(path).echo == yaml.safe_load(text)


def test_malformed_yaml_is_a_parse_error(tmp_path, capsys):
    path = write_config(tmp_path, "problem: {kinetic: [massless\nstates: [0]\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: YAML parse error in ")


def test_exit_code_2_on_bad_config(tmp_path):
    path = write_config(tmp_path, "problem: [not, a, mapping]\nstates: [0]")
    assert main(["solve", "--config", str(path), "--pipeline", "wkbj"]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.yaml"),
                 "--pipeline", "wkbj"]) == 2


def test_exit_code_3_on_bad_law_parameter(tmp_path):
    path = write_config(tmp_path, """
problem:
  kinetic: {kind: relativistic, m: -1.0}
  potential: {kind: linear, lambda: 0.2}
states: [0]
""")
    assert main(["solve", "--config", str(path), "--pipeline", "wkbj"]) == 3


def test_exit_code_2_on_even_grid(tmp_path):
    # an even n_points is a config value the fgh grid cannot use: OddGridRequired
    path = write_config(tmp_path, """
problem:
  kinetic: {kind: nonrelativistic, m: 1.0}
  potential: {kind: harmonic, mass: 1.0, omega: 1.0}
states: [0]
fgh: {n_points: 256, n_states: 2}
""")
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 2


def test_exit_code_1_on_quadrature_budget(tmp_path, monkeypatch, capsys):
    def capped(*args, **kwargs):
        raise QuadratureNotConverged("budget reached")

    monkeypatch.setattr(semibound.wkbj, "quantize", capped)
    path = write_config(tmp_path, OSCILLATOR_YAML)
    assert main(["solve", "--config", str(path), "--pipeline", "wkbj",
                 "--out", str(tmp_path / "x")]) == 1
    assert "QuadratureNotConverged" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["classical", "wkbj", "compare"])
def test_exit_code_1_for_states_beyond_a_plateau(tmp_path, monkeypatch, capsys, pipeline):
    # V = 20 x^2/(1 + x^2) stops confining at 20: states 0..3 are found below 16, and the
    # bracket of states 4 and up probes E = 32; the multi-level call raises state 4's error
    plateau = lambda height: semibound.potentials.from_callable(
        "plateau", lambda x: height * x * x / (1.0 + x * x), minimum_location=0.0)
    monkeypatch.setitem(semibound.cli.POTENTIAL_KINDS, "plateau", (plateau, ("height",)))
    path = write_config(tmp_path, """
problem:
  kinetic: {kind: nonrelativistic, m: 1.0}
  potential: {kind: plateau, height: 20.0}
states: [0, 3, 4, 7]
""")
    assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(
        "EnergyCeilingExceeded: no classical region at probe energy 32.0: no turning point")


def test_validate_command_reports_bad_parameter(capsys):
    rc = main(["validate", "--config", str(BENCH_A)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass" in out


@pytest.mark.parametrize("config,pipeline", [(None, "compare")] + [
    (config, pipeline) for config in (BENCH_A, BENCH_B)
    for pipeline in ("classical", "wkbj", "fgh", "compare")],
    ids=lambda value: "oscillator" if value is None else getattr(value, "stem", value))
def test_byte_identical_reruns(tmp_path, config, pipeline):
    path = config or write_config(tmp_path, OSCILLATOR_YAML)
    for sub in ("r1", "r2"):
        assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                     "--out", str(tmp_path / sub)]) == 0
    f1 = sorted((tmp_path / "r1").iterdir())
    f2 = sorted((tmp_path / "r2").iterdir())
    assert [p.name for p in f1] == [p.name for p in f2]
    for p1, p2 in zip(f1, f2):
        assert p1.read_bytes() == p2.read_bytes()


SCHEMA = {
    "classical": ("n,energy_wkbj,a,b,d,period", "x,rho_cl",
                  {"states": ["a", "b", "d", "energy", "n", "period"]}),
    "wkbj": ("n,energy_wkbj,alpha,action_residual,a,b", "x,rho_wkbj",
             {"states": ["a", "action_residual", "alpha", "b", "energy", "n"]}),
    "fgh": ("n,energy_fgh", "x,rho_fgh", {"states": ["energy", "n"]}),
    "compare": ("n,energy_fgh,energy_wkbj,relative_error,alpha,"
                "l1_classical_vs_fgh_averaged,sup_interior_classical_vs_fgh_averaged",
                "x,rho_cl,rho_wkbj,rho_fgh",
                {"per_state": ["alpha", "energy_fgh", "energy_wkbj", "n", "relative_error"],
                 "density_metrics": ["l1_classical_vs_fgh_averaged", "n",
                                     "sup_interior_classical_vs_fgh_averaged"]}),
}


@pytest.mark.parametrize("pipeline", sorted(SCHEMA))
def test_output_schema(tmp_path, pipeline):
    summary_header, density_header, lists = SCHEMA[pipeline]
    out = tmp_path / "out"
    written = run_solve(parse_config(write_config(tmp_path, OSCILLATOR_YAML)), pipeline, out)
    assert [p.name for p in written] == ["summary.csv", "density_n000.csv", "report.json"]
    assert sorted(p.name for p in out.iterdir()) == [
        "density_n000.csv", "report.json", "summary.csv"]
    assert (out / "summary.csv").read_text().splitlines()[0] == summary_header
    assert (out / "density_n000.csv").read_text().splitlines()[0] == density_header
    doc = json.loads((out / "report.json").read_text())
    assert sorted(doc) == sorted(["config", *lists])
    for key, fields in lists.items():
        assert doc[key] and all(sorted(entry) == fields for entry in doc[key])


#: periods each pipeline computes per level: the wkbj pipeline needs none
PERIODS_PER_LEVEL = {"classical": 1, "compare": 1, "wkbj": 0}


@pytest.mark.parametrize("pipeline", sorted(PERIODS_PER_LEVEL))
def test_period_computed_once_per_level(tmp_path, monkeypatch, pipeline):
    energies = []
    original = semibound.classical.period

    def counting(problem, E, *args, **kwargs):
        energies.append(E)
        return original(problem, E, *args, **kwargs)

    monkeypatch.setattr(semibound.classical, "period", counting)
    cfg = parse_config(BENCH_A)
    run_solve(cfg, pipeline, out_dir=tmp_path / "out")
    assert len(energies) == len(set(energies)) == PERIODS_PER_LEVEL[pipeline] * len(cfg.states)


def test_wkbj_and_classical_tables_join_on_x_and_summary(tmp_path):
    """rho_WKBJ and rho_cl at the WKBJ energy come from two pipelines on one config;
    their x columns and shared summary cells match byte for byte, so they join."""
    path = write_config(tmp_path, OSCILLATOR_YAML.replace("states: [0]", "states: [0, 3, 7]"))
    tables = {}
    for pipeline in ("wkbj", "classical"):
        out = tmp_path / pipeline
        assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                     "--out", str(out)]) == 0
        with (out / "summary.csv").open(newline="", encoding="utf-8") as f:
            summary = [{k: row[k] for k in ("n", "energy_wkbj", "a", "b")}
                       for row in csv.DictReader(f)]
        columns = {}
        for density in sorted(out.glob("density_n*.csv")):
            with density.open(newline="", encoding="utf-8") as f:
                columns[density.name] = [row[0] for row in csv.reader(f)][1:]
        tables[pipeline] = summary, columns
    (wkbj_summary, wkbj_x), (cl_summary, cl_x) = tables["wkbj"], tables["classical"]
    assert [row["n"] for row in wkbj_summary] == ["0", "3", "7"]
    assert wkbj_summary == cl_summary
    assert sorted(wkbj_x) == ["density_n000.csv", "density_n003.csv", "density_n007.csv"]
    assert wkbj_x == cl_x


SMALL_GRID_YAML = """
problem:
  kinetic: {kind: nonrelativistic, m: 1.0}
  potential: {kind: harmonic, mass: 1.0, omega: 1.0}
states: STATES
fgh: {n_points: POINTS, n_states: 6}
"""


@pytest.mark.parametrize("pipeline", ["fgh", "compare"])
def test_exit_code_2_on_too_small_grid(tmp_path, capsys, pipeline):
    path = write_config(tmp_path, SMALL_GRID_YAML.replace("STATES", "[0]")
                        .replace("POINTS", "9"))
    assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                 "--out", str(tmp_path / "x")]) == 2
    assert "fgh.n_points" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline,points,rc", [
    ("fgh", 17, 0), ("fgh", 15, 2), ("fgh", 11, 2), ("compare", 17, 0), ("compare", 15, 2)])
def test_grid_size_counts_solved_states(tmp_path, pipeline, points, rc):
    # both FGH routes widen n_states = 6 to 8 so that state 7 is solved
    path = write_config(tmp_path, SMALL_GRID_YAML.replace("STATES", "[0, 7]")
                        .replace("POINTS", str(points)))
    assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                 "--out", str(tmp_path / "x")]) == rc


HIGH_STATES_YAML = """
problem:
  kinetic: {kind: nonrelativistic, m: 1.0}
  potential: {kind: harmonic, mass: 1.0, omega: 1.0}
states: STATES
outputs: {grid_points: 33}
"""


@pytest.mark.parametrize("pipeline", ["classical", "wkbj"])
def test_high_states_need_no_fgh_grid(tmp_path, pipeline):
    # the default 513-point grid holds 256 FGH states; these routes build none
    wide = write_config(tmp_path, HIGH_STATES_YAML.replace("STATES", "{range: [0, 300]}"))
    assert parse_config(wide).fgh.n_states == 301
    assert main(["validate", "--config", str(wide)]) == 0
    path = write_config(tmp_path, HIGH_STATES_YAML.replace("STATES", "[300]"))
    assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                 "--out", str(tmp_path / "x")]) == 0
    summary = (tmp_path / "x" / "summary.csv").read_text().splitlines()
    assert summary[1].startswith("300,")


def test_fgh_pipeline_solves_every_requested_state(tmp_path):
    # n_states: 8 is widened to 21 rather than dropping state 20
    path = write_config(tmp_path, BENCH_A.read_text(encoding="utf-8").split("states:")[0]
                        + "states: [0, 5, 20]\nfgh: {n_points: 129, n_states: 8}\n")
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 0
    summary = (tmp_path / "x" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in summary[1:]] == ["0", "5", "20"]
    assert (tmp_path / "x" / "density_n020.csv").is_file()
    states = json.loads((tmp_path / "x" / "report.json").read_text())["states"]
    assert [s["n"] for s in states] == [0, 5, 20]


def test_density_metric_on_a_grid_too_coarse_exits_2(tmp_path):
    # dx = 400/33 = 12.1 against a classical width of 4.39 at n = 0: one sample, at 0
    path = write_config(tmp_path, BENCH_A.read_text(encoding="utf-8").split("states:")[0]
                        + "states: [0]\nfgh: {n_points: 33, n_states: 4, box: [-200, 200]}\n")
    src = REPO / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-m", "semibound.cli", "solve", "--config",
                             str(path), "--pipeline", "compare", "--out", str(tmp_path / "x")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "config error: state n=0" in result.stderr
    assert "dx = 12.1212" in result.stderr


def test_kinetic_law_overflowing_on_a_narrow_box_exits_1_with_the_typed_line_only(tmp_path):
    # grid momenta near 3e300 overflow p ** 2 in the relativistic T; run with RuntimeWarnings
    # as errors, in a subprocess, so an untyped warning would end the run first
    path = write_config(tmp_path, BENCH_A.read_text(encoding="utf-8").split("states:")[0]
                        + "states: [0]\nfgh: {n_points: 65, n_states: 4, "
                          "box: [-1.0e-300, 1.0e-300]}\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "semibound.cli",
                             "solve", "--config", str(path), "--pipeline", "fgh",
                             "--out", str(tmp_path / "x")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.splitlines() == ["EigensolverFailure: the kinetic kernel needs a finite "
                                          "T(p): T is not finite at grid p = 3.14159e+300"]


@pytest.mark.parametrize("box", ["[1, 30]", "[-2, 2]"], ids=["one-sided", "narrow"])
def test_compare_box_cutting_the_classical_region_exits_2(tmp_path, capsys, box):
    # n = 0 of benchmark A reaches [-2.193, 2.193]; the fgh route still solves on such a box
    path = write_config(tmp_path, BENCH_A.read_text(encoding="utf-8").split("states:")[0]
                        + f"states: [0]\nfgh: {{n_points: 65, n_states: 2, box: {box}}}\n")
    assert main(["solve", "--config", str(path), "--pipeline", "compare",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error: fgh.box" in err
    assert "[-2.19304, 2.19304] of state n=0" in err
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "y")]) == 0


def test_exit_code_2_on_no_fgh_states(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_GRID_YAML.replace("STATES", "[0]")
                        .replace("POINTS", "65").replace("n_states: 6", "n_states: 0"))
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 2
    assert "fgh.n_states" in capsys.readouterr().err


def test_compare_refuses_no_fgh_states_as_fgh_does(tmp_path, capsys):
    # widening to max(states) + 1 does not turn an n_states of 0 into a valid request
    path = write_config(tmp_path, SMALL_GRID_YAML.replace("STATES", "[0]")
                        .replace("POINTS", "65").replace("n_states: 6", "n_states: 0"))
    assert main(["solve", "--config", str(path), "--pipeline", "compare",
                 "--out", str(tmp_path / "x")]) == 2
    assert "fgh.n_states must be >= 1" in capsys.readouterr().err


BAD_MASS_YAML = """
problem:
  kinetic: {kind: relativistic, m: -1.0}
  potential: {kind: linear, lambda: 0.2}
states: [0]
"""


def test_validate_exits_3_when_law_cannot_be_built(tmp_path, capsys):
    path = write_config(tmp_path, BAD_MASS_YAML)
    assert main(["validate", "--config", str(path)]) == 3
    assert "kinetic law construction failed" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["validate"], ["solve", "--pipeline", "wkbj"]])
def test_failed_admissibility_check_exits_3(tmp_path, monkeypatch, command):
    samples = []
    original = semibound.kinetics.validate_admissibility

    def failing(law, p_samples):
        samples.append(p_samples)
        report = original(law, p_samples)
        return replace(report, checks=report.checks + (ConditionCheck("injected", False),))

    monkeypatch.setattr(semibound.kinetics, "validate_admissibility", failing)
    path = write_config(tmp_path, OSCILLATOR_YAML)
    assert main([*command, "--config", str(path), *(["--out", str(tmp_path / "x")]
                                                   if command[0] == "solve" else [])]) == 3
    cfg = parse_config(path)
    assert len(samples) == 1
    np.testing.assert_array_equal(samples[0], np.linspace(-cfg.p_max, cfg.p_max, cfg.n_samples))
    assert not (tmp_path / "x").exists()


MALFORMED_BASE = {
    "problem": {"kinetic": {"kind": "nonrelativistic", "m": 1.0},
                "potential": {"kind": "harmonic", "mass": 1.0, "omega": 1.0}},
    "states": [0],
    "fgh": {"n_points": 65},
}

# (dotted field, value, exit code of validate, exit code of solve --pipeline fgh, message part)
MALFORMED = {
    "states-range-one-bound": ("states", {"range": [0]}, 2, 2, "unpack"),
    "states-text": ("states", ["zero"], 2, 2, "'zero'"),
    "states-string": ("states", "abc", 2, 2,
                      "states must be a list of integers or {range: [lo, hi]}"),
    "n_points-text": ("fgh.n_points", "many", 2, 2, "'many'"),
    "box-text": ("fgh.box", ["a", "b"], 2, 2, "fgh.box must be a number, got 'a'"),
    "box-null-end": ("fgh.box", [None, 3], 2, 2, "fgh.box must be a number, got None"),
    "box-three-ends": ("fgh.box", [1, 2, 3], 2, 2, "fgh.box must be 'auto' or [x_min, x_max]"),
    "fgh-not-mapping": ("fgh", 5, 2, 2, "int"),
    "hbar-text": ("problem.hbar", "abc", 2, 2, "problem.hbar must be a number, got 'abc'"),
    "hbar-mapping": ("problem.hbar", {"h": 1}, 2, 2,
                     "problem.hbar must be a number, got {'h': 1}"),
    "hbar-zero": ("problem.hbar", 0, 2, 2, "problem.hbar"),
    "hbar-infinite": ("problem.hbar", float("inf"), 2, 2, "problem.hbar"),
    "mass-text": ("problem.kinetic.m", "abc", 2, 2,
                  "problem.kinetic.m must be a number, got 'abc'"),
    "mass-list": ("problem.kinetic.m", [1.0], 2, 2,
                  "problem.kinetic.m must be a number, got [1.0]"),
    "slope-negative": ("problem.potential", {"kind": "linear", "lambda": -0.2}, 0, 2, "slope"),
    "no-samples": ("validation.n_samples", 0, 2, 2, "n_samples >= 4"),
    "three-samples": ("validation.n_samples", 3, 2, 2, "n_samples >= 4"),
    "four-samples": ("validation.n_samples", 4, 0, 0, None),
    "p_max-zero": ("validation.p_max", 0, 2, 2, "p_max > 0"),
    "p_max-infinite": ("validation.p_max", float("inf"), 2, 2, "p_max > 0"),
    "no-grid-points": ("outputs.grid_points", 0, 2, 2, "outputs.grid_points"),
    "three-grid-points": ("outputs.grid_points", 3, 0, 0, None),
    "box-reversed": ("fgh.box", [3, -3], 0, 2, "fgh.box"),
    "box-empty": ("fgh.box", [-3, -3], 0, 2, "fgh.box"),
    "box-unbounded": ("fgh.box", [float("-inf"), 3], 0, 2, "fgh.box"),
    "box-width-overflows": ("fgh.box", [-1.0e308, 1.0e308], 0, 2, "finite width"),
    "mass-negative": ("problem.kinetic", {"kind": "relativistic", "m": -1.0}, 3, 3,
                      "kinetic law construction failed"),
    "mass-infinite": ("problem.kinetic.m", float("inf"), 3, 3, "positive and finite"),
    "relativistic-mass-infinite": ("problem.kinetic", {"kind": "relativistic", "m": float("inf")},
                                   3, 3, "positive and finite"),
    "slope-infinite": ("problem.potential", {"kind": "linear", "lambda": float("inf")}, 0, 2,
                       "positive and finite"),
    "potential-mass-infinite": ("problem.potential.mass", float("inf"), 0, 2,
                                "positive and finite"),
    "omega-infinite": ("problem.potential.omega", float("inf"), 0, 2, "positive and finite"),
    "power-c-infinite": ("problem.potential", {"kind": "power", "c": float("inf"), "q": 2.0},
                         0, 2, "finite c"),
    "power-q-infinite": ("problem.potential", {"kind": "power", "c": 1.0, "q": float("inf")},
                         0, 2, "finite c"),
    "n_points-even": ("fgh.n_points", 256, 0, 2, "fgh.n_points must be odd"),
    "omega-squared-overflows": ("problem.potential.omega", 1.0e200, 0, 2, "0.5*mass*omega^2"),
    "omega-squared-underflows": ("problem.potential.omega", 1.0e-200, 0, 2, "0.5*mass*omega^2"),
    "harmonic-coefficient-overflows": ("problem.potential",
                                       {"kind": "harmonic", "mass": 1.0e200, "omega": 1.0e100},
                                       0, 2, "0.5*mass*omega^2"),
    "states-float": ("states", [1.5], 2, 2, "states must be an integer, got 1.5"),
    "states-bool": ("states", [True], 2, 2, "states must be an integer, got True"),
    "states-range-floats": ("states", {"range": [0.5, 2.7]}, 2, 2,
                            "states.range must be an integer, got 0.5"),
    "n_points-float": ("fgh.n_points", 65.9, 2, 2, "fgh.n_points must be an integer, got 65.9"),
    "n_samples-float": ("validation.n_samples", 4.5, 2, 2,
                        "validation.n_samples must be an integer, got 4.5"),
    "unknown-top-level-key": ("output", {"formats": ["json"]}, 2, 2, "'output'"),
    "unknown-problem-key": ("problem.hbarr", 2.0, 2, 2, "'problem.hbarr'"),
    "unknown-states-key": ("states", {"range": [0, 1], "step": 2}, 2, 2, "'states.step'"),
    "unknown-fgh-key": ("fgh.npoints", 9, 2, 2, "'fgh.npoints'"),
    "unknown-outputs-key": ("outputs.format", ["json"], 2, 2, "'outputs.format'"),
    "unknown-validation-key": ("validation.pmax", 1.0, 2, 2, "'validation.pmax'"),
    "formats-empty": ("outputs.formats", [], 2, 2, "got []"),
    "formats-bare-string": ("outputs.formats", "csv", 2, 2, "got 'csv'"),
    "directory-null": ("outputs.directory", None, 2, 2,
                       "outputs.directory must be a non-empty string, got None"),
    "directory-empty": ("outputs.directory", "", 2, 2, "got ''"),
    "directory-number": ("outputs.directory", 7, 2, 2, "got 7"),
    "mass-bool": ("problem.kinetic.m", True, 2, 2, "problem.kinetic.m must be a number, got True"),
    "omega-bool": ("problem.potential.omega", True, 2, 2,
                   "problem.potential.omega must be a number, got True"),
    "hbar-bool": ("problem.hbar", True, 2, 2, "problem.hbar must be a number, got True"),
    "box-bool": ("fgh.box", [True, 4], 2, 2, "fgh.box must be a number, got True"),
    "p_max-bool": ("validation.p_max", True, 2, 2,
                   "validation.p_max must be a number, got True"),
    "nonrelativistic-no-mass": ("problem.kinetic", {"kind": "nonrelativistic"}, 3, 3, "'m'"),
    "harmonic-no-mass": ("problem.potential", {"kind": "harmonic", "omega": 1.0}, 0, 2, "'mass'"),
    "harmonic-no-omega": ("problem.potential", {"kind": "harmonic", "mass": 1.0}, 0, 2,
                          "'omega'"),
}


def malformed_config(tmp_path, field, value):
    doc = json.loads(json.dumps(MALFORMED_BASE))
    *parents, key = field.split(".")
    section = doc
    for name in parents:
        section = section.setdefault(name, {})
    section[key] = value
    return write_config(tmp_path, yaml.safe_dump(doc))


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exit_code_and_stream(tmp_path, capsys, case, command):
    field, value, validate_rc, solve_rc, part = MALFORMED[case]
    path = str(malformed_config(tmp_path, field, value))
    argv = (["validate", "--config", path] if command == "validate" else
            ["solve", "--config", path, "--pipeline", "fgh", "--out", str(tmp_path / "x")])
    rc = validate_rc if command == "validate" else solve_rc
    assert main(argv) == rc
    out, err = capsys.readouterr()
    if rc == 0:
        assert out and not err
        return
    # validate reports its law verdict on stdout; every other message goes to stderr
    message, silent = (out, err) if rc == 3 and command == "validate" else (err, out)
    assert not silent
    assert message.startswith("config error: " if rc == 2 else "kinetic law construction")
    assert part in message


@pytest.mark.parametrize("pipeline,rc", [("classical", 0), ("wkbj", 0), ("compare", 2)])
def test_reversed_box_refused_only_where_a_grid_is_built(tmp_path, pipeline, rc):
    path = malformed_config(tmp_path, "fgh.box", [3, -3])
    assert main(["solve", "--config", str(path), "--pipeline", pipeline,
                 "--out", str(tmp_path / "x")]) == rc


def test_value_error_inside_solver_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("defect inside the quantizer")

    monkeypatch.setattr(semibound.wkbj, "quantize", broken)
    path = write_config(tmp_path, OSCILLATOR_YAML)
    with pytest.raises(ValueError, match="defect inside the quantizer"):
        main(["solve", "--config", str(path), "--pipeline", "wkbj", "--out", str(tmp_path / "x")])


def test_cli_solve_imports_no_scipy_optimize_or_interpolate(tmp_path):
    # the root finders and the phase are in-house, and the FGH eigensolve is numpy's
    code = ("import sys; from semibound.cli import main; "
            f"rc = main(['solve', '--config', {str(BENCH_A)!r}, '--pipeline', 'compare', "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'interpolate'])))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("pipeline", ["wkbj", "classical"])
def test_cli_solve_without_fgh_imports_no_scipy(tmp_path, pipeline):
    # no pipeline imports scipy; these build no FGH grid, so none calls LAPACK either
    code = ("import sys; from semibound.cli import main; "
            f"rc = main(['solve', '--config', {str(BENCH_A)!r}, '--pipeline', {pipeline!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("pipeline,hidden", [("fgh", False), ("compare", False),
                                             ("fgh", True), ("compare", True)],
                         ids=["fgh", "compare", "fgh-hidden", "compare-hidden"])
def test_cli_fgh_routes_load_no_scipy(tmp_path, pipeline, hidden):
    # the FGH eigensolve calls the OpenBLAS that numpy bundles and has already loaded, and
    # with that library hidden it falls back to numpy's eigh: neither loads scipy
    if semibound.fgh._numpy_openblas() is None and not hidden:
        pytest.skip("this numpy bundles no libscipy_openblas64_*: the eigensolve uses eigh")
    code = ("import os, sys; import semibound.fgh; from semibound.cli import main; "
            + ("semibound.fgh._numpy_openblas = lambda: None; " if hidden else "") +
            f"rc = main(['solve', '--config', {str(BENCH_A)!r}, '--pipeline', {pipeline!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "maps = '/proc/self/maps'; "
            "maps = open(maps).read().split() if os.path.exists(maps) else []; "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "sorted({f for f in maps if 'scipy.libs' + os.sep in f}))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 [] []"


def test_cli_validate_imports_no_scipy():
    # validate checks the config and the kinetic law, and loads no scipy module
    code = ("import sys; from semibound.cli import main; "
            f"rc = main(['validate', '--config', {str(BENCH_A)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
