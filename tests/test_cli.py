import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import semibound.classical
import semibound.kinetics
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
])
def test_parse_errors(tmp_path, snippet, fragment):
    path = write_config(tmp_path, snippet)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert fragment in str(err.value)


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
    "wkbj": ("n,energy_wkbj,alpha,action_residual,a,b", "x,rho_wkbj,rho_wkbj_averaged",
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


@pytest.mark.parametrize("pipeline", ["classical", "compare"])
def test_period_computed_once_per_level(tmp_path, monkeypatch, pipeline):
    energies = []
    original = semibound.classical.period

    def counting(problem, E, *args, **kwargs):
        energies.append(E)
        return original(problem, E, *args, **kwargs)

    monkeypatch.setattr(semibound.classical, "period", counting)
    cfg = parse_config(BENCH_A)
    run_solve(cfg, pipeline, out_dir=tmp_path / "out")
    assert len(energies) == len(set(energies)) == len(cfg.states)


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
    ("fgh", 13, 0), ("fgh", 11, 2), ("compare", 17, 0), ("compare", 15, 2)])
def test_grid_size_counts_solved_states(tmp_path, pipeline, points, rc):
    # fgh solves n_states = 6 and drops state 7; compare widens to 8 states
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


def test_exit_code_2_on_no_fgh_states(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_GRID_YAML.replace("STATES", "[0]")
                        .replace("POINTS", "65").replace("n_states: 6", "n_states: 0"))
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 2
    assert "fgh.n_states" in capsys.readouterr().err


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
    "n_points-text": ("fgh.n_points", "many", 2, 2, "'many'"),
    "box-text": ("fgh.box", ["a", "b"], 2, 2, "'a'"),
    "fgh-not-mapping": ("fgh", 5, 2, 2, "int"),
    "hbar-text": ("problem.hbar", "abc", 2, 2, "'abc'"),
    "hbar-zero": ("problem.hbar", 0, 2, 2, "problem.hbar"),
    "hbar-infinite": ("problem.hbar", float("inf"), 2, 2, "problem.hbar"),
    "mass-text": ("problem.kinetic.m", "abc", 2, 2, "'abc'"),
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
