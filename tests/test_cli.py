import json
from pathlib import Path

import numpy as np
import pytest

import semibound.wkbj
from semibound.cli import main, parse_config, run_solve, validate
from semibound.errors import ConfigError, QuadratureNotConverged

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


def test_exit_code_1_on_solver_error(tmp_path):
    # even n_points triggers OddGridRequired inside the fgh pipeline
    path = write_config(tmp_path, """
problem:
  kinetic: {kind: nonrelativistic, m: 1.0}
  potential: {kind: harmonic, mass: 1.0, omega: 1.0}
states: [0]
fgh: {n_points: 256, n_states: 2}
""")
    assert main(["solve", "--config", str(path), "--pipeline", "fgh",
                 "--out", str(tmp_path / "x")]) == 1


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


def test_byte_identical_reruns(tmp_path):
    path = write_config(tmp_path, OSCILLATOR_YAML)
    for sub in ("r1", "r2"):
        assert main(["solve", "--config", str(path), "--pipeline", "compare",
                     "--out", str(tmp_path / sub)]) == 0
    f1 = sorted((tmp_path / "r1").iterdir())
    f2 = sorted((tmp_path / "r2").iterdir())
    assert [p.name for p in f1] == [p.name for p in f2]
    for p1, p2 in zip(f1, f2):
        assert p1.read_bytes() == p2.read_bytes()
