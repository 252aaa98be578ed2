"""Command-line front end: declarative YAML configs driving the four pipelines.

    semibound solve --config run.yaml --pipeline compare [--out DIR]
    semibound validate --config run.yaml

Exit codes of both commands: 0 success, 1 solver error, 2 config
parse/validation error (including an FGH grid with no states or too few points
for them), 3 kinetic law that cannot be built or fails admissibility.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import classical, compare, fgh, kinetics, potentials, wkbj
from .errors import ConfigError, SemiboundError



class LawValidationFailure(SemiboundError):
    """Configured kinetic law failed the admissibility checks."""

    def __init__(self, report: "kinetics.ValidationReport"):
        super().__init__(report.summary())
        self.report = report

KINETIC_KINDS = {
    "nonrelativistic": (kinetics.nonrelativistic, ("m",)),
    "relativistic": (kinetics.relativistic, ("m",)),
    "massless": (kinetics.massless, ()),
}

POTENTIAL_KINDS = {
    "linear": (potentials.linear, ("lambda",)),
    "harmonic": (potentials.harmonic, ("mass", "omega")),
    "power": (potentials.power, ("c", "q")),
}

_PARAM_RENAME = {"lambda": "lam"}


@dataclass
class RunConfig:
    kinetic_kind: str
    kinetic_params: dict
    potential_kind: str
    potential_params: dict
    hbar: float
    states: list
    fgh: fgh.FghConfig
    out_dir: str
    formats: list
    grid_points: int
    p_max: float
    n_samples: int
    echo: dict = field(default_factory=dict)


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
    return mapping[key]


def parse_config(path) -> RunConfig:
    """Load and structurally validate a YAML run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")

    problem = _require(raw, "problem", "")
    kin = _require(problem, "kinetic", "problem")
    pot = _require(problem, "potential", "problem")
    kin_kind = _require(kin, "kind", "problem.kinetic")
    pot_kind = _require(pot, "kind", "problem.potential")
    if kin_kind not in KINETIC_KINDS:
        raise ConfigError(f"problem.kinetic.kind '{kin_kind}' not one of {sorted(KINETIC_KINDS)}")
    if pot_kind not in POTENTIAL_KINDS:
        raise ConfigError(f"problem.potential.kind '{pot_kind}' not one of {sorted(POTENTIAL_KINDS)}")

    states_raw = _require(raw, "states", "")
    if isinstance(states_raw, dict) and "range" in states_raw:
        lo, hi = states_raw["range"]
        states = list(range(int(lo), int(hi) + 1))
    elif isinstance(states_raw, list):
        states = [int(n) for n in states_raw]
    else:
        raise ConfigError("states must be a list of integers or {range: [lo, hi]}")
    if not states or any(n < 0 for n in states):
        raise ConfigError("states must be non-empty with all n >= 0")

    fgh_raw = raw.get("fgh", {}) or {}
    box = fgh_raw.get("box", "auto")
    if box != "auto" and box is not None:
        if not (isinstance(box, (list, tuple)) and len(box) == 2):
            raise ConfigError("fgh.box must be 'auto' or [x_min, x_max]")
        box = (float(box[0]), float(box[1]))
    fgh_cfg = fgh.FghConfig(
        n_points=int(fgh_raw.get("n_points", 513)),
        box=box if box is not None else "auto",
        n_states=int(fgh_raw.get("n_states", max(states) + 1)),
    )

    outputs = raw.get("outputs", {}) or {}
    formats = outputs.get("formats", ["csv", "json"])
    if not set(formats) <= {"csv", "json"}:
        raise ConfigError(f"outputs.formats must be a subset of [csv, json], got {formats}")

    validation = raw.get("validation", {}) or {}

    return RunConfig(
        kinetic_kind=kin_kind,
        kinetic_params={k: v for k, v in kin.items() if k != "kind"},
        potential_kind=pot_kind,
        potential_params={k: v for k, v in pot.items() if k != "kind"},
        hbar=float(problem.get("hbar", 1.0)),
        states=states,
        fgh=fgh_cfg,
        out_dir=str(outputs.get("directory", "out")),
        formats=list(formats),
        grid_points=int(outputs.get("grid_points", classical.DEFAULT_GRID_POINTS)),
        p_max=float(validation.get("p_max", 5.0)),
        n_samples=int(validation.get("n_samples", 2048)),
        echo=raw,
    )


def _build(kind: str, params: dict, registry: dict):
    builder, allowed = registry[kind]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)} for kind '{kind}'")
    kwargs = {_PARAM_RENAME.get(k, k): float(v) for k, v in params.items()}
    return builder(**kwargs)


def build_problem(config: RunConfig) -> kinetics.BoundStateProblem:
    """Instantiate the physical system; parameter errors raise ValueError."""
    law = _build(config.kinetic_kind, config.kinetic_params, KINETIC_KINDS)
    pot = _build(config.potential_kind, config.potential_params, POTENTIAL_KINDS)
    return kinetics.BoundStateProblem(kinetic=law, potential=pot, hbar=config.hbar)


def _admissibility(law: kinetics.KineticLaw, config: RunConfig) -> kinetics.ValidationReport:
    samples = np.linspace(-config.p_max, config.p_max, config.n_samples)
    return kinetics.validate_admissibility(law, samples)


def validate(config: RunConfig) -> kinetics.ValidationReport:
    """Admissibility checks for the configured kinetic law (never writes files)."""
    return _admissibility(_build(config.kinetic_kind, config.kinetic_params, KINETIC_KINDS),
                          config)


def _states_doc(config: RunConfig, rows: list) -> dict:
    """JSON document of a per-state pipeline: its rows with energy_* named energy."""
    return {"config": config.echo, "states": [
        {("energy" if k.startswith("energy_") else k): v for k, v in row.items()}
        for row in rows]}


def _classical(problem, config: RunConfig, ns: list) -> tuple:
    rows, densities = [], []
    for n in ns:
        state = wkbj.quantize(problem, n)
        tps = state.turning_points
        tau = classical.period(problem, state.energy, tps)
        densities.append(replace(classical.classical_density(
            problem, state.energy, classical.default_grid(tps, config.grid_points),
            tps, tau), n=n))
        rows.append({"n": n, "energy_wkbj": state.energy, "a": tps.a, "b": tps.b,
                     "d": tps.d, "period": tau})
    return rows, densities, _states_doc(config, rows)


def _wkbj(problem, config: RunConfig, ns: list) -> tuple:
    rows, densities = [], []
    for n in ns:
        state = wkbj.quantize(problem, n)
        tps = state.turning_points
        grid = classical.default_grid(tps, config.grid_points)
        densities.append(wkbj.wkbj_wavefunction(problem, state, grid))
        densities.append(wkbj.wkbj_averaged_density(problem, state, grid))
        rows.append({"n": n, "energy_wkbj": state.energy, "alpha": state.alpha,
                     "action_residual": state.action_residual, "a": tps.a, "b": tps.b})
    return rows, densities, _states_doc(config, rows)


def _fgh(problem, config: RunConfig, ns: list) -> tuple:
    spectrum = fgh.solve(problem, config.fgh)
    ns = [n for n in ns if n < len(spectrum.states)]
    rows = [{"n": n, "energy_fgh": spectrum.states[n].energy} for n in ns]
    densities = [fgh.fgh_density(spectrum, n) for n in ns]
    return rows, densities, _states_doc(config, rows)


def _compare(problem, config: RunConfig, ns: list) -> tuple:
    report, densities = compare.build_report(problem, ns, config.fgh, config_echo=config.echo)
    rows, doc = compare.report_tables(report)
    return rows, densities, doc


#: pipeline -> (summary.csv columns, runner returning (rows, densities, JSON document))
_PIPELINES = {
    "classical": (("n", "energy_wkbj", "a", "b", "d", "period"), _classical),
    "wkbj": (("n", "energy_wkbj", "alpha", "action_residual", "a", "b"), _wkbj),
    "fgh": (("n", "energy_fgh"), _fgh),
    "compare": (compare.SUMMARY_HEADER, _compare),
}
PIPELINES = tuple(_PIPELINES)


def run_solve(config: RunConfig, pipeline: str, out_dir: Optional[str] = None) -> list:
    """Run one pipeline and write its outputs; returns the written paths."""
    if pipeline not in PIPELINES:
        raise ConfigError(f"pipeline must be one of {PIPELINES}, got '{pipeline}'")
    problem = build_problem(config)
    admissibility = _admissibility(problem.kinetic, config)
    if not admissibility.all_passed:
        raise LawValidationFailure(admissibility)
    header, runner = _PIPELINES[pipeline]
    rows, densities, doc = runner(problem, config, sorted(set(config.states)))
    return compare.write_outputs(header, rows, doc, densities, config.formats,
                                 out_dir or config.out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semibound",
        description="1D bound states for arbitrary kinetic laws: classical, WKBJ and FGH routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a pipeline and write output files")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--pipeline", required=True, choices=PIPELINES)
    p_solve.add_argument("--out", default=None, help="override outputs.directory")

    p_val = sub.add_parser("validate", help="check the configured kinetic law")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            report = validate(config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"kinetic law construction failed: {exc}")
            return 3
        print(report.summary())
        return 0 if report.all_passed else 3

    try:
        written = run_solve(config, args.pipeline, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LawValidationFailure as exc:
        print(exc.report.summary(), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except SemiboundError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
