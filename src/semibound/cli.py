"""Command-line front end: declarative YAML configs driving the four pipelines.

    semibound solve --config run.yaml --pipeline compare [--out DIR]
    semibound validate --config run.yaml

Exit codes are the `exit_code` of the error type raised: 0 success, 1 solver error,
2 config error (malformed or out-of-range values, bad potential parameters, an even FGH
grid or an FGH box or grid that cannot hold the states), 3 kinetic law that cannot be built
or is inadmissible.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import classical, compare, fgh, kinetics, potentials, wkbj
from .errors import ConfigError, InadmissibleLaw, SemiboundError

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


@contextmanager
def _raise_as(error: type, prefix: str = ""):
    """Re-raise a TypeError or ValueError from the block as `error`, prefixing its message."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise error(f"{prefix}{exc}") from exc


def _law_params(problem: dict, key: str, registry: dict) -> tuple:
    """(kind, float parameters) of problem[key]; unknown kinds and parameters are config errors."""
    section = _require(problem, key, "problem")
    kind = _require(section, "kind", f"problem.{key}")
    if kind not in registry:
        raise ConfigError(f"problem.{key}.kind '{kind}' not one of {sorted(registry)}")
    params = {k: float(v) for k, v in section.items() if k != "kind"}
    unknown = set(params) - set(registry[kind][1])
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)} for kind '{kind}'")
    return kind, params


def parse_config(path) -> RunConfig:
    """Load and validate a YAML run configuration; any bad value raises ConfigError."""
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

    with _raise_as(ConfigError):
        problem = _require(raw, "problem", "")
        kin_kind, kinetic_params = _law_params(problem, "kinetic", KINETIC_KINDS)
        pot_kind, potential_params = _law_params(problem, "potential", POTENTIAL_KINDS)
        hbar = float(problem.get("hbar", 1.0))
        if not 0 < hbar < np.inf:
            raise ConfigError(f"problem.hbar must be positive and finite, got {hbar}")

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

        fgh_raw = dict(raw.get("fgh") or {})
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

        outputs = dict(raw.get("outputs") or {})
        formats = list(outputs.get("formats", ["csv", "json"]))
        if not set(formats) <= {"csv", "json"}:
            raise ConfigError(f"outputs.formats must be a subset of [csv, json], got {formats}")
        grid_points = int(outputs.get("grid_points", classical.DEFAULT_GRID_POINTS))
        if grid_points < 3:  # the fewest that put a sample inside the padded well
            raise ConfigError(f"outputs.grid_points must be >= 3, got {grid_points}")

        validation = dict(raw.get("validation") or {})
        p_max = float(validation.get("p_max", 5.0))
        n_samples = int(validation.get("n_samples", 2048))
        if not 0 < p_max < np.inf or n_samples < 4:  # condition C needs 2 positive samples
            raise ConfigError(f"validation needs a finite p_max > 0 and n_samples >= 4, "
                              f"got {p_max} and {n_samples}")

        return RunConfig(
            kinetic_kind=kin_kind,
            kinetic_params=kinetic_params,
            potential_kind=pot_kind,
            potential_params=potential_params,
            hbar=hbar,
            states=states,
            fgh=fgh_cfg,
            out_dir=str(outputs.get("directory", "out")),
            formats=formats,
            grid_points=grid_points,
            p_max=p_max,
            n_samples=n_samples,
            echo=raw,
        )


def _build(kind: str, params: dict, registry: dict):
    return registry[kind][0](**{_PARAM_RENAME.get(k, k): v for k, v in params.items()})


def _law(config: RunConfig) -> kinetics.KineticLaw:
    with _raise_as(InadmissibleLaw, "kinetic law construction failed: "):
        return _build(config.kinetic_kind, config.kinetic_params, KINETIC_KINDS)


def build_problem(config: RunConfig) -> kinetics.BoundStateProblem:
    """The physical system: an unbuildable law is InadmissibleLaw, a potential ConfigError."""
    law = _law(config)
    with _raise_as(ConfigError, "problem: "):
        pot = _build(config.potential_kind, config.potential_params, POTENTIAL_KINDS)
        return kinetics.BoundStateProblem(kinetic=law, potential=pot, hbar=config.hbar)


def _admissibility(law: kinetics.KineticLaw, config: RunConfig) -> kinetics.ValidationReport:
    samples = np.linspace(-config.p_max, config.p_max, config.n_samples)
    report = kinetics.validate_admissibility(law, samples)
    if not report.all_passed:
        raise InadmissibleLaw(report.summary())
    return report


def validate(config: RunConfig) -> kinetics.ValidationReport:
    """Admissibility report of the configured kinetic law; InadmissibleLaw if it fails."""
    return _admissibility(_law(config), config)


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
    _admissibility(problem.kinetic, config)
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
        if args.command == "validate":
            print(validate(config).summary())
            return 0
        written = run_solve(config, args.pipeline, args.out)
    except SemiboundError as exc:
        verdict = isinstance(exc, InadmissibleLaw)
        label = "config error" if isinstance(exc, ConfigError) else type(exc).__name__
        # `validate` reports the law verdict on stdout, failing or not; all else is stderr
        print(exc if verdict else f"{label}: {exc}",
              file=sys.stdout if verdict and args.command == "validate" else sys.stderr)
        return exc.exit_code
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
