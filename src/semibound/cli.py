"""Command-line front end: declarative YAML configs driving the four pipelines.

    semibound solve --config run.yaml --pipeline compare [--out DIR]
    semibound validate --config run.yaml

Exit codes are the `exit_code` of the error type raised: 0 success, 1 solver error,
2 config error (malformed or out-of-range values, bad potential parameters, an even FGH
grid or an FGH box or grid that cannot hold the states or resolve their densities), 3
kinetic law that cannot be built or is inadmissible.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, suppress
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

#: libyaml's safe loader where PyYAML was built with it (about 5x faster), else the Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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


def _int(value, where: str) -> int:
    """A YAML integer that is not a bool; anything else is a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _float(value, where: str) -> float:
    """A YAML number or numeric string (PyYAML reads 1e-3 as one); else a ConfigError naming it."""
    if not isinstance(value, bool):
        with suppress(TypeError, ValueError):
            return float(value)
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _known(section, keys: tuple, where: str = "") -> dict:
    """section as a dict ({} when absent or null); a key not in keys is a ConfigError naming it."""
    section = dict(section or {})
    unknown = [f"{where}{k}" for k in section if k not in keys]
    if unknown:
        raise ConfigError(f"unknown fields {unknown}, expected some of {list(keys)}")
    return section


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
    _known(section, ("kind",) + registry[kind][1], f"problem.{key}.")
    return kind, {k: _float(v, f"problem.{key}.{k}") for k, v in section.items() if k != "kind"}


def parse_config(path) -> RunConfig:
    """Load and validate a YAML run configuration; any bad value raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")

    with _raise_as(ConfigError):
        _known(raw, ("problem", "states", "fgh", "outputs", "validation"))
        problem = _require(raw, "problem", "")
        kin_kind, kinetic_params = _law_params(problem, "kinetic", KINETIC_KINDS)
        pot_kind, potential_params = _law_params(problem, "potential", POTENTIAL_KINDS)
        _known(problem, ("kinetic", "potential", "hbar"), "problem.")
        hbar = _float(problem.get("hbar", 1.0), "problem.hbar")
        if not 0 < hbar < np.inf:
            raise ConfigError(f"problem.hbar must be positive and finite, got {hbar}")

        states_raw = _require(raw, "states", "")
        if isinstance(states_raw, dict):
            lo, hi = _require(_known(states_raw, ("range",), "states."), "range", "states")
            states = list(range(_int(lo, "states.range"), _int(hi, "states.range") + 1))
        elif isinstance(states_raw, list):
            states = [_int(n, "states") for n in states_raw]
        else:
            raise ConfigError("states must be a list of integers or {range: [lo, hi]}")
        if not states or any(n < 0 for n in states):
            raise ConfigError("states must be non-empty with all n >= 0")

        fgh_raw = _known(raw.get("fgh"), ("n_points", "box", "n_states"), "fgh.")
        box = "auto" if fgh_raw.get("box") is None else fgh_raw["box"]  # YAML null is auto
        if isinstance(box, list):  # PyYAML reads 1e1 as a string
            box = [_float(end, "fgh.box") for end in box]
        fgh_cfg = fgh.FghConfig(**{**fgh_raw, "box": box,
                                   "n_states": fgh_raw.get("n_states", max(states) + 1)})

        outputs = _known(raw.get("outputs"), ("directory", "formats", "grid_points"), "outputs.")
        formats = outputs.get("formats", ["csv", "json"])
        if not isinstance(formats, list) or not formats or any(
                f not in ("csv", "json") for f in formats):
            raise ConfigError(f"outputs.formats must be a non-empty list drawn from [csv, json], "
                              f"got {formats!r}")
        out_dir = outputs.get("directory", "out")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError(f"outputs.directory must be a non-empty string, got {out_dir!r}")
        grid_points = _int(outputs.get("grid_points", classical.DEFAULT_GRID_POINTS),
                           "outputs.grid_points")
        if grid_points < 3:  # the fewest that put a sample inside the padded well
            raise ConfigError(f"outputs.grid_points must be >= 3, got {grid_points}")

        validation = _known(raw.get("validation"), ("p_max", "n_samples"), "validation.")
        p_max = _float(validation.get("p_max", 5.0), "validation.p_max")
        n_samples = _int(validation.get("n_samples", 2048), "validation.n_samples")
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
            out_dir=out_dir,
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


def _states_doc(rows: list) -> dict:
    """JSON document of a per-state pipeline: its rows with energy_* named energy."""
    return {"states": [{("energy" if k.startswith("energy_") else k): v for k, v in row.items()}
                       for row in rows]}


def _classical(problem, config: RunConfig, ns: list) -> tuple:
    rows, densities = [], []
    for n, state in zip(ns, wkbj.quantize(problem, ns)):
        tps = state.turning_points
        tau = classical.period(problem, state.energy, tps)
        densities.append(replace(classical.classical_density(
            problem, state.energy, classical.default_grid(tps, config.grid_points),
            tps, tau), n=n))
        rows.append({"n": n, "energy_wkbj": state.energy, "a": tps.a, "b": tps.b,
                     "d": tps.d, "period": tau})
    return rows, densities, _states_doc(rows)


def _wkbj(problem, config: RunConfig, ns: list) -> tuple:
    rows, densities = [], []
    for n, state in zip(ns, wkbj.quantize(problem, ns)):
        tps = state.turning_points
        grid = classical.default_grid(tps, config.grid_points)
        densities.append(wkbj.wkbj_wavefunction(problem, state, grid))
        rows.append({"n": n, "energy_wkbj": state.energy, "alpha": state.alpha,
                     "action_residual": state.action_residual, "a": tps.a, "b": tps.b})
    return rows, densities, _states_doc(rows)


def _fgh(problem, config: RunConfig, ns: list) -> tuple:
    spectrum = fgh.solve(problem, config.fgh.covering(ns))
    rows = [{"n": n, "energy_fgh": spectrum.states[n].energy} for n in ns]
    densities = [fgh.fgh_density(spectrum, n) for n in ns]
    return rows, densities, _states_doc(rows)


def _compare(problem, config: RunConfig, ns: list) -> tuple:
    report, densities = compare.build_report(problem, ns, config.fgh)
    rows, doc = compare.report_tables(report)
    return rows, densities, doc


#: pipeline -> runner returning (summary rows, densities, JSON document); the keys of
#: the rows are the summary.csv columns
_PIPELINES = {"classical": _classical, "wkbj": _wkbj, "fgh": _fgh, "compare": _compare}
PIPELINES = tuple(_PIPELINES)


def run_solve(config: RunConfig, pipeline: str, out_dir: Optional[str] = None) -> list:
    """Run one pipeline, writing into out_dir (None: config.out_dir); returns the paths.

    out_dir is created before the pipeline runs; one that cannot be is a ConfigError.
    """
    if pipeline not in PIPELINES:
        raise ConfigError(f"pipeline must be one of {PIPELINES}, got '{pipeline}'")
    out_dir = config.out_dir if out_dir is None else out_dir
    if out_dir == "":
        raise ConfigError("outputs.directory must be a non-empty string, got ''")
    problem = build_problem(config)
    _admissibility(problem.kinetic, config)
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    rows, densities, doc = _PIPELINES[pipeline](problem, config, sorted(set(config.states)))
    return compare.write_outputs(rows, {"config": config.echo, **doc}, densities,
                                 config.formats, out_dir)


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
