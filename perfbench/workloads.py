"""The four benchmark workloads: inputs made from a seed, one solve, and its output check.

Each workload writes its generated inputs into a scratch directory, solves
into a fresh output directory per call, and checks the files it finds there.
The default seed reproduces the committed configs exactly; any other seed
scales the physical parameters by a factor drawn from [1 - JITTER, 1 + JITTER],
which keeps every workload's dominant layer in place.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import yaml

import semibound
import semibound.cli

DEFAULT_SEED = 0
#: half-width of the relative jitter applied to lambda, m and the quartic coefficient
JITTER = 0.02
#: acceptance bands for benchmark A: the error at n must lie in [ref/3, 3*ref]
BANDS_A = {0: 1e-1, 5: 1e-3, 15: 1e-4}
#: validation sampling of the library workload, equal to the committed configs
P_MAX, N_SAMPLES = 5.0, 2048


class CheckFailed(Exception):
    """A solve's outputs are missing, malformed or outside their bounds."""


def read_summary(out: Path) -> Dict[int, dict]:
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        return {int(row["n"]): {k: float("nan") if v == "null" else float(v)
                                for k, v in row.items() if k != "n"}
                for row in csv.DictReader(fh)}


def file_digests(out: Path) -> Dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def require_decreasing(errors: Dict[int, float], label: str = "") -> None:
    ns = sorted(errors)
    for n1, n2 in zip(ns, ns[1:]):
        if not errors[n2] < errors[n1]:
            raise CheckFailed(f"{label}relative error does not decrease from n={n1} "
                              f"({errors[n1]:.3e}) to n={n2} ({errors[n2]:.3e})")


@dataclass
class Workload:
    """One workload bound to a seed: its generated inputs and what its outputs must show."""

    name: str
    seed: int
    states: List[int] = field(default_factory=list)
    config_path: Optional[Path] = None
    pipeline: str = ""
    problem: Optional[semibound.BoundStateProblem] = None
    #: precomputed energies of the route the solve does not compute, by n
    reference: Dict[int, float] = field(default_factory=dict)

    def solve(self, out: Path) -> None:
        """One closed-loop request; raises CheckFailed on a non-zero exit."""
        if self.pipeline:
            code = semibound.cli.main(["solve", "--config", str(self.config_path),
                                       "--pipeline", self.pipeline, "--out", str(out)])
            if code != 0:
                raise CheckFailed(f"semibound solve exited with code {code}")
        else:
            report, densities = semibound.compare.build_report(
                self.problem, self.states, semibound.FghConfig(n_points=513))
            semibound.compare.export(report, densities, ["csv", "json"], out)

    def check(self, out: Path) -> Dict[str, str]:
        """Validate the files of one solve; returns their SHA-256 digests."""
        names = sorted(p.name for p in out.iterdir())
        expected = sorted(["summary.csv", "report.json"]
                          + [f"density_n{n:03d}.csv" for n in self.states])
        if names != expected:
            raise CheckFailed(f"output files {names}, expected {expected}")
        summary = read_summary(out)
        if sorted(summary) != self.states:
            raise CheckFailed(f"summary lists states {sorted(summary)}, expected {self.states}")
        if self.name == "fgh_fine":
            fgh = {n: row["energy_fgh"] for n, row in summary.items()}
            errors = {n: abs(fgh[n] - self.reference[n]) / abs(fgh[n]) for n in fgh}
        elif self.name == "sweep":
            fgh = self.reference
            errors = {n: abs(fgh[n] - row["energy_wkbj"]) / abs(fgh[n])
                      for n, row in summary.items()}
        else:
            errors = {n: row["relative_error"] for n, row in summary.items()}
        if self.name == "sweep":
            # FGH alternates parity around the WKBJ level, so the error falls
            # monotonically within the even and within the odd states
            for parity in (0, 1):
                require_decreasing({n: e for n, e in errors.items() if n % 2 == parity},
                                   f"parity {parity}: ")
        else:
            require_decreasing(errors)
        if self.name == "paper_a" and self.seed == DEFAULT_SEED:
            for n, ref in BANDS_A.items():
                if not ref / 3 <= errors[n] <= 3 * ref:
                    raise CheckFailed(f"n={n}: error {errors[n]:.3e} outside the band "
                                      f"[{ref / 3:.1e}, {3 * ref:.1e}]")
        return file_digests(out)


def quartic_law(c: float) -> semibound.KineticLaw:
    """T(p) = p^2/2 + c p^4 given as T alone, so the inverse is synthesized."""
    return semibound.kinetics.from_callable("quartic", lambda p: 0.5 * p * p + c * p ** 4)


def _config(root: Path, base: str, scale: Callable[[], float], **overrides) -> dict:
    doc = yaml.safe_load((root / "configs" / base).read_text(encoding="utf-8"))
    problem = doc["problem"]
    if "m" in problem["kinetic"]:
        problem["kinetic"]["m"] = problem["kinetic"]["m"] * scale()
    problem["potential"]["lambda"] = problem["potential"]["lambda"] * scale()
    doc.update(overrides)
    return doc


def make(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    """Generate the inputs of workload `name` for `seed` under `scratch`."""
    rng = random.Random(seed)

    def scale() -> float:
        return 1.0 if seed == DEFAULT_SEED else 1.0 + rng.uniform(-JITTER, JITTER)

    w = Workload(name=name, seed=seed)
    if name == "user_law":
        c, lam = 0.01 * scale(), 0.2 * scale()
        w.problem = semibound.BoundStateProblem(quartic_law(c), semibound.linear(lam))
        w.states = [0, 5, 15]
        w.config_path = scratch / "user_law.yaml"
        w.config_path.write_text(yaml.safe_dump({"quartic_c": c, "lambda": lam}),
                                 encoding="utf-8")
        return w

    if name == "paper_a":
        doc = _config(root, "benchmark_a.yaml", scale)
        w.pipeline = "compare"
    elif name == "fgh_fine":
        doc = _config(root, "benchmark_b.yaml", scale, states=[0, 31, 63],
                      fgh={"n_points": 2049, "n_states": 64, "box": "auto"})
        w.pipeline = "fgh"
    elif name == "sweep":
        doc = _config(root, "benchmark_b.yaml", scale, states={"range": [0, 63]})
        w.pipeline = "wkbj"
    else:
        raise ValueError(f"unknown workload {name!r}")
    w.config_path = scratch / f"{name}.yaml"
    w.config_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    config = semibound.cli.parse_config(w.config_path)
    w.states = sorted(set(config.states))
    w.problem = semibound.cli.build_problem(config)
    return w


def prepare_reference(w: Workload) -> None:
    """Energies from the route the timed solve skips, computed outside timing."""
    if w.name == "fgh_fine":
        w.reference = {n: semibound.quantize(w.problem, n).energy for n in w.states}
    elif w.name == "sweep":
        spectrum = semibound.solve(w.problem, semibound.FghConfig(
            n_points=1025, n_states=max(w.states) + 1))
        w.reference = {n: spectrum.states[n].energy for n in w.states}


def setup(name: str, config_path: Path) -> None:
    """What every invocation pays before solving: config, problem, admissibility."""
    if name == "user_law":
        params = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        law = quartic_law(params["quartic_c"])
        semibound.BoundStateProblem(law, semibound.linear(params["lambda"]))
        p_max, n_samples = P_MAX, N_SAMPLES
    else:
        config = semibound.cli.parse_config(config_path)
        law = semibound.cli.build_problem(config).kinetic
        p_max, n_samples = config.p_max, config.n_samples
    report = semibound.kinetics.validate_admissibility(
        law, np.linspace(-p_max, p_max, n_samples))
    if not report.all_passed:
        raise CheckFailed(report.summary())
