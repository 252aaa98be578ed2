"""Quantitative comparison of classical, WKBJ and Fourier-grid results.

Produces per-state eigenvalue error tables, density distances (L1 and
interior sup-norm) and deterministic CSV/JSON exports. Quantum densities are
smoothed with a boxcar whose width follows the local de Broglie oscillation
period (`debroglie_average`), since a fixed window cannot track the
oscillation period growing toward the turning points.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .classical import SampledDensity, classical_density, momentum_field
from .errors import ConfigError, GridMismatch, GridTooCoarse, StateRangeMismatch
from .fgh import FghConfig, Spectrum, fgh_density, padded_box, solve
from .kinetics import BoundStateProblem
from .potentials import turning_points
from .wkbj import WkbjState, quantize, wkbj_wavefunction

#: fraction of d excluded at each turning point by the interior sup-norm
SUP_MARGIN = 0.02
#: cap on the adaptive averaging window, as a fraction of d
MAX_WINDOW_FRACTION = 0.5


@dataclass(frozen=True)
class StateComparison:
    n: int
    energy_fgh: float
    energy_wkbj: float
    relative_error: float
    alpha: float


@dataclass(frozen=True)
class DensityMetrics:
    n: int
    l1_classical_vs_fgh_averaged: float
    sup_interior_classical_vs_fgh_averaged: float


@dataclass(frozen=True)
class ComparisonReport:
    per_state: tuple
    density_metrics: tuple = ()


def compare_spectra(fgh_spectrum: Spectrum, wkbj_states: Iterable[WkbjState]) -> ComparisonReport:
    """Per-state relative eigenvalue errors |E_fgh - E_wkbj| / |E_fgh|."""
    rows = []
    n_available = len(fgh_spectrum.states)
    for state in sorted(wkbj_states, key=lambda s: s.n):
        if state.n >= n_available:
            raise StateRangeMismatch(
                f"WKBJ state n={state.n} beyond FGH spectrum ({n_available} states)")
        e_fgh = fgh_spectrum.states[state.n].energy
        rows.append(StateComparison(
            n=state.n,
            energy_fgh=e_fgh,
            energy_wkbj=state.energy,
            relative_error=abs(e_fgh - state.energy) / abs(e_fgh),
            alpha=state.alpha,
        ))
    return ComparisonReport(per_state=tuple(rows))


def _uniform_spacing(grid: np.ndarray) -> float:
    dx = np.diff(grid)
    if dx.size == 0 or not np.allclose(dx, dx[0], rtol=1e-9):
        raise ValueError("density grid must be uniform")
    return float(dx[0])


def _masked_boxcar(values: np.ndarray, half_widths: np.ndarray) -> np.ndarray:
    """Mean of the finite samples in [i-h_i, i+h_i] for every i."""
    finite = np.isfinite(values)
    vals = np.where(finite, values, 0.0)
    csum = np.concatenate([[0.0], np.cumsum(vals)])
    ccnt = np.concatenate([[0], np.cumsum(finite.astype(int))])
    n = len(values)
    lo = np.maximum(np.arange(n) - half_widths, 0)
    hi = np.minimum(np.arange(n) + half_widths, n - 1)
    counts = ccnt[hi + 1] - ccnt[lo]
    out = np.full(n, np.nan)
    ok = counts > 0
    out[ok] = (csum[hi + 1] - csum[lo])[ok] / counts[ok]
    return out


def debroglie_average(problem: BoundStateProblem, energy: float,
                      density: SampledDensity) -> SampledDensity:
    """Moving average matched to the local density-oscillation period.

    The squared WKBJ wavefunction oscillates with spatial period
    pi*hbar / T^-1(E - V(x)); averaging over exactly that window removes the
    oscillation everywhere it is resolved. The width is capped at
    MAX_WINDOW_FRACTION * d, the width outside (a, b) too, where p = 0 and
    no period is defined. The result is renormalized to unit integral.
    """
    tps = density.support or turning_points(problem, energy)
    dx = _uniform_spacing(density.grid)

    p = momentum_field(problem, energy)(density.grid)
    widths = np.minimum(np.pi * problem.hbar / np.maximum(p, 1e-300),
                        MAX_WINDOW_FRACTION * tps.d)
    half = (widths / (2.0 * dx)).astype(int)
    smoothed = _masked_boxcar(density.values, half)
    return replace(density, values=smoothed / replace(density, values=smoothed).integral())


def density_distance(d1: SampledDensity, d2: SampledDensity,
                     metric: str = "L1") -> float:
    """L1 = dx * sum |rho1 - rho2| over the support overlap, or interior sup-norm.

    Samples where either density is non-finite (turning-point sentinels) are
    excluded. The sup-norm drops a margin of 2% of d at each turning point.
    A grid with fewer than two such samples in the region, too coarse to
    resolve it, raises GridTooCoarse, naming the state and the grid spacing.
    """
    g1, g2 = d1.grid, d2.grid
    if g1.shape != g2.shape or np.max(np.abs(g1 - g2)) > 1e-12 * max(1.0, np.max(np.abs(g1))):
        raise GridMismatch("densities are tabulated on different grids")
    dx = _uniform_spacing(g1)
    finite = np.isfinite(d1.values) & np.isfinite(d2.values)

    supports = [d.support for d in (d1, d2) if d.support is not None]
    if supports:
        a = max(s.a for s in supports)
        b = min(s.b for s in supports)
    else:
        a, b = g1[0], g1[-1]

    if metric == "L1":
        lo, hi = a, b
    elif metric == "sup_interior":
        margin = SUP_MARGIN * (b - a)
        lo, hi = a + margin, b - margin
    else:
        raise ValueError(f"unknown metric {metric!r}")
    mask = finite & (g1 >= lo) & (g1 <= hi)
    if np.count_nonzero(mask) < 2:
        n = d1.n if d1.n is not None else d2.n
        raise GridTooCoarse(f"state n={n}: fewer than 2 grid samples where both densities are finite "
                            f"in [{lo:.6g}, {hi:.6g}], the {metric} region, at grid spacing "
                            f"dx = {dx:.6g}; a finer or narrower FGH grid is needed")
    diff = np.abs(d1.values[mask] - d2.values[mask])
    return float(dx * np.sum(diff)) if metric == "L1" else float(np.max(diff))


def build_report(problem: BoundStateProblem, ns: Sequence[int], fgh_config: FghConfig):
    """Full comparison pipeline: spectra, densities on the FGH grid, metrics.

    Returns (report, densities): the densities are the per-state classical,
    WKBJ and FGH distributions tabulated on the shared FGH grid, ready for
    export. Classical and WKBJ curves are evaluated at the WKBJ energy; the
    smoothed-FGH metric uses each FGH state's own energy.
    """
    ns = sorted(set(ns))
    wkbj_states = quantize(problem, ns)
    cfg = fgh_config.covering(ns)
    top = wkbj_states[-1]
    tps = top.turning_points
    if cfg.box == "auto" and top.n == cfg.n_states - 1:
        # the auto box comes from this very level: reuse its turning points
        cfg = replace(cfg, box=padded_box(tps))
    elif cfg.box != "auto" and not cfg.box[0] <= tps.a < tps.b <= cfg.box[1]:
        # in a single well the top state's classical region holds every other one
        raise ConfigError(f"fgh.box {list(cfg.box)} does not contain the classical region "
                          f"[{tps.a:.6g}, {tps.b:.6g}] of state n={top.n}")
    spectrum = solve(problem, cfg)
    report = compare_spectra(spectrum, wkbj_states)

    densities = []
    metrics = []
    for state in wkbj_states:
        rho_fgh = fgh_density(spectrum, state.n)
        rho_cl = replace(
            classical_density(problem, state.energy, grid=spectrum.grid,
                              tps=state.turning_points),
            n=state.n)
        rho_wkbj = wkbj_wavefunction(problem, state, grid=spectrum.grid)
        e_fgh = spectrum.states[state.n].energy
        rho_fgh_avg = debroglie_average(problem, e_fgh, rho_fgh)
        metrics.append(DensityMetrics(
            n=state.n,
            l1_classical_vs_fgh_averaged=density_distance(rho_cl, rho_fgh_avg, "L1"),
            sup_interior_classical_vs_fgh_averaged=density_distance(
                rho_cl, rho_fgh_avg, "sup_interior"),
        ))
        densities.extend([rho_cl, rho_wkbj, rho_fgh])

    return replace(report, density_metrics=tuple(metrics)), densities


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_csv(path: Path, header: Sequence[str], table: np.ndarray) -> Path:
    """The header line, then one CSV row per row of a 2-D float table.

    One %-format renders every cell with 17 significant digits (an integer
    exactly as str writes it); the non-finite ones, which it spells inf,
    -inf or nan (tokens no finite cell contains), then become null.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"
    text = (row * len(table)) % tuple(table.ravel().tolist())
    for token in ("-inf", "inf", "nan"):
        text = text.replace(token, "null")
    path.write_text(",".join(header) + "\n" + text, encoding="utf-8")
    return path


def _by_state(densities: Sequence[SampledDensity]) -> list:
    """(n, densities of state n) pairs in ascending n, each state's densities on one grid.

    A density without a state (n None) raises ValueError; the densities of
    one state on different grids raise GridMismatch.
    """
    by_state = {}
    for rho in densities:
        if rho.n is None:
            raise ValueError(f"a {rho.provenance.value} density without a state n has no "
                             f"density table; give it one with dataclasses.replace(rho, n=...)")
        by_state.setdefault(rho.n, []).append(rho)
    for n, group in by_state.items():
        if not all(np.array_equal(rho.grid, group[0].grid) for rho in group[1:]):
            raise GridMismatch(f"the densities of state n={n} are tabulated on different grids")
    return sorted(by_state.items())


def write_density_tables(densities: Sequence[SampledDensity],
                         out_dir: Union[str, Path]) -> list:
    """One CSV per quantum number with an x column plus one column per route.

    The densities of one state must share a grid; any other raises GridMismatch.
    A density without a state (n None) has no table and raises ValueError.
    Every density is checked before the first table is written.
    """
    out = Path(out_dir)
    return [_write_csv(out / f"density_n{n:03d}.csv",
                       ["x"] + [rho.provenance.value for rho in group],
                       np.column_stack([group[0].grid] + [rho.values for rho in group]))
            for n, group in _by_state(densities)]


def write_outputs(rows: Sequence[dict], doc: dict, densities: Sequence[SampledDensity],
                  formats: Iterable[str], out_dir: Union[str, Path]) -> list:
    """The one writer of every pipeline; returns the written paths.

    csv: summary.csv (the first row's keys as the header, then each row's
    cells in that order; a row lacking a column raises KeyError) and one
    density table per state, all through one %-format; json: report.json
    holding doc. No rows, or formats that are a string, empty or not drawn
    from csv and json, raise ValueError. Every refusal comes before the first
    write, so a refused call leaves out_dir as it found it. Output is
    bit-deterministic for identical inputs: floats are written with 17
    significant digits and non-finite sentinels, and missing (None) summary
    cells, as null.
    """
    if not rows:
        raise ValueError("write_outputs needs at least one summary row")
    chosen = set() if isinstance(formats, str) else set(formats)
    if not chosen or not chosen <= {"csv", "json"}:
        raise ValueError(f"formats must be a non-empty collection of csv and json, got {formats!r}")
    if "csv" in chosen:
        header = list(rows[0])
        table = np.array([[row[c] for c in header] for row in rows], dtype=float)
        _by_state(densities)  # refuses a bad density before summary.csv is written
    if "json" in chosen:
        text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in chosen:
        written.append(_write_csv(out / "summary.csv", header, table))
        written.extend(write_density_tables(densities, out))
    if "json" in chosen:
        path = out / "report.json"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def report_tables(report: ComparisonReport) -> tuple:
    """(summary rows, JSON document) of a report.

    Each row holds the StateComparison fields, then the DensityMetrics fields
    other than n; a state without density metrics gets None in those.
    """
    per_state = [asdict(r) for r in report.per_state]
    metrics = [asdict(m) for m in report.density_metrics]
    by_n = {m["n"]: m for m in metrics}
    names = [f.name for f in fields(DensityMetrics) if f.name != "n"]
    rows = [{**r, **{k: by_n.get(r["n"], {}).get(k) for k in names}} for r in per_state]
    return rows, {"per_state": per_state, "density_metrics": metrics}


def export(report: ComparisonReport, densities: Sequence[SampledDensity],
           formats: Iterable[str], out_dir: Union[str, Path]) -> list:
    """Write a comparison report and its densities through `write_outputs`.

    A report with no states, or a density without a state n, raises ValueError.
    """
    return write_outputs(*report_tables(report), densities, formats, out_dir)
